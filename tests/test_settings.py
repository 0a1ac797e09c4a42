"""Value computations per setting: enumeration, optimization, sweeps."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from chshstar import cli, game, settings
from chshstar.chsh_lift import normal_form
from chshstar import quantum as q

TSIRELSON = np.cos(np.pi / 8) ** 2


# ---------------------------------------------------------------------------
# Clifford group
# ---------------------------------------------------------------------------

def test_clifford_group_has_24_elements():
    group = settings.clifford_group_d2()
    assert len(group) == 24
    keys = {tuple(np.round(g.flatten().view(float), 9)) for g in group}
    assert len(keys) == 24


def test_clifford_group_is_built_once_and_handed_out_read_only():
    first, second = settings.clifford_group_d2(), settings.clifford_group_d2()
    assert first is not second
    assert all(a is b for a, b in zip(first, second, strict=True))
    assert not any(g.flags.writeable for g in first)
    with pytest.raises(ValueError, match="read-only"):
        first[0][0, 0] = 2.0
    first.pop()
    assert len(settings.clifford_group_d2()) == 24


def test_clifford_group_contains_generators_and_paulis():
    group = settings.clifford_group_d2()
    for named in (q.I2, q.X, q.Z, q.H, q.S):
        assert any(q.matrices_equal_up_to_phase(g, named) for g in group)


def test_clifford_group_closed_under_multiplication():
    group = settings.clifford_group_d2()
    keys = {tuple(np.round(g.flatten().view(float), 9)) for g in group}
    for g1, g2 in itertools.product(group, repeat=2):
        prod = q.phase_canonical(g1 @ g2)
        assert tuple(np.round(prod.flatten().view(float), 9)) in keys


def test_cliffords_permute_pauli_eigenstates():
    group = settings.clifford_group_d2()
    eigenstates = list(q.pauli_eigenstates().values())
    for g in group:
        for ket in eigenstates:
            image = g @ ket
            overlaps = [abs(np.vdot(e, image)) for e in eigenstates]
            assert max(overlaps) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Clifford setting value
# ---------------------------------------------------------------------------

def test_value_clifford():
    result = settings.value_clifford()
    assert result.value == 0.75
    assert result.strategies_examined == 6 * 24 ** 4 * 6
    assert result.quantization_error < 1e-9
    report = game.evaluate(game.GameSpec(2), result.witness)
    assert abs(report.average - result.value) <= 1e-9


def _float_clifford_enumeration():
    """Reference: the Clifford search as a float enumeration of Born-rule averages.

    For every initial eigenstate, measurement axis and outcome labeling, the
    averages of all 24^4 gate tuples (A0, A1, B0, B1) come from the
    probabilities |<axis+|B A|psi0>|^2; each must lie within 1e-9 of the 1/8
    grid.  Returns the averages in eighths, indexed (initial, A0, A1, B0, B1,
    2 * axis + labeling), the first-found maximum in the order (initial,
    axis, labeling, A0, A1, B0, B1) with its location, and the count.
    """
    gate_stack = np.stack(settings.clifford_group_d2())
    eigenstates = q.pauli_eigenstates()
    eighths = np.empty((6, 24, 24, 24, 24, 6), dtype=np.uint8)
    best, best_loc, examined = -1, None, 0
    for si, psi0 in enumerate(eigenstates.values()):
        a_images = np.einsum("gij,j->gi", gate_stack, psi0)
        ba_images = np.einsum("hij,gj->hgi", gate_stack, a_images)
        for ai, axis in enumerate("xyz"):
            e_plus = eigenstates[axis + "+"]
            w = (np.abs(np.einsum("i,hgi->hg", e_plus.conj(), ba_images)) ** 2).T  # (A, B)
            t1, t2 = w[:, None, :, None], w[:, None, None, :]  # (a0, b0), (a0, b1)
            t3, t4 = w[None, :, :, None], w[None, :, None, :]  # (a1, b0), (a1, b1)
            for li, labeling in enumerate(((0, 1), (1, 0))):
                if labeling == (0, 1):
                    avg = (t1 + t2 + t3 + (1.0 - t4)) / 4.0
                else:
                    avg = ((1.0 - t1) + (1.0 - t2) + (1.0 - t3) + t4) / 4.0
                examined += avg.size
                assert np.max(np.abs(avg * 8 - np.round(avg * 8))) <= 1e-9
                block = np.round(avg * 8).astype(np.uint8)
                eighths[si, ..., 2 * ai + li] = block
                if block.max() > best:
                    loc = np.unravel_index(int(np.argmax(block)), block.shape)
                    best, best_loc = int(block.max()), (si, axis, labeling, loc)
    return eighths, best, best_loc, examined


def test_clifford_search_matches_the_float_enumeration(monkeypatch):
    # Every one of the 11,943,936 table-search scores (half-wins) equals the
    # float enumeration's average in eighths, and so do the value, the
    # first-found witness and the count.  The search scores each class
    # (A_0(s0), A_1(s0)) once; expanding the class table by every initial
    # eigenstate's A images gives the score of every strategy.
    calls = []
    search = settings._search_tables

    def recorded(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(settings, "_search_tables", recorded)
    result = settings.value_clifford()
    (args,) = calls
    eighths, best, (si, axis, labeling, gates), examined = _float_clifford_enumeration()
    d, inputs, weights, a_pool, b_pool, n_a, n_b = args
    scores = settings._class_scores(d, inputs, weights, b_pool, n_a, n_b)
    images = np.array(a_pool)  # images[g, s0]: where Clifford g sends eigenstate s0
    expanded = np.stack([scores[images[:, None, s0], images[None, :, s0]] for s0 in range(d)])
    assert expanded.shape == eighths.shape == (6, 24, 24, 24, 24, 6)
    assert np.array_equal(expanded, eighths)
    assert result.value == best / 8 == 0.75
    assert result.strategies_examined == examined == 11943936
    witness, cliffords = result.witness, settings.clifford_group_d2()
    initial = q.State.from_ket(list(q.pauli_eigenstates().values())[si])
    assert np.array_equal(witness.initial.density, initial.density)
    slots = (witness.a_gates[0], witness.a_gates[1], witness.b_gates[0], witness.b_gates[1])
    for channel, g in zip(slots, gates):
        assert np.array_equal(channel.kraus[0], cliffords[g])
    assert witness.measurement.outcome_labels == labeling
    for p, ref in zip(witness.measurement.projectors, q.Measurement.pauli(axis).projectors):
        assert np.array_equal(p, ref)


def test_value_clifford_peak_memory_stays_small():
    # The full-block search held a 331,776 x 6 uint8 block per initial
    # eigenstate and its index arrays (a 6.0 MB peak); the class table has
    # 36 x 576 x 6 entries.
    settings.value_clifford()  # warm numpy's and the interpreter's caches
    tracemalloc.start()
    try:
        settings.value_clifford()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, peak


def test_clifford_search_rejects_overlaps_off_the_grid(monkeypatch):
    # A gate that is not a Clifford sends some eigenstate off the six, so an
    # overlap leaves the {0, 1/2, 1} grid and the search stops.
    group = settings.clifford_group_d2()
    monkeypatch.setattr(settings, "clifford_group_d2", lambda: group[:-1] + [q.T])
    with pytest.raises(settings.ConsistencyError, match=r"\(0, 1/2, 1\) grid"):
        settings.value_clifford()


def test_trivial_strategy_reaches_clifford_value():
    assert game.evaluate(game.GameSpec(2), settings.trivial_strategy()).average == 0.75


# ---------------------------------------------------------------------------
# Classical settings
# ---------------------------------------------------------------------------

def test_value_classical_reversible_d2():
    result = settings.value_classical_reversible(2)
    assert result.value == 0.75
    assert result.strategies_examined == 128
    assert game.evaluate_classical(game.GameSpec(2), result.witness).average == 0.75


def test_value_classical_reversible_d3():
    result = settings.value_classical_reversible(3)
    assert result.value == 1.0
    assert result.strategies_examined == 3 * 6 ** 4 * 8
    report = game.evaluate_classical(game.GameSpec(2), result.witness)
    assert report.average == 1.0
    # Dimension-witness structure: a perfect reversible play must visit three
    # distinct final symbols across the four inputs.
    witness = result.witness
    finals = set()
    for a, b in game.GameSpec(2).input_pairs():
        p0 = np.zeros(3)
        p0[witness.initial] = 1.0
        p = witness.b_gates[b] @ (witness.a_gates[a] @ p0)
        finals.add(int(np.argmax(p)))
    assert len(finals) == 3


def test_value_classical_reversible_rejects_other_dims():
    with pytest.raises(ValueError):
        settings.value_classical_reversible(4)
    # 2.0 once passed the dimension check and raised TypeError later.
    for bad in (2.0, np.float64(3.0), "2"):
        with pytest.raises(ValueError) as raised:
            settings.value_classical_reversible(bad)
        assert str(raised.value) == f"dimension must be an integer, got {bad!r}"
    assert settings.value_classical_reversible(np.int64(2)).value == 0.75


def test_value_classical_irreversible():
    result = settings.value_classical_irreversible()
    assert result.value == 1.0
    assert result.strategies_examined == 2 * 4 ** 4 * 4
    # Exactly one B slot is a constant (erasing) map, the other a bijection.
    constants = []
    for k, m in sorted(result.witness.b_gates.items()):
        images = {int(np.argmax(m[:, j])) for j in range(2)}
        constants.append(len(images) == 1)
    assert constants.count(True) == 1


# ---------------------------------------------------------------------------
# Unitary setting
# ---------------------------------------------------------------------------

def test_retired_optimizer_knobs_are_rejected(capsys):
    # The restart count, L-BFGS-B's ftol and the see-saw's budget are
    # constants: neither the config nor the value command takes them any more.
    for knob in (dict(restarts=64), dict(tolerance=1e-9), dict(max_iterations=1)):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            settings.OptimizerConfig(**knob)
    for flag in (["--restarts", "64"], ["--tolerance", "1e-9"], ["--max-iterations", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["value", "--setting", "unitary", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_optimizer_config_takes_only_non_negative_integers():
    cases = (
        (math.nan, "seed must be an integer, got nan"),
        (math.inf, "seed must be an integer, got inf"),
        ("10", "seed must be an integer, got '10'"),
        (1.5, "seed must be an integer, got 1.5"),
        (np.float64(3.0), "seed must be an integer, got np.float64(3.0)"),
        (-1, "seed must be >= 0, got -1"),
    )
    for seed, message in cases:
        with pytest.raises(ValueError) as raised:
            settings.OptimizerConfig(seed=seed)
        assert str(raised.value) == message
    for seed in (np.int64(3), np.uint16(3)):
        config = settings.OptimizerConfig(seed=seed)
        assert type(config.seed) is int and config == settings.OptimizerConfig(seed=3)


def test_value_unitary_reaches_tsirelson():
    result = settings.value_unitary()
    assert abs(result.value - TSIRELSON) < 1e-6
    assert result.method == "constructed" and result.strategies_examined == 2
    report = game.evaluate(game.GameSpec(2), result.witness)
    assert abs(report.average - result.value) <= 1e-9


def test_value_unitary_never_exceeds_tsirelson():
    # The objective's own number can lie an ulp or two above the bound;
    # the reported value is the exact evaluation of the witness.
    for seed in [*range(1000), 12345, 2 ** 31 - 1]:
        result = settings.value_unitary(settings.OptimizerConfig(seed=seed))
        assert result.value <= math.cos(math.pi / 8) ** 2
        assert result.value == game.evaluate(game.GameSpec(2), result.witness).average


def test_value_unitary_seeded_at_optimum():
    res = settings.minimize(settings._objective, np.array(settings.OPTIMAL_UNITARY_ANGLES))
    value = game.evaluate(game.GameSpec(2), settings._bloch_strategy(res.x)).average
    assert value >= TSIRELSON - 1e-12


def test_initial_state_and_measurement_fold_into_the_normal_form():
    # The reduction behind optimizing the normal form only: with U|+-> =
    # |psi>, |psi_perp> and W|+-> = |e+-> (labels 0, 1), the strategy
    # (|psi>, A_a, B_b, {e+, e-}) has the per-input table of
    # normal_form(A_a U, W^+ B_b).
    rng = np.random.default_rng(53)
    spec = game.GameSpec(2)
    plus_minus = np.stack([q.plus_ket(), q.minus_ket()], axis=1)
    for _ in range(50):
        psi = q.random_unitary(2, rng)
        e = q.random_unitary(2, rng)
        a0, a1, b0, b1 = (q.random_unitary(2, rng) for _ in range(4))
        strategy = game.Strategy(
            initial=q.State.from_ket(psi[:, 0]),
            a_gates={0: q.Channel.unitary(a0), 1: q.Channel.unitary(a1)},
            b_gates={0: q.Channel.unitary(b0), 1: q.Channel.unitary(b1)},
            measurement=q.Measurement.from_basis([e[:, 0], e[:, 1]], labels=(0, 1)),
        )
        u = psi @ plus_minus.conj().T
        w_dagger = plus_minus @ e.conj().T
        folded = normal_form(a0 @ u, a1 @ u, w_dagger @ b0, w_dagger @ b1)
        general = game.evaluate(spec, strategy).per_input
        normal = game.evaluate(spec, folded).per_input
        assert max(abs(general[k] - normal[k]) for k in general) <= 1e-12


def test_bloch_strategy_builds_the_witness():
    rng = np.random.default_rng(59)
    for theta, phi in rng.uniform(0.0, 2 * np.pi, size=(50, 2)):
        ket = settings._bloch_gate(theta, phi) @ q.plus_ket()
        rho = q.projector(ket)
        bloch = [np.trace(rho @ p).real for p in (q.X, q.Y, q.Z)]
        assert np.allclose(bloch, settings._bloch(theta, phi), rtol=0.0, atol=1e-12)
    spec = game.GameSpec(2)
    angles = np.array(settings.OPTIMAL_UNITARY_ANGLES)
    built = game.evaluate(spec, settings._bloch_strategy(angles)).per_input
    optimal = game.evaluate(spec, settings.optimal_unitary_strategy()).per_input
    assert max(abs(built[k] - optimal[k]) for k in optimal) <= 1e-15


def test_value_unitary_takes_no_start_points():
    # One seeded start per call: explicit starts and the restart count are gone.
    with pytest.raises(TypeError, match="initial_points"):
        settings.value_unitary(initial_points=[settings.OPTIMAL_UNITARY_ANGLES])
    assert not hasattr(settings, "UNITARY_RESTARTS")


def test_one_response_each_reaches_tsirelsons_sum():
    # The construction ``minimize`` runs: the B response to any (n_0, n_1) is
    # an orthonormal pair, and the A response to it reaches 2 sqrt(2).
    # Near-antipodal starts (n_1 the antipode of n_0 through its Bloch angles,
    # (pi - theta, phi + pi)) leave n_0 + n_1 a rounding residue; parallel
    # and all-zero starts leave n_0 - n_1 exactly zero.
    rng = np.random.default_rng(83)
    uniform, antipodal, parallel = rng.uniform(0.0, 2 * np.pi, size=(3, 1000, 8))
    antipodal[:, 2], antipodal[:, 3] = np.pi - antipodal[:, 0], antipodal[:, 1] + np.pi
    parallel[:, 2:4] = parallel[:, 0:2]
    spec = game.GameSpec(2)
    bound = math.cos(math.pi / 8) ** 2
    for x0 in [*uniform, *antipodal, *parallel, np.zeros(8)]:
        x = x0.tolist()
        n0, n1 = settings._bloch(x[0], x[1]), settings._bloch(x[2], x[3])
        m0, m1 = settings._best_response(n0, n1)
        assert abs(settings._dot(m0, m1)) <= 1e-15
        reached = sum(math.hypot(*v) for v in settings._sum_and_difference(m0, m1))
        assert abs(reached - 2 * math.sqrt(2)) <= 1e-15
        res = settings.minimize(settings._objective, x0)
        value = game.evaluate(spec, settings._bloch_strategy(res.x)).average
        assert bound - 1.2e-15 <= value <= bound


def _unit(v):
    return tuple(c / np.linalg.norm(v) for c in v)


def test_best_response_beats_perturbed_responses():
    rng = np.random.default_rng(67)
    for _ in range(200):
        u, w = (_unit(rng.normal(size=3)) for _ in range(2))
        r0, r1 = settings._best_response(u, w)
        assert abs(np.linalg.norm(r0) - 1) <= 1e-15 and abs(np.linalg.norm(r1) - 1) <= 1e-15
        plus, minus = settings._sum_and_difference(u, w)
        reached = settings._dot(plus, r0) + settings._dot(minus, r1)
        assert abs(reached - (math.hypot(*plus) + math.hypot(*minus))) <= 1e-15
        for scale in 10.0 ** rng.uniform(-4, 0, size=200):
            p0 = _unit(np.array(r0) + scale * rng.normal(size=3))
            p1 = _unit(np.array(r1) + scale * rng.normal(size=3))
            assert reached >= settings._dot(plus, p0) + settings._dot(minus, p1)


def test_best_response_to_a_parallel_pair_takes_a_fixed_orthogonal_unit():
    # The zero sum or difference gets unit(u x e_k), k the axis of u's smallest component.
    x, z = (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)
    assert settings._best_response(x, x) == (x, z)
    assert settings._best_response(x, (-1.0, 0.0, 0.0)) == (z, x)
    rng = np.random.default_rng(73)
    for _ in range(200):
        u = _unit(rng.normal(size=3))
        minus_u = tuple(-c for c in u)
        k = int(np.argmin(np.abs(u)))
        expected = _unit(np.cross(u, np.eye(3)[k]))
        for w, zero in ((u, 1), (minus_u, 0)):
            pair = settings._best_response(u, w)
            assert np.allclose(pair[zero], expected, rtol=0.0, atol=1e-15)
            assert np.allclose(pair[1 - zero], u, rtol=0.0, atol=1e-15)
            assert abs(settings._dot(pair[0], pair[1])) <= 1e-15


# The antipode of a Bloch vector has the angles (pi - theta, phi + pi), so in
# floats n_1 = -n_0 only up to rounding.
ANTIPARALLEL_START = np.array([1.0, 0.3, np.pi - 1.0, 0.3 + np.pi, 0.2, 0.4, 1.1, 2.0])
PARALLEL_START = np.array([1.0, 0.3, 1.0, 0.3, 0.2, 0.4, 1.1, 2.0])


def test_seesaw_moves_a_start_with_a_zero_sum_or_difference_off_it():
    # n_0 = n_1 exactly (all along z, or equal angles): the B response keeps
    # unit(n_0 + n_1) = n_0 and moves m_1 off the zero difference to the
    # fixed orthogonal unit, and the A response raises the sum to the bound.
    for x0 in (np.zeros(8), PARALLEL_START):
        x = x0.tolist()
        n0, n1 = settings._bloch(x[0], x[1]), settings._bloch(x[2], x[3])
        assert not any(settings._sum_and_difference(n0, n1)[1])
        m0, m1 = settings._best_response(n0, n1)
        assert np.allclose(m0, n0, rtol=0.0, atol=1e-15)
        assert abs(settings._dot(m0, m1)) <= 1e-15
        res = settings.minimize(settings._objective, x0)
        assert not np.array_equal(res.x, x0)
        assert abs(-res.fun - TSIRELSON) <= 1e-15


def test_value_unitary_converges_from_degenerate_starts():
    for x0 in (np.zeros(8), PARALLEL_START, ANTIPARALLEL_START):
        res = settings.minimize(settings._objective, x0)
        value = game.evaluate(game.GameSpec(2), settings._bloch_strategy(res.x)).average
        assert TSIRELSON - 1e-15 <= value <= math.cos(math.pi / 8) ** 2


def _central_gradient(x, h=1e-6):
    """Central differences of ``_objective`` at the 8 angles ``x``."""
    return [(settings._objective(x + step) - settings._objective(x - step)) / (2 * h)
            for step in np.eye(x.size) * h]


def test_minimize_converges_from_degenerate_starts_on_its_own():
    # The end point is Tsirelson's maximum, so the angle gradient vanishes there.
    for x0 in (np.zeros(8), PARALLEL_START, ANTIPARALLEL_START):
        res = settings.minimize(settings._objective, x0)
        assert res.nfev == 1
        assert TSIRELSON - 1e-15 <= -res.fun <= math.cos(math.pi / 8) ** 2
        assert max(abs(g) for g in _central_gradient(res.x)) <= 1e-8


def _recording_minimize(monkeypatch):
    """Patch ``settings.minimize`` to record each call's arguments and result."""
    calls = []
    minimize = settings.minimize

    def recording(fun, x0):
        res = minimize(fun, x0)
        calls.append((fun, x0, res))
        return res

    monkeypatch.setattr(settings, "minimize", recording)
    return calls


def test_value_unitary_hands_each_start_to_minimize(monkeypatch):
    # One ``settings.minimize`` call on ``settings._objective`` per value:
    # perfbench/spans.py wraps ``minimize`` by name (``EXTERNAL``) and its
    # objective as the ``settings.objective`` span that perfbench/layers.py
    # samples, and reads the result's ``fun`` and ``nfev``.
    calls = _recording_minimize(monkeypatch)
    for seed in (3, 12345):
        result = settings.value_unitary(settings.OptimizerConfig(seed=seed))
        (fun, x0, res), = calls
        calls.clear()
        assert fun is settings._objective
        start = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=8)
        assert np.array_equal(x0, start)
        assert type(res.fun) is float and res.fun == settings._objective(res.x)
        assert res.nfev == 1 and result.strategies_examined == 2
        evaluated = game.evaluate(game.GameSpec(2), settings._bloch_strategy(res.x)).average
        assert result.value == evaluated


def test_every_restart_ends_at_a_stationary_fixed_point(monkeypatch):
    # Each seeded start ends at Tsirelson's maximum, where the angle gradient vanishes.
    calls = _recording_minimize(monkeypatch)
    seeds = [*range(1000), 12345, 2 ** 31 - 1]
    for seed in seeds:
        assert settings.value_unitary(settings.OptimizerConfig(seed=seed)).strategies_examined == 2
    assert len(calls) == len(seeds)
    for *_, res in calls:
        assert abs(-res.fun - TSIRELSON) <= 1e-15
        assert max(abs(g) for g in _central_gradient(res.x)) <= 1e-8


def test_objective_is_minus_the_evaluated_average():
    rng = np.random.default_rng(31)
    spec = game.GameSpec(2)
    for _ in range(200):
        angles = rng.uniform(0.0, 2 * np.pi, size=8)
        expected = -game.evaluate(spec, settings._bloch_strategy(angles)).average
        assert abs(settings._objective(angles) - expected) <= 1e-12


def _z_rotation_average(phi_a0, phi_a1, phi_b0, phi_b1):
    """Win average when every gate is diag(1, e^{i phi}): trig oracle.

    State phase on input (a, b) is phi_Aa + phi_Bb; X-measurement gives
    p(+) = (1 + cos(phase)) / 2 and the (1,1) input wants the other outcome.
    """
    c00 = np.cos(phi_a0 + phi_b0)
    c01 = np.cos(phi_a0 + phi_b1)
    c10 = np.cos(phi_a1 + phi_b0)
    c11 = np.cos(phi_a1 + phi_b1)
    return 0.5 + (c00 + c01 + c10 - c11) / 8


def test_z_rotation_oracle_matches_circuit_evaluation():
    rng = np.random.default_rng(5)
    spec = game.GameSpec(2)
    for _ in range(20):
        phis = rng.uniform(0, 2 * np.pi, size=4)
        s = game.Strategy(
            initial=q.State.from_ket(q.plus_ket()),
            a_gates={0: q.Channel.unitary(q.rz(phis[0])), 1: q.Channel.unitary(q.rz(phis[1]))},
            b_gates={0: q.Channel.unitary(q.rz(phis[2])), 1: q.Channel.unitary(q.rz(phis[3]))},
            measurement=q.Measurement.pauli("x"),
        )
        assert game.evaluate(spec, s).average == pytest.approx(
            _z_rotation_average(*phis), abs=1e-12
        )


def test_z_rotation_grid_maximum_is_tsirelson():
    # 16 points per angle (pi/8 spacing) so the pi/4-aligned optimum is on
    # the grid; a coarser grid that misses those angles stays strictly below.
    pts = np.arange(16) * (2 * np.pi / 16)
    a0, a1, b0, b1 = np.meshgrid(pts, pts, pts, pts, indexing="ij")
    grid = _z_rotation_average(a0, a1, b0, b1)
    assert grid.size == 65536
    assert abs(grid.max() - TSIRELSON) <= 1e-12

    coarse = np.arange(10) * (2 * np.pi / 10)
    a0, a1, b0, b1 = np.meshgrid(coarse, coarse, coarse, coarse, indexing="ij")
    assert _z_rotation_average(a0, a1, b0, b1).max() < TSIRELSON - 1e-2


# ---------------------------------------------------------------------------
# Rz(epsilon) family
# ---------------------------------------------------------------------------

def test_sweep_at_quarter_pi_is_tsirelson():
    rows = settings.epsilon_sweep([np.pi / 4])
    _, p_formula, p_circuit = rows[0]
    assert p_formula == pytest.approx(TSIRELSON, abs=1e-12)
    assert p_circuit == pytest.approx(TSIRELSON, abs=1e-12)


def test_sweep_small_epsilon_limit():
    (_, p_formula, _), = settings.epsilon_sweep([1e-6])
    assert p_formula == pytest.approx(0.75, abs=1e-6)


def test_sweep_beats_classical_bound_and_paths_agree():
    rows = settings.epsilon_sweep(settings.uniform_open_grid(101))
    for eps, p_formula, p_circuit in rows:
        assert p_formula > 0.75
        assert abs(p_formula - p_circuit) < 1e-12


def test_sweep_symmetric_about_quarter_pi():
    for eps in settings.uniform_open_grid(25):
        mirrored = np.pi / 2 - eps
        assert settings.success_probability_formula(eps) == pytest.approx(
            settings.success_probability_formula(mirrored), abs=1e-12
        )


def test_sweep_rejects_out_of_interval():
    with pytest.raises(ValueError):
        settings.epsilon_sweep([0.0])
    with pytest.raises(ValueError):
        settings.epsilon_sweep([np.pi / 2])
    # The whole grid is checked; the error names the offending epsilon.
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"epsilon {bad} outside"):
            settings.epsilon_sweep([0.3, bad, 0.5])


def test_rz_pair_and_sweep_reject_an_epsilon_that_is_not_real():
    for bad in ("0.3", 0.3 + 0j, True, False):
        for check in (settings.rz_pair_strategy, lambda eps: settings.epsilon_sweep([0.2, eps])):
            with pytest.raises(ValueError) as raised:
                check(bad)
            assert str(raised.value) == f"epsilon must be a real number, got {bad!r}"
    with pytest.raises(ValueError, match=r"epsilon 2.0 outside the open interval \(0, pi/2\)"):
        settings.rz_pair_strategy(2.0)


def test_uniform_open_grid_reads_its_size_as_an_integer():
    # 2.5 once raised TypeError from range().
    for bad in (2.5, np.float64(3.0), "3"):
        with pytest.raises(ValueError) as raised:
            settings.uniform_open_grid(bad)
        assert str(raised.value) == f"number of grid points must be an integer, got {bad!r}"
    with pytest.raises(ValueError, match="^need at least 2 grid points$"):
        settings.uniform_open_grid(1)
    assert settings.uniform_open_grid(np.int64(9)) == settings.uniform_open_grid(9)


def test_sweep_accepts_any_iterable_and_empty_grid():
    assert settings.epsilon_sweep([]) == []
    assert settings.epsilon_sweep(iter([])) == []
    grid = [0.2, np.pi / 4]
    assert settings.epsilon_sweep(eps for eps in grid) == settings.epsilon_sweep(grid)


def test_sweep_checks_the_gates_of_every_point(monkeypatch):
    # A defective gate at one grid point fails the whole sweep, as it fails
    # rz_pair_strategy at that point.
    exact_rz = settings.rz

    def defective_rz(e):
        # Scales the gate at 0.5, from a scalar call or as one gate of an array call.
        at_half = (np.asarray(e) == 0.5)[..., None, None]
        return exact_rz(e) * np.where(at_half, 1.001, 1.0)

    monkeypatch.setattr(settings, "rz", defective_rz)
    with pytest.raises(ValueError, match="not unitary"):
        settings.rz_pair_strategy(0.5)
    with pytest.raises(ValueError, match="not unitary"):
        settings.epsilon_sweep([0.3, 0.5, 0.7])


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def test_sweep_formula_column_equals_the_scalar_formula_bit_for_bit():
    grids = [settings.uniform_open_grid(n) for n in (2, 9, 1001)]
    grids += [[np.float32(0.5)], [1e-6, np.pi / 2 - 1e-9]]
    for grid in grids:
        rows = settings.epsilon_sweep(grid)
        scalar = [settings.success_probability_formula(eps) for eps in grid]
        assert _bits([r[1] for r in rows]) == _bits(scalar)
        assert all(type(r[1]) is float for r in rows)
    assert _bits(settings.success_probability_formula(np.float32(0.5))) == \
        _bits(settings.success_probability_formula(0.5))


def test_sweep_calls_rz_and_the_formula_once(monkeypatch):
    calls = {"rz": 0, "success_probability_formula": 0}

    def counting(name):
        original = getattr(settings, name)

        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(settings, name, counting(name))
    settings.epsilon_sweep(settings.uniform_open_grid(1001))
    assert calls == {"rz": 1, "success_probability_formula": 1}


def test_sweep_circuit_is_exactly_the_strategy_evaluation():
    # The batched sweep must give, bit for bit, what game.evaluate gives for
    # the documented rz_pair_strategy at every grid point.
    spec = game.GameSpec(2)
    grid = settings.uniform_open_grid(101) + [1e-6, 0.3, np.pi / 4, np.pi / 2 - 1e-9]
    rows = settings.epsilon_sweep(grid)
    assert [r[0] for r in rows] == grid
    for eps, _, p_circuit in rows:
        assert p_circuit == game.evaluate(spec, settings.rz_pair_strategy(eps)).average


def test_single_precision_epsilon_gives_the_double_precision_results():
    # 0.5 is exact in float32, so a float32 epsilon must change nothing; the
    # gates are computed in float64 and stay unitary to 1e-10.
    eps32, eps = np.float32(0.5), 0.5
    assert np.array_equal(q.rz(eps32), q.rz(eps))
    assert np.array_equal(q.ry(eps32), q.ry(eps))
    spec = game.GameSpec(2)
    s32, s64 = settings.rz_pair_strategy(eps32), settings.rz_pair_strategy(eps)
    for k in (0, 1):
        assert np.array_equal(s32.b_gates[k].kraus[0], s64.b_gates[k].kraus[0])
    assert game.evaluate(spec, s32) == game.evaluate(spec, s64)
    assert settings.epsilon_sweep([eps32]) == settings.epsilon_sweep([eps])
    value32, value = (
        settings.compute_value(settings.SettingSpec("clifford_plus_rz", epsilon=e)).value
        for e in (eps32, eps)
    )
    assert value32 == value


# ---------------------------------------------------------------------------
# Mod-3 settings
# ---------------------------------------------------------------------------

# Frozen on first derivation; the fixed qutrit play's exact value.
QUTRIT_Q3_VALUE = 0.7123860142010862


def test_qutrit_q3_fixed_value():
    result = settings.value_qutrit_q3_fixed()
    assert result.value == pytest.approx(QUTRIT_Q3_VALUE, abs=1e-12)
    assert round(result.value, 2) == 0.71
    assert result.value > 2 / 3 + 0.04


def test_classical_q3_explicit_shift_strategy():
    # Identity everywhere except A2 = B1 = cyclic shift: wins 6 of 9 inputs.
    shift = (1, 2, 0)
    ident = (0, 1, 2)
    cs = game.ClassicalStrategy(
        num_symbols=3,
        initial=0,
        a_gates={0: ident, 1: ident, 2: shift},
        b_gates={0: ident, 1: shift, 2: ident},
        readout=(0, 1, 2),
    )
    assert game.evaluate_classical(game.GameSpec(3), cs).average == 2 / 3


def test_classical_q3_all_identity_strategy():
    ident = (0, 1, 2)
    cs = game.ClassicalStrategy(
        num_symbols=3,
        initial=0,
        a_gates={k: ident for k in range(3)},
        b_gates={k: ident for k in range(3)},
        readout=(0, 1, 2),
    )
    # Wins exactly the five inputs with a * b = 0 mod 3.
    assert game.evaluate_classical(game.GameSpec(3), cs).average == 5 / 9


def test_value_classical_q3_cyclic_family_reaches_two_thirds():
    result = settings.value_classical_q3(gate_family="cyclic")
    assert result.value == 2 / 3
    assert game.evaluate_classical(game.GameSpec(3), result.witness).average == 2 / 3


def test_value_classical_q3_full_search():
    # Over all of S3 the exhaustive maximum is 7/9, strictly above the
    # cyclic-shift bound 2/3: with three distinct intermediate symbols the
    # b=1 and b=2 columns can both be answered perfectly (6 wins) and the
    # constant b=0 column contributes one more.
    result = settings.value_classical_q3()
    assert result.strategies_examined == 3 * 6 ** 6
    assert result.value == 7 / 9
    report = game.evaluate_classical(game.GameSpec(3), result.witness)
    assert report.average == 7 / 9
    wins = [v for v in report.per_input.values() if v == 1.0]
    assert len(wins) == 7


def _nested_loop_search(d, q_mod, a_pool, b_pool, readouts, n_a, n_b):
    """Reference search: one strategy at a time, first-found maximum wins."""
    inputs = game.GameSpec(q_mod).input_pairs()
    targets = [(a * b) % q_mod for a, b in inputs]
    best_wins, witness, examined = -1, None, 0
    for s0 in range(d):
        for a_tabs in itertools.product(a_pool, repeat=n_a):
            for b_tabs in itertools.product(b_pool, repeat=n_b):
                finals = [b_tabs[b][a_tabs[a][s0]] for a, b in inputs]
                for readout in readouts:
                    examined += 1
                    wins = sum(readout[f] == t for f, t in zip(finals, targets))
                    if wins > best_wins:
                        best_wins, witness = wins, (s0, a_tabs, b_tabs, readout)
    return best_wins, witness, examined


def test_classical_searches_match_the_nested_loop_reference(monkeypatch):
    calls = []
    search = settings._search_classical

    def recorded(*args):
        result = search(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(settings, "_search_classical", recorded)
    settings.value_classical_q3("all")
    settings.value_classical_q3("cyclic")
    settings.value_classical_reversible(2)
    settings.value_classical_reversible(3)
    settings.value_classical_irreversible()
    assert len(calls) == 5
    for args, (wins, witness, examined) in calls:
        assert (wins, witness, examined) == _nested_loop_search(*args)
        assert type(wins) is int and type(examined) is int


def _score_blocks(d, inputs, weights, a_pool, b_pool, n_a, n_b):
    """Reference: the score of every strategy, one full block per initial symbol.

    Each block is indexed by the A pool index of each slot, then the B pool
    index of each slot, then the readout, as the search held it before
    class tables.
    """
    a_tabs = np.array(a_pool)[list(itertools.product(range(len(a_pool)), repeat=n_a))]
    b_tabs = np.array(b_pool)[list(itertools.product(range(len(b_pool)), repeat=n_b))]
    by_symbol = [weights[i][b_tabs[:, b, :].T] for i, (_, b) in enumerate(inputs)]
    for s0 in range(d):
        block = np.zeros((len(a_tabs), len(b_tabs), weights.shape[2]), dtype=np.uint8)
        for i, (a, _) in enumerate(inputs):
            block += by_symbol[i][a_tabs[:, a, s0]]
        yield block.reshape((len(a_pool),) * n_a + (len(b_pool),) * n_b + block.shape[2:])


def _full_block_search(d, inputs, weights, a_pool, b_pool, n_a, n_b):
    """Reference: ``np.argmax`` per block; a later block wins only when strictly higher."""
    best = None
    for s0, block in enumerate(_score_blocks(d, inputs, weights, a_pool, b_pool, n_a, n_b)):
        k = np.unravel_index(int(np.argmax(block)), block.shape)
        if best is None or block[k] > best[0]:
            best = (int(block[k]), s0, tuple(int(i) for i in k))
    score, s0, k = best
    return score, (s0, k[:n_a], k[n_a:n_a + n_b], k[-1]), d * block.size


def _random_pool(rng, d):
    """One to three tables on d symbols: constant, permutation or any map, maybe one repeated."""
    pool = []
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.integers(3)
        if kind == 0:
            table = [int(rng.integers(d))] * d
        elif kind == 1:
            table = rng.permutation(d).tolist()
        else:
            table = rng.integers(d, size=d).tolist()
        pool.append(tuple(table))
    if rng.random() < 0.5:
        pool.insert(int(rng.integers(len(pool) + 1)), pool[int(rng.integers(len(pool)))])
    return pool


def test_search_tables_matches_the_full_block_search():
    # Small weights make ties common, so the first-found witness is tested,
    # not only the score: a later initial symbol, A tuple or (B tuple,
    # readout) may win only when strictly higher.
    rng = np.random.default_rng(20260)
    ties_across_initial_symbols = 0
    for _ in range(320):
        d, q_mod = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        inputs = game.GameSpec(q_mod).input_pairs()
        n_readouts = int(rng.integers(1, 4))
        weights = rng.integers(3, size=(len(inputs), d, n_readouts)).astype(np.uint8)
        args = (d, inputs, weights, _random_pool(rng, d), _random_pool(rng, d), q_mod, q_mod)
        expected = _full_block_search(*args)
        result = settings._search_tables(*args)
        assert repr(result) == repr(expected), args
        block_maxima = [int(block.max()) for block in _score_blocks(*args)]
        ties_across_initial_symbols += block_maxima.count(expected[0]) > 1
    assert ties_across_initial_symbols > 100


def test_value_classical_q3_rejects_unknown_family():
    with pytest.raises(ValueError):
        settings.value_classical_q3(gate_family="dihedral")


# ---------------------------------------------------------------------------
# Cross-setting ordering and dispatch
# ---------------------------------------------------------------------------

def test_setting_value_ordering():
    reversible = settings.value_classical_reversible(2).value
    clifford = settings.value_clifford().value
    unitary = settings.value_unitary().value
    irreversible = settings.value_classical_irreversible().value
    assert reversible == clifford == 0.75
    assert 0.75 < unitary < 1.0
    assert unitary == pytest.approx(TSIRELSON, abs=1e-6)
    assert irreversible == 1.0


def test_setting_spec_validation():
    with pytest.raises(ValueError):
        settings.SettingSpec(kind="magic")
    with pytest.raises(ValueError):
        settings.SettingSpec(kind="clifford", dimension=3)
    with pytest.raises(ValueError):
        settings.SettingSpec(kind="clifford_plus_rz", dimension=2)
    with pytest.raises(ValueError):
        settings.SettingSpec(kind="unitary", dimension=2, epsilon=0.3)
    settings.SettingSpec(kind="clifford_plus_rz", dimension=2, epsilon=0.3)


def test_setting_spec_reads_the_dimension_as_an_integer():
    for bad in (3.0, 2.5, "3", math.nan):
        with pytest.raises(ValueError) as raised:
            settings.SettingSpec(kind="classical_reversible", dimension=bad)
        assert str(raised.value) == f"dimension must be an integer, got {bad!r}"
    spec = settings.SettingSpec(kind="classical_reversible", dimension=np.int64(3))
    assert type(spec.dimension) is int and spec == settings.SettingSpec("classical_reversible", 3)
    assert settings.compute_value(spec).value == 1.0


def test_setting_spec_rejects_an_epsilon_that_is_not_real():
    for bad in ("0.3", 0.3 + 0j, [0.3], True, False):
        with pytest.raises(ValueError, match="epsilon must be a real number"):
            settings.SettingSpec(kind="clifford_plus_rz", epsilon=bad)
    for eps in (0.3, np.float32(0.3), np.float64(0.3)):
        assert settings.SettingSpec(kind="clifford_plus_rz", epsilon=eps).epsilon == eps
    with pytest.raises(ValueError, match="requires epsilon in"):
        settings.SettingSpec(kind="clifford_plus_rz")


def test_setting_spec_defaults_to_the_settings_own_dimension():
    assert settings.SettingSpec(kind="qutrit_unitary_fixed").dimension == 3
    assert settings.SettingSpec(kind="classical_q3_reversible").dimension == 3
    assert settings.SettingSpec(kind="classical_reversible").dimension == 2
    assert settings.SettingSpec(kind="classical_reversible", dimension=3).dimension == 3


def test_compute_value_dispatch():
    spec = settings.SettingSpec(kind="clifford_plus_rz", dimension=2, epsilon=np.pi / 4)
    result = settings.compute_value(spec)
    assert result.value == pytest.approx(TSIRELSON, abs=1e-12)
    assert settings.compute_value(settings.SettingSpec(kind="classical_irreversible")).value == 1.0
    assert settings.compute_value(
        settings.SettingSpec(kind="qutrit_unitary_fixed", dimension=3)
    ).value == pytest.approx(QUTRIT_Q3_VALUE, abs=1e-12)
