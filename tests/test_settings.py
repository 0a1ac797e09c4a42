"""Value computations per setting: enumeration, optimization, sweeps."""

import itertools

import numpy as np
import pytest

from chshstar import game, settings
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


def test_value_classical_irreversible_bijective_recovers_reversible_bound():
    assert settings.value_classical_irreversible(bijective_only=True).value == 0.75


# ---------------------------------------------------------------------------
# Unitary setting
# ---------------------------------------------------------------------------

def test_optimizer_config_rejects_too_few_restarts():
    with pytest.raises(ValueError, match="restarts"):
        settings.OptimizerConfig(restarts=8)


def test_value_unitary_reaches_tsirelson():
    result = settings.value_unitary()
    assert abs(result.value - TSIRELSON) < 1e-6
    assert result.method == "optimized"
    report = game.evaluate(game.GameSpec(2), result.witness)
    assert abs(report.average - result.value) <= 1e-9


def test_value_unitary_seeded_at_optimum():
    result = settings.value_unitary(initial_points=[settings.OPTIMAL_UNITARY_ANGLES])
    assert result.value >= TSIRELSON - 1e-12


def test_value_unitary_free_mode_matches_fixed_mode():
    fixed = settings.value_unitary()
    free = settings.value_unitary(free_state_and_measurement=True)
    assert abs(fixed.value - free.value) < 1e-6


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


def test_sweep_accepts_any_iterable_and_empty_grid():
    assert settings.epsilon_sweep([]) == []
    assert settings.epsilon_sweep(iter([])) == []
    grid = [0.2, np.pi / 4]
    assert settings.epsilon_sweep(eps for eps in grid) == settings.epsilon_sweep(grid)


def test_sweep_checks_the_gates_of_every_point(monkeypatch):
    # A defective gate at one grid point fails the whole sweep, as it fails
    # rz_pair_strategy at that point.
    exact_rz = settings.rz
    monkeypatch.setattr(settings, "rz", lambda e: exact_rz(e) * (1.001 if e == 0.5 else 1.0))
    with pytest.raises(ValueError, match="not unitary"):
        settings.rz_pair_strategy(0.5)
    with pytest.raises(ValueError, match="not unitary"):
        settings.epsilon_sweep([0.3, 0.5, 0.7])


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


def test_value_classical_q3_rejects_unknown_family():
    with pytest.raises(ValueError):
        settings.value_classical_q3(gate_family="dihedral")


# ---------------------------------------------------------------------------
# Cross-setting ordering and dispatch
# ---------------------------------------------------------------------------

def test_setting_value_ordering():
    reversible = settings.value_classical_reversible(2).value
    clifford = settings.value_clifford().value
    unitary = settings.value_unitary(initial_points=[settings.OPTIMAL_UNITARY_ANGLES]).value
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


def test_compute_value_dispatch():
    spec = settings.SettingSpec(kind="clifford_plus_rz", dimension=2, epsilon=np.pi / 4)
    result = settings.compute_value(spec)
    assert result.value == pytest.approx(TSIRELSON, abs=1e-12)
    assert settings.compute_value(settings.SettingSpec(kind="classical_irreversible")).value == 1.0
    assert settings.compute_value(
        settings.SettingSpec(kind="qutrit_unitary_fixed", dimension=3)
    ).value == pytest.approx(QUTRIT_Q3_VALUE, abs=1e-12)
