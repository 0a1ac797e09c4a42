"""Single-system to two-player lift and its per-input equivalence."""

import numpy as np
import pytest

from chshstar import chsh_lift, game
from chshstar import quantum as q
from chshstar.settings import optimal_unitary_strategy, rz_pair_strategy

TSIRELSON = np.cos(np.pi / 8) ** 2


def _identity_strategy() -> game.Strategy:
    ident = q.Channel.unitary(q.I2)
    return game.Strategy(
        initial=q.State.from_ket(q.plus_ket()),
        a_gates={0: ident, 1: ident},
        b_gates={0: ident, 1: ident},
        measurement=q.Measurement.pauli("x"),
    )


def test_lift_identity_strategy_gives_perfect_x_correlation():
    report = chsh_lift.evaluate_chsh(chsh_lift.lift(_identity_strategy()))
    assert report.per_input[(0, 0)] == pytest.approx(1.0, abs=1e-12)


def test_lift_transposes_alice_gates():
    s = optimal_unitary_strategy()
    lifted = chsh_lift.lift(s)
    assert np.allclose(lifted.alice_gates[1], q.S.T)
    assert np.allclose(lifted.alice_gates[1], q.S)  # diagonal, so transpose is itself
    assert np.allclose(lifted.bob_gates[1], q.T)


def test_lifted_optimal_strategy_hits_tsirelson_per_input():
    report = chsh_lift.evaluate_chsh(chsh_lift.lift(optimal_unitary_strategy()))
    for p in report.per_input.values():
        assert p == pytest.approx(TSIRELSON, abs=1e-10)


def test_joint_table_normalized_per_input():
    rng = np.random.default_rng(7)
    report = chsh_lift.evaluate_chsh(chsh_lift.lift(chsh_lift.random_normal_form(rng)))
    for a in (0, 1):
        for b in (0, 1):
            total = sum(report.joint_table[(a, b, x, y)] for x in (0, 1) for y in (0, 1))
            assert total == pytest.approx(1.0, abs=1e-10)


def _reference_evaluate_chsh(cs):
    # One input pair at a time: np.kron of the local gates, applied to the
    # Bell pair, and one np.vdot per outcome ket.
    kets = {0: q.plus_ket(), 1: q.minus_ket()}
    joint, per_input = {}, {}
    for a in sorted(cs.alice_gates):
        for b in sorted(cs.bob_gates):
            psi = np.kron(cs.alice_gates[a], cs.bob_gates[b]) @ chsh_lift.bell_pair_ket()
            per_input[(a, b)] = 0.0
            for x in (0, 1):
                for y in (0, 1):
                    p = abs(np.vdot(np.kron(kets[x], kets[y]), psi)) ** 2
                    joint[(a, b, x, y)] = p
                    if (x + y) % 2 == (a * b) % 2:
                        per_input[(a, b)] += p
    return joint, per_input


def test_stacked_evaluation_matches_the_per_input_loop():
    rng = np.random.default_rng(2024)
    strategies = [optimal_unitary_strategy()]
    strategies += [chsh_lift.random_normal_form(rng) for _ in range(200)]
    for s in strategies:
        cs = chsh_lift.lift(s)
        report = chsh_lift.evaluate_chsh(cs)
        joint, per_input = _reference_evaluate_chsh(cs)
        assert report.joint_table.keys() == joint.keys()
        assert report.per_input.keys() == per_input.keys()
        for key, p in joint.items():
            assert abs(report.joint_table[key] - p) <= 1e-15
        for key, p in per_input.items():
            assert abs(report.per_input[key] - p) <= 1e-15


def test_evaluate_chsh_rejects_gates_that_are_not_2x2():
    cs = chsh_lift.lift(optimal_unitary_strategy())
    for bad in (np.eye(3, dtype=complex), np.ones(2, dtype=complex)):
        with pytest.raises(ValueError, match="local gates must be 2x2"):
            chsh_lift.evaluate_chsh(
                chsh_lift.ChshStrategy(alice_gates=cs.alice_gates, bob_gates={**cs.bob_gates, 1: bad})
            )


def test_evaluate_chsh_names_ragged_and_non_numeric_gates_as_not_2x2():
    # The gates are stacked by one np.array call; whatever it cannot stack
    # is reported as the shape check reports it.
    cs = chsh_lift.lift(optimal_unitary_strategy())
    for bad in ([[1, 0], [0]], None, "gate", [[q.I2, q.I2]], np.eye(2)[None]):
        with pytest.raises(ValueError, match="^local gates must be 2x2$"):
            chsh_lift.evaluate_chsh(chsh_lift.ChshStrategy(alice_gates={**cs.alice_gates, 1: bad},
                                                           bob_gates=cs.bob_gates))
    report = chsh_lift.evaluate_chsh(chsh_lift.ChshStrategy(alice_gates={}, bob_gates={}))
    assert report.per_input == {} and report.joint_table == {}


def test_evaluate_chsh_without_input_pairs_is_empty():
    report = chsh_lift.evaluate_chsh(chsh_lift.ChshStrategy(alice_gates={0: q.I2}, bob_gates={}))
    assert report.per_input == {} and report.joint_table == {}


def test_evaluate_chsh_rejects_a_table_that_does_not_sum_to_one():
    cs = chsh_lift.lift(optimal_unitary_strategy())
    scaled = {**cs.bob_gates, 1: 1.1 * cs.bob_gates[1]}
    with pytest.raises(ValueError, match=r"input \(0, 1\) sums to 1\.2"):
        chsh_lift.evaluate_chsh(chsh_lift.ChshStrategy(alice_gates=cs.alice_gates, bob_gates=scaled))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_evaluate_chsh_rejects_a_table_that_sums_to_nan():
    # A NaN sum fails every comparison, so only `not |total - 1| <= tol` rejects it.
    cs = chsh_lift.lift(optimal_unitary_strategy())
    for gate in (np.full((2, 2), np.nan), np.array([[np.inf, 0], [0, 1]])):
        alice = {**cs.alice_gates, 0: gate}
        with pytest.raises(ValueError, match=r"^joint table for input \(0, 0\) sums to nan$"):
            chsh_lift.evaluate_chsh(chsh_lift.ChshStrategy(alice_gates=alice, bob_gates=cs.bob_gates))


def test_lift_rejects_non_normal_form():
    s = optimal_unitary_strategy()
    with pytest.raises(ValueError, match="unitary"):
        chsh_lift.lift(
            game.Strategy(
                initial=s.initial,
                a_gates=s.a_gates,
                b_gates={0: q.Channel.erase(), 1: s.b_gates[1]},
                measurement=s.measurement,
            )
        )
    with pytest.raises(ValueError, match=r"\|\+>"):
        chsh_lift.lift(
            game.Strategy(
                initial=q.State.from_ket(q.basis_ket(2, 0)),
                a_gates=s.a_gates,
                b_gates=s.b_gates,
                measurement=s.measurement,
            )
        )
    with pytest.raises(ValueError, match="X measurement"):
        chsh_lift.lift(
            game.Strategy(
                initial=s.initial,
                a_gates=s.a_gates,
                b_gates=s.b_gates,
                measurement=q.Measurement.pauli("z"),
            )
        )
    qutrit_gates = q.qudit_gates(3)
    with pytest.raises(ValueError, match="dimension"):
        chsh_lift.lift(
            game.Strategy(
                initial=q.State.from_ket(q.plus_ket(3)),
                a_gates={k: q.Channel.unitary(qutrit_gates["I"]) for k in (0, 1)},
                b_gates={k: q.Channel.unitary(qutrit_gates["I"]) for k in (0, 1)},
                measurement=q.Measurement.fourier(3, labels=(0, 1, 1)),
            )
        )


def test_normal_forms_share_one_validated_plus_state():
    first = chsh_lift.normal_form(q.I2, q.I2, q.I2, q.I2)
    second = chsh_lift.random_normal_form(np.random.default_rng(3))
    assert first.initial is not second.initial
    assert first.initial.density is second.initial.density
    assert np.array_equal(first.initial.density, q.projector(q.plus_ket()))
    with pytest.raises(ValueError, match="read-only"):
        first.initial.density[0, 1] = 0.0


def test_verify_equivalence_optimal():
    ok, dev = chsh_lift.verify_equivalence(optimal_unitary_strategy(), tol=1e-12)
    assert ok
    assert dev <= 1e-12


def test_verify_equivalence_identity():
    ok, dev = chsh_lift.verify_equivalence(_identity_strategy(), tol=1e-12)
    assert ok
    assert dev <= 1e-12


def test_verify_equivalence_thousand_random_strategies():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        ok, dev = chsh_lift.verify_equivalence(chsh_lift.random_normal_form(rng), tol=1e-12)
        assert ok
        worst = max(worst, dev)
    assert worst <= 1e-12


def test_max_deviation_has_the_bits_of_each_plays_check():
    # Both sides of the batch, play by play, against the per-strategy path.
    gates = q.random_unitary(2, np.random.default_rng(2028), (600, 4))
    a_gates, b_gates = gates[:, :2], gates[:, 2:]
    single = game.evaluate_unitary_stack(chsh_lift._QUBIT_GAME, q.projector(q.plus_ket()), a_gates,
                                         b_gates[:, :, None], q.Measurement.pauli("x"))
    squares = chsh_lift._joint_squares(a_gates.swapaxes(-1, -2), b_gates)
    deviations = []
    for i, play in enumerate(gates):
        s = chsh_lift.normal_form(*play)
        report = game.evaluate(chsh_lift._QUBIT_GAME, s)
        assert [single[pair][i, 0].hex() for pair in report.per_input] == \
            [p.hex() for p in report.per_input.values()]
        joint = chsh_lift.evaluate_chsh(chsh_lift.lift(s)).joint_table
        assert [p.hex() for p in squares[16 * i:16 * (i + 1)]] == [p.hex() for p in joint.values()]
        deviations.append(chsh_lift.verify_equivalence(s)[1])
        assert chsh_lift.max_deviation(gates[i:i + 1]).hex() == deviations[-1].hex()
    assert chsh_lift.max_deviation(gates).hex() == max(deviations).hex()


def test_max_deviation_rejects_a_gate_that_is_not_unitary():
    gates = q.random_unitary(2, np.random.default_rng(5), (3, 4))
    gates[1, 2] *= 1 + 1e-6
    with pytest.raises(ValueError, match="^matrix is not unitary$"):
        chsh_lift.normal_form(*gates[1])
    with pytest.raises(ValueError, match="^matrix is not unitary$"):
        chsh_lift.max_deviation(gates)


def test_verify_equivalence_checks_all_its_densities_in_one_call(monkeypatch):
    rng = np.random.default_rng(17)
    strategies = [chsh_lift.random_normal_form(rng) for _ in range(5)]
    stacks = []

    def recording(rhos):
        stacks.append(rhos.shape)
        check(rhos)

    check = q.check_density_stack
    monkeypatch.setattr(q, "check_density_stack", recording)
    monkeypatch.setattr(game, "check_density_stack", recording)
    for s in strategies:
        chsh_lift.verify_equivalence(s)
    # Per strategy: the two densities after A and the four final ones.
    assert stacks == [(6, 2, 2)] * len(strategies)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

N_PROPERTY = 500


def _verify_through_evaluate(s: game.Strategy, tol: float = 1e-10) -> tuple[bool, float]:
    """The lemma-1 check on game.evaluate's per-state path, as a reference."""
    single = game.evaluate(game.GameSpec(2), s).per_input
    lifted = chsh_lift.evaluate_chsh(chsh_lift.lift(s)).per_input
    max_dev = max(abs(single[k] - lifted[k]) for k in single)
    return max_dev <= tol, max_dev


def test_verify_equivalence_equals_the_check_through_evaluate():
    rng = np.random.default_rng(311)
    strategies = [optimal_unitary_strategy(), _identity_strategy()]
    strategies += [rz_pair_strategy(eps) for eps in (1e-6, 0.3, np.pi / 4, 1.2, np.pi / 2 - 1e-9)]
    strategies += [chsh_lift.random_normal_form(rng) for _ in range(300)]
    for s in strategies:
        for tol in (1e-10, 1e-16):
            result = chsh_lift.verify_equivalence(s, tol=tol)
            assert result == _verify_through_evaluate(s, tol=tol)
            assert type(result[1]) is float


def _bad_strategies():
    s = optimal_unitary_strategy()
    qutrit_identity = q.Channel.unitary(q.qudit_gates(3)["I"])

    def qutrit(labels):
        return game.Strategy(
            initial=q.State.from_ket(q.plus_ket(3)),
            a_gates={k: qutrit_identity for k in (0, 1)},
            b_gates={k: qutrit_identity for k in (0, 1)},
            measurement=q.Measurement.fourier(3, labels=labels),
        )

    def replace(**fields):
        return game.Strategy(**{"initial": s.initial, "a_gates": s.a_gates,
                                "b_gates": s.b_gates, "measurement": s.measurement, **fields})

    return {
        "missing B gate": (replace(b_gates={0: s.b_gates[0]}),
                           "B gates missing for inputs [1]"),
        "missing A and B gates": (replace(a_gates={}, b_gates={}),
                                  "A gates missing for inputs [0, 1]"),
        "labels (0, 2)": (replace(measurement=q.Measurement.pauli("x", labels=(0, 2))),
                          "measurement labels [2] outside range(0, 2)"),
        "erasure as B_0": (replace(b_gates={0: q.Channel.erase(), 1: s.b_gates[1]}),
                           "B_0 is not a single-Kraus unitary channel"),
        "initial |0>": (replace(initial=q.State.from_ket(q.basis_ket(2, 0))),
                        "normal form requires the initial state |+>"),
        "Z measurement": (replace(measurement=q.Measurement.pauli("z")),
                          "normal form requires the X measurement with labels (+ -> 0, - -> 1)"),
        "qutrit": (qutrit((0, 1, 1)), "lift requires a qubit strategy, got dimension 3"),
        "qutrit with label 2": (qutrit((0, 1, 2)), "measurement labels [2] outside range(0, 2)"),
    }


@pytest.mark.parametrize("case", list(_bad_strategies()))
def test_verify_equivalence_raises_the_errors_of_evaluate_then_lift(case):
    # game.evaluate's checks come first, then lift's normal-form checks.
    s, message = _bad_strategies()[case]
    with pytest.raises(ValueError) as reference:
        _verify_through_evaluate(s)
    assert str(reference.value) == message
    with pytest.raises(ValueError) as raised:
        chsh_lift.verify_equivalence(s)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


def test_property_transpose_identity_on_bell_pair():
    # (A^T x I)|Phi+> = (I x A)|Phi+> for unitary A.
    rng = np.random.default_rng(301)
    bell = chsh_lift.bell_pair_ket()
    for _ in range(N_PROPERTY):
        a = q.random_unitary(2, rng)
        left = np.kron(a.T, q.I2) @ bell
        right = np.kron(q.I2, a) @ bell
        assert np.max(np.abs(left - right)) <= 1e-12


def test_property_alice_marginal_uniform():
    rng = np.random.default_rng(302)
    for _ in range(50):
        report = chsh_lift.evaluate_chsh(chsh_lift.lift(chsh_lift.random_normal_form(rng)))
        for a in (0, 1):
            for b in (0, 1):
                p_x0 = report.joint_table[(a, b, 0, 0)] + report.joint_table[(a, b, 0, 1)]
                assert p_x0 == pytest.approx(0.5, abs=1e-10)


def test_property_teleported_residual_state():
    # Projecting Alice's qubit of (A^T x I)|Phi+> on |x> leaves A Z^x |+> / sqrt(2).
    rng = np.random.default_rng(303)
    bell = chsh_lift.bell_pair_ket()
    x_kets = {0: q.plus_ket(), 1: q.minus_ket()}
    for _ in range(N_PROPERTY):
        a = q.random_unitary(2, rng)
        state = (np.kron(a.T, q.I2) @ bell).reshape(2, 2)
        for x, ket in x_kets.items():
            residual = ket.conj() @ state
            target = a @ (np.linalg.matrix_power(np.asarray(q.Z), x) @ q.plus_ket()) / np.sqrt(2)
            phase = np.vdot(target, residual)
            phase /= abs(phase)
            assert np.max(np.abs(residual - phase * target)) <= 1e-12
