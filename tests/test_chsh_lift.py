"""Single-system to two-player lift and its per-input equivalence."""

import numpy as np
import pytest

from chshstar import chsh_lift, game
from chshstar import quantum as q
from chshstar.settings import optimal_unitary_strategy

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


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

N_PROPERTY = 500


def test_property_transpose_identity_on_bell_pair():
    # (A^T x I)|Phi+> = (I x A)|Phi+> for unitary A.
    rng = np.random.default_rng(301)
    bell = chsh_lift.bell_pair_ket()
    for _ in range(N_PROPERTY):
        a = q.random_unitary(2, rng)
        left = q.tensor(a.T, q.I2) @ bell
        right = q.tensor(q.I2, a) @ bell
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
        state = (q.tensor(a.T, q.I2) @ bell).reshape(2, 2)
        for x, ket in x_kets.items():
            residual = ket.conj() @ state
            target = a @ (np.linalg.matrix_power(np.asarray(q.Z), x) @ q.plus_ket()) / np.sqrt(2)
            phase = np.vdot(target, residual)
            phase /= abs(phase)
            assert np.max(np.abs(residual - phase * target)) <= 1e-12
