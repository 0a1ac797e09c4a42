"""Core linear algebra, channels and measurements."""

import numpy as np
import pytest

from chshstar import quantum as q


def test_matmul_identity_and_involution():
    assert np.allclose(q.matmul(q.I2, q.X), q.X)
    assert np.allclose(q.matmul(q.X, q.X), q.I2)


def test_matmul_s_squared_is_z_exactly():
    # S = diag(1, i), so S @ S = diag(1, -1) with no phase slack.
    assert np.array_equal(q.matmul(q.S, q.S), q.Z)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        q.matmul(q.I2, np.eye(3))


def test_dagger_and_transpose():
    assert np.allclose(q.dagger(q.I2), q.I2)
    assert np.allclose(q.dagger(q.S), np.diag([1, -1j]))
    ket01 = np.outer(q.basis_ket(2, 0), q.basis_ket(2, 1).conj())
    ket10 = np.outer(q.basis_ket(2, 1), q.basis_ket(2, 0).conj())
    assert np.array_equal(q.transpose(ket01), ket10)


def test_tensor_identity():
    assert np.array_equal(q.tensor(q.I2, q.I2), np.eye(4))


def test_tensor_acts_on_first_factor():
    ket00 = np.kron(q.basis_ket(2, 0), q.basis_ket(2, 0))
    ket10 = np.kron(q.basis_ket(2, 1), q.basis_ket(2, 0))
    assert np.allclose(q.tensor(q.X, q.I2) @ ket00, ket10)


def test_tensor_zz_fixes_bell_pair():
    bell = (np.kron(q.basis_ket(2, 0), q.basis_ket(2, 0))
            + np.kron(q.basis_ket(2, 1), q.basis_ket(2, 1))) / np.sqrt(2)
    assert np.allclose(q.tensor(q.Z, q.Z) @ bell, bell)


def test_tensor_associative_on_integer_matrices():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
        left = q.tensor(q.tensor(a, b), c)
        right = q.tensor(a, q.tensor(b, c))
        assert np.array_equal(left, right)


def test_apply_unitary_channel():
    s = q.apply_channel(q.Channel.unitary(q.X), q.State.from_ket(q.basis_ket(2, 0)))
    assert np.allclose(s.density, q.projector(q.basis_ket(2, 1)))


def test_erase_maps_plus_to_zero():
    s = q.apply_channel(q.Channel.erase(), q.State.from_ket(q.plus_ket()))
    assert np.allclose(s.density, q.projector(q.basis_ket(2, 0)), atol=1e-12)


def test_partial_erase_half():
    s = q.apply_channel(q.Channel.partial_erase(0.5), q.State.from_ket(q.basis_ket(2, 1)))
    assert np.allclose(s.density, np.diag([0.5, 0.5]), atol=1e-12)


def test_partial_erase_probability_range():
    with pytest.raises(ValueError):
        q.Channel.partial_erase(1.5)


def test_non_trace_preserving_channel_rejected():
    with pytest.raises(ValueError, match="trace preserving"):
        q.Channel((0.5 * q.I2,))


def test_apply_channel_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        q.apply_channel(q.Channel.unitary(q.I2), q.State.from_ket(q.basis_ket(3, 0)))


def test_state_invariants_rejected():
    with pytest.raises(ValueError, match="Hermitian"):
        q.State(np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        q.State(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError, match="positive"):
        q.State(np.diag([1.5, -0.5]).astype(complex))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_entries_are_rejected():
    # np.allclose counts inf as close to inf, so an inf off-diagonal once
    # passed the Hermitian check and then gave NaN probabilities.
    with pytest.raises(ValueError, match="Hermitian"):
        q.State(np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="Hermitian"):
        q.State(np.diag([np.nan, 1.0]).astype(complex))
    # The outcome-sum check itself rejects NaN; reach it with a density that
    # bypasses the State constructor.
    unchecked = object.__new__(q.State)
    object.__setattr__(unchecked, "density", np.array([[0.5, np.inf], [np.inf, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="sum to nan"):
        q.outcome_distribution(q.Measurement.pauli("x"), unchecked)


def test_stack_checks_reject_a_single_bad_member():
    # Each batched check applies the per-object check to every matrix of
    # the stack: one invalid matrix among valid ones is enough to raise.
    q.check_unitary_stack(np.stack([q.rz(0.3), q.S]))
    with pytest.raises(ValueError, match="not unitary"):
        q.check_unitary_stack(np.stack([q.rz(0.3), q.S, 1.001 * q.S]))
    pure = q.projector(q.plus_ket())
    q.check_density_stack(np.stack([pure, np.eye(2, dtype=complex) / 2]))
    for bad, msg in [
        (np.array([[1, 1], [0, 0]], dtype=complex), "Hermitian"),
        (np.diag([0.7, 0.7]).astype(complex), "trace is 1.4"),
        (np.diag([1.5, -0.5]).astype(complex), "positive"),
    ]:
        with pytest.raises(ValueError, match=msg):
            q.check_density_stack(np.stack([pure, pure, bad]))
    with pytest.raises(ValueError, match="trace"):
        q.apply_unitary_stack(np.stack([q.I2, q.S]), np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError, match="sum to 1.2"):
        q.outcome_probabilities(q.Measurement.pauli("x"), np.stack([pure, 1.25 * pure]))


def test_stack_evaluation_matches_per_state_path_exactly():
    rng = np.random.default_rng(7)
    us = np.stack([q.random_unitary(2, rng) for _ in range(5)])
    initial = q.State.from_ket(q.plus_ket())
    rhos = q.apply_unitary_stack(us, initial.density)
    for measurement in (q.Measurement.pauli("x"), q.Measurement.pauli("z", labels=(0, 0))):
        probs = q.outcome_probabilities(measurement, rhos)
        for k, u in enumerate(us):
            state = q.apply_channel(q.Channel.unitary(u), initial)
            assert np.array_equal(rhos[k], state.density)
            dist = q.outcome_distribution(measurement, state)
            assert [(label, probs[label][k]) for label in sorted(probs)] == dist


def test_measurement_invariants_rejected():
    p_plus = q.projector(q.plus_ket())
    with pytest.raises(ValueError, match="orthogonal"):
        q.Measurement((p_plus, p_plus), (0, 1))
    with pytest.raises(ValueError, match="identity"):
        q.Measurement((p_plus,), (0,))
    with pytest.raises(ValueError, match="idempotent"):
        q.Measurement((0.5 * q.I2, 0.5 * q.I2), (0, 1))


def test_x_measurement_of_plus():
    dist = dict(q.outcome_distribution(q.Measurement.pauli("x"), q.State.from_ket(q.plus_ket())))
    assert dist[0] == pytest.approx(1.0, abs=1e-12)
    assert dist[1] == pytest.approx(0.0, abs=1e-12)


def test_x_measurement_of_t_plus():
    # Oracle: |<+|T|+>|^2 computed directly from the amplitude.
    amp = np.vdot(q.plus_ket(), q.T @ q.plus_ket())
    expected = abs(amp) ** 2
    assert expected == pytest.approx(np.cos(np.pi / 8) ** 2, abs=1e-12)
    dist = dict(
        q.outcome_distribution(q.Measurement.pauli("x"), q.State.from_ket(q.T @ q.plus_ket()))
    )
    assert dist[0] == pytest.approx(expected, abs=1e-12)
    assert dist[1] == pytest.approx(1 - expected, abs=1e-12)


def test_subspace_pvm_on_qutrit():
    m = q.Measurement.from_subspaces(3, [(0, 1), (2,)], labels=(0, 1))
    dist = dict(q.outcome_distribution(m, q.State.from_ket(q.basis_ket(3, 1))))
    assert dist[0] == pytest.approx(1.0, abs=1e-12)
    assert dist[1] == pytest.approx(0.0, abs=1e-12)


def test_outcome_labels_aggregate():
    m = q.Measurement.pauli("z", labels=(0, 0))
    dist = q.outcome_distribution(m, q.State.from_ket(q.plus_ket()))
    assert dist == [(0, pytest.approx(1.0, abs=1e-12))]


def test_qudit_gates_d2():
    gates = q.qudit_gates(2)
    assert np.allclose(gates["X"], q.X)
    assert np.allclose(gates["F"][:, 0], q.plus_ket())


def test_qudit_gates_d3_shift_wraps():
    gates = q.qudit_gates(3)
    assert np.allclose(gates["X"] @ q.basis_ket(3, 2), q.basis_ket(3, 0))


def test_qudit_gates_d3_vw_product():
    gates = q.qudit_gates(3)
    w = np.exp(2j * np.pi / 3)
    assert np.allclose(gates["V"] @ gates["W"], np.diag([1, w, w ** 2]))


def test_qudit_gates_rejects_d1():
    with pytest.raises(ValueError):
        q.qudit_gates(1)


def test_phase_canonical():
    u = 1j * q.X
    c = q.phase_canonical(u)
    assert np.allclose(c, q.X)
    assert q.matrices_equal_up_to_phase(np.exp(0.7j) * q.H, q.H)


# ---------------------------------------------------------------------------
# Property suites (seeded, 500 instances each)
# ---------------------------------------------------------------------------

N_PROPERTY = 500


def _random_state(rng, d):
    if rng.random() < 0.5:
        ket = rng.normal(size=d) + 1j * rng.normal(size=d)
        return q.State.from_ket(ket / np.linalg.norm(ket))
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return q.State(rho / np.trace(rho).real)


def _random_channel(rng, d):
    kind = rng.integers(3)
    if kind == 0:
        return q.Channel.unitary(q.random_unitary(d, rng))
    if kind == 1 and d == 2:
        return q.Channel.partial_erase(float(rng.random()))
    m = rng.random(size=(d, d))
    return q.Channel.classical(m / m.sum(axis=0))


def test_property_random_unitaries_are_unitary():
    rng = np.random.default_rng(101)
    for _ in range(N_PROPERTY):
        d = int(rng.integers(2, 5))
        u = q.random_unitary(d, rng)
        assert np.allclose(u.conj().T @ u, np.eye(d), atol=1e-10, rtol=0.0)


def test_property_channels_preserve_trace_and_hermiticity():
    rng = np.random.default_rng(102)
    for _ in range(N_PROPERTY):
        d = int(rng.integers(2, 4))
        out = q.apply_channel(_random_channel(rng, d), _random_state(rng, d))
        assert abs(np.trace(out.density).real - 1.0) <= 1e-10
        assert np.allclose(out.density, out.density.conj().T, atol=1e-12, rtol=0.0)


def test_property_outcome_distributions_normalized():
    rng = np.random.default_rng(103)
    for _ in range(N_PROPERTY):
        d = int(rng.integers(2, 5))
        basis = q.random_unitary(d, rng).T
        labels = [int(rng.integers(d)) for _ in range(d)]
        m = q.Measurement.from_basis(list(basis), labels)
        dist = q.outcome_distribution(m, _random_state(rng, d))
        probs = [p for _, p in dist]
        assert all(-1e-10 <= p <= 1 + 1e-10 for p in probs)
        assert abs(sum(probs) - 1.0) <= 1e-10


def test_property_two_by_two_unitary_identities():
    # |<+|BA|+>|^2 = |<-|BA|->|^2 and |<-|BA|+>|^2 = |<+|BA|->|^2.
    rng = np.random.default_rng(104)
    plus, minus = q.plus_ket(), q.minus_ket()
    for _ in range(N_PROPERTY):
        ba = q.random_unitary(2, rng) @ q.random_unitary(2, rng)
        pp = abs(np.vdot(plus, ba @ plus)) ** 2
        mm = abs(np.vdot(minus, ba @ minus)) ** 2
        mp = abs(np.vdot(minus, ba @ plus)) ** 2
        pm = abs(np.vdot(plus, ba @ minus)) ** 2
        assert abs(pp - mm) <= 1e-10
        assert abs(mp - pm) <= 1e-10
