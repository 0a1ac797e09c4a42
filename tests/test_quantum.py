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


# ---------------------------------------------------------------------------
# Density checks: closed form for qubits, eigvalsh for larger dimensions
# ---------------------------------------------------------------------------

def _densities_near_the_psd_bound(rng, n):
    """n Hermitian unit-trace 2x2 matrices with smallest eigenvalue within 1e-9 of -ATOL_STRUCT."""
    rhos = []
    for low in -q.ATOL_STRUCT + rng.uniform(-1e-9, 1e-9, size=n):
        v = q.random_unitary(2, rng)
        rho = v @ np.diag([low, 1.0 - low]) @ v.conj().T
        rhos.append((rho + rho.conj().T) / 2)
    return np.stack(rhos)


def _rejected_as_not_psd(rhos) -> bool:
    try:
        q.check_density_stack(rhos)
    except ValueError as exc:
        assert str(exc) == "density matrix is not positive semidefinite"
        return True
    return False


def test_qubit_psd_test_decides_as_eigvalsh_at_the_bound():
    rhos = _densities_near_the_psd_bound(np.random.default_rng(2024), 2000)
    expected = np.linalg.eigvalsh(rhos).min(axis=1) < -q.ATOL_STRUCT
    assert 0 < expected.sum() < len(rhos)  # both sides of the bound are reached
    assert [_rejected_as_not_psd(rho[None]) for rho in rhos] == expected.tolist()
    assert _rejected_as_not_psd(rhos)
    assert not _rejected_as_not_psd(rhos[~expected])


@pytest.mark.parametrize("d", [2, 3])
def test_density_check_messages(d):
    pure = np.zeros((d, d), dtype=complex)
    pure[0, 0] = 1.0
    not_hermitian = pure.copy()
    not_hermitian[0, 1] = 1.0
    negative = np.diag([1.5, -0.5] + [0.0] * (d - 2)).astype(complex)
    for bad, message in [(not_hermitian, "density matrix is not Hermitian"),
                         (0.7 * np.eye(d, dtype=complex), f"density matrix trace is {0.7 * d}, expected 1"),
                         (negative, "density matrix is not positive semidefinite")]:
        with pytest.raises(ValueError) as exc:
            q.check_density_stack(np.stack([pure, bad]))
        assert str(exc.value) == message


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("d", [2, 3])
def test_density_checks_reject_every_non_finite_entry(d):
    valid = np.eye(d, dtype=complex) / d
    for i in range(d):
        for j in range(d):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
                for symmetric in (False, True):
                    rho = valid.copy()
                    rho[i, j] = bad
                    if symmetric:
                        rho[j, i] = bad
                    with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
                        q.check_density_stack(np.stack([valid, rho]))


def test_only_larger_densities_go_through_eigvalsh(monkeypatch):
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a):
        shapes.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    q.check_density_stack(np.stack([q.projector(k) for k in q.pauli_eigenstates().values()]))
    q.State.from_ket(q.plus_ket())
    assert shapes == []
    q.check_density_stack(np.stack([q.projector(q.fourier_ket(3, k)) for k in range(3)]))
    with pytest.raises(ValueError, match="positive"):
        q.State(np.diag([1.2, 0.0, -0.2]).astype(complex))
    assert shapes == [(3, 3, 3), (1, 3, 3)]


@pytest.mark.parametrize("d", [2, 3])
def test_empty_stacks_pass_every_check(d):
    # A stack check holds if it holds for every matrix, so it holds for none.
    empty = np.zeros((0, d, d), dtype=complex)
    q.check_density_stack(empty)
    q.check_unitary_stack(empty)
    assert q.apply_unitary_stack(empty, np.eye(d, dtype=complex) / d).shape == (0, d, d)
    probs = q.outcome_probabilities(q.Measurement.computational(d), empty)
    assert sorted(probs) == list(range(d))
    assert all(p.shape == (0,) for p in probs.values())


# ---------------------------------------------------------------------------
# Pauli measurements: validated once, shared read-only
# ---------------------------------------------------------------------------

PAULI_LABELS = [(0, 1), (1, 0), (0, 0), (1, 1), (0, 2), [1, 0]]


def test_pauli_measurements_equal_their_basis_construction():
    kets = q.pauli_eigenstates()
    for axis in ("x", "y", "z", "X", "Y", "Z"):
        basis = [kets[axis.lower() + "+"], kets[axis.lower() + "-"]]
        cases = [(q.Measurement.pauli(axis), q.Measurement.from_basis(basis, (0, 1))),
                 (q.Measurement.pauli(axis, None), q.Measurement.from_basis(basis))]
        cases += [(q.Measurement.pauli(axis, labels), q.Measurement.from_basis(basis, labels))
                  for labels in PAULI_LABELS]
        for m, ref in cases:
            assert m.outcome_labels == ref.outcome_labels
            assert m._stack.tobytes() == ref._stack.tobytes()
            assert [p.tobytes() for p in m.projectors] == [p.tobytes() for p in ref.projectors]


def test_pauli_instances_are_distinct_and_share_one_read_only_stack():
    first, second = q.Measurement.pauli("y", (1, 0)), q.Measurement.pauli("y", (1, 0))
    assert first is not second and first != second
    assert first._stack is second._stack
    assert first.projectors is second.projectors
    assert not first._stack.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first._stack[0, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        second.projectors[1][1, 1] = 0.0


def test_writes_to_pauli_eigenstates_cannot_reach_pauli_measurements(monkeypatch):
    monkeypatch.setattr(q, "_PAULI_MEASUREMENTS", {})  # the next pauli() builds afresh
    expected = q.Measurement.from_basis([q.plus_ket(), q.minus_ket()])._stack.copy()
    kets = q.pauli_eigenstates()
    for ket in kets.values():
        ket[:] = [1.0, 0.0]
    assert np.array_equal(q.Measurement.pauli("x")._stack, expected)
    assert np.array_equal(q.pauli_eigenstates()["x-"], q.minus_ket())
    assert q.pauli_eigenstates()["x+"] is not q.pauli_eigenstates()["x+"]


def test_pauli_validates_each_axis_and_labels_once(monkeypatch):
    monkeypatch.setattr(q, "_PAULI_MEASUREMENTS", {})
    runs = []
    post_init = q.Measurement.__post_init__

    def counting(self):
        runs.append(self)
        post_init(self)

    monkeypatch.setattr(q.Measurement, "__post_init__", counting)
    measurements = [q.Measurement.pauli("x") for _ in range(10)]
    assert len(runs) == 1
    assert len({id(m) for m in measurements}) == 10


def test_pauli_rejects_bad_input_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="^unknown Pauli axis 'w'$"):
            q.Measurement.pauli("w")
        with pytest.raises(ValueError, match="^one label per projector is required$"):
            q.Measurement.pauli("x", (0,))
        q.Measurement.pauli("x")


def test_measurement_invariants_rejected():
    p_plus = q.projector(q.plus_ket())
    with pytest.raises(ValueError, match="orthogonal"):
        q.Measurement((p_plus, p_plus), (0, 1))
    with pytest.raises(ValueError, match="identity"):
        q.Measurement((p_plus,), (0,))
    with pytest.raises(ValueError, match="idempotent"):
        q.Measurement((0.5 * q.I2, 0.5 * q.I2), (0, 1))


def test_measurement_orthogonality_checks_every_pair():
    # The repeated projector is the pair (1, 2) of three, off the diagonal
    # of the product of every pair with every other.
    p0, p1 = q.projector(q.basis_ket(3, 0)), q.projector(q.basis_ket(3, 1))
    with pytest.raises(ValueError, match="orthogonal"):
        q.Measurement((p0, p1, p1), (0, 1, 2))


def test_validated_operators_are_read_only():
    # outcome_probabilities and apply_channel use the stacks the constructors
    # checked, so the operators handed out must not change after the checks.
    m = q.Measurement.pauli("x")
    ch = q.Channel.unitary(q.S)
    with pytest.raises(ValueError, match="read-only"):
        m.projectors[0][0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        ch.kraus[0][0, 0] = 0.0


def test_state_keeps_its_own_copy_of_the_density():
    # A write to the caller's array after validation must not reach the
    # state: here it would give "probabilities" 3.25 and -2.25.
    rho = q.projector(q.plus_ket())
    s = q.State(rho)
    rho[0, 1] = 5.0
    dist = dict(q.outcome_distribution(q.Measurement.pauli("x"), s))
    assert dist[0] == pytest.approx(1.0, abs=1e-12)
    assert dist[1] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError, match="read-only"):
        s.density[0, 1] = 5.0


def test_channel_unitary_rejects_a_scaled_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        q.Channel.unitary(1.001 * q.S)
    with pytest.raises(ValueError, match="not unitary"):
        q.Channel.unitary(np.ones((2, 3)))


def test_outcome_probabilities_with_shared_labels_match_per_projector_traces():
    rng = np.random.default_rng(11)
    m = q.Measurement.computational(3, (0, 0, 1))
    rhos = np.stack([_random_state(rng, 3).density for _ in range(20)])
    expected: dict[int, np.ndarray] = {}
    for p, label in zip(m.projectors, m.outcome_labels):
        expected[label] = expected.get(label, 0.0) + np.trace(p @ rhos, axis1=1, axis2=2).real
    probs = q.outcome_probabilities(m, rhos)
    assert sorted(probs) == sorted(expected)
    for label in expected:
        assert np.array_equal(probs[label], expected[label])


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
