"""Core linear algebra, channels and measurements."""

import math

import numpy as np
import pytest

from chshstar import quantum as q


def test_matmul_s_squared_is_z_exactly():
    # S = diag(1, i), so S @ S = diag(1, -1) with no phase slack.
    assert np.array_equal(q.S @ q.S, q.Z)


def test_tensor_zz_fixes_bell_pair():
    bell = (np.kron(q.basis_ket(2, 0), q.basis_ket(2, 0))
            + np.kron(q.basis_ket(2, 1), q.basis_ket(2, 1))) / np.sqrt(2)
    assert np.allclose(np.kron(q.Z, q.Z) @ bell, bell)


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
    # A str or a bool is no probability (a str once raised TypeError here).
    for bad in ("0.5", b"0.5", True, False, np.True_):
        with pytest.raises(ValueError) as raised:
            q.Channel.partial_erase(bad)
        assert str(raised.value) == f"erase probability must be a real number, got {bad!r}"
    for bad in (-1e-3, 1.5, math.nan):
        with pytest.raises(ValueError) as raised:
            q.Channel.partial_erase(bad)
        assert str(raised.value) == f"erase probability {bad} outside [0, 1]"
    # -0 is read as 0.0, so no Kraus operator carries a -0.0.
    assert math.copysign(1.0, q.check_erase_probability(-0.0)) == 1.0
    for a, b in zip(q.Channel.partial_erase(-0.0).kraus, q.Channel.partial_erase(0.0).kraus):
        assert a.tobytes() == b.tobytes()


def test_basis_ket_reads_its_index_as_an_integer():
    # numpy reads a bool index as a mask: basis_ket(2, True) was once the
    # unnormalized [1, 1], and basis_ket(3, 1.0) raised IndexError.
    for d, bad in ((2, True), (2, False), (3, np.True_), (3, 1.0), (3, np.float64(1.0)), (3, "1"), (3, None)):
        with pytest.raises(ValueError) as raised:
            q.basis_ket(d, bad)
        assert str(raised.value) == f"basis index {bad!r} is not an integer"
    assert np.array_equal(q.basis_ket(3, np.int64(1)), [0, 1, 0])
    with pytest.raises(ValueError, match="^basis index 3 out of range for dimension 3$"):
        q.basis_ket(3, np.int64(3))


def test_builders_read_their_dimension_as_an_integer():
    # plus_ket(2.0) and Measurement.fourier(3.0) once raised TypeError from numpy or range().
    builders = (lambda d: q.basis_ket(d, 0), q.plus_ket, q.qudit_gates, q.Measurement.computational,
                q.Measurement.fourier)
    for build in builders:
        for bad in (2.0, np.float64(3.0), "3", None):
            with pytest.raises(ValueError) as raised:
                build(bad)
            assert str(raised.value) == f"dimension must be an integer, got {bad!r}"
    assert q.plus_ket(np.int64(3)).tobytes() == q.plus_ket(3).tobytes()
    assert q.basis_ket(np.int64(2), 1).tobytes() == q.basis_ket(2, 1).tobytes()
    assert q.Measurement.fourier(np.int64(3))._stack.tobytes() == q.Measurement.fourier(3)._stack.tobytes()
    assert q.Measurement.computational(np.int64(2)).dim == 2
    assert list(q.qudit_gates(np.int64(3))) == list(q.qudit_gates(3))


def test_erase_probability_is_read_by_the_real_number_reader():
    # A 0-d array, a Decimal and None were once read through float() (None
    # raising TypeError); they are no real number, as for epsilon.
    from decimal import Decimal
    from fractions import Fraction

    for bad in (np.array(0.5), Decimal("0.5"), None, 0.5 + 0j):
        with pytest.raises(ValueError) as raised:
            q.check_erase_probability(bad)
        assert str(raised.value) == f"erase probability must be a real number, got {bad!r}"
    for good in (0.25, np.float64(0.25), np.float32(0.25), Fraction(1, 4)):
        assert q.check_erase_probability(good) == 0.25
    assert q.check_erase_probability(1) == 1.0 and q.check_erase_probability(np.int64(0)) == 0.0


def test_random_unitary_stack_draws_the_gates_of_successive_calls():
    def reference(d, rng):  # the one-gate draw, as it was written before the stacked one
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        qq, r = np.linalg.qr(g)
        diag = np.diag(r)
        return qq * (diag / np.abs(diag))

    for d in (2, 3):
        for size in ((), (1,), (4,), (7, 4)):
            rng = np.random.default_rng(d)
            expected = np.array([reference(d, rng) for _ in range(math.prod(size))])
            stack = q.random_unitary(d, np.random.default_rng(d), size)
            assert stack.shape == size + (d, d)
            assert stack.tobytes() == expected.tobytes()


def _bits(values) -> bytes:
    """The float64 bits of the values (complex ones as their parts), so that equal means equal by ``float.hex``."""
    return np.asarray(values).tobytes()


def test_shared_right_factor_product_has_the_broadcast_bits():
    # The (n d, d) @ (d, d) product of a stack's rows, at every stack size,
    # and _times, which takes it from _SHARED_FACTOR_MIN matrices on.
    rng = np.random.default_rng(28)
    for d in (2, 3):
        factor = q.random_unitary(d, rng)
        for n in (1, 2, 15, 16, 17, 37, 1001, 4004):
            m = q.random_unitary(d, rng, (n,))
            broadcast = _bits(m @ factor)
            assert _bits((m.reshape(-1, d) @ factor).reshape(m.shape)) == broadcast
            assert _bits(q._times(m, factor)) == broadcast


def test_outcome_traces_of_large_stacks_have_the_broadcast_bits():
    # tr(P rho) read off rho^T P^T, one product per projector, at every
    # stack size, and outcome_probabilities, which reads it so from
    # _SHARED_FACTOR_MIN densities on.
    rng = np.random.default_rng(29)
    for d, labels in ((2, (0, 1)), (2, (1, 1)), (3, (0, 1, 2)), (3, (2, 0, 2))):
        m = q.Measurement.from_basis(list(q.random_unitary(d, rng).T), labels)
        for n in (1, 2, 15, 16, 17, 148, 4004):
            kets = q.random_unitary(d, rng, (n,))[:, :, 0]
            rhos = kets[:, :, None] * kets[:, None, :].conj()
            broadcast = q._traces(m._stack @ rhos[:, None]).T
            rows = rhos.swapaxes(-1, -2).reshape(-1, d)
            assert _bits([q._traces((rows @ p.T).reshape(-1, d, d)) for p in m._stack]) == _bits(broadcast)
            expected = q._sum_by_label(m.outcome_labels, broadcast)
            probs = q.outcome_probabilities(m, rhos)
            assert list(probs) == list(expected)
            for label in probs:
                assert _bits(probs[label]) == _bits(expected[label])


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
    with pytest.raises(ValueError, match="sum to 1.2"):
        q.outcome_probabilities(q.Measurement.pauli("x"), np.stack([pure, 1.25 * pure]))


def test_stack_evaluation_matches_per_state_path_exactly():
    rng = np.random.default_rng(7)
    # Below dimension 4 one state's traces are summed on Python floats,
    # from 4 on by numpy; both must give the stack's bits.
    for d, measurements in (
        (2, (q.Measurement.pauli("x"), q.Measurement.pauli("z", labels=(0, 0)))),
        (3, (q.Measurement.fourier(3), q.Measurement.fourier(3, labels=(0, 1, 1)),
             q.Measurement.computational(3, (0, 0, 1)))),
        (4, (q.Measurement.fourier(4), q.Measurement.from_basis(list(q.random_unitary(4, rng)), (0, 1, 1, 0)))),
        (9, (q.Measurement.fourier(9, [k % 3 for k in range(9)]), q.Measurement.from_basis(list(q.random_unitary(9, rng))))),
    ):
        us = np.stack([q.random_unitary(d, rng) for _ in range(5)])
        initial = q.State.from_ket(q.plus_ket(d))
        # Each density as game.evaluate_unitary_stack forms it.
        rhos = us @ initial.density @ us.conj().swapaxes(-1, -2)
        q.check_density_stack(rhos)
        for measurement in measurements:
            probs = q.outcome_probabilities(measurement, rhos)
            for k, u in enumerate(us):
                state = q.apply_channel(q.Channel.unitary(u), initial)
                assert np.array_equal(rhos[k], state.density)
                dist = q.outcome_distribution(measurement, state)
                assert all(type(p) is float for _, p in dist)
                # Bit for bit, signed zeros included.
                assert [(label, probs[label][k].hex()) for label in sorted(probs)] \
                    == [(label, p.hex()) for label, p in dist]


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
    probs = q.outcome_probabilities(q.Measurement.computational(d), empty)
    assert sorted(probs) == list(range(d))
    assert all(p.shape == (0,) for p in probs.values())


# ---------------------------------------------------------------------------
# Single objects: checked on scalars, decided as the stack checks
# ---------------------------------------------------------------------------

BIG = 1.7e308  # finite, but the modulus of BIG * (1 + 1j) overflows


def _outcome(check, *args):
    """(exception type, message) that ``check(*args)`` raises, or None when it passes."""
    try:
        with np.errstate(all="ignore"):
            check(*args)
    except Exception as exc:  # any type that escapes is compared
        return type(exc), str(exc)
    return None


def _ulp_steps(x: float, n: int) -> list[float]:
    """The 2n + 1 floats from n below x to n above it, one ulp apart."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def _qubit_densities_to_check(rng) -> list[np.ndarray]:
    valid = []
    for _ in range(100):
        ket = rng.normal(size=2) + 1j * rng.normal(size=2)
        pure = q.projector(ket / np.linalg.norm(ket))
        w = rng.uniform()
        valid += [pure, w * pure + (1 - w) * q.I2 / 2]
    rhos = list(valid)
    for rho in valid[:20]:
        skew = rho.copy()
        skew[0, 1] += 1e-9
        v = q.random_unitary(2, rng)
        negative = v @ np.diag([-0.1, 1.1]) @ v.conj().T
        rhos += [skew, 1.3 * rho, (negative + negative.conj().T) / 2]
    for i in range(2):
        for j in range(2):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)):
                for symmetric in (False, True):
                    rho = q.I2 / 2
                    rho[i, j] = bad
                    if symmetric:
                        rho[j, i] = bad
                    rhos.append(rho)
    big = BIG * (1 + 1j)
    rhos += [
        np.array([[0.5, big], [np.conj(big), 0.5]]),  # Hermitian, |rho_10| overflows
        np.array([[0.5, big], [0.0, 0.5]]),  # |rho_01 - conj(rho_10)| overflows
        np.array([[0.5, BIG], [BIG, 0.5]]),
        np.array([[0.5 + BIG * 1j, 0.0], [0.0, 0.5]]),
        np.diag([BIG, -BIG]).astype(complex),
        np.diag([-0.0, -0.0]).astype(complex),  # numpy's trace is 0.0, not -0.0
    ]
    # Traces one ulp apart across 1 +- ATOL_PROB; t - 0.5 + 0.5 is t exactly.
    for t in _ulp_steps(1 + q.ATOL_PROB, 4) + _ulp_steps(1 - q.ATOL_PROB, 4):
        assert (t - 0.5) + 0.5 == t
        rhos.append(np.diag([t - 0.5, 0.5]).astype(complex))
    # Smallest eigenvalues across -ATOL_STRUCT, in steps below the rounding of tr/2 - |a - b|/2.
    for low in -q.ATOL_STRUCT + 1e-17 * np.arange(-200, 201):
        rhos.append(np.diag([low, 1.0 - low]).astype(complex))
    rhos += list(_densities_near_the_psd_bound(rng, 200))
    return rhos


def _qutrit_densities_to_check(rng) -> list[np.ndarray]:
    valid = []
    for _ in range(100):
        ket = rng.normal(size=3) + 1j * rng.normal(size=3)
        pure = q.projector(ket / np.linalg.norm(ket))
        w = rng.uniform()
        valid += [pure, w * pure + (1 - w) * np.eye(3) / 3]
    rhos = list(valid)
    for rho in valid[:20]:
        skew = rho.copy()
        skew[0, 2] += 1e-9
        v = q.random_unitary(3, rng)
        negative = v @ np.diag([-0.1, 0.6, 0.5]) @ v.conj().T
        rhos += [skew, 1.3 * rho, (negative + negative.conj().T) / 2]
    # Offsets one ulp apart across ATOL_PROB on a diagonal density, where
    # |rho_ij - conj(rho_ji)| is the offset's own modulus on both paths: a
    # real or an imaginary off-diagonal entry, or twice half an imaginary
    # offset on the diagonal.
    for base in (np.diag([0.5, 0.3, 0.2]), np.eye(3) / 3):
        for delta in _ulp_steps(q.ATOL_PROB, 3):
            for offset in (delta, -delta, 1j * delta, -1j * delta):
                for i in range(3):
                    for j in range(3):
                        rho = base.astype(complex)
                        rho[i, j] += offset / 2 if i == j else offset
                        rhos.append(rho)
    # Traces one ulp apart across 1 +- ATOL_PROB, summed exactly as laid out.
    for t in _ulp_steps(1 + q.ATOL_PROB, 4) + _ulp_steps(1 - q.ATOL_PROB, 4):
        assert 0.0 + (t - 0.5) + 0.25 + 0.25 == t
        rhos += [np.diag([t - 0.5, 0.25, 0.25]).astype(complex),
                 np.diag([0.25, 0.25, t - 0.5]).astype(complex),
                 np.diag([0.1, 0.2, t - 0.3]).astype(complex)]
    # Smallest eigenvalues across -ATOL_STRUCT, on the diagonal and rotated.
    for low in -q.ATOL_STRUCT + 1e-17 * np.arange(-200, 201):
        rhos.append(np.diag([low, 0.5, 0.5 - low]).astype(complex))
    for low in -q.ATOL_STRUCT + rng.uniform(-1e-9, 1e-9, size=200):
        v = q.random_unitary(3, rng)
        rho = v @ np.diag([low, 0.4, 0.6 - low]) @ v.conj().T
        rhos.append((rho + rho.conj().T) / 2)
    for i in range(3):
        for j in range(3):
            for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 1.0)):
                for symmetric in (False, True):
                    rho = np.eye(3, dtype=complex) / 3
                    rho[i, j] = bad
                    if symmetric:
                        rho[j, i] = bad
                    rhos.append(rho)
    big = BIG * (1 + 1j)
    third = 1 / 3
    rhos += [
        np.array([[third, big, 0], [np.conj(big), third, 0], [0, 0, third]]),  # Hermitian, overflows later
        np.array([[third, 0, big], [0, third, 0], [0, 0, third]]),  # |rho_02 - conj(rho_20)| overflows
        np.array([[third, 0, BIG], [0, third, 0], [BIG, 0, third]]),
        np.array([[third, 0, 0], [0, third + BIG * 1j, 0], [0, 0, third]]),
        # The order of the trace's additions decides these: BIG + -BIG + 1
        # is 1, 1 + BIG + -BIG is 0.
        np.diag([BIG, -BIG, 1.0]).astype(complex),
        np.diag([1.0, BIG, -BIG]).astype(complex),
        np.diag([BIG, 1.0, -BIG]).astype(complex),
        np.diag([-0.0, -0.0, -0.0]).astype(complex),
    ]
    return rhos


def _larger_densities_to_check(rng) -> list[np.ndarray]:
    """d = 4 and 5 densities: valid, not Hermitian, off-trace, not PSD and with a NaN entry."""
    rhos = []
    for d in (4, 5):
        for _ in range(20):
            ket = rng.normal(size=d) + 1j * rng.normal(size=d)
            pure = q.projector(ket / np.linalg.norm(ket))
            w = rng.uniform()
            rhos += [pure, w * pure + (1 - w) * np.eye(d) / d, 1.25 * pure]
        for delta in _ulp_steps(q.ATOL_PROB, 3):
            for offset in (delta, 1j * delta):
                rho = np.eye(d, dtype=complex) / d
                rho[0, d - 1] += offset
                rhos.append(rho)
        for t in _ulp_steps(1 + q.ATOL_PROB, 3) + _ulp_steps(1 - q.ATOL_PROB, 3):
            rhos.append(np.diag([t - 0.5] + [0.5 / (d - 1)] * (d - 1)).astype(complex))
        for low in -q.ATOL_STRUCT + rng.uniform(-1e-9, 1e-9, size=40):
            v = q.random_unitary(d, rng)
            rho = v @ np.diag([low] + [(1 - low) / (d - 1)] * (d - 1)) @ v.conj().T
            rhos.append((rho + rho.conj().T) / 2)
        for i, j in ((0, 0), (0, d - 1), (d - 1, 0), (d - 2, d - 1)):
            for bad in (np.nan, complex(np.nan, 1.0), np.inf):
                rho = np.eye(d, dtype=complex) / d
                rho[i, j] = bad
                rhos.append(rho)
    return rhos


def _offsets_near_the_hermitian_bound(rng) -> list[np.ndarray]:
    """Densities with one complex off-diagonal offset of modulus about ATOL_PROB."""
    rhos = []
    for d in (2, 3):
        for phase in np.exp(1j * rng.uniform(0, 2 * np.pi, size=10)):
            for k in range(-20, 21):
                rho = np.eye(d, dtype=complex) / d
                rho[0, d - 1] = q.ATOL_PROB * (1 + k * np.finfo(float).eps) * phase
                rhos.append(rho)
    return rhos


def _kind(outcome) -> str | None:
    """An outcome's message, with a trace's value left out."""
    if outcome is None:
        return None
    return "trace" if outcome[1].startswith("density matrix trace is ") else outcome[1]


def test_qubit_state_checks_decide_as_the_stack_check():
    outcomes = set()
    for rho in _qubit_densities_to_check(np.random.default_rng(1515)):
        single = _outcome(q.State, rho)
        assert single == _outcome(q.check_density_stack, rho[None]), rho
        assert single is None or single[0] is ValueError
        outcomes.add(single if single is None else single[1].split(" is ")[0])
    assert outcomes == {None, "density matrix", "density matrix trace"}
    # Each tolerance is reached from both sides.
    for t, accepted in ((np.nextafter(1 + q.ATOL_PROB, 0), True), (1 + 2 * q.ATOL_PROB, False)):
        assert (_outcome(q.State, np.diag([t - 0.5, 0.5]).astype(complex)) is None) == accepted
    # Qutrit densities decide as the stack check, message for message.
    kinds = set()
    for rho in _qutrit_densities_to_check(np.random.default_rng(1518)):
        single = _outcome(q.State, rho)
        assert single == _outcome(q.check_density_stack, rho[None]), rho
        kinds.add(_kind(single))
    assert kinds == {None, "density matrix is not Hermitian", "trace",
                     "density matrix is not positive semidefinite"}
    for t, accepted in ((np.nextafter(1 + q.ATOL_PROB, 0), True), (1 + 2 * q.ATOL_PROB, False)):
        assert (_outcome(q.State, np.diag([t - 0.5, 0.25, 0.25]).astype(complex)) is None) == accepted
    # Both take a complex modulus as libm's hypot, so they agree at the bound too.
    decided = set()
    for rho in _offsets_near_the_hermitian_bound(np.random.default_rng(1519)):
        single = _outcome(q.State, rho)
        assert single == _outcome(q.check_density_stack, rho[None]), rho
        decided.add(_kind(single))
    assert decided == {None, "density matrix is not Hermitian"}
    # From d = 4 on, a State's density goes to the stack check itself.
    kinds = set()
    for rho in _larger_densities_to_check(np.random.default_rng(1520)):
        single = _outcome(q.State, rho)
        assert single == _outcome(q.check_density_stack, rho[None]), rho
        kinds.add(_kind(single))
    assert kinds == {None, "density matrix is not Hermitian", "trace",
                     "density matrix is not positive semidefinite"}


def test_qubit_state_reports_an_overflowing_modulus_as_not_psd():
    big = BIG * (1 + 1j)
    with pytest.raises(ValueError) as exc:
        q.State(np.array([[0.5, big], [np.conj(big), 0.5]]))
    assert str(exc.value) == "density matrix is not positive semidefinite"


def test_single_qubit_gram_check_decides_as_the_stack_check():
    # One 2x2 or 3x3 Kraus operator is checked on scalars, anything else on the stack.
    rng = np.random.default_rng(1516)
    us = [q.random_unitary(2, rng) for _ in range(200)] + [q.I2, q.X, q.Y, q.Z, q.H, q.S, q.T]
    us3 = [q.random_unitary(3, rng) for _ in range(100)] + list(q.qudit_gates(3).values())
    cases = us + [1.001 * u for u in us[:20]] + [u @ np.diag([1.0, 1.0 + 1e-9]) for u in us[:20]]
    cases += us3 + [u * f for u in us3[:20] for f in (1 + 1e-9, 1 - 1e-9, 1 + 1e-11, 1 - 1e-11)]
    for d in (2, 3):
        for i in range(d):
            for j in range(d):
                for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf), BIG, BIG * (1 + 1j), 1.3e154 * (1 + 1j)):
                    u = np.eye(d, dtype=complex)
                    u[i, j] = bad
                    cases.append(u)
                if i < j:
                    # Unit columns i and j that are not orthogonal: only
                    # the off-diagonal Gram entry (i, j) leaves the tolerance.
                    u = np.eye(d, dtype=complex)
                    u[i, j], u[j, j] = 1e-6, np.sqrt(1 - 1e-12)
                    cases.append(u)
    for i in range(3):
        for j in range(3):
            # One entry moved: a diagonal Gram entry leaves the tolerance.
            for step in (1e-9, 1e-12j):
                u = us3[3 * i + j].copy()
                u[i, j] += step
                cases.append(u)
    # A real diagonal K gives exact Gram entries on both paths: K^+ K - I
    # steps across +-ATOL_STRUCT one ulp of the entry at a time.
    exact = [np.diag(diagonal).astype(complex)
             for target in (1 + q.ATOL_STRUCT, 1 - q.ATOL_STRUCT)
             for s in _ulp_steps(np.sqrt(target), 40)
             for diagonal in ([s, 1.0], [1.0, 1.0, s])]
    # Complex unitaries scaled to put their Gram entries near the tolerance.
    near = [u * np.sqrt(1 + q.ATOL_STRUCT) * (1 + k * np.finfo(float).eps)
            for u in us[:10] + us3[:10] for k in range(-20, 21)]
    for group in (cases, exact, near):
        decided = set()
        for u in group:
            single = _outcome(q.Channel.unitary, u)
            assert single in (None, (ValueError, "matrix is not unitary"))
            assert (_outcome(q.Channel, (u,)) is None) == (single is None)
            stacked = _outcome(q.check_unitary_stack, u[None])
            if single != stacked:
                # The scalar Gram entries may differ from BLAS's by an ulp.
                assert group is near
                with np.errstate(all="ignore"):
                    deviation = np.abs(u.conj().T @ u - np.eye(len(u))).max()
                assert abs(deviation - q.ATOL_STRUCT) <= 2 * np.finfo(float).eps
            decided.add(single is None)
        assert decided == {True, False}
    assert _outcome(q.Channel, (1.001 * us3[0],)) == (ValueError, "channel is not trace preserving (sum K^+ K != I)")


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
    # Neither idempotent nor orthogonal: idempotence is named first.
    with pytest.raises(ValueError, match="idempotent"):
        q.Measurement((0.5 * q.I2, 0.5 * q.I2), (0, 1))
    p0, p12 = q.projector(q.basis_ket(3, 0)), np.diag([0.0, 0.5, 0.5]).astype(complex)
    with pytest.raises(ValueError, match="^projector is not idempotent$"):
        q.Measurement((p0, p12, p12), (0, 1, 2))


def test_measurement_labels_must_be_integers():
    # Each was once truncated by int() (0.9 -> 0, "1" -> 1, 0.0 -> 0) or failed in int().
    basis = [q.plus_ket(), q.minus_ket()]
    q.Measurement.pauli("x")  # cached under (0, 1), which (0.0, 1.0) equals as a key
    for labels in ((0.9, 0.2), ("1", "0"), (math.inf, 0), (0, math.nan), (0.0, 1.0)):
        for build in (lambda: q.Measurement.pauli("x", labels), lambda: q.Measurement.from_basis(basis, labels)):
            with pytest.raises(ValueError) as raised:
                build()
            assert type(raised.value) is ValueError
            assert str(raised.value) == f"outcome labels {labels!r} include one that is not an integer"
    for m in (q.Measurement.pauli("x", (np.int64(1), np.uint8(0))),
              q.Measurement.from_basis(basis, np.array([1, 0]))):
        assert m.outcome_labels == (1, 0) and all(type(c) is int for c in m.outcome_labels)


def test_measurement_labels_must_be_a_sequence():
    basis = [q.plus_ket(), q.minus_ket()]
    for build, labels in ((lambda: q.Measurement.pauli("x", labels=5), 5),
                          (lambda: q.Measurement.computational(2, labels=7), 7),
                          (lambda: q.Measurement.fourier(3, labels=5), 5),
                          (lambda: q.Measurement.from_basis(basis, labels=5), 5),
                          (lambda: q.Measurement((q.I2,), 5), 5)):
        with pytest.raises(ValueError) as raised:
            build()
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"outcome labels {labels} are not a sequence"


def test_fourier_measurement_keeps_the_bits_of_its_per_call_construction():
    # The kets are built once per d, read-only; fourier_ket hands out new, writable arrays.
    for d in range(2, 10):
        w = np.exp(2j * np.pi / d)
        kets = [np.array([w ** (j * k) for j in range(d)], dtype=complex) / np.sqrt(d) for k in range(d)]
        m = q.Measurement.fourier(d)
        assert m.outcome_labels == tuple(range(d))
        assert m._stack.tobytes() == np.array([v[:, None] * v.conj() for v in kets]).tobytes()
        assert not q._fourier_kets(d).flags.writeable
        assert q.fourier_ket(d, 1).flags.writeable


def test_one_kraus_apply_channel_keeps_the_bits_of_the_stacked_sum():
    rng = np.random.default_rng(2207)
    gates = [q.random_unitary(d, rng) for d in (2, 3) for _ in range(20)]
    gates += [q.X, q.Z, -q.I2, q.shift_gate(3)] + [q.qudit_gates(3)[name] for name in ("T3", "V", "W")]
    for u in gates:
        d = len(u)
        for state in [q.State.from_ket(q.basis_ket(d, i)) for i in range(d)] + [_random_state(rng, d)]:
            # The stacked form apply_channel takes for every channel.
            expected = (u[None] @ state.density @ u[None].conj().swapaxes(-1, -2)).sum(axis=0)
            out = q.apply_channel(q.Channel.unitary(u), state).density
            assert [z.hex() for z in out.view(float).ravel()] == [z.hex() for z in expected.view(float).ravel()]
    # -I on |0><0| leaves three -0.0 entries in the bare product, which the
    # stacked sum, and so apply_channel, turns into 0.0.
    bare = (-q.I2 @ q.projector(q.basis_ket(2, 0)) @ (-q.I2).conj().T).view(float)
    assert [z.hex() for z in bare.ravel()].count("-0x0.0p+0") == 3


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


def test_channel_keeps_its_shape_messages():
    cases = (
        ((q.I2, np.eye(3, dtype=complex)), "all Kraus operators must share one shape"),
        ((np.ones((2, 3)),), "only square Kraus operators are supported"),
        ((np.ones(2),), r"kraus operator must be 2-D, got shape \(2,\)"),
        ((), "channel needs at least one Kraus operator"),
        ((0.5 * q.I2, 0.5 * q.I2), "not trace preserving"),
    )
    for kraus, message in cases:
        with pytest.raises(ValueError, match=message):
            q.Channel(kraus)


def test_array_rz_equals_stacked_scalar_rz_bit_for_bit():
    rng = np.random.default_rng(31)
    angles = np.concatenate([rng.uniform(-10, 10, 200), [0.0, -0.0, 1e-6, np.pi / 2 - 1e-9]])
    stacked = np.stack([q.rz(t) for t in angles])
    for thetas in (angles, angles.tolist(), angles.reshape(4, -1)):
        gates = q.rz(thetas)
        assert gates.shape == np.shape(thetas) + (2, 2) and gates.dtype == complex
        assert gates.reshape(-1, 2, 2).tobytes() == stacked.tobytes()
    # float32 angles are made float64 before the phase is taken.
    angles32 = angles.astype(np.float32)
    assert q.rz(angles32).tobytes() == np.stack([q.rz(float(t)) for t in angles32]).tobytes()
    q.check_unitary_stack(q.rz(angles32))
    assert q.rz([]).shape == (0, 2, 2)


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
    m = q.Measurement((np.diag([1, 1, 0]), np.diag([0, 0, 1])), (0, 1))
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
