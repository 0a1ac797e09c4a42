"""Dense complex linear algebra and quantum primitives for dimensions 2-9.

Everything is a plain numpy array with ``dtype=complex``: kets are 1-D,
operators and density matrices 2-D.  ``State``, ``Channel`` and
``Measurement`` validate their arrays once, at construction, and keep
read-only copies.  Fixed objects are built once: the six Pauli kets, the
identity matrices and, per (axis, labels), the Pauli measurement, which
``Measurement.pauli`` shares read-only among the instances it returns.
Density matrices are checked Hermitian and of unit trace to ``ATOL_PROB``
and positive semidefinite to ``ATOL_STRUCT``; the smallest eigenvalue of a
qubit density is read in closed form, larger ones go through ``eigvalsh``.
Phase conventions used throughout:

* ``rz(theta) = diag(1, e^{i theta})`` (first diagonal entry fixed to 1),
  so ``S = rz(pi/2) = diag(1, i)`` and ``T = rz(pi/4)`` exactly.
* Fourier basis states are ``|x_k> = d^{-1/2} sum_j w^{jk} |j>`` with
  ``w = exp(2 pi i / d)``; for d=2 these are the usual ``|+>``, ``|->``.
* Global phases are irrelevant to every probability computed here;
  ``phase_canonical`` gives a canonical representative when operators
  must be compared or deduplicated.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np

# Structural checks (projector algebra, channel completeness, unitarity).
ATOL_STRUCT = 1e-10
# Equality of computed probabilities and traces.
ATOL_PROB = 1e-12

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    """Z rotation ``diag(1, e^{i theta})`` (global phase normalized away), in float64."""
    return np.array([[1, 0], [0, np.exp(1j * float(theta))]], dtype=complex)


def ry(theta: float) -> np.ndarray:
    """Y rotation ``exp(-i theta Y / 2)``; real for real theta, in float64."""
    c, s = np.cos(float(theta) / 2), np.sin(float(theta) / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def basis_ket(d: int, i: int) -> np.ndarray:
    """Computational basis ket |i> in dimension d."""
    if not 0 <= i < d:
        raise ValueError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def plus_ket(d: int = 2) -> np.ndarray:
    """Uniform superposition (|0> + ... + |d-1>) / sqrt(d)."""
    return np.full(d, 1 / np.sqrt(d), dtype=complex)


def minus_ket() -> np.ndarray:
    """Qubit |-> = (|0> - |1>) / sqrt(2)."""
    return np.array([1, -1], dtype=complex) / np.sqrt(2)


def fourier_ket(d: int, k: int) -> np.ndarray:
    """Fourier ("X") basis state |x_k> = d^{-1/2} sum_j w^{jk} |j>."""
    w = np.exp(2j * np.pi / d)
    return np.array([w ** (j * k) for j in range(d)], dtype=complex) / np.sqrt(d)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


# The six Pauli eigenstates, built once; pauli_eigenstates() hands out copies.
_PAULI_KETS = {
    name: _read_only(ket) for name, ket in (
        ("x+", plus_ket()),
        ("x-", minus_ket()),
        ("y+", np.array([1, 1j], dtype=complex) / np.sqrt(2)),
        ("y-", np.array([1, -1j], dtype=complex) / np.sqrt(2)),
        ("z+", basis_ket(2, 0)),
        ("z-", basis_ket(2, 1)),
    )
}


def pauli_eigenstates() -> dict[str, np.ndarray]:
    """Name -> a new, writable ket for each of the six single-qubit Pauli eigenstates.

    The order x+, x-, y+, y-, z+, z- is the enumeration order of the
    Clifford search.
    """
    return {name: ket.copy() for name, ket in _PAULI_KETS.items()}


def _as_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit dimension check."""
    a, b = _as_matrix(a, "a"), _as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(a).conj().T


def transpose(a: np.ndarray) -> np.ndarray:
    """Transpose without conjugation."""
    return _as_matrix(a).T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, row-major block convention."""
    return np.kron(_as_matrix(a, "a"), _as_matrix(b, "b"))


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| from a ket."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return v[:, None] * v.conj()  # np.outer's product, without its wrapper


# Structural checks.  Each works on a stack of shape (n, d, d) and holds only
# if it holds for every matrix of the stack; one object is checked as the
# stack of one, ``m[None]``.  Closeness is ``|a - b| <= atol`` entrywise,
# which, unlike ``np.allclose``, never counts inf or NaN as close.  The
# stacks are small, so the checks keep numpy calls few: ``_all`` counts
# instead of reducing, and tolerances are compared as float64 scalars.

def _dagger_stack(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _traces(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of every matrix of a stack (the last two axes).

    The diagonal's sum, as ``np.trace`` takes it, at a fraction of its call cost.
    """
    return m.diagonal(0, -2, -1).sum(-1).real


def _all(ok: np.ndarray) -> bool:
    """``ok.all()`` for a boolean array, as a count (a fraction of a reduction's call cost)."""
    return np.count_nonzero(ok) == ok.size


def _close(a: np.ndarray, b, atol: float) -> bool:
    return _all(np.abs(a - b) <= np.float64(atol))


@functools.cache
def _eye(d: int, dtype=complex) -> np.ndarray:
    """Read-only identity of dimension d, built once per d and dtype."""
    return _read_only(np.eye(d, dtype=dtype))


def _all_unitary(us: np.ndarray) -> bool:
    return _close(_dagger_stack(us) @ us, _eye(us.shape[-1]), ATOL_STRUCT)


def check_unitary_stack(us: np.ndarray) -> None:
    """Raise unless every matrix of the stack is unitary (U^+ U = I)."""
    if not _all_unitary(us):
        raise ValueError("matrix is not unitary")


def check_density_stack(rhos: np.ndarray) -> None:
    """Raise unless every matrix of the stack is Hermitian, of unit trace and PSD.

    PSD means a smallest eigenvalue of at least ``-ATOL_STRUCT``.  For
    qubits it is read in closed form, tr/2 - hypot((a - b)/2, |rho_10|) with
    a, b the real diagonal (the lower triangle, as ``eigvalsh`` reads the
    matrix); larger matrices go through ``eigvalsh``.  An empty stack passes.
    """
    if not _close(rhos, _dagger_stack(rhos), ATOL_PROB):
        raise ValueError("density matrix is not Hermitian")
    tr = _traces(rhos)
    ok = np.abs(tr - 1.0) <= np.float64(ATOL_PROB)
    if not _all(ok):
        raise ValueError(f"density matrix trace is {tr[~ok][0]}, expected 1")
    if rhos.shape[-1] == 2:
        # tr is a + b exactly: the trace of a 2x2 matrix is one addition.
        lam = tr / 2 - np.hypot((rhos[:, 0, 0] - rhos[:, 1, 1]).real / 2, np.abs(rhos[:, 1, 0]))
    else:
        lam = np.linalg.eigvalsh(rhos)[:, 0]
    if np.count_nonzero(lam < np.float64(-ATOL_STRUCT)):
        raise ValueError("density matrix is not positive semidefinite")


def is_left_stochastic(m: np.ndarray) -> bool:
    """Entries >= 0 and every column summing to 1, to the trace-preservation tolerance."""
    return bool(np.all(m >= -ATOL_STRUCT)) and _close(m.sum(axis=0), 1.0, ATOL_STRUCT)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary: complex Gaussian matrix + QR orthonormalization."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    # Fix the phase freedom of QR so the distribution does not favour R's signs.
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def phase_canonical(u: np.ndarray, atol: float = 1e-9) -> np.ndarray:
    """Normalize global phase: first nonzero entry (column-major scan) made real positive."""
    u = _as_matrix(u)
    flat = u.flatten(order="F")
    nz = np.flatnonzero(np.abs(flat) > atol)
    if nz.size == 0:
        raise ValueError("cannot phase-normalize the zero matrix")
    z = flat[nz[0]]
    return u * (abs(z) / z)


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-9) -> bool:
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        return False
    return bool(np.allclose(phase_canonical(a, atol), phase_canonical(b, atol), atol=atol, rtol=0.0))


@dataclass(frozen=True, eq=False)
class State:
    """Quantum state as a d x d density matrix (pure states are rank-1).

    Like ``Channel`` and ``Measurement``, a state compares and hashes by
    identity: its fields are arrays, which have no single truth value.  It
    keeps a read-only copy of the caller's array, so a later write to that
    array cannot change a validated state.
    """

    density: np.ndarray

    def __post_init__(self):
        rho = _as_matrix(self.density, "density").copy()
        if rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        rho.flags.writeable = False
        check_density_stack(rho[None])
        object.__setattr__(self, "density", rho)

    @classmethod
    def from_ket(cls, ket: np.ndarray) -> "State":
        return cls(projector(ket))

    @property
    def dim(self) -> int:
        return self.density.shape[0]


@dataclass(frozen=True, eq=False)
class Channel:
    """Trace-preserving map given by Kraus operators {K_i}, sum K_i^+ K_i = I.

    The operators are kept once, as the read-only stack ``_stack`` (n, d, d)
    that the completeness check ran on; ``kraus`` holds views of that stack,
    so ``apply_channel`` never re-stacks them.
    """

    kraus: tuple[np.ndarray, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = tuple(_as_matrix(k, "kraus operator") for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        if shape[0] != shape[1]:
            raise ValueError("only square Kraus operators are supported")
        ks = _read_only(np.array(ops))
        if not _close((_dagger_stack(ks) @ ks).sum(axis=0), _eye(shape[0]), ATOL_STRUCT):
            raise ValueError("channel is not trace preserving (sum K^+ K != I)")
        object.__setattr__(self, "kraus", tuple(ks))
        object.__setattr__(self, "_stack", ks)

    @classmethod
    def unitary(cls, u: np.ndarray) -> "Channel":
        """Single-Kraus channel of a square matrix u.

        Checks, each once: u is 2-D and square, and U^+ U = I (the
        constructor's completeness check for one operator).  Any failure
        is reported as "matrix is not unitary".
        """
        u = _as_matrix(u, "unitary")
        if u.shape[0] != u.shape[1]:
            raise ValueError("matrix is not unitary")
        try:
            return cls((u,))
        except ValueError:
            raise ValueError("matrix is not unitary") from None

    @classmethod
    def erase(cls) -> "Channel":
        """Qubit map sending every state to |0><0|."""
        zero, one = basis_ket(2, 0), basis_ket(2, 1)
        return cls((np.outer(zero, zero.conj()), np.outer(zero, one.conj())))

    @classmethod
    def partial_erase(cls, p: float) -> "Channel":
        """Erase to |0> with probability p, identity otherwise."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"erase probability {p} outside [0, 1]")
        zero, one = basis_ket(2, 0), basis_ket(2, 1)
        return cls((
            np.sqrt(p) * np.outer(zero, zero.conj()),
            np.sqrt(p) * np.outer(zero, one.conj()),
            np.sqrt(1.0 - p) * np.eye(2, dtype=complex),
        ))

    @classmethod
    def classical(cls, stochastic: np.ndarray) -> "Channel":
        """Channel acting on computational-basis populations as a left-stochastic matrix."""
        m = np.asarray(stochastic, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("stochastic matrix must be square")
        if not is_left_stochastic(m):
            raise ValueError("matrix is not left-stochastic")
        d = m.shape[0]
        ops = []
        for i in range(d):
            for j in range(d):
                if m[i, j] > 0.0:
                    k = np.zeros((d, d), dtype=complex)
                    k[i, j] = np.sqrt(m[i, j])
                    ops.append(k)
        return cls(tuple(ops))

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    def is_unitary_channel(self) -> bool:
        # One square Kraus operator passed the completeness check K^+ K = I
        # in __post_init__, which is the unitarity check.
        return len(self.kraus) == 1


def apply_channel(ch: Channel, s: State) -> State:
    """rho -> sum_i K_i rho K_i^+ ."""
    if ch.dim != s.dim:
        raise ValueError(f"dimension mismatch: channel {ch.dim}, state {s.dim}")
    return State((ch._stack @ s.density @ _dagger_stack(ch._stack)).sum(axis=0))


def apply_unitary_stack(us: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``apply_channel`` of each unitary of a stack to one density matrix, checked."""
    rhos = us @ rho @ _dagger_stack(us)
    check_density_stack(rhos)
    return rhos


@dataclass(frozen=True, eq=False)
class Measurement:
    """Projective measurement with an integer game label per raw outcome.

    The constructor runs each check once over the stack of projectors:
    Hermitian; idempotent (P_i P_i = P_i) and pairwise orthogonal
    (P_i P_j = 0 for i != j), both read off one product of every pair;
    summing to the identity.  The validated stack is kept read-only as
    ``_stack`` (n, d, d), and ``projectors`` holds views of it, so
    ``outcome_probabilities`` never re-stacks them.
    """

    projectors: tuple[np.ndarray, ...]
    outcome_labels: tuple[int, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        projs = tuple(_as_matrix(p, "projector") for p in self.projectors)
        if not projs:
            raise ValueError("measurement needs at least one projector")
        if len(projs) != len(self.outcome_labels):
            raise ValueError("one label per projector is required")
        d = projs[0].shape[0]
        if any(p.shape != (d, d) for p in projs):
            raise ValueError("all projectors must share one dimension")
        ps = _read_only(np.array(projs))
        if not _close(ps, _dagger_stack(ps), ATOL_STRUCT):
            raise ValueError("projector is not Hermitian")
        products = ps[:, None] @ ps[None]  # products[i, j] = P_i P_j
        same = _eye(len(ps), bool)
        if not _close(products[same], ps, ATOL_STRUCT):
            raise ValueError("projector is not idempotent")
        if not _close(products[~same], 0.0, ATOL_STRUCT):
            raise ValueError("projectors are not pairwise orthogonal")
        if not _close(ps.sum(axis=0), _eye(d), ATOL_STRUCT):
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", tuple(ps))
        object.__setattr__(self, "outcome_labels", tuple(int(c) for c in self.outcome_labels))
        object.__setattr__(self, "_stack", ps)

    @classmethod
    def from_basis(cls, kets, labels=None) -> "Measurement":
        kets = [np.asarray(k, dtype=complex).reshape(-1) for k in kets]
        if labels is None:
            labels = range(len(kets))
        return cls(tuple(projector(k) for k in kets), tuple(labels))

    @classmethod
    def pauli(cls, axis: str, labels=(0, 1)) -> "Measurement":
        """X/Y/Z measurement; the + eigenstate carries ``labels[0]``.

        Each (axis, labels) is built and validated once, on first use.
        Every call returns a new instance that shares that one's read-only
        projector stack, so instances still compare by identity.
        """
        axis = axis.lower()
        if axis not in ("x", "y", "z"):
            raise ValueError(f"unknown Pauli axis {axis!r}")
        kets = [_PAULI_KETS[axis + "+"], _PAULI_KETS[axis + "-"]]
        labels = tuple(range(2) if labels is None else labels)  # None: from_basis's default
        try:
            validated = _PAULI_MEASUREMENTS.get((cls, axis, labels))
        except TypeError:  # unhashable labels: built, and judged, by the constructor
            return cls.from_basis(kets, labels)
        if validated is None:
            validated = _PAULI_MEASUREMENTS[cls, axis, labels] = cls.from_basis(kets, labels)
        return copy.copy(validated)

    @classmethod
    def computational(cls, d: int, labels=None) -> "Measurement":
        return cls.from_basis([basis_ket(d, i) for i in range(d)], labels)

    @classmethod
    def fourier(cls, d: int, labels=None) -> "Measurement":
        """Fourier ("X") basis measurement; outcome k labeled ``labels[k]``."""
        return cls.from_basis([fourier_ket(d, k) for k in range(d)], labels)

    @classmethod
    def from_subspaces(cls, d: int, groups, labels=None) -> "Measurement":
        """PVM from disjoint groups of computational-basis indices."""
        projs = []
        for group in groups:
            p = np.zeros((d, d), dtype=complex)
            for i in group:
                p[i, i] = 1.0
            projs.append(p)
        if labels is None:
            labels = range(len(projs))
        return cls(tuple(projs), tuple(labels))

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


# (class, axis, labels) -> the validated Pauli measurement that Measurement.pauli shares.
_PAULI_MEASUREMENTS: dict[tuple, Measurement] = {}


def outcome_probabilities(m: Measurement, rhos: np.ndarray) -> dict[int, np.ndarray]:
    """Label -> probabilities over a stack of densities, outcomes sharing a label summed.

    Every outcome's trace tr(P_i rho) comes from one product of the
    measurement's projector stack with the density stack.  One check runs,
    once per density: the probabilities sum to 1.
    """
    traces = _traces(m._stack @ rhos[:, None])
    agg: dict[int, np.ndarray] = {}
    for i, label in enumerate(m.outcome_labels):
        agg[label] = agg.get(label, 0.0) + traces[:, i]
    total = sum(agg.values())
    ok = np.abs(total - 1.0) <= np.float64(ATOL_STRUCT)
    if not _all(ok):
        raise ValueError(f"outcome probabilities sum to {total[~ok][0]}, expected 1")
    return agg


def outcome_distribution(m: Measurement, s: State) -> list[tuple[int, float]]:
    """Sorted (label, probability) pairs, outcomes sharing a label summed."""
    if m.dim != s.dim:
        raise ValueError(f"dimension mismatch: measurement {m.dim}, state {s.dim}")
    probs = outcome_probabilities(m, s.density[None])
    return [(label, float(p[0])) for label, p in sorted(probs.items())]


def shift_gate(d: int) -> np.ndarray:
    """Generalized Pauli X: cyclic increment |i> -> |i+1 mod d>."""
    g = np.zeros((d, d), dtype=complex)
    for i in range(d):
        g[(i + 1) % d, i] = 1.0
    return g


def qudit_gates(d: int) -> dict[str, np.ndarray]:
    """Named gate set for dimension d.

    Always contains "I", "X" (cyclic shift) and "F" (the Fourier matrix whose
    columns are the X-basis states).  For d=3 it additionally contains the
    diagonal phase gates "T3" = diag(1, w^{-1/3}, w^{-2/3}), "V" = diag(1, w, w)
    and "W" = diag(1, 1, w) with w = exp(2 pi i / 3).
    """
    if d < 2:
        raise ValueError(f"unsupported dimension {d}")
    gates = {
        "I": np.eye(d, dtype=complex),
        "X": shift_gate(d),
        "F": np.column_stack([fourier_ket(d, k) for k in range(d)]),
    }
    if d == 3:
        w = np.exp(2j * np.pi / 3)
        gates["T3"] = np.diag([1, w ** (-1 / 3), w ** (-2 / 3)]).astype(complex)
        gates["V"] = np.diag([1, w, w]).astype(complex)
        gates["W"] = np.diag([1, 1, w]).astype(complex)
    return gates
