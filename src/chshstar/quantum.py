"""Dense complex linear algebra and quantum primitives for dimensions 2-9.

Everything is a plain numpy array with ``dtype=complex``: kets are 1-D,
operators and density matrices 2-D.  Phase conventions used throughout:

* ``rz(theta) = diag(1, e^{i theta})`` (first diagonal entry fixed to 1),
  so ``S = rz(pi/2) = diag(1, i)`` and ``T = rz(pi/4)`` exactly.
* Fourier basis states are ``|x_k> = d^{-1/2} sum_j w^{jk} |j>`` with
  ``w = exp(2 pi i / d)``; for d=2 these are the usual ``|+>``, ``|->``.
* Global phases are irrelevant to every probability computed here;
  ``phase_canonical`` gives a canonical representative when operators
  must be compared or deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# The six Pauli eigenstates, in the fixed enumeration order used everywhere.
PAULI_EIGENSTATE_NAMES = ("x+", "x-", "y+", "y-", "z+", "z-")


def pauli_eigenstates() -> dict[str, np.ndarray]:
    """Name -> ket for the six single-qubit Pauli eigenstates."""
    return {
        "x+": plus_ket(),
        "x-": minus_ket(),
        "y+": np.array([1, 1j], dtype=complex) / np.sqrt(2),
        "y-": np.array([1, -1j], dtype=complex) / np.sqrt(2),
        "z+": basis_ket(2, 0),
        "z-": basis_ket(2, 1),
    }


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
    return np.outer(v, v.conj())


# Structural checks.  Each works on a stack of shape (n, d, d) and holds only
# if it holds for every matrix of the stack; one object is checked as the
# stack of one, ``m[None]``.  Closeness is ``|a - b| <= atol`` entrywise,
# which, unlike ``np.allclose``, never counts inf or NaN as close.

def _dagger_stack(m: np.ndarray) -> np.ndarray:
    return m.conj().transpose(0, 2, 1)


def _close(a: np.ndarray, b, atol: float) -> bool:
    return bool(np.all(np.abs(a - b) <= atol))


def _all_unitary(us: np.ndarray) -> bool:
    return _close(_dagger_stack(us) @ us, np.eye(us.shape[-1]), ATOL_STRUCT)


def check_unitary_stack(us: np.ndarray) -> None:
    """Raise unless every matrix of the stack is unitary (U^+ U = I)."""
    if not _all_unitary(us):
        raise ValueError("matrix is not unitary")


def check_density_stack(rhos: np.ndarray) -> None:
    """Raise unless every matrix of the stack is Hermitian, of unit trace and PSD."""
    if not _close(rhos, _dagger_stack(rhos), ATOL_PROB):
        raise ValueError("density matrix is not Hermitian")
    tr = np.trace(rhos, axis1=1, axis2=2).real
    ok = np.abs(tr - 1.0) <= ATOL_PROB
    if not ok.all():
        raise ValueError(f"density matrix trace is {tr[~ok][0]}, expected 1")
    if np.linalg.eigvalsh(rhos).min() < -ATOL_STRUCT:
        raise ValueError("density matrix is not positive semidefinite")


def is_left_stochastic(m: np.ndarray) -> bool:
    """Entries >= 0 and every column summing to 1."""
    # Column sums may be off by ATOL_STRUCT plus a relative 1e-5, the default
    # rtol of the np.allclose this check was specified with.
    return bool(np.all(m >= -ATOL_STRUCT)) and _close(m.sum(axis=0), 1.0, ATOL_STRUCT + 1e-5)


def is_unitary(u: np.ndarray) -> bool:
    u = _as_matrix(u)
    return u.shape[0] == u.shape[1] and _all_unitary(u[None])


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


@dataclass(frozen=True)
class State:
    """Quantum state as a d x d density matrix (pure states are rank-1)."""

    density: np.ndarray

    def __post_init__(self):
        rho = _as_matrix(self.density, "density")
        if rho.shape[0] != rho.shape[1]:
            raise ValueError(f"density matrix must be square, got {rho.shape}")
        check_density_stack(rho[None])
        object.__setattr__(self, "density", rho)

    @classmethod
    def from_ket(cls, ket: np.ndarray) -> "State":
        return cls(projector(ket))

    @property
    def dim(self) -> int:
        return self.density.shape[0]


@dataclass(frozen=True)
class Channel:
    """Trace-preserving map given by Kraus operators {K_i}, sum K_i^+ K_i = I."""

    kraus: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(_as_matrix(k, "kraus operator") for k in self.kraus)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        if shape[0] != shape[1]:
            raise ValueError("only square Kraus operators are supported")
        ks = np.stack(ops)
        if not _close((_dagger_stack(ks) @ ks).sum(axis=0), np.eye(shape[0]), ATOL_STRUCT):
            raise ValueError("channel is not trace preserving (sum K^+ K != I)")
        object.__setattr__(self, "kraus", ops)

    @classmethod
    def unitary(cls, u: np.ndarray) -> "Channel":
        u = _as_matrix(u, "unitary")
        if not is_unitary(u):
            raise ValueError("matrix is not unitary")
        return cls((u,))

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
        return len(self.kraus) == 1 and is_unitary(self.kraus[0])


def apply_channel(ch: Channel, s: State) -> State:
    """rho -> sum_i K_i rho K_i^+ ."""
    if ch.dim != s.dim:
        raise ValueError(f"dimension mismatch: channel {ch.dim}, state {s.dim}")
    ks = np.stack(ch.kraus)
    return State((ks @ s.density @ _dagger_stack(ks)).sum(axis=0))


def apply_unitary_stack(us: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``apply_channel`` of each unitary of a stack to one density matrix, checked."""
    rhos = us @ rho @ _dagger_stack(us)
    check_density_stack(rhos)
    return rhos


@dataclass(frozen=True)
class Measurement:
    """Projective measurement with an integer game label per raw outcome."""

    projectors: tuple[np.ndarray, ...]
    outcome_labels: tuple[int, ...]

    def __post_init__(self):
        projs = tuple(_as_matrix(p, "projector") for p in self.projectors)
        if not projs:
            raise ValueError("measurement needs at least one projector")
        if len(projs) != len(self.outcome_labels):
            raise ValueError("one label per projector is required")
        d = projs[0].shape[0]
        if any(p.shape != (d, d) for p in projs):
            raise ValueError("all projectors must share one dimension")
        ps = np.stack(projs)
        if not _close(ps, _dagger_stack(ps), ATOL_STRUCT):
            raise ValueError("projector is not Hermitian")
        if not _close(ps @ ps, ps, ATOL_STRUCT):
            raise ValueError("projector is not idempotent")
        i, j = np.triu_indices(len(ps), 1)
        if not _close(ps[i] @ ps[j], 0.0, ATOL_STRUCT):
            raise ValueError("projectors are not pairwise orthogonal")
        if not _close(ps.sum(axis=0), np.eye(d), ATOL_STRUCT):
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", projs)
        object.__setattr__(self, "outcome_labels", tuple(int(c) for c in self.outcome_labels))

    @classmethod
    def from_basis(cls, kets, labels=None) -> "Measurement":
        kets = [np.asarray(k, dtype=complex).reshape(-1) for k in kets]
        if labels is None:
            labels = range(len(kets))
        return cls(tuple(projector(k) for k in kets), tuple(labels))

    @classmethod
    def pauli(cls, axis: str, labels=(0, 1)) -> "Measurement":
        """X/Y/Z measurement; the + eigenstate carries ``labels[0]``."""
        states = pauli_eigenstates()
        axis = axis.lower()
        if axis not in ("x", "y", "z"):
            raise ValueError(f"unknown Pauli axis {axis!r}")
        return cls.from_basis([states[axis + "+"], states[axis + "-"]], labels)

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


def outcome_probabilities(m: Measurement, rhos: np.ndarray) -> dict[int, np.ndarray]:
    """Label -> probabilities over a stack of densities, outcomes sharing a label summed."""
    agg: dict[int, np.ndarray] = {}
    for p, label in zip(m.projectors, m.outcome_labels):
        agg[label] = agg.get(label, 0.0) + np.trace(p @ rhos, axis1=1, axis2=2).real
    total = sum(agg.values())
    ok = np.abs(total - 1.0) <= ATOL_STRUCT
    if not ok.all():
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
