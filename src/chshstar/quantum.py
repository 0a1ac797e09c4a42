"""Dense complex linear algebra and quantum primitives for dimensions 2-9.

Everything is a plain numpy array with ``dtype=complex``: kets are 1-D,
operators and density matrices 2-D; products, adjoints and tensor
products are numpy's own (``@``, ``.conj().T``, ``np.kron``).  ``State``,
``Channel`` and ``Measurement`` validate their arrays once, at
construction, and keep read-only copies.  Fixed objects are built once:
the six Pauli kets, the identity matrices, per d the Fourier kets and, per
(axis, labels), the Pauli measurement, which ``Measurement.pauli`` shares
read-only among the instances it returns.
Density matrices are checked Hermitian and of unit trace to ``ATOL_PROB``
and positive semidefinite to ``ATOL_STRUCT``; the smallest eigenvalue of a
qubit density is read in closed form, larger ones go through ``eigvalsh``.
Every complex modulus in a check is libm's ``hypot`` of its parts.
One size rule, ``_SHARED_FACTOR_MIN`` (16), picks the path: fewer densities
of dimension 2 or 3 (a ``State``'s is a stack of one) are checked, and their
outcome traces summed, on the scalars of one ``tolist()``, as is one 2x2 or
3x3 Kraus operator, since numpy's fixed cost per call is most of such a
check; ``game.evaluate_unitary_stack`` puts those floats in its one array, a
row per input pair.  A stack of unitaries is checked by an elementwise Gram
sum, not by a matmul's BLAS call per matrix.  A trace of dimension 3 or less
is elementwise adds from 0.0, bit for bit numpy's reduce, which on a short
axis runs several times slower after a matmul.
``apply_channel`` applies one Kraus operator without stacking it.  A
right factor that every matrix of a stack shares is taken as one product of
the stack's rows (``_times``), at any stack size, with the bits of numpy's
broadcast product.
Phase conventions used throughout:

* ``rz(theta) = diag(1, e^{i theta})`` (first diagonal entry fixed to 1),
  so ``S = rz(pi/2) = diag(1, i)`` and ``T = rz(pi/4)`` exactly.
* Fourier basis states are ``|x_k> = d^{-1/2} sum_j w^{jk} |j>`` with
  ``w = exp(2 pi i / d)``; for d=2 these are the usual ``|+>``, ``|->``.
* Global phases are irrelevant to every probability computed here;
  ``phase_canonical`` gives a canonical representative when operators
  must be compared or deduplicated, to the naming tolerance ``ATOL_NAME``.
"""

from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

# Structural checks (projector algebra, channel completeness, unitarity).
ATOL_STRUCT = 1e-10
# Equality of computed probabilities and traces.
ATOL_PROB = 1e-12
# Naming: phase normalization, equality up to phase, recognized gates, states and values.
ATOL_NAME = 1e-9

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S = np.array([[1, 0], [0, 1j]], dtype=complex)
T = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex)


def rz(theta) -> np.ndarray:
    """Z rotation ``diag(1, e^{i theta})`` (global phase normalized away), in float64.

    ``theta`` is an angle or an array of angles; an array of shape s gives
    the stack of shape s + (2, 2), each gate equal to its scalar call.  The
    angles are made float64 first, since ``1j *`` a float32 stays complex64.
    """
    theta = np.asarray(theta, dtype=float)
    g = np.zeros(theta.shape + (2, 2), dtype=complex)
    g[..., 0, 0] = 1
    g[..., 1, 1] = np.exp(1j * theta)
    return g


def ry(theta: float) -> np.ndarray:
    """Y rotation ``exp(-i theta Y / 2)``; real for real theta, in float64."""
    c, s = np.cos(float(theta) / 2), np.sin(float(theta) / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _integer(value, message: str) -> int:
    """The value as a Python int (numpy's integers too); else ValueError, ``message.format(value)``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(message.format(value)) from None


def _real(value, message: str):
    """The value itself if it is a real number (numpy's too) and no bool; else ValueError, ``message.format(value)``.

    A real number is a ``numbers.Real``; a bool is one, but no angle or
    probability, and numpy's bool is none.  A float is decided first: the
    ABC check costs more than the rest of a sweep point's checks.
    """
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(message.format(value))
    return value


def _dimension(d) -> int:
    """A dimension as a Python int (numpy's integers too); else ValueError."""
    return _integer(d, "dimension must be an integer, got {!r}")


def basis_ket(d: int, i: int) -> np.ndarray:
    """Computational basis ket |i> in dimension d; d and the index are integers (numpy's too), the index no bool."""
    d = _dimension(d)
    if isinstance(i, bool):  # an int to the reader, a mask to numpy
        raise ValueError(f"basis index {i!r} is not an integer")
    i = _integer(i, "basis index {!r} is not an integer")
    if not 0 <= i < d:
        raise ValueError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def plus_ket(d: int = 2) -> np.ndarray:
    """Uniform superposition (|0> + ... + |d-1>) / sqrt(d); d is an integer (numpy's too)."""
    d = _dimension(d)
    return np.full(d, 1 / np.sqrt(d), dtype=complex)


def minus_ket() -> np.ndarray:
    """Qubit |-> = (|0> - |1>) / sqrt(2)."""
    return np.array([1, -1], dtype=complex) / np.sqrt(2)


def fourier_ket(d: int, k: int) -> np.ndarray:
    """Fourier ("X") basis state |x_k> = d^{-1/2} sum_j w^{jk} |j>; d is an integer (numpy's too)."""
    d = _dimension(d)
    w = np.exp(2j * np.pi / d)
    return np.array([w ** (j * k) for j in range(d)], dtype=complex) / np.sqrt(d)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.cache
def _fourier_kets(d: int) -> np.ndarray:
    """Read-only stack of the d Fourier kets (row k is ``fourier_ket(d, k)``), built once per d."""
    return _read_only(np.array([fourier_ket(d, k) for k in range(d)]))


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


def _label_tuple(labels) -> tuple:
    """Measurement outcome labels as a tuple; ValueError, naming them, if they are not a sequence."""
    try:
        return tuple(labels)
    except TypeError:
        raise ValueError(f"outcome labels {labels!r} are not a sequence") from None


def _integers(values) -> tuple[int, ...] | None:
    """The values as Python ints, or None unless every one is an integer (numpy's too)."""
    try:
        return tuple(operator.index(v) for v in values)
    except TypeError:
        return None


def _as_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| from a ket."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    return v[:, None] * v.conj()  # np.outer's product, without its wrapper


# Structural checks.  Each works on a stack of shape (n, d, d) and holds only
# if it holds for every matrix of the stack; fewer than _SHARED_FACTOR_MIN
# 2x2 or 3x3 densities, or one such Kraus operator, are checked on scalars
# instead (below).  Closeness is
# ``|a - b| <= atol`` entrywise, which, unlike ``np.allclose``, never counts
# inf or NaN as close; a complex modulus is ``np.hypot`` of its parts, libm's
# hypot, as Python's abs() takes it.  The stacks are small, so the checks keep
# numpy calls few: ``_all`` counts instead of reducing, and tolerances are
# compared as float64 scalars.

def _dagger_stack(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _traces(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of every matrix of a stack (the last two axes).

    The diagonal's sum, as ``np.trace`` takes it: numpy's reduce from 4 on,
    elementwise adds of the real parts from 0.0 up to 3, which give its bits
    (numpy adds three entries or fewer in order, from 0.0) at a fraction of
    the cost of a reduce over a short axis.
    """
    diagonal = m.diagonal(0, -2, -1)
    if diagonal.shape[-1] > 3:
        return diagonal.sum(-1).real
    tr = 0.0
    for i in range(diagonal.shape[-1]):
        tr = tr + diagonal[..., i].real
    return tr


def _times(m: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """``m @ factor`` for a stack m (..., d, d) and one d x d right factor, bit for bit.

    One (n d, d) @ (d, d) product of the stack's rows, where numpy's
    broadcast matmul takes one product per matrix: every entry is the same
    sum of the same products in the same order.
    """
    return (m.reshape(-1, factor.shape[0]) @ factor).reshape(m.shape)


def _all(ok: np.ndarray) -> bool:
    """``ok.all()`` for a boolean array, as a count (a fraction of a reduction's call cost)."""
    return np.count_nonzero(ok) == ok.size


def _close(a: np.ndarray, b, atol: float) -> bool:
    d = a - b
    return _all(np.hypot(d.real, d.imag) <= np.float64(atol))


@functools.cache
def _eye(d: int, dtype=complex) -> np.ndarray:
    """Read-only identity of dimension d, built once per d and dtype."""
    return _read_only(np.eye(d, dtype=dtype))


def check_unitary_stack(us: np.ndarray) -> None:
    """Raise unless every matrix of the stack is unitary (U^+ U = I).

    Sums U^+ U elementwise in k order, not by BLAS (an entry may be an ulp off a matmul's); inf and NaN fail quietly.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = sum(us[..., k, :, None].conj() * us[..., k, None, :] for k in range(us.shape[-1]))
    if not _close(gram, _eye(us.shape[-1]), ATOL_STRUCT):
        raise ValueError("matrix is not unitary")


# Below this many 2x2 or 3x3 densities, the stack check and the outcome
# traces of ``game.evaluate_unitary_stack`` run on Python scalars, where
# numpy's fixed cost per call is most of the work.
_SHARED_FACTOR_MIN = 16


def check_density_stack(rhos: np.ndarray) -> None:
    """Raise unless every matrix of the stack is Hermitian, of unit trace and PSD.

    Each check runs over the whole stack before the next: Hermitian to
    ``ATOL_PROB`` (|rho_ij - conj(rho_ji)| for i <= j: entry (j, i) of
    rho - rho^+ has the modulus of entry (i, j)), the trace's real part
    within ``ATOL_PROB`` of 1 (the first that is not is named), and a
    smallest eigenvalue of at least ``-ATOL_STRUCT``: for qubits tr/2 -
    hypot((a - b)/2, |rho_10|) with a, b the real diagonal (the lower
    triangle, as ``eigvalsh`` reads it), else one ``eigvalsh`` of the stack.
    Below ``_SHARED_FACTOR_MIN`` 2x2 or 3x3 matrices they run on Python
    scalars, a modulus being abs() of a Python complex, libm's hypot as
    ``np.hypot``; a modulus of finite parts that overflows fails either way
    (inf, OverflowError).  An empty stack passes.
    """
    d = rhos.shape[-1]
    rows = rhos.tolist() if len(rhos) < _SHARED_FACTOR_MIN and d in (2, 3) else None
    if rows is None:
        (i, j), flat, diagonal = np.triu_indices(d, 1), rhos.reshape(len(rhos), -1), rhos.diagonal(0, -2, -1)
        hermitian = (_close(flat.take(i * d + j, 1), flat.take(j * d + i, 1).conj(), ATOL_PROB)
                     and _close(diagonal, diagonal.conj(), ATOL_PROB))
    else:  # unrolled: a lift check takes six qubit densities, a qutrit evaluation eighteen
        hermitian, tr = True, []  # the traces summed as ``_traces`` sums them, from 0.0
        try:
            for rho in rows:
                if d == 2:
                    (a, c), (r, b) = rho
                    hermitian = (abs(a - a.conjugate()) <= ATOL_PROB and abs(c - r.conjugate()) <= ATOL_PROB
                                 and abs(b - b.conjugate()) <= ATOL_PROB)
                    tr.append(0.0 + a.real + b.real)
                else:
                    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rho
                    hermitian = (abs(r00 - r00.conjugate()) <= ATOL_PROB and abs(r01 - r10.conjugate()) <= ATOL_PROB
                                 and abs(r02 - r20.conjugate()) <= ATOL_PROB and abs(r11 - r11.conjugate()) <= ATOL_PROB
                                 and abs(r12 - r21.conjugate()) <= ATOL_PROB and abs(r22 - r22.conjugate()) <= ATOL_PROB)
                    tr.append(0.0 + r00.real + r11.real + r22.real)
                if not hermitian:
                    break
        except OverflowError:
            hermitian = False
    if not hermitian:
        raise ValueError("density matrix is not Hermitian")
    if rows is None:
        tr = _traces(rhos)
        ok = np.abs(tr - 1.0) <= np.float64(ATOL_PROB)
        if not _all(ok):
            raise ValueError(f"density matrix trace is {tr[~ok][0]}, expected 1")
        if d == 2:  # tr is a + b exactly: the trace of a 2x2 matrix is one addition
            r = rhos[:, 1, 0]
            lam = tr / 2 - np.hypot((rhos[:, 0, 0] - rhos[:, 1, 1]).real / 2, np.hypot(r.real, r.imag))
        else:
            lam = np.linalg.eigvalsh(rhos)[:, 0]
        negative = np.count_nonzero(lam < np.float64(-ATOL_STRUCT))
    else:
        for t in tr:
            if not abs(t - 1.0) <= ATOL_PROB:
                raise ValueError(f"density matrix trace is {t}, expected 1")
        if d == 2:
            negative = False
            try:
                for ((a, _), (r, b)), t in zip(rows, tr):
                    if t / 2 - abs(complex((a.real - b.real) / 2, abs(r))) < -ATOL_STRUCT:
                        negative = True
                        break
            except OverflowError:  # the smallest eigenvalue is -inf
                negative = True
        else:
            negative = any(x < -ATOL_STRUCT for x in np.linalg.eigvalsh(rhos)[:, 0].tolist())
    if negative:
        raise ValueError("density matrix is not positive semidefinite")


def _gram_is_identity(k: np.ndarray) -> bool:
    """Whether K^+ K = I to ``ATOL_STRUCT`` entry by entry, for one 2x2 or 3x3 K, on scalars.

    Entry (j, i) is the exact conjugate of entry (i, j), so it has the same
    modulus and only the upper triangle is taken.  Each Gram entry is a sum
    of Python complex products, where the stack check takes
    ``_dagger_stack(k) @ k`` through BLAS, so an entry may differ from it by
    an ulp: only one within a few roundings of ``ATOL_STRUCT`` could be
    decided differently.
    """
    rows = k.tolist()
    try:
        if len(rows) == 2:
            (a, b), (c, d) = rows
            ac, bc, cc, dc = a.conjugate(), b.conjugate(), c.conjugate(), d.conjugate()
            return (abs(ac * a + cc * c - 1.0) <= ATOL_STRUCT and abs(ac * b + cc * d) <= ATOL_STRUCT
                    and abs(bc * b + dc * d - 1.0) <= ATOL_STRUCT)
        (a, b, c), (d, e, f), (g, h, i) = rows
        ac, bc, cc = a.conjugate(), b.conjugate(), c.conjugate()
        dc, ec, fc = d.conjugate(), e.conjugate(), f.conjugate()
        gc, hc, ic = g.conjugate(), h.conjugate(), i.conjugate()
        return (abs(ac * a + dc * d + gc * g - 1.0) <= ATOL_STRUCT
                and abs(ac * b + dc * e + gc * h) <= ATOL_STRUCT
                and abs(ac * c + dc * f + gc * i) <= ATOL_STRUCT
                and abs(bc * b + ec * e + hc * h - 1.0) <= ATOL_STRUCT
                and abs(bc * c + ec * f + hc * i) <= ATOL_STRUCT
                and abs(cc * c + fc * f + ic * i - 1.0) <= ATOL_STRUCT)
    except OverflowError:
        return False


def is_left_stochastic(m: np.ndarray) -> bool:
    """Entries >= 0 and every column summing to 1, to the trace-preservation tolerance."""
    return bool(np.all(m >= -ATOL_STRUCT)) and _close(m.sum(axis=0), 1.0, ATOL_STRUCT)


def random_unitary(d: int, rng: np.random.Generator, size: tuple = ()) -> np.ndarray:
    """Haar-ish random unitary: complex Gaussian matrix + QR orthonormalization.

    ``size`` draws a stack of shape size + (d, d) in one call, each gate
    bit for bit the one that as many calls in turn would draw: a gate's real
    parts, then its imaginary parts, are consecutive in ``rng``'s stream.
    d is an integer (numpy's too).
    """
    d = _dimension(d)
    g = rng.normal(size=(*size, 2, d, d))
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    # Fix the phase freedom of QR so the distribution does not favour R's signs.
    diag = r.diagonal(0, -2, -1)
    return q * (diag / np.abs(diag))[..., None, :]


def phase_canonical(u: np.ndarray) -> np.ndarray:
    """Normalize global phase: first entry above ``ATOL_NAME`` (column-major scan) made real positive."""
    u = _as_matrix(u)
    flat = u.flatten(order="F")
    nz = np.flatnonzero(np.abs(flat) > ATOL_NAME)
    if nz.size == 0:
        raise ValueError("cannot phase-normalize the zero matrix")
    z = flat[nz[0]]
    return u * (abs(z) / z)


def matrices_equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes, and phase-canonical forms equal entrywise to ``ATOL_NAME``."""
    a, b = _as_matrix(a), _as_matrix(b)
    if a.shape != b.shape:
        return False
    return bool(np.allclose(phase_canonical(a), phase_canonical(b), atol=ATOL_NAME, rtol=0.0))


@dataclass(frozen=True, eq=False)
class State:
    """Quantum state as a d x d density matrix (pure states are rank-1).

    Like ``Channel`` and ``Measurement``, a state compares and hashes by
    identity: its fields are arrays, which have no single truth value.  It
    keeps a read-only copy of the caller's array, so a later write to that
    array cannot change a validated state, and checks it as a stack of one
    (``check_density_stack``).
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


def check_erase_probability(p) -> float:
    """p as a float in [0, 1], -0 read as 0.0; ValueError, naming p, unless p is a real number (``_real``) inside."""
    p = float(_real(p, "erase probability must be a real number, got {!r}")) + 0.0  # -0.0 + 0.0 is 0.0
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erase probability {p} outside [0, 1]")
    return p


@dataclass(frozen=True, eq=False)
class Channel:
    """Trace-preserving map given by Kraus operators {K_i}, sum K_i^+ K_i = I.

    The operators are kept once, as the read-only stack ``_stack`` (n, d, d)
    that the completeness check ran on; ``kraus`` holds views of that stack,
    so ``apply_channel`` never re-stacks them.  The completeness check of one
    2x2 or 3x3 operator is taken in closed form on scalars (``_gram_is_identity``);
    any other channel sums the Gram stack.
    """

    kraus: tuple[np.ndarray, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ops = tuple([_as_matrix(k, "kraus operator") for k in self.kraus])
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        shape = ops[0].shape
        if len(ops) > 1 and any(k.shape != shape for k in ops):
            raise ValueError("all Kraus operators must share one shape")
        if shape[0] != shape[1]:
            raise ValueError("only square Kraus operators are supported")
        ks = _read_only(np.array(ops))
        if len(ks) == 1 and shape[0] in (2, 3):
            complete = _gram_is_identity(ops[0])
        else:
            grams = _dagger_stack(ks) @ ks  # one operator's K^+ K is its own sum
            complete = _close(grams if len(ks) == 1 else grams.sum(axis=0), _eye(shape[0]), ATOL_STRUCT)
        if not complete:
            raise ValueError("channel is not trace preserving (sum K^+ K != I)")
        object.__setattr__(self, "kraus", (ks[0],) if len(ks) == 1 else tuple(ks))
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
        """Erase to |0> with probability p (``check_erase_probability``), identity otherwise."""
        p = check_erase_probability(p)
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
    """rho -> sum_i K_i rho K_i^+ .

    One Kraus operator K gives ``K @ rho @ K^+ + 0.0``: the same product as
    the stacked one, and ``+ 0.0`` turns -0.0 into 0.0 as the sum over the
    stack's axis of length 1 does, so the density is the stacked form's bit
    for bit.
    """
    if ch.dim != s.dim:
        raise ValueError(f"dimension mismatch: channel {ch.dim}, state {s.dim}")
    if len(ch.kraus) == 1:
        k = ch.kraus[0]
        return State(k @ s.density @ k.conj().T + 0.0)
    return State((ch._stack @ s.density @ _dagger_stack(ch._stack)).sum(axis=0))


@dataclass(frozen=True, eq=False)
class Measurement:
    """Projective measurement with an integer game label per raw outcome.

    The constructor runs each check once over the stack of projectors:
    Hermitian; idempotent (P_i P_i = P_i) and pairwise orthogonal
    (P_i P_j = 0 for i != j), both read off one product of every pair;
    summing to the identity.  The validated stack is kept read-only as
    ``_stack`` (n, d, d), and ``projectors`` holds views of it, so
    ``outcome_probabilities`` never re-stacks them.  The labels must be a
    sequence of integers (Python's or numpy's) and are kept as Python ints.
    """

    projectors: tuple[np.ndarray, ...]
    outcome_labels: tuple[int, ...]
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        projs = tuple(_as_matrix(p, "projector") for p in self.projectors)
        if not projs:
            raise ValueError("measurement needs at least one projector")
        labels = _label_tuple(self.outcome_labels)
        if len(projs) != len(labels):
            raise ValueError("one label per projector is required")
        int_labels = _integers(labels)
        if int_labels is None:
            raise ValueError(f"outcome labels {labels!r} include one that is not an integer")
        d = projs[0].shape[0]
        if any(p.shape != (d, d) for p in projs):
            raise ValueError("all projectors must share one dimension")
        ps = _read_only(np.array(projs))
        if not _close(ps, _dagger_stack(ps), ATOL_STRUCT):
            raise ValueError("projector is not Hermitian")
        products = ps[:, None] @ ps[None]  # products[i, j] = P_i P_j
        same = _eye(len(ps), bool)
        # Both checks at once: P_i on the diagonal, 0 elsewhere.  Only a
        # failure runs them apart, to name the first that fails.
        if not _close(products, ps[:, None] * same[..., None, None], ATOL_STRUCT):
            if not _close(products[same], ps, ATOL_STRUCT):
                raise ValueError("projector is not idempotent")
            if not _close(products[~same], 0.0, ATOL_STRUCT):
                raise ValueError("projectors are not pairwise orthogonal")
        if not _close(ps.sum(axis=0), _eye(d), ATOL_STRUCT):
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "projectors", tuple(ps))
        object.__setattr__(self, "outcome_labels", int_labels)
        object.__setattr__(self, "_stack", ps)

    @classmethod
    def from_basis(cls, kets, labels=None) -> "Measurement":
        kets = [np.asarray(k, dtype=complex).reshape(-1) for k in kets]
        if labels is None:
            labels = range(len(kets))
        return cls(tuple(projector(k) for k in kets), labels)

    @classmethod
    def pauli(cls, axis: str, labels=(0, 1)) -> "Measurement":
        """X/Y/Z measurement; the + eigenstate carries ``labels[0]``.

        Each (axis, labels), with the labels read as ints, is built and
        validated once, on first use.
        Every call returns a new instance that shares that one's read-only
        projector stack, so instances still compare by identity.
        """
        axis = axis.lower()
        if axis not in ("x", "y", "z"):
            raise ValueError(f"unknown Pauli axis {axis!r}")
        kets = [_PAULI_KETS[axis + "+"], _PAULI_KETS[axis + "-"]]
        labels = _label_tuple(range(2) if labels is None else labels)  # None: from_basis's default
        key = _integers(labels)
        if key is None:  # a label that is not an integer: judged by the constructor
            return cls.from_basis(kets, labels)
        validated = _PAULI_MEASUREMENTS.get((cls, axis, key))
        if validated is None:
            validated = _PAULI_MEASUREMENTS[cls, axis, key] = cls.from_basis(kets, key)
        shared = object.__new__(cls)  # copy.copy's result, without the cost of its protocol
        shared.__dict__.update(validated.__dict__)
        return shared

    @classmethod
    def computational(cls, d: int, labels=None) -> "Measurement":
        """Computational basis measurement; d is an integer (numpy's too)."""
        d = _dimension(d)
        return cls.from_basis([basis_ket(d, i) for i in range(d)], labels)

    @classmethod
    def fourier(cls, d: int, labels=None) -> "Measurement":
        """Fourier ("X") basis measurement; outcome k labeled ``labels[k]``; d is an integer (numpy's too)."""
        return cls.from_basis(_fourier_kets(_dimension(d)), labels)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


# (class, axis, labels) -> the validated Pauli measurement that Measurement.pauli shares.
_PAULI_MEASUREMENTS: dict[tuple, Measurement] = {}


def _sum_by_label(labels, columns) -> dict:
    """Label -> its outcomes' columns summed in outcome order, from the first (not 0).

    ``_outcome_sums`` adds one density's Python floats in this order, so a
    small stack's probabilities are a large one's bit for bit.
    """
    agg = {}
    for label, column in zip(labels, columns):
        agg[label] = agg[label] + column if label in agg else column
    return agg


def _outcome_sums(m: Measurement, products: np.ndarray) -> list[dict]:
    """Label -> probability per density, on Python floats, from the stack (n, o, d, d) of products P_i rho, d <= 3.

    Summed as ``_traces`` and ``_sum_by_label`` sum; the check of
    ``outcome_probabilities`` runs, with its message.
    """
    sums = []
    for outcomes in products.diagonal(0, -2, -1).real.tolist():
        agg = {}
        for label, diagonal in zip(m.outcome_labels, outcomes):
            tr = 0.0
            for x in diagonal:
                tr += x
            agg[label] = agg[label] + tr if label in agg else tr
        total = functools.reduce(operator.add, agg.values())
        if not abs(total - 1.0) <= ATOL_STRUCT:
            raise ValueError(f"outcome probabilities sum to {total}, expected 1")
        sums.append(agg)
    return sums


def outcome_probabilities(m: Measurement, rhos: np.ndarray) -> dict[int, np.ndarray]:
    """Label -> probabilities over a stack of densities (n, d, d), outcomes sharing a label summed.

    Every outcome's trace tr(P_i rho) is read off rho^T P_i^T, whose
    diagonal is the same sums of the same products as P_i rho's: one product
    of the rows of every rho^T with P_i^T per projector (``_times``).  The
    probabilities have the bits of ``_outcome_sums``'s Python floats.  One
    check runs, once per density: the probabilities sum to 1.
    """
    rows = np.ascontiguousarray(rhos.swapaxes(-1, -2))
    columns = [_traces(_times(rows, p.T)) for p in m._stack]
    agg = _sum_by_label(m.outcome_labels, columns)
    total = functools.reduce(operator.add, agg.values())  # from the first label's column, not 0
    ok = np.abs(total - 1.0) <= np.float64(ATOL_STRUCT)
    if not _all(ok):
        raise ValueError(f"outcome probabilities sum to {total[~ok][0]}, expected 1")
    return agg


def outcome_distribution(m: Measurement, s: State) -> list[tuple[int, float]]:
    """Sorted (label, probability) pairs, outcomes sharing a label summed.

    ``outcome_probabilities`` for one state, bit for bit, with the same
    check and message: the probabilities sum to 1.  For d = 2 and 3 they
    are its Python floats (``_outcome_sums``).
    """
    if m.dim != s.dim:
        raise ValueError(f"dimension mismatch: measurement {m.dim}, state {s.dim}")
    if s.dim in (2, 3):
        return sorted(_outcome_sums(m, (m._stack @ s.density)[None])[0].items())
    probs = outcome_probabilities(m, s.density[None])
    return sorted((label, float(p[0])) for label, p in probs.items())


def shift_gate(d: int) -> np.ndarray:
    """Generalized Pauli X: cyclic increment |i> -> |i+1 mod d>; d is an integer (numpy's too)."""
    d = _dimension(d)
    g = np.zeros((d, d), dtype=complex)
    for i in range(d):
        g[(i + 1) % d, i] = 1.0
    return g


def qudit_gates(d: int) -> dict[str, np.ndarray]:
    """Named gate set for dimension d.

    Always contains "I", "X" (cyclic shift) and "F" (the Fourier matrix whose
    columns are the X-basis states).  For d=3 it additionally contains the
    diagonal phase gates "T3" = diag(1, w^{-1/3}, w^{-2/3}), "V" = diag(1, w, w)
    and "W" = diag(1, 1, w) with w = exp(2 pi i / 3).  d is an integer
    (numpy's too).
    """
    d = _dimension(d)
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
