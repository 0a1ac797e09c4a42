"""Game values per physical setting: exhaustive enumeration or construction.

Finite settings (Clifford, classical reversible/irreversible, classical
mod-3) are searched exhaustively; the unitary setting's optimum is
constructed over the normal form's four Bloch vectors by one ``minimize``
from one seeded start: a closed-form B response, made orthonormal, then an
A response, which reach Tsirelson's sum, so no outside optimizer and no
loop is needed.  ``OptimizerConfig`` sets only the seed of the start.
Every returned witness is re-evaluated through the generic evaluators as a
consistency check before the result is handed back.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import game
from .chsh_lift import normal_form
from .quantum import (
    Channel,
    Measurement,
    State,
    _dimension,
    _integer,
    _read_only,
    _real,
    basis_ket,
    check_unitary_stack,
    pauli_eigenstates,
    phase_canonical,
    plus_ket,
    qudit_gates,
    ry,
    rz,
    H,
    I2,
    S,
    T,
    X,
)

DEFAULT_SEED = 12345

# Bloch angles (theta, phi) of n_0, n_1, m_0, m_1 for the S / T-dagger / T
# strategy: n_a is the Bloch vector of A_a|+>, m_b that of B_b^+|+>.
OPTIMAL_UNITARY_ANGLES = (
    np.pi / 2, 0.0,           # n_0 = x: A0 = I
    np.pi / 2, np.pi / 2,     # n_1 = y: A1 = S
    np.pi / 2, np.pi / 4,     # m_0 = (x + y)/sqrt(2): B0 = T^+
    np.pi / 2, -np.pi / 4,    # m_1 = (x - y)/sqrt(2): B1 = T
)


class ConsistencyError(RuntimeError):
    """A computed value and its witness's re-evaluation disagree."""


@dataclass(frozen=True)
class OptimizerConfig:
    """The seed of the unitary construction's start: an integer (numpy's too) >= 0, kept as an int."""

    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "seed", _integer(self.seed, "seed must be an integer, got {!r}"))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class SettingSpec:
    """Which physics the player is allowed, and in what dimension.

    Without a dimension, the setting's own: the first it supports.
    """

    kind: str
    dimension: int | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind not in SETTINGS:
            raise ValueError(f"unknown setting kind {self.kind!r}")
        allowed, _ = SETTINGS[self.kind]
        dimension = allowed[0] if self.dimension is None else self.dimension
        object.__setattr__(self, "dimension", _dimension(dimension))
        if self.dimension not in allowed:
            raise ValueError(
                f"setting {self.kind!r} supports dimensions {allowed}, got {self.dimension}"
            )
        if self.kind == "clifford_plus_rz":
            if self.epsilon is not None:
                _real(self.epsilon, _EPSILON_NOT_REAL)
            if self.epsilon is None or not 0 < self.epsilon < np.pi / 2:
                raise ValueError("clifford_plus_rz requires epsilon in (0, pi/2)")
        elif self.epsilon is not None:
            raise ValueError(f"setting {self.kind!r} takes no epsilon")


@dataclass(frozen=True)
class ValueResult:
    """Best value found, a witness achieving it, and how it was found."""

    value: float
    witness: object
    method: str
    strategies_examined: int
    # Clifford setting: the stabilizer overlaps' largest deviation from {0, 1/2, 1}.
    quantization_error: float | None = None


def _check_witness(value: float, reevaluated: float) -> None:
    if abs(value - reevaluated) > 1e-9:
        raise ConsistencyError(
            f"witness re-evaluates to {reevaluated!r}, claimed value {value!r}"
        )


# ---------------------------------------------------------------------------
# Strategy builders
# ---------------------------------------------------------------------------

def optimal_unitary_strategy() -> game.Strategy:
    """|+>, A = (I, S), B = (T^+, T), X measurement: the Tsirelson-achieving play."""
    return normal_form(I2, S, T.conj().T, T)


def trivial_strategy() -> game.Strategy:
    """|0>, identity gates, constant-0 readout: wins whenever a*b = 0."""
    ident = Channel.unitary(I2)
    return game.Strategy(
        initial=State.from_ket(basis_ket(2, 0)),
        a_gates={0: ident, 1: ident},
        b_gates={0: ident, 1: ident},
        measurement=Measurement.pauli("z", labels=(0, 0)),
    )


def irreversible_strategy() -> game.Strategy:
    """|0>, A = (I, X), B = (ERASE, I), Z measurement: wins with certainty."""
    return game.Strategy(
        initial=State.from_ket(basis_ket(2, 0)),
        a_gates={0: Channel.unitary(I2), 1: Channel.unitary(X)},
        b_gates={0: Channel.erase(), 1: Channel.unitary(I2)},
        measurement=Measurement.pauli("z"),
    )


_EPSILON_NOT_REAL = "epsilon must be a real number, got {!r}"


def _check_epsilon(epsilon) -> None:
    _real(epsilon, _EPSILON_NOT_REAL)
    if not 0 < epsilon < np.pi / 2:
        raise ValueError(f"epsilon {epsilon} outside the open interval (0, pi/2)")


def rz_pair_strategy(epsilon: float) -> game.Strategy:
    """The optimal play with T replaced by rz(epsilon), T^+ by rz(epsilon)^+."""
    _check_epsilon(epsilon)
    return normal_form(I2, S, rz(epsilon).conj().T, rz(epsilon))


def qutrit_fixed_strategy() -> game.Strategy:
    """The fixed qutrit play: T3|+>, phase gates V/W, Fourier measurement."""
    gates = qudit_gates(3)
    return game.Strategy(
        initial=State.from_ket(gates["T3"] @ plus_ket(3)),
        a_gates={
            0: Channel.unitary(gates["I"]),
            1: Channel.unitary(gates["V"]),
            2: Channel.unitary(gates["W"]),
        },
        b_gates={
            0: Channel.unitary(gates["I"]),
            1: Channel.unitary(gates["W"]),
            2: Channel.unitary(gates["V"]),
        },
        measurement=Measurement.fourier(3),
    )


# ---------------------------------------------------------------------------
# Clifford setting
# ---------------------------------------------------------------------------

def clifford_group_d2() -> list[np.ndarray]:
    """The 24 phase-canonical single-qubit Cliffords, closure of {H, S}.

    The closure runs once; each call returns a new list of the same
    read-only matrices.
    """
    return list(_clifford_closure())


@functools.cache
def _clifford_closure() -> tuple[np.ndarray, ...]:
    seen: dict[tuple, np.ndarray] = {}

    def key(u: np.ndarray) -> tuple:
        return tuple(np.round(u.flatten().view(float), 9))

    frontier = [phase_canonical(g) for g in (I2, H, S)]
    for g in frontier:
        seen[key(g)] = g
    while frontier:
        new = []
        for g in frontier:
            for gen in (H, S):
                prod = phase_canonical(g @ gen)
                k = key(prod)
                if k not in seen:
                    seen[k] = prod
                    new.append(prod)
        frontier = new
    group = tuple(_read_only(seen[k]) for k in sorted(seen))
    if len(group) != 24:
        raise ConsistencyError(f"Clifford closure produced {len(group)} elements, expected 24")
    return group


def value_clifford() -> ValueResult:
    """Exhaustive search over all Clifford-setting strategies.

    6 initial Pauli eigenstates x 24^4 gate tuples x 3 Pauli axes x 2 outcome
    labelings.  Cliffords permute the Pauli eigenstates, so ``_search_tables``
    runs with them as symbols, each Clifford's function table read off the
    overlaps |<t|C|s>|^2 once these are checked to lie on {0, 1/2, 1} within
    1e-9 (``quantization_error`` is their largest deviation).  Scores count
    half-wins: a Pauli measurement gives an eigenstate on its axis that
    state's label (2 or 0) and one off its axis either label at probability
    1/2 (1), so every examined average, and the maximum, is exactly k/8.
    The search scores each class (A_0(s0), A_1(s0)) of A images once, 36
    classes x 576 B tuples x 6 readouts, and ``strategies_examined`` still
    counts every strategy covered: 11,943,936.
    """
    cliffords = clifford_group_d2()
    eigenstates = pauli_eigenstates()
    kets = np.stack(list(eigenstates.values()))
    overlaps = np.abs(np.einsum("ti,gij,sj->gts", kets.conj(), np.stack(cliffords), kets)) ** 2
    halves = np.round(2 * overlaps)
    deviation = float(np.max(np.abs(overlaps - halves / 2)))
    if deviation > 1e-9:
        raise ConsistencyError(f"stabilizer overlap off the (0, 1/2, 1) grid by {deviation}")
    # tables[g][s]: the eigenstate that Clifford g sends eigenstate s to.
    tables = [tuple(int(t) for t in row) for row in np.argmax(halves, axis=1)]
    readouts = [(axis, labels) for axis in "xyz" for labels in ((0, 1), (1, 0))]
    inputs = game.GameSpec(2).input_pairs()
    # half_wins[i, s, r]: half-wins of readout r of eigenstate s on input pair i.
    half_wins = np.array([
        [[2 * (labels["+-".index(name[1])] == a * b) if name[0] == axis else 1
          for axis, labels in readouts] for name in eigenstates]
        for a, b in inputs
    ], dtype=np.uint8)
    wins, (s0, a, b, r), examined = _search_tables(6, inputs, half_wins, tables, tables, 2, 2)
    axis, labels = readouts[r]
    witness = game.Strategy(
        initial=State.from_ket(kets[s0]),
        a_gates={k: Channel.unitary(cliffords[g]) for k, g in enumerate(a)},
        b_gates={k: Channel.unitary(cliffords[g]) for k, g in enumerate(b)},
        measurement=Measurement.pauli(axis, labels=labels),
    )
    value = wins / (2 * len(inputs))
    report = game.evaluate(game.GameSpec(2), witness)
    _check_witness(value, report.average)
    return ValueResult(
        value=value,
        witness=witness,
        method="exhaustive",
        strategies_examined=examined,
        quantization_error=deviation,
    )


# ---------------------------------------------------------------------------
# Function-table search (Clifford and classical settings)
# ---------------------------------------------------------------------------

def _class_scores(d, inputs, weights, b_pool, n_a, n_b):
    """Score every function-table strategy by the symbols its A gates reach.

    From one of ``d`` symbols, A_a then B_b apply function tables (n_a A
    slots, n_b B slots from ``b_pool``); readout r of the final symbol scores
    ``weights[i, symbol, r]`` on input pair ``inputs[i]``.  A strategy's
    score depends on its initial symbol s0 and its A gates only through their
    images u_a = A_a(s0), so one table covers them all: it is indexed by
    u_0, ..., u_{n_a-1}, then the B pool index of each slot, then r.
    """
    b_tabs = np.array(b_pool)[list(itertools.product(range(len(b_pool)), repeat=n_b))]
    n_r = weights.shape[2]
    # A score sums one weight per input pair, at most 9 wins (q = 3) or
    # 8 half-wins (Clifford), so uint8 cannot wrap.
    scores = np.zeros((d,) * n_a + (len(b_tabs), n_r), dtype=np.uint8)
    for i, (a, b) in enumerate(inputs):
        # weights[i][B_b(u), r] over (u, B tuple, r), broadcast along u_a.
        shape = [1] * n_a + [len(b_tabs), n_r]
        shape[a] = d
        scores += weights[i][b_tabs[:, b, :].T].reshape(shape)
    return scores.reshape((d,) * n_a + (len(b_pool),) * n_b + (n_r,))


def _search_tables(d, inputs, weights, a_pool, b_pool, n_a, n_b):
    """Exhaustive search over ``_class_scores``; the first-found maximum wins.

    Each (initial symbol, A tuple) reads the row of its class of A images,
    and that row is its row of the full score array over (initial symbol,
    A gates, B gates, readout).  In that lexicographic order the first
    maximum is found: the first (s0, A tuple) whose class reaches the
    overall maximum, so a later initial symbol wins only when strictly
    higher, then the first (B gates, readout) maximum of its row.  Returns
    (score, (initial symbol, A pool indices, B pool indices, readout index),
    count); the count is every strategy covered, d x |A tuples| x |B tuples|
    x readouts, although each class is scored once.
    """
    scores = _class_scores(d, inputs, weights, b_pool, n_a, n_b)
    rows = scores.reshape(d ** n_a, -1)
    a_tabs = np.array(a_pool)[list(itertools.product(range(len(a_pool)), repeat=n_a))]
    # classes[s0, A tuple]: the row of (A_0(s0), ..., A_{n_a-1}(s0)).
    classes = np.ravel_multi_index(tuple(a_tabs.transpose(1, 2, 0)), (d,) * n_a)
    reached = rows.max(axis=1)[classes]
    s0, a = (int(k) for k in np.unravel_index(int(np.argmax(reached)), reached.shape))
    row = rows[classes[s0, a]]
    k = int(np.argmax(row))
    ia = np.unravel_index(a, (len(a_pool),) * n_a)
    *ib, r = np.unravel_index(k, scores.shape[n_a:])
    count = d * len(a_tabs) * row.size
    return int(row[k]), (s0, tuple(int(i) for i in ia), tuple(int(i) for i in ib), int(r)), count


def _search_classical(d, q, a_pool, b_pool, readouts, n_a, n_b):
    """``_search_tables`` with deterministic readouts, scoring one win per input pair.

    ``readouts`` are symbol-to-answer maps for the mod-``q`` game.  Returns
    (best wins, (initial symbol, A tables, B tables, readout), count).
    """
    inputs = game.GameSpec(q).input_pairs()
    targets = np.array([(a * b) % q for a, b in inputs])
    # hits[i, symbol, readout]: reading ``symbol`` out wins on input pair i.
    hits = (np.array(readouts).T[None] == targets[:, None, None]).astype(np.uint8)
    wins, (s0, ia, ib, ir), count = _search_tables(d, inputs, hits, a_pool, b_pool, n_a, n_b)
    witness = (s0, tuple(a_pool[k] for k in ia), tuple(b_pool[k] for k in ib), readouts[ir])
    return wins, witness, count


def _classical_result(d, q, wins, witness_tuple, examined) -> ValueResult:
    spec = game.GameSpec(q)
    n_inputs = len(spec.input_pairs())
    s0, a_tabs, b_tabs, readout = witness_tuple
    witness = game.ClassicalStrategy(
        num_symbols=d,
        initial=s0,
        a_gates={k: tab for k, tab in enumerate(a_tabs)},
        b_gates={k: tab for k, tab in enumerate(b_tabs)},
        readout=readout,
    )
    value = wins / n_inputs
    report = game.evaluate_classical(spec, witness)
    _check_witness(value, report.average)
    return ValueResult(
        value=value, witness=witness, method="exhaustive", strategies_examined=examined
    )


def value_classical_reversible(d: int) -> ValueResult:
    """Exhaustive search over permutation gates and all symbol-to-bit readouts."""
    d = _dimension(d)
    if d not in (2, 3):
        raise ValueError(f"unsupported dimension {d}")
    perms = list(itertools.permutations(range(d)))
    readouts = list(itertools.product(range(2), repeat=d))
    wins, wit, n = _search_classical(d, 2, perms, perms, readouts, 2, 2)
    return _classical_result(d, 2, wins, wit, n)


def value_classical_irreversible() -> ValueResult:
    """Exhaustive search over all maps {0,1} -> {0,1} per gate slot.

    Restricted to the two permutations, the same search is
    ``value_classical_reversible(2)``, which gives the reversible bound 0.75.
    """
    pool = list(itertools.product(range(2), repeat=2))
    readouts = list(itertools.product(range(2), repeat=2))
    wins, wit, n = _search_classical(2, 2, pool, pool, readouts, 2, 2)
    return _classical_result(2, 2, wins, wit, n)


def value_classical_q3(gate_family: str = "all") -> ValueResult:
    """Exhaustive mod-3 search: trit initial, permutation gates, identity readout.

    ``gate_family`` is "all" for the full symmetric group S3 per slot, or
    "cyclic" for powers of the shift only.  Note: over all of S3 the true
    maximum is 7/9, achieved by strategies that use a transposition; the
    often-quoted bound 2/3 is the maximum of the cyclic-shift family (and is
    achieved there by A2 = B1 = shift, identity elsewhere).
    """
    if gate_family == "all":
        pool = list(itertools.permutations(range(3)))
    elif gate_family == "cyclic":
        pool = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    else:
        raise ValueError(f"unknown gate family {gate_family!r}")
    readouts = [(0, 1, 2)]
    wins, wit, n = _search_classical(3, 3, pool, pool, readouts, 3, 3)
    return _classical_result(3, 3, wins, wit, n)


# ---------------------------------------------------------------------------
# Unitary setting (construction by best responses)
# ---------------------------------------------------------------------------

def _dot(u: tuple, w: tuple) -> float:
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _sum_and_difference(u: tuple, w: tuple) -> tuple[tuple, tuple]:
    return (u[0] + w[0], u[1] + w[1], u[2] + w[2]), (u[0] - w[0], u[1] - w[1], u[2] - w[2])


def _bloch(theta: float, phi: float) -> tuple:
    """The Bloch vector of polar angle theta and azimuth phi."""
    st = math.sin(theta)
    return st * math.cos(phi), st * math.sin(phi), math.cos(theta)


def _bloch_angles(v: tuple) -> tuple[float, float]:
    """The Bloch angles (theta, phi) of the unit vector ``v``, z clipped to [-1, 1]."""
    return math.acos(min(1.0, max(-1.0, v[2]))), math.atan2(v[1], v[0])


def _best_response(u: tuple, w: tuple) -> tuple[tuple, tuple]:
    """The orthonormal pair (r_0, r_1) that maximizes (u + w) . r_0 + (u - w) . r_1.

    Each term is maximized by its own unit vector, r_0 = unit(u + w) and
    r_1 = unit(u - w), to |u + w| + |u - w|.  For unit u and w these are
    orthogonal, since (u + w) . (u - w) = 0, and the longer of u +- w has
    norm at least sqrt(2).  In floats a near-antipodal or near-parallel pair
    leaves the shorter a rounding residue whose unit is not orthogonal to
    the longer's, so the longer's unit is kept and the shorter is replaced
    by the unit of its component orthogonal to that unit, projected out
    twice: one pass can leave an overlap well above rounding when the
    residue lies nearly along the longer.  A component that is exactly zero
    (u = -w or u = w) is met equally by every unit vector; it gets the fixed
    one orthogonal to u, unit(u x e_k) for the axis k of u's smallest
    component.
    """
    plus, minus = _sum_and_difference(u, w)
    norms = math.hypot(*plus), math.hypot(*minus)
    longer = 0 if norms[0] >= norms[1] else 1
    kept = tuple(c / norms[longer] for c in (plus, minus)[longer])
    v = (minus, plus)[longer]
    for _ in range(2):
        along = _dot(v, kept)
        v = [v[i] - along * kept[i] for i in range(3)]
    if not any(v):
        k = min(range(3), key=lambda i: abs(u[i]))
        i, j = (k + 1) % 3, (k + 2) % 3
        v = [0.0, 0.0, 0.0]
        v[i], v[j] = u[j], -u[i]  # u x e_k
    norm = math.hypot(*v)
    made = (v[0] / norm, v[1] / norm, v[2] / norm)
    return (kept, made) if longer == 0 else (made, kept)


def _objective(angles: np.ndarray) -> float:
    """Minus the average win of ``_bloch_strategy(angles)``.

    Angles 2k, 2k+1 are the Bloch angles (theta, phi) of the k-th vector of
    (n_0, n_1, m_0, m_1): n_a is the Bloch vector of A_a|+> and m_b that of
    B_b^+|+>.  In the normal form (|+>, X measurement) input (a, b) wins with
    probability (1 + (-1)^{ab} n_a . m_b) / 2, so the average is
    1/2 + (1/8) sum_ab (-1)^{ab} n_a . m_b: 1/2 plus a small sum whose
    rounding stays below the ulp of 1/2.  ``minimize`` calls it once, at
    the constructed point, to value that point; on 8 angles numpy's
    per-call overhead would dominate, so it runs on Python floats.
    """
    x = angles.tolist()
    n0, n1, m0, m1 = (_bloch(x[k], x[k + 1]) for k in (0, 2, 4, 6))
    # With M_a = m_0 + (-1)^a m_1, sum_ab (-1)^{ab} n_a . m_b = sum_a n_a . M_a.
    m_pm = _sum_and_difference(m0, m1)
    total = _dot(n0, m_pm[0]) + _dot(n1, m_pm[1])
    return -(0.5 + total / 8.0)


def _bloch_gate(theta: float, phi: float) -> np.ndarray:
    """rz(phi) ry(theta) H: sends |+> to the ket of Bloch angles (theta, phi)."""
    return rz(phi) @ ry(theta) @ H


def _bloch_strategy(angles: np.ndarray) -> game.Strategy:
    """The normal-form strategy whose average win ``_objective`` computes from ``angles``.

    With G = ``_bloch_gate``, A_a = G(n_a) and B_b = G(m_b)^+, so that
    A_a|+> has Bloch vector n_a and B_b^+|+> has m_b.
    """
    a0, a1, g0, g1 = (_bloch_gate(angles[k], angles[k + 1]) for k in (0, 2, 4, 6))
    return normal_form(a0, a1, g0.conj().T, g1.conj().T)


class SeesawResult(NamedTuple):
    """Where ``minimize`` ended: the angles, the objective there and its number of calls."""

    x: np.ndarray
    fun: float
    nfev: int


def minimize(objective, x0: np.ndarray) -> SeesawResult:
    """Two best responses from the 8 Bloch angles ``x0``, then one ``objective`` call.

    With (n_0, n_1, m_0, m_1) as in ``_objective``, the sum
    sum_ab (-1)^{ab} n_a . m_b = n_0 . (m_0 + m_1) + n_1 . (m_0 - m_1) is
    raised by the B response m_b = unit(n_0 + (-1)^b n_1) to x0's n_0, n_1,
    then by the A response n_a = unit(m_0 + (-1)^a m_1) (Werner & Wolf,
    Quantum Inf. Comput. 1, 1 (2001)); x0's m_0, m_1 are not read.  Both
    are ``_best_response`` pairs.  The B response is an orthonormal pair,
    and against it the A response reaches |m_0 + m_1| + |m_0 - m_1| =
    2 sqrt(2), Tsirelson's sum, so no further response can raise it.  The
    B response is made orthonormal because near-antipodal starts leave
    n_0 + n_1 as a rounding residue.  Returns the Bloch angles of the four
    vectors, ``objective`` (``_objective``) there and ``nfev`` 1.
    """
    x = x0.tolist()
    m_pair = _best_response(_bloch(x[0], x[1]), _bloch(x[2], x[3]))
    n_pair = _best_response(*m_pair)
    end = np.array([angle for v in (*n_pair, *m_pair) for angle in _bloch_angles(v)])
    return SeesawResult(end, objective(end), 1)


def value_unitary(config: OptimizerConfig | None = None) -> ValueResult:
    """Construct a play of the normal form that reaches Tsirelson's sum.

    The normal form (|+>, four unitaries, X measurement) loses nothing for a
    qubit, since the initial state and the measurement basis can be absorbed
    into the gates.  Its average win depends on the gates only through the
    Bloch vectors n_a of A_a|+> and m_b of B_b^+|+>, and at most reaches
    cos^2(pi/8), where their sum is 2 sqrt(2).  One ``minimize`` call on
    ``_objective`` constructs such vectors by two best responses from a
    uniform start drawn with ``config.seed``, so the seed picks the witness.
    The witness is ``_bloch_strategy`` of the constructed point, and
    ``strategies_examined`` is 2, the two responses computed.
    """
    config = config or OptimizerConfig()
    x0 = np.random.default_rng(config.seed).uniform(0.0, 2 * np.pi, size=8)
    res = minimize(_objective, x0)

    # The value is the witness's exact evaluation, not the objective's own
    # number, which can lie an ulp or two above it (and above cos^2(pi/8)).
    witness = _bloch_strategy(res.x)
    report = game.evaluate(game.GameSpec(2), witness)
    _check_witness(-res.fun, report.average)
    return ValueResult(
        value=report.average,
        witness=witness,
        method="constructed",
        strategies_examined=2,
    )


# ---------------------------------------------------------------------------
# Rz(epsilon) family and the fixed qutrit play
# ---------------------------------------------------------------------------

def success_probability_formula(epsilon):
    """Closed-form success probability of the rz(epsilon)-pair strategy.

    ``epsilon`` is an angle or an array of angles, made float64 first; an
    array gives the array of values, each equal to its scalar call.
    """
    e = np.asarray(epsilon, dtype=float)
    return 0.25 * (
        (0.5 + np.cos(e) / 2)
        + (0.5 + np.cos(-e) / 2)
        + (0.5 + np.cos(np.pi / 2 - e) / 2)
        + (1 - 0.5 - np.cos(np.pi / 2 + e) / 2)
    )


def uniform_open_grid(steps: int) -> list[float]:
    """steps points evenly spaced in the open interval (0, pi/2)."""
    steps = _integer(steps, "number of grid points must be an integer, got {!r}")
    if steps < 2:
        raise ValueError("need at least 2 grid points")
    return [(k * np.pi / 2) / (steps + 1) for k in range(1, steps + 1)]


def epsilon_sweep(eps_grid) -> list[tuple[float, float, float]]:
    """(epsilon, closed-form P, circuit-evaluated P) per grid point.

    ``p_circuit`` is the exact circuit evaluation of ``rz_pair_strategy(epsilon)``,
    with the same products and traces as ``game.evaluate``, computed for the
    whole grid in one call of ``game.evaluate_unitary_stack``, and
    ``p_formula`` is ``success_probability_formula`` of the whole grid in
    one call.  Every epsilon is checked before anything is evaluated.  The
    epsilon-independent parts (|+>, A = (I, S), the X measurement) come
    from one validated ``optimal_unitary_strategy``; the B gates
    rz(epsilon)^+ and rz(epsilon) are one (2, grid, 2, 2) stack built from
    one array call of ``rz``.  The strategy's checks still run on every
    point, each once over its stack: every B gate is unitary, every state
    is Hermitian, of unit trace and positive semidefinite, and every
    outcome distribution sums to 1.
    """
    eps_list = list(eps_grid)
    for eps in eps_list:
        _check_epsilon(eps)
    if not eps_list:
        return []
    spec = game.GameSpec(2)
    strategy = optimal_unitary_strategy()
    rz_stack = rz(eps_list)
    b_stack = np.stack([rz_stack.conj().transpose(0, 2, 1), rz_stack])
    check_unitary_stack(b_stack.reshape(-1, 2, 2))
    per_input = game.evaluate_unitary_stack(
        spec,
        strategy.initial.density,
        np.concatenate([strategy.a_gates[a]._stack for a in spec.input_alphabet]),
        b_stack,
        strategy.measurement,
    )
    p_circuit = (sum(per_input.values()) / len(per_input)).tolist()
    p_formula = success_probability_formula(eps_list).tolist()
    return [(float(eps), pf, pc) for eps, pf, pc in zip(eps_list, p_formula, p_circuit)]


def value_clifford_plus_rz(epsilon: float) -> ValueResult:
    """Evaluate the rz(epsilon)-pair strategy, checked against the closed form."""
    witness = rz_pair_strategy(epsilon)
    report = game.evaluate(game.GameSpec(2), witness)
    _check_witness(success_probability_formula(epsilon), report.average)
    return ValueResult(
        value=report.average, witness=witness, method="evaluated", strategies_examined=1
    )


def value_qutrit_q3_fixed() -> ValueResult:
    """Evaluate the fixed qutrit strategy under the mod-3 game (no optimization)."""
    witness = qutrit_fixed_strategy()
    report = game.evaluate(game.GameSpec(3), witness)
    return ValueResult(
        value=report.average, witness=witness, method="evaluated", strategies_examined=1
    )


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

# kind -> (allowed dimensions, value function of (setting, config)).
SETTINGS = {
    "unitary": ((2,), lambda setting, config: value_unitary(config)),
    "clifford": ((2,), lambda setting, config: value_clifford()),
    "classical_reversible": (
        (2, 3), lambda setting, config: value_classical_reversible(setting.dimension)),
    "classical_irreversible": ((2,), lambda setting, config: value_classical_irreversible()),
    "clifford_plus_rz": ((2,), lambda setting, config: value_clifford_plus_rz(setting.epsilon)),
    "qutrit_unitary_fixed": ((3,), lambda setting, config: value_qutrit_q3_fixed()),
    "classical_q3_reversible": ((3,), lambda setting, config: value_classical_q3()),
}


def compute_value(setting: SettingSpec, config: OptimizerConfig | None = None) -> ValueResult:
    """Evaluate one setting of the value table."""
    _, value = SETTINGS[setting.kind]
    return value(setting, config)
