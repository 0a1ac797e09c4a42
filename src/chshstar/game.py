"""The CHSH* game: definition and exact strategy evaluation.

A single system is prepared, hit by a controlled gate ``A_a`` then ``B_b``
(inputs a, b drawn uniformly), and measured once; the play wins when the
measured label equals ``a * b mod q``.  Evaluation is exact (trace formulas),
never sampled.  ``evaluate_unitary_stack`` evaluates n unitary plays of k B
choices each at once; its gate stacks always carry the play axis (one play
is a play axis of one), and each factor that many matrices share is one
product of their rows.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .quantum import (
    _SHARED_FACTOR_MIN,
    Channel,
    Measurement,
    State,
    _dagger_stack,
    _integer,
    _integers,
    _outcome_sums,
    _times,
    apply_channel,
    basis_ket,
    check_density_stack,
    is_left_stochastic,
    outcome_distribution,
    outcome_probabilities,
)


@functools.cache
def _input_tables(q: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The alphabet, the input pairs and their winning answers a * b mod q, built once per q."""
    alphabet = tuple(range(q))
    pairs = tuple(itertools.product(alphabet, repeat=2))
    return alphabet, pairs, tuple((a * b) % q for a, b in pairs)


@dataclass(frozen=True)
class GameSpec:
    """Answer modulus q and the winning predicate ``c = a * b mod q``.

    The input alphabet, the input pairs and each pair's winning answer are
    built once, at construction; equality, hash and repr read q alone.
    """

    q: int
    input_alphabet: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _pairs: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    _answers: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = _integer(self.q, "modulus q must be an integer, got {!r}")
        if q not in (2, 3):
            raise ValueError(f"unsupported modulus q={self.q}; only 2 and 3 are implemented")
        alphabet, pairs, answers = _input_tables(q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "input_alphabet", alphabet)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_answers", answers)

    def input_pairs(self) -> list[tuple[int, int]]:
        """A new list of the q * q input pairs (a, b), in lexicographic order."""
        return list(self._pairs)


def winning_answer(spec: GameSpec, a: int, b: int) -> int:
    """The answer that wins on input (a, b)."""
    if a not in spec.input_alphabet or b not in spec.input_alphabet:
        raise ValueError(f"input ({a}, {b}) outside alphabet {spec.input_alphabet}")
    return spec._answers[spec._pairs.index((a, b))]


@dataclass(frozen=True, eq=False)
class Strategy:
    """Initial state, controlled channels for both stages, final measurement.

    Compares and hashes by identity, as its quantum components do.
    """

    initial: State
    a_gates: dict[int, Channel]
    b_gates: dict[int, Channel]
    measurement: Measurement

    def __post_init__(self):
        dims = {c.dim for c in (self.initial, self.measurement, *self.a_gates.values(), *self.b_gates.values())}
        if len(dims) != 1:
            raise ValueError(f"strategy components disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        return self.initial.dim


@dataclass(frozen=True)
class EvaluationReport:
    """Per-input win probabilities and their uniform average."""

    per_input: dict[tuple[int, int], float]
    average: float
    erasure_ledger: dict[tuple[int, int], float] | None = None


def _check_inputs(spec: GameSpec, a_gates, b_gates, labels, source: str = "measurement") -> None:
    """The evaluators' checks of a strategy against the game, in this order.

    A and B gates cover the input alphabet, and every label (of the
    ``source``: the measurement, or a classical strategy's readout) is an
    answer of the game.
    """
    for stage, gates in (("A", a_gates), ("B", b_gates)):
        missing = set(spec.input_alphabet) - set(gates)
        if missing:
            raise ValueError(f"{stage} gates missing for inputs {sorted(missing)}")
    bad = [c for c in labels if not 0 <= c < spec.q]
    if bad:
        raise ValueError(f"{source} labels {bad} outside range(0, {spec.q})")


def evaluate(spec: GameSpec, s: Strategy) -> EvaluationReport:
    """Exact win probability for every input pair, averaged uniformly."""
    _check_inputs(spec, s.a_gates, s.b_gates, s.measurement.outcome_labels)

    per_input: dict[tuple[int, int], float] = {}
    for (a, b), target in zip(spec._pairs, spec._answers):
        rho = apply_channel(s.b_gates[b], apply_channel(s.a_gates[a], s.initial))
        dist = dict(outcome_distribution(s.measurement, rho))
        per_input[(a, b)] = dist.get(target, 0.0)
    average = sum(per_input.values()) / len(per_input)
    return EvaluationReport(per_input=per_input, average=average)


def evaluate_unitary_stack(
    spec: GameSpec,
    initial: np.ndarray,
    a_stack: np.ndarray,
    b_stack: np.ndarray,
    measurement: Measurement,
) -> np.ndarray:
    """Exact win probabilities of n stacked unitary plays at once, one row per input pair.

    ``a_stack`` (n, q, d, d) holds each play's A_a for a = 0..q-1 and
    ``b_stack`` (n, q, k, d, d) its k choices of B_b; one play is a play
    axis of one (``a[None]``).  Play (i, j) starts from the density
    ``initial``, applies ``a_stack[i, a]``, then ``b_stack[i, b, j]``, and
    measures ``measurement``.  Returns one float array (q * q, n, k), whose
    row r holds input pair ``spec.input_pairs()[r]``.

    Every density is U rho U^+ for one unitary U, as ``apply_channel`` takes
    it, and every trace has the bits of ``outcome_probabilities``' (below
    ``_SHARED_FACTOR_MIN`` qubit or qutrit densities, ``_outcome_sums``'
    floats), so each value equals ``evaluate``'s.  A factor that many
    matrices share is taken once, as one product of their rows: rho_0 in
    A_a rho_0 (``quantum._times``) and, per play and A input, rho_a in
    B rho_a, shared by the play's q k B gates.  A_a^+ and B^+ are each one
    matrix's own factor, numpy's broadcast matmul.  Either form gives every
    entry the bits of the matrix's product alone.

    The gates are not checked here; callers pass validated unitaries.  The
    states are, each check once: the q densities after A of every play and
    all final densities, as one stack with the A-stage ones first, are
    Hermitian, of unit trace and positive semidefinite, and every outcome
    distribution sums to 1.
    """
    q, d = spec.q, initial.shape[0]
    n = a_stack.shape[0] if a_stack.ndim == 4 else -1
    k = b_stack.shape[2] if b_stack.ndim == 5 else -1
    if a_stack.shape != (n, q, d, d) or b_stack.shape != (n, q, k, d, d):
        raise ValueError(f"gate stacks {a_stack.shape}, {b_stack.shape} do not fit q={q}, d={d}")
    rho_a = _times(a_stack, initial) @ _dagger_stack(a_stack)
    b_rho = (b_stack.reshape(n, 1, q * k * d, d) @ rho_a).reshape(n, q, q, k, d, d)
    rhos = (b_rho @ _dagger_stack(b_stack)[:, None]).reshape(-1, d, d)  # by play, a, b, choice
    check_density_stack(np.concatenate((rho_a.reshape(-1, d, d), rhos)))
    if len(rhos) < _SHARED_FACTOR_MIN and d in (2, 3):  # density r is one of input pair r // k mod q q
        sums = _outcome_sums(measurement, measurement._stack @ rhos[:, None])
        wins = [p.get(spec._answers[r // k % (q * q)], 0.0) for r, p in enumerate(sums)]
        return np.array(wins).reshape(n, q * q, k).transpose(1, 0, 2)
    per_label = {label: p.reshape(n, q * q, k) for label, p in outcome_probabilities(measurement, rhos).items()}
    return np.array([per_label[c][:, r] if c in per_label else np.zeros((n, k)) for r, c in enumerate(spec._answers)])


def stochastic_matrix(gate, d: int) -> np.ndarray:
    """Normalize a classical gate to a new, read-only left-stochastic d x d matrix.

    Accepts a function table (sequence of d symbol images) or an explicit
    left-stochastic matrix; anything else is rejected.  A matrix is copied,
    so a later write to the caller's array cannot change a validated gate.
    """
    arr = np.asarray(gate)
    if arr.ndim == 1:
        images = _integers(arr) if arr.shape == (d,) else None
        if images is None or not all(0 <= i < d for i in images):
            raise ValueError(f"function table {gate!r} is not a map on {d} symbols")
        m = np.zeros((d, d))
        for j, i in enumerate(images):
            m[i, j] = 1.0
    else:
        m = np.array(arr, dtype=float)
        if m.shape != (d, d):
            raise ValueError(f"gate matrix must be {d}x{d}, got {m.shape}")
        if not is_left_stochastic(m):
            raise ValueError("gate matrix is not left-stochastic")
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class ClassicalStrategy:
    """Strategy on a classical d-symbol system.

    Gates are function tables or left-stochastic matrices over symbols;
    the readout labels each symbol with a game answer mod q.  The number of
    symbols, the initial symbol, the readout labels and function-table
    images must be integers (Python's or numpy's); the number of symbols,
    the initial symbol and the readout are kept as Python ints.
    """

    num_symbols: int
    initial: int
    a_gates: dict[int, object]
    b_gates: dict[int, object]
    readout: tuple[int, ...]

    def __post_init__(self):
        d = _integer(self.num_symbols, "number of symbols {!r} is not an integer")
        initial = _integer(self.initial, "initial symbol {!r} is not an integer")
        if not 0 <= initial < d:
            raise ValueError(f"initial symbol {self.initial} outside range({d})")
        if len(self.readout) != d:
            raise ValueError(f"readout must label all {d} symbols")
        readout = _integers(self.readout)
        if readout is None:
            raise ValueError(f"readout {self.readout!r} has a label that is not an integer")
        object.__setattr__(self, "num_symbols", d)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "readout", readout)
        # Normalize eagerly so invalid gates are rejected at construction.
        object.__setattr__(
            self, "a_gates", {k: stochastic_matrix(g, d) for k, g in self.a_gates.items()}
        )
        object.__setattr__(
            self, "b_gates", {k: stochastic_matrix(g, d) for k, g in self.b_gates.items()}
        )


def evaluate_classical(spec: GameSpec, cs: ClassicalStrategy) -> EvaluationReport:
    """Exact win probabilities for a classical strategy (possibly stochastic)."""
    _check_inputs(spec, cs.a_gates, cs.b_gates, cs.readout, "readout")

    p0 = np.zeros(cs.num_symbols)
    p0[cs.initial] = 1.0
    per_input: dict[tuple[int, int], float] = {}
    for (a, b), target in zip(spec._pairs, spec._answers):
        p = (cs.b_gates[b] @ (cs.a_gates[a] @ p0)).tolist()
        per_input[(a, b)] = float(sum(x for x, label in zip(p, cs.readout) if label == target))
    average = sum(per_input.values()) / len(per_input)
    return EvaluationReport(per_input=per_input, average=average)


def classical_to_quantum(cs: ClassicalStrategy) -> Strategy:
    """Embed a classical strategy as a quantum one (diagonal everything).

    The induced strategy has a computational-basis initial state, channels
    acting as the stochastic gates on populations, and a computational
    measurement labeled by the readout.
    """
    d = cs.num_symbols
    return Strategy(
        initial=State.from_ket(basis_ket(d, cs.initial)),
        a_gates={k: Channel.classical(m) for k, m in cs.a_gates.items()},
        b_gates={k: Channel.classical(m) for k, m in cs.b_gates.items()},
        measurement=Measurement.computational(d, cs.readout),
    )
