"""The CHSH* game: definition and exact strategy evaluation.

A single system is prepared, hit by a controlled gate ``A_a`` then ``B_b``
(inputs a, b drawn uniformly), and measured once; the play wins when the
measured label equals ``a * b mod q``.  Evaluation is exact (trace formulas),
never sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .quantum import (
    Channel,
    Measurement,
    State,
    _dagger_stack,
    apply_channel,
    apply_unitary_stack,
    basis_ket,
    check_density_stack,
    is_left_stochastic,
    outcome_distribution,
    outcome_probabilities,
)


@dataclass(frozen=True)
class GameSpec:
    """Answer modulus q and the winning predicate ``c = a * b mod q``."""

    q: int

    def __post_init__(self):
        if self.q not in (2, 3):
            raise ValueError(f"unsupported modulus q={self.q}; only 2 and 3 are implemented")

    @property
    def input_alphabet(self) -> tuple[int, ...]:
        return tuple(range(self.q))

    def input_pairs(self) -> list[tuple[int, int]]:
        return list(itertools.product(self.input_alphabet, repeat=2))


def winning_answer(spec: GameSpec, a: int, b: int) -> int:
    """The answer that wins on input (a, b)."""
    if a not in spec.input_alphabet or b not in spec.input_alphabet:
        raise ValueError(f"input ({a}, {b}) outside alphabet {spec.input_alphabet}")
    return (a * b) % spec.q


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
        dims = {self.initial.dim, self.measurement.dim}
        dims.update(ch.dim for ch in self.a_gates.values())
        dims.update(ch.dim for ch in self.b_gates.values())
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


def _check_coverage(spec: GameSpec, gates: dict[int, object], stage: str) -> None:
    missing = set(spec.input_alphabet) - set(gates)
    if missing:
        raise ValueError(f"{stage} gates missing for inputs {sorted(missing)}")


def _check_inputs(spec: GameSpec, s: Strategy) -> None:
    """``evaluate``'s checks of a strategy against the game, in its order.

    A and B gates cover the input alphabet, and every measurement label is
    an answer of the game.
    """
    _check_coverage(spec, s.a_gates, "A")
    _check_coverage(spec, s.b_gates, "B")
    bad = [c for c in s.measurement.outcome_labels if not 0 <= c < spec.q]
    if bad:
        raise ValueError(f"measurement labels {bad} outside range(0, {spec.q})")


def evaluate(spec: GameSpec, s: Strategy) -> EvaluationReport:
    """Exact win probability for every input pair, averaged uniformly."""
    _check_inputs(spec, s)

    per_input: dict[tuple[int, int], float] = {}
    for a, b in spec.input_pairs():
        rho = apply_channel(s.b_gates[b], apply_channel(s.a_gates[a], s.initial))
        target = winning_answer(spec, a, b)
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
) -> dict[tuple[int, int], np.ndarray]:
    """Exact win probabilities of k unitary plays at once, per input pair.

    ``a_stack`` (q, d, d) holds A_a for a = 0..q-1 and ``b_stack`` (q, k, d, d)
    holds k choices of B_b; play j starts from the density ``initial``,
    applies A_a, then ``b_stack[b, j]``, and measures ``measurement``.
    Returns (a, b) -> the k win probabilities, in ``input_pairs`` order
    (empty arrays when k = 0).
    Every product and trace is the one ``evaluate`` takes, so each value
    equals ``evaluate``'s for the same play.

    The gates are not checked here; callers pass validated unitaries.  The
    states are, each check once over its stack: the q densities after A
    and the q * q * k final densities are Hermitian, of unit trace and
    positive semidefinite, and every outcome distribution sums to 1.
    """
    q, d = spec.q, initial.shape[0]
    if a_stack.shape != (q, d, d) or b_stack.ndim != 4 or b_stack.shape[0] != q \
            or b_stack.shape[2:] != (d, d):
        raise ValueError(f"gate stacks {a_stack.shape}, {b_stack.shape} do not fit q={q}, d={d}")
    k = b_stack.shape[1]
    rho_a = apply_unitary_stack(a_stack, initial)
    # rhos[a, b, j] = B rho_a B^+ with B = b_stack[b, j], as apply_channel
    # takes it for one Kraus operator.
    rhos = (b_stack[None] @ rho_a[:, None, None] @ _dagger_stack(b_stack)[None]).reshape(-1, d, d)
    check_density_stack(rhos)
    probs = outcome_probabilities(measurement, rhos)
    per_input: dict[tuple[int, int], np.ndarray] = {}
    for i, (a, b) in enumerate(spec.input_pairs()):
        p = probs.get(winning_answer(spec, a, b))
        per_input[(a, b)] = np.zeros(k) if p is None else p[i * k:(i + 1) * k]
    return per_input


def stochastic_matrix(gate, d: int) -> np.ndarray:
    """Normalize a classical gate to a new, read-only left-stochastic d x d matrix.

    Accepts a function table (sequence of d symbol images) or an explicit
    left-stochastic matrix; anything else is rejected.  A matrix is copied,
    so a later write to the caller's array cannot change a validated gate.
    """
    arr = np.asarray(gate)
    if arr.ndim == 1:
        if arr.shape != (d,) or not all(0 <= int(v) < d for v in arr):
            raise ValueError(f"function table {gate!r} is not a map on {d} symbols")
        m = np.zeros((d, d))
        for j, i in enumerate(arr):
            m[int(i), j] = 1.0
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
    the readout labels each symbol with a game answer mod q.
    """

    num_symbols: int
    initial: int
    a_gates: dict[int, object]
    b_gates: dict[int, object]
    readout: tuple[int, ...]

    def __post_init__(self):
        d = self.num_symbols
        if not 0 <= self.initial < d:
            raise ValueError(f"initial symbol {self.initial} outside range({d})")
        if len(self.readout) != d:
            raise ValueError(f"readout must label all {d} symbols")
        object.__setattr__(self, "readout", tuple(int(c) for c in self.readout))
        # Normalize eagerly so invalid gates are rejected at construction.
        object.__setattr__(
            self, "a_gates", {k: stochastic_matrix(g, d) for k, g in self.a_gates.items()}
        )
        object.__setattr__(
            self, "b_gates", {k: stochastic_matrix(g, d) for k, g in self.b_gates.items()}
        )


def evaluate_classical(spec: GameSpec, cs: ClassicalStrategy) -> EvaluationReport:
    """Exact win probabilities for a classical strategy (possibly stochastic)."""
    _check_coverage(spec, cs.a_gates, "A")
    _check_coverage(spec, cs.b_gates, "B")
    bad = [c for c in cs.readout if not 0 <= c < spec.q]
    if bad:
        raise ValueError(f"readout labels {bad} outside range(0, {spec.q})")

    p0 = np.zeros(cs.num_symbols)
    p0[cs.initial] = 1.0
    per_input: dict[tuple[int, int], float] = {}
    for a, b in spec.input_pairs():
        p = cs.b_gates[b] @ (cs.a_gates[a] @ p0)
        target = winning_answer(spec, a, b)
        per_input[(a, b)] = float(sum(p[s] for s in range(cs.num_symbols) if cs.readout[s] == target))
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
