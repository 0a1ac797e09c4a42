"""Lift of unitary single-qubit strategies to two-player CHSH strategies.

A CHSH* strategy in normal form (initial ``|+>``, unitary gates, X
measurement) maps to a CHSH strategy in which Alice and Bob share a Bell
pair, Alice applies ``A_a^T`` and Bob ``B_b``, and both measure X.  Alice's
outcome convention follows the teleportation picture: measuring ``|+>``
yields x = 0 and leaves ``A_a |+>`` on Bob's side, measuring ``|->`` yields
x = 1 and leaves ``A_a Z |+>``.  The two games then win with identical
probability on every input pair, which is checked here numerically rather
than assumed.

``verify_equivalence`` makes that check.  Each side is one stack: the
single system through ``game.evaluate_unitary_stack``, with every density
checked, and the two-player side through ``evaluate_chsh``.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import game
from .quantum import (
    ATOL_STRUCT,
    Channel,
    Measurement,
    State,
    _PAULI_KETS,
    _close,
    plus_ket,
    projector,
    random_unitary,
)


def bell_pair_ket() -> np.ndarray:
    """(|00> + |11>) / sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


@dataclass(frozen=True, eq=False)
class ChshStrategy:
    """Alice's and Bob's local gates per input of a two-player strategy.

    The rest of the play is fixed and not stored: ``evaluate_chsh`` starts
    from the Bell pair |Phi+> and has both players measure X.
    """

    alice_gates: dict[int, np.ndarray]
    bob_gates: dict[int, np.ndarray]


@dataclass(frozen=True)
class ChshReport:
    """Joint outcome table and per-input winning probability (x xor y = a*b)."""

    per_input: dict[tuple[int, int], float]
    joint_table: dict[tuple[int, int, int, int], float]


@functools.cache
def _plus_state() -> State:
    """|+><+|, built and validated once; normal forms hold copies sharing its density."""
    return State.from_ket(plus_ket())


def normal_form(a0, a1, b0, b1) -> game.Strategy:
    """Normal-form strategy: |+>, the unitaries A0, A1, B0, B1, X measurement.

    The state and the measurement are fixed, so each is validated once and
    shared read-only (``Measurement.pauli``); only the four gates are
    checked per call.
    """
    return game.Strategy(
        initial=copy.copy(_plus_state()),
        a_gates={0: Channel.unitary(a0), 1: Channel.unitary(a1)},
        b_gates={0: Channel.unitary(b0), 1: Channel.unitary(b1)},
        measurement=Measurement.pauli("x"),
    )


def random_normal_form(rng: np.random.Generator) -> game.Strategy:
    """Normal-form strategy with random unitary gates, drawn as A0, A1, B0, B1."""
    return normal_form(*(random_unitary(2, rng) for _ in range(4)))


_QUBIT_GAME = game.GameSpec(2)
_BELL_PAIR = bell_pair_ket()
_X_KETS = np.stack([_PAULI_KETS["x+"], _PAULI_KETS["x-"]])
_X_PROJECTORS = np.stack([projector(k) for k in _X_KETS])
# Column 2x + y is the bra <x|<y| of both players' X outcomes, x, y = 0 for
# |+> and 1 for |->.
_OUTCOME_BRAS = (_X_KETS[:, None, :, None] * _X_KETS[None, :, None, :]).reshape(4, 4).conj().T


def _require_normal_form(s: game.Strategy) -> None:
    if s.dim != 2:
        raise ValueError(f"lift requires a qubit strategy, got dimension {s.dim}")
    for name, gates in (("A", s.a_gates), ("B", s.b_gates)):
        for k, ch in gates.items():
            if not ch.is_unitary_channel():
                raise ValueError(f"{name}_{k} is not a single-Kraus unitary channel")
    if not _close(s.initial.density, _X_PROJECTORS[0], ATOL_STRUCT):
        raise ValueError("normal form requires the initial state |+>")
    if s.measurement.outcome_labels != (0, 1) or not _close(
        s.measurement._stack, _X_PROJECTORS, ATOL_STRUCT
    ):
        raise ValueError("normal form requires the X measurement with labels (+ -> 0, - -> 1)")


def lift(s: game.Strategy) -> ChshStrategy:
    """Map a normal-form CHSH* strategy to its two-player counterpart."""
    _require_normal_form(s)
    return ChshStrategy(
        alice_gates={a: ch.kraus[0].T for a, ch in s.a_gates.items()},
        bob_gates={b: ch.kraus[0] for b, ch in s.b_gates.items()},
    )


def evaluate_chsh(cs: ChshStrategy) -> ChshReport:
    """Exact joint table p(x, y | a, b) and the derived win probabilities.

    All input pairs are computed as one stack: the Kronecker products
    A_a (x) B_b, applied to the Bell pair, projected on the four outcome
    kets.  Checks, each once: every local gate is 2x2 (each distinct gate
    is checked and stacked once), and the joint table of every input pair
    sums to 1.
    """
    a_keys, b_keys = sorted(cs.alice_gates), sorted(cs.bob_gates)
    gates = [cs.alice_gates[a] for a in a_keys] + [cs.bob_gates[b] for b in b_keys]
    if any(np.shape(g) != (2, 2) for g in gates):
        raise ValueError("local gates must be 2x2")
    gates = np.array(gates, dtype=complex).reshape(-1, 2, 2)
    alice, bob = gates[:len(a_keys)], gates[len(a_keys):]
    inputs = list(itertools.product(a_keys, b_keys))
    # u[a, b] = alice[a] (x) bob[b] with one product per entry, as np.kron
    # takes them (an einsum contraction rounds differently).
    u = (alice[:, None, :, None, :, None] * bob[None, :, None, :, None, :]).reshape(len(inputs), 4, 4)
    amplitudes = (u @ _BELL_PAIR) @ _OUTCOME_BRAS
    # |amplitude| ** 2 through hypot and float powers, as abs() of a Python
    # complex gives it.
    magnitudes = np.hypot(amplitudes.real, amplitudes.imag).tolist()
    joint: dict[tuple[int, int, int, int], float] = {}
    per_input: dict[tuple[int, int], float] = {}
    for (a, b), row in zip(inputs, magnitudes):
        p = [m ** 2 for m in row]
        total = sum(p)
        if not abs(total - 1.0) <= ATOL_STRUCT:
            raise ValueError(f"joint table for input ({a}, {b}) sums to {total}")
        for k, pk in enumerate(p):
            joint[(a, b, k >> 1, k & 1)] = pk
        # x xor y = a*b wins: outcomes (0, 0) and (1, 1), or (0, 1) and (1, 0).
        per_input[(a, b)] = p[1] + p[2] if (a * b) % 2 else p[0] + p[3]
    return ChshReport(per_input=per_input, joint_table=joint)


def verify_equivalence(s: game.Strategy, tol: float = 1e-10) -> tuple[bool, float]:
    """Compare the single-system and lifted evaluations input by input.

    Returns (largest per-input deviation <= tol, that deviation).  A bad
    strategy raises ``game.evaluate``'s errors first (gates missing for an
    input, labels that are no answer), then ``lift``'s (not the normal
    form).  The single-system side is one stack through
    ``game.evaluate_unitary_stack``, whose values equal ``game.evaluate``'s;
    every density on it is still checked, in one stack check of the two
    after A and the four final ones, and so are their outcome sums.
    """
    game._check_inputs(_QUBIT_GAME, s.a_gates, s.b_gates, s.measurement.outcome_labels)
    cs = lift(s)
    inputs = _QUBIT_GAME.input_alphabet
    single = game.evaluate_unitary_stack(
        _QUBIT_GAME,
        s.initial.density,
        np.concatenate([s.a_gates[a]._stack for a in inputs]),
        np.array([s.b_gates[b]._stack for b in inputs]),
        s.measurement,
    )
    lifted = evaluate_chsh(cs).per_input
    max_dev = max(abs(float(single[k][0]) - lifted[k]) for k in single)
    return max_dev <= tol, max_dev
