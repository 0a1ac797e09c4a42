"""Lift of unitary single-qubit strategies to two-player CHSH strategies.

A CHSH* strategy in normal form (initial ``|+>``, unitary gates, X
measurement) maps to a CHSH strategy in which Alice and Bob share a Bell
pair, Alice applies ``A_a^T`` and Bob ``B_b``, and both measure X.  Alice's
outcome convention follows the teleportation picture: measuring ``|+>``
yields x = 0 and leaves ``A_a |+>`` on Bob's side, measuring ``|->`` yields
x = 1 and leaves ``A_a Z |+>``.  The two games then win with identical
probability on every input pair, which is checked here numerically rather
than assumed.

``verify_equivalence`` makes that check for one strategy and
``max_deviation`` for a stack of n normal forms, with the same bits per
play.  Both take one path per side: the single system through
``game.evaluate_unitary_stack`` (a play axis of one, or of n plays),
with every density checked, and the two-player side through the products
``evaluate_chsh`` takes (``_joint_squares``), with every joint table checked
(``_lifted_wins``).
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
    check_unitary_stack,
    plus_ket,
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
    """Normal-form strategy with random unitary gates, drawn as A0, A1, B0, B1 in one stack."""
    return normal_form(*random_unitary(2, rng, (4,)))


_QUBIT_GAME = game.GameSpec(2)
_BELL_PAIR = bell_pair_ket()
_X_KETS = np.stack([_PAULI_KETS["x+"], _PAULI_KETS["x-"]])
# The projector stack that every ``Measurement.pauli("x")`` shares.
_X_PROJECTORS = Measurement.pauli("x")._stack
_PLUS_ENTRIES = _X_PROJECTORS[0].ravel().tolist()  # |+><+|; abs() of a Python complex is libm's hypot, as in _close
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
    if not all(abs(x - p) <= ATOL_STRUCT for x, p in zip(s.initial.density.ravel().tolist(), _PLUS_ENTRIES)):
        raise ValueError("normal form requires the initial state |+>")
    if s.measurement.outcome_labels != (0, 1) or (
        s.measurement._stack is not _X_PROJECTORS and not _close(s.measurement._stack, _X_PROJECTORS, ATOL_STRUCT)
    ):
        raise ValueError("normal form requires the X measurement with labels (+ -> 0, - -> 1)")


def lift(s: game.Strategy) -> ChshStrategy:
    """Map a normal-form CHSH* strategy to its two-player counterpart."""
    _require_normal_form(s)
    return ChshStrategy(
        alice_gates={a: ch.kraus[0].T for a, ch in s.a_gates.items()},
        bob_gates={b: ch.kraus[0] for b, ch in s.b_gates.items()},
    )


@functools.lru_cache(maxsize=16)
def _chsh_tables(a_keys: tuple, b_keys: tuple) -> tuple[tuple, tuple, tuple]:
    """The input pairs (a, b), the joint-table keys (a, b, x, y) and a * b mod 2, built once per key set."""
    inputs = tuple(itertools.product(a_keys, b_keys))
    joint_keys = tuple((a, b, x, y) for a, b in inputs for x in (0, 1) for y in (0, 1))
    return inputs, joint_keys, tuple((a * b) % 2 for a, b in inputs)


def _joint_squares(alice: np.ndarray, bob: np.ndarray) -> list[float]:
    """p(x, y | a, b) of n lifted plays as one flat list, over (play, a, b, 2x + y).

    ``alice`` (n, ka, 2, 2) and ``bob`` (n, kb, 2, 2) hold each play's local
    gates.  A_a (x) B_b takes one product per entry, as np.kron takes them
    (an einsum contraction rounds differently), and is applied to the Bell
    pair and projected on the four outcome kets.  A probability is
    |amplitude| ** 2 through hypot and Python's float power, as abs() of a
    Python complex and ``** 2`` give it; numpy's square rounds differently.
    """
    n, ka, kb = alice.shape[0], alice.shape[1], bob.shape[1]
    u = (alice[:, :, None, :, None, :, None] * bob[:, None, :, None, :, None, :]).reshape(n * ka * kb, 4, 4)
    amplitudes = (u @ _BELL_PAIR) @ _OUTCOME_BRAS
    return [m ** 2 for m in np.hypot(amplitudes.real, amplitudes.imag).ravel().tolist()]


def _lifted_wins(squares: list[float], inputs: tuple, odd: tuple) -> list[float]:
    """Each joint table's win probability, x xor y = a * b, in the order of ``squares``.

    ``squares`` holds tables of four (``_joint_squares``) whose input pairs
    cycle through ``inputs``, with a * b mod 2 in ``odd``.  Each table must
    sum to 1, its four entries added in order.
    """
    wins = []
    tables = zip(*[iter(squares)] * 4)
    for ((a, b), ab_odd), (p0, p1, p2, p3) in zip(itertools.cycle(zip(inputs, odd)), tables):
        total = p0 + p1 + p2 + p3
        if not abs(total - 1.0) <= ATOL_STRUCT:
            raise ValueError(f"joint table for input ({a}, {b}) sums to {total}")
        # x xor y = a*b wins: outcomes (0, 1) and (1, 0), or (0, 0) and (1, 1).
        wins.append(p1 + p2 if ab_odd else p0 + p3)
    return wins


def evaluate_chsh(cs: ChshStrategy) -> ChshReport:
    """Exact joint table p(x, y | a, b) and the derived win probabilities.

    All input pairs are computed as one stack (``_joint_squares``).  Checks,
    each once: every local gate is 2x2 (each distinct gate is checked and
    stacked once), and the joint table of every input pair sums to 1.
    """
    a_keys, b_keys = tuple(sorted(cs.alice_gates)), tuple(sorted(cs.bob_gates))
    gates = [cs.alice_gates[a] for a in a_keys] + [cs.bob_gates[b] for b in b_keys]
    try:  # no gate at all is an empty stack of 2x2 gates
        gates = np.array(gates or np.empty((0, 2, 2)), dtype=complex)
    except (TypeError, ValueError):  # gates of different shapes, or no numbers
        gates = np.empty(0)
    if gates.shape[1:] != (2, 2):
        raise ValueError("local gates must be 2x2")
    inputs, joint_keys, odd = _chsh_tables(a_keys, b_keys)
    squares = _joint_squares(gates[None, :len(a_keys)], gates[None, len(a_keys):])
    return ChshReport(per_input=dict(zip(inputs, _lifted_wins(squares, inputs, odd))),
                      joint_table=dict(zip(joint_keys, squares)))


def verify_equivalence(s: game.Strategy, tol: float = 1e-10) -> tuple[bool, float]:
    """Compare the single-system and lifted evaluations input by input.

    Returns (largest per-input deviation <= tol, that deviation).  A bad
    strategy raises ``game.evaluate``'s errors first (gates missing for an
    input, labels that are no answer), then ``lift``'s (not the normal
    form).  The single-system side is ``game.evaluate_unitary_stack`` of a
    play axis of one, whose values equal ``game.evaluate``'s; every density
    on it is still checked, in one stack check of the two after A and the
    four final ones, and so are their outcome sums.  ``max_deviation`` is
    the same check for a stack of plays.
    """
    game._check_inputs(_QUBIT_GAME, s.a_gates, s.b_gates, s.measurement.outcome_labels)
    cs = lift(s)
    gates = np.concatenate([s.a_gates[0]._stack, s.a_gates[1]._stack, s.b_gates[0]._stack, s.b_gates[1]._stack])
    single = game.evaluate_unitary_stack(_QUBIT_GAME, s.initial.density, gates[None, :2], gates[None, 2:, None],
                                         s.measurement)
    lifted = evaluate_chsh(cs).per_input
    max_dev = max(abs(p - lifted[pair]) for pair, p in zip(_QUBIT_GAME._pairs, single.ravel().tolist()))
    return max_dev <= tol, max_dev


def max_deviation(gates: np.ndarray) -> float:
    """The largest ``verify_equivalence`` deviation over n >= 1 normal forms, in one pass per side.

    ``gates`` (n, 4, 2, 2) holds A0, A1, B0, B1 of each play; play i is
    ``normal_form(*gates[i])``.  Checks, each once over the whole stack:
    every gate is unitary; every density of the single system (the
    kernel's checks); every lifted joint table sums to 1.  The single
    system is one ``game.evaluate_unitary_stack`` call with n plays on its
    play axis, the lifted plays one ``_joint_squares`` call, so every deviation
    has the bits of ``verify_equivalence`` of play i, and so has their
    maximum.
    """
    check_unitary_stack(gates.reshape(-1, 2, 2))
    a_gates, b_gates = gates[:, :2], gates[:, 2:]
    single = game.evaluate_unitary_stack(
        _QUBIT_GAME, _plus_state().density, a_gates, b_gates[:, :, None], Measurement.pauli("x"))
    inputs, _, odd = _chsh_tables(_QUBIT_GAME.input_alphabet, _QUBIT_GAME.input_alphabet)
    lifted = _lifted_wins(_joint_squares(a_gates.swapaxes(-1, -2), b_gates), inputs, odd)
    return max(abs(p - r) for p, r in zip(single[..., 0].T.ravel().tolist(), lifted))
