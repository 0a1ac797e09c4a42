"""Lift of unitary single-qubit strategies to two-player CHSH strategies.

A CHSH* strategy in normal form (initial ``|+>``, unitary gates, X
measurement) maps to a CHSH strategy in which Alice and Bob share a Bell
pair, Alice applies ``A_a^T`` and Bob ``B_b``, and both measure X.  Alice's
outcome convention follows the teleportation picture: measuring ``|+>``
yields x = 0 and leaves ``A_a |+>`` on Bob's side, measuring ``|->`` yields
x = 1 and leaves ``A_a Z |+>``.  The two games then win with identical
probability on every input pair, which is checked here numerically rather
than assumed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import game
from .quantum import (
    ATOL_STRUCT,
    Channel,
    Measurement,
    State,
    minus_ket,
    plus_ket,
    projector,
    random_unitary,
    tensor,
)


def bell_pair_ket() -> np.ndarray:
    """(|00> + |11>) / sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


@dataclass(frozen=True)
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


def random_normal_form(rng: np.random.Generator) -> game.Strategy:
    """Normal-form strategy with random unitary gates, drawn as A0, A1, B0, B1."""
    a0, a1, b0, b1 = (Channel.unitary(random_unitary(2, rng)) for _ in range(4))
    return game.Strategy(
        initial=State.from_ket(plus_ket()),
        a_gates={0: a0, 1: a1},
        b_gates={0: b0, 1: b1},
        measurement=Measurement.pauli("x"),
    )


def _require_normal_form(s: game.Strategy) -> None:
    if s.dim != 2:
        raise ValueError(f"lift requires a qubit strategy, got dimension {s.dim}")
    for name, gates in (("A", s.a_gates), ("B", s.b_gates)):
        for k, ch in gates.items():
            if not ch.is_unitary_channel():
                raise ValueError(f"{name}_{k} is not a single-Kraus unitary channel")
    if not np.allclose(s.initial.density, projector(plus_ket()), atol=ATOL_STRUCT, rtol=0.0):
        raise ValueError("normal form requires the initial state |+>")
    x_projectors = (projector(plus_ket()), projector(minus_ket()))
    if s.measurement.outcome_labels != (0, 1) or not all(
        np.allclose(p, q, atol=ATOL_STRUCT, rtol=0.0)
        for p, q in zip(s.measurement.projectors, x_projectors)
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
    """Exact joint table p(x, y | a, b) and the derived win probabilities."""
    psi0 = bell_pair_ket()
    x_kets = {0: plus_ket(), 1: minus_ket()}
    joint: dict[tuple[int, int, int, int], float] = {}
    per_input: dict[tuple[int, int], float] = {}
    inputs = itertools.product(sorted(cs.alice_gates), sorted(cs.bob_gates))
    for a, b in inputs:
        u = tensor(cs.alice_gates[a], cs.bob_gates[b])
        if u.shape != (4, 4):
            raise ValueError("local gates must be 2x2")
        psi = u @ psi0
        win = 0.0
        for x, y in itertools.product((0, 1), repeat=2):
            amp = np.vdot(np.kron(x_kets[x], x_kets[y]), psi)
            p = float(abs(amp) ** 2)
            joint[(a, b, x, y)] = p
            if (x + y) % 2 == (a * b) % 2:
                win += p
        total = sum(joint[(a, b, x, y)] for x, y in itertools.product((0, 1), repeat=2))
        if abs(total - 1.0) > ATOL_STRUCT:
            raise ValueError(f"joint table for input ({a}, {b}) sums to {total}")
        per_input[(a, b)] = win
    return ChshReport(per_input=per_input, joint_table=joint)


def verify_equivalence(s: game.Strategy, tol: float = 1e-10) -> tuple[bool, float]:
    """Compare the single-system and lifted evaluations input by input."""
    single = game.evaluate(game.GameSpec(2), s).per_input
    lifted = evaluate_chsh(lift(s)).per_input
    max_dev = max(abs(single[k] - lifted[k]) for k in single)
    return max_dev <= tol, max_dev
