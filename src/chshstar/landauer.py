"""Erasure-cost accounting for the partial-erasure strategy family.

The strategy: start the bit at 0, flip it on a = 1, then on b = 0 erase it
back to 0 with probability p (and on b = 1 do nothing).  Erasure only ever
fires on input (1, 0), so the expected erasure cost is p/4 of a bit.  One
erased bit is charged one unit of kT*log2(2) of environment entropy; k and
T stay symbolic, so entropy numbers are dimensionless multiples of that
unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import game
from .quantum import check_erase_probability

ENTROPY_UNIT = "kT*log2(2)"

_ERASE_INPUT = (1, 0)


@dataclass(frozen=True)
class EntropyReport:
    """Expected bits erased per input and on average, in units of kT*log2(2)."""

    per_input_bits_erased: dict[tuple[int, int], float]
    average_bits: float
    unit: str = ENTROPY_UNIT


def erasure_strategy(p: float) -> game.ClassicalStrategy:
    """Build the strategy that erases with probability p on input (1, 0)."""
    p = check_erase_probability(p)
    erase_gate = np.array([[1.0, p], [0.0, 1.0 - p]])
    return game.ClassicalStrategy(
        num_symbols=2,
        initial=0,
        a_gates={0: (0, 1), 1: (1, 0)},
        b_gates={0: erase_gate, 1: (0, 1)},
        readout=(0, 1),
    )


def erasure_report(p: float) -> game.EvaluationReport:
    """Evaluate the partial-erasure strategy, with the erasure ledger attached."""
    report = game.evaluate_classical(game.GameSpec(2), erasure_strategy(p))
    ledger = entropy_ledger(p).per_input_bits_erased
    return game.EvaluationReport(
        per_input=report.per_input, average=report.average, erasure_ledger=ledger
    )


def erasure_value(p: float) -> float:
    """Success probability of the partial-erasure strategy; equals (3 + p) / 4."""
    return erasure_report(p).average


def solve_erasure_probability(target: float) -> float:
    """Erase probability whose strategy value is ``target``; inverts (3 + p) / 4."""
    target = float(target)
    if not 0.75 <= target <= 1.0:
        raise ValueError(f"target {target} outside [0.75, 1]")
    return 4.0 * target - 3.0


def entropy_ledger(p: float) -> EntropyReport:
    """Expected erasure entropy: p bits on input (1, 0), zero elsewhere."""
    p = check_erase_probability(p)
    per_input = {
        (a, b): (p if (a, b) == _ERASE_INPUT else 0.0)
        for a in (0, 1)
        for b in (0, 1)
    }
    return EntropyReport(per_input_bits_erased=per_input, average_bits=p / 4.0)
