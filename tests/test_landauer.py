"""Erasure values, the inverse solve, and the entropy ledger."""

import math

import numpy as np
import pytest

from chshstar import game, landauer

TSIRELSON = math.cos(math.pi / 8) ** 2
SQRT2_MINUS_1 = math.sqrt(2) - 1


def test_full_erasure_wins_always():
    assert landauer.erasure_value(1.0) == 1.0


def test_no_erasure_gives_reversible_bound():
    assert landauer.erasure_value(0.0) == 0.75


def test_partial_erasure_reproduces_tsirelson():
    assert abs(landauer.erasure_value(SQRT2_MINUS_1) - TSIRELSON) <= 1e-12


def test_erasure_value_rejects_bad_probability():
    with pytest.raises(ValueError):
        landauer.erasure_value(-0.1)
    with pytest.raises(ValueError):
        landauer.erasure_value(1.1)
    # A str or a bool is no probability on any path; erasure_report("0.5")
    # once returned 0.875 and erasure_report(True) 1.0.
    for check in (landauer.erasure_report, landauer.erasure_value, landauer.erasure_strategy,
                  landauer.entropy_ledger):
        for bad in ("0.5", True, False, np.True_):
            with pytest.raises(ValueError) as raised:
                check(bad)
            assert str(raised.value) == f"erase probability must be a real number, got {bad!r}"


def test_erasure_report_ledger_localized_to_one_input():
    report = landauer.erasure_report(0.3)
    assert report.erasure_ledger == {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.3, (1, 1): 0.0}
    assert report.per_input[(1, 0)] == pytest.approx(0.3, abs=1e-15)


def test_solve_erasure_probability():
    assert abs(landauer.solve_erasure_probability(TSIRELSON) - SQRT2_MINUS_1) <= 1e-12
    assert landauer.solve_erasure_probability(1.0) == 1.0
    assert landauer.solve_erasure_probability(0.75) == 0.0


def test_solve_erasure_probability_rejects_out_of_range():
    with pytest.raises(ValueError):
        landauer.solve_erasure_probability(0.5)
    with pytest.raises(ValueError):
        landauer.solve_erasure_probability(1.01)


def test_entropy_ledger_values():
    assert landauer.entropy_ledger(1.0).average_bits == 0.25
    assert landauer.entropy_ledger(SQRT2_MINUS_1).average_bits == SQRT2_MINUS_1 / 4
    assert landauer.entropy_ledger(0.0).average_bits == 0.0


def test_entropy_ledger_structure():
    report = landauer.entropy_ledger(0.7)
    assert report.per_input_bits_erased[(1, 0)] == 0.7
    assert all(v == 0.0 for k, v in report.per_input_bits_erased.items() if k != (1, 0))
    assert report.average_bits == 0.7 / 4
    assert report.unit == "kT*log2(2)"


def test_value_is_affine_and_roundtrips():
    grid = np.linspace(0.0, 1.0, 101)
    values = [landauer.erasure_value(p) for p in grid]
    # Strictly increasing, affine within float noise, closed form agreement.
    for left, right in zip(values, values[1:]):
        assert right > left
    for p, v in zip(grid, values):
        assert abs(v - (3 + p) / 4) <= 1e-12
        target = (3 + p) / 4
        assert abs(landauer.erasure_value(landauer.solve_erasure_probability(target)) - target) <= 1e-12


def test_advantage_equals_entropy_cost():
    # value(p) - 3/4 and the ledger average are both p/4.
    for p in np.linspace(0.0, 1.0, 101):
        advantage = landauer.erasure_value(p) - 0.75
        assert abs(advantage - landauer.entropy_ledger(p).average_bits) <= 2e-15
    for p in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert landauer.erasure_value(p) - 0.75 == landauer.entropy_ledger(p).average_bits


def test_erasure_strategy_uses_classical_evaluator():
    strategy = landauer.erasure_strategy(0.4)
    report = game.evaluate_classical(game.GameSpec(2), strategy)
    assert report.average == pytest.approx((3 + 0.4) / 4, abs=1e-12)
    assert isinstance(strategy, game.ClassicalStrategy)
