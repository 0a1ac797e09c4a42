"""Reference values and the checker every benchmark operation passes through.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output matches the paper's values.  The checker never sees how a
value was produced, so a fabricated output can be handed to it directly
(see ``test_perfbench.py``).
"""

from __future__ import annotations

import json
import math

TSIRELSON = math.cos(math.pi / 8) ** 2
# cos^2(pi/8) as a double differs from the true value by less than one ulp,
# and the optimizer's float sums can land a few ulps above it; anything
# further above is a real excess over Tsirelson's bound.
TSIRELSON_SLACK = 1e-15
# Erase probability at which partial erasure reaches cos^2(pi/8): sqrt(2) - 1.
TSIRELSON_ERASE_P = 4 * TSIRELSON - 3
QUTRIT_FIXED_12 = "0.712386014201"
# Probabilities computed in floating point may leave [0, 1] by rounding only.
PROB_SLACK = 1e-12

# Values of the exhaustive settings, by their row name in reproduce-all's table.
EXACT_VALUES = {
    "clifford": 0.75,
    "reversible_d2": 0.75,
    "reversible_d3": 1.0,
    "irreversible": 1.0,
    "q3_all": 7 / 9,  # the true optimum over all gates
    "q3_cyclic": 2 / 3,
}


def rz_formula(epsilon: float) -> float:
    """Success probability of the Rz(epsilon) pair strategy: 1/2 + (cos e + sin e)/4."""
    return 0.5 + (math.cos(epsilon) + math.sin(epsilon)) / 4


def landauer_value(p: float) -> float:
    """Value of the partial-erasure strategy with erase probability p."""
    return (3 + p) / 4


def check_close(name: str, value: float, ref: float, tol: float) -> list[str]:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return [f"{name}: {value!r} is not a finite number"]
    if abs(value - ref) > tol:
        return [f"{name}: {value!r} differs from {ref!r} by more than {tol:g}"]
    return []


def check_unitary(value: float) -> list[str]:
    """Within 1e-9 of cos^2(pi/8) and never above it."""
    fails = check_close("unitary value", value, TSIRELSON, 1e-9)
    if not fails and value > TSIRELSON + TSIRELSON_SLACK:
        fails.append(f"unitary value {value!r} exceeds cos^2(pi/8) = {TSIRELSON!r}")
    return fails


def check_qutrit_fixed(value: float) -> list[str]:
    if f"{value:.12f}" != QUTRIT_FIXED_12:
        return [f"fixed qutrit value {value!r} is not {QUTRIT_FIXED_12}"]
    return []


def check_probabilities(name: str, probs) -> list[str]:
    bad = [p for p in probs if not -PROB_SLACK <= p <= 1 + PROB_SLACK]
    return [f"{name}: probabilities outside [0, 1]: {bad[:3]}"] if bad else []


def check_landauer(p: float, value: float, bits: float | None = None) -> list[str]:
    """Value (3 + p)/4 and, when given, average erased bits p/4."""
    fails = check_probabilities("erase probability", [p])
    fails += check_close("landauer value", value, landauer_value(p), 1e-12)
    if bits is not None:
        fails += check_close("landauer bits", bits, p / 4, 1e-12)
    return fails


def check_sweep(rows) -> list[str]:
    """Formula and circuit agree, and the formula is 1/2 + (cos e + sin e)/4."""
    fails = []
    for eps, pf, pc in rows:
        fails += check_close(f"sweep circuit at {eps!r}", pc, pf, 1e-12)
        fails += check_close(f"sweep formula at {eps!r}", pf, rz_formula(eps), 1e-12)
        fails += check_probabilities("sweep", (pf, pc))
        if fails:
            break
    return fails


def check_lift(max_deviation: float) -> list[str]:
    if not max_deviation <= 1e-10:
        return [f"lift deviation {max_deviation!r} above 1e-10"]
    return []


def check_table(rows: dict) -> list[str]:
    """Check each row of reproduce-all's table that ``rows`` holds.

    Row names and shapes are those of ``workloads.TABLE_ROWS``; a subset of
    the rows may be given.
    """
    fails = []
    for name, value in rows.items():
        if name in EXACT_VALUES:
            fails += check_close(name, value, EXACT_VALUES[name], 1e-12)
        elif name == "unitary":
            fails += check_unitary(value)
        elif name == "qutrit_fixed":
            fails += check_qutrit_fixed(value)
        elif name == "sweep":
            fails += check_sweep(value)
        elif name == "lift":
            fails += check_lift(value)
        elif name == "landauer":
            p, game_value, bits = value
            fails += check_close("landauer p", p, TSIRELSON_ERASE_P, 1e-12)
            fails += check_landauer(p, game_value, bits)
        else:
            fails.append(f"unknown table row {name!r}")
    return fails


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

def _flag(argv: list[str], name: str, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _check_value(argv: list[str], value: float) -> list[str]:
    setting = _flag(argv, "--setting")
    if setting == "qutrit-q3":
        return check_qutrit_fixed(value)
    if setting == "clifford-plus-rz":
        ref = rz_formula(float(_flag(argv, "--epsilon")))
    elif setting == "reversible":
        ref = EXACT_VALUES[f"reversible_d{_flag(argv, '--dimension', '2')}"]
    elif setting == "classical-q3":
        ref = EXACT_VALUES["q3_all"]
    else:
        ref = EXACT_VALUES[setting]
    return check_close(f"value --setting {setting}", value, ref, 1e-12)


def _landauer_p(argv: list[str]) -> float:
    if _flag(argv, "--p") is not None:
        return float(_flag(argv, "--p"))
    target = _flag(argv, "--target")
    return 4 * (TSIRELSON if target == "tsirelson" else float(target)) - 3


def _text_number(line: str) -> float:
    """The first number after the colon of a `label: number ...` line."""
    return float(line.split(":", 1)[1].split()[0])


def _lines_with(lines: list[str], prefix: str) -> list[str]:
    return [ln.strip() for ln in lines if ln.strip().startswith(prefix)]


def _check_json(command: str, argv: list[str], d: dict) -> list[str]:
    if command == "value":
        return _check_value(argv, d["value"])
    if command == "landauer":
        p = d["erase_probability"]
        fails = check_close("landauer p", p, _landauer_p(argv), 1e-12)
        fails += check_landauer(p, d["value"], d["entropy"]["average_bits"])
        return fails + check_probabilities("landauer per-input", d["per_input_win"].values())
    if command == "sweep-epsilon":
        rows = [(r["epsilon"], r["p_formula"], r["p_circuit"]) for r in d["rows"]]
        fails = [] if len(rows) == int(_flag(argv, "--steps")) else ["sweep row count"]
        return fails + check_sweep(rows)
    if command == "verify-lemma1":
        fails = check_lift(d["max_deviation"])
        if not d["passed"] or d["strategies_checked"] != int(_flag(argv, "--n-random")) + 1:
            fails.append("verify-lemma1 did not pass on every strategy")
        return fails
    if command == "q3":
        fails = check_table({"q3_all": d["classical_value"],
                             "q3_cyclic": d["classical_cyclic_value"]})
        fails += check_qutrit_fixed(d["qutrit_value"])
        if d["qutrit_value_12_digits"] != QUTRIT_FIXED_12:
            fails.append("q3 qutrit digits")
        return fails
    return [f"unknown command {command!r}"]


def _check_text(command: str, argv: list[str], out: str) -> list[str]:
    """Text and csv outputs; numbers printed with 12+ decimals, so 1e-12 holds."""
    lines = out.splitlines()
    if command == "value":
        return _check_value(argv, _text_number(_lines_with(lines, "value:")[0]))
    if command == "landauer":
        p = _text_number(_lines_with(lines, "erase probability:")[0])
        fails = check_close("landauer p", p, _landauer_p(argv), 1e-12)
        fails += check_landauer(p, _text_number(_lines_with(lines, "game value:")[0]),
                                _text_number(_lines_with(lines, "average entropy:")[0]))
        bits = [_text_number(ln) for ln in _lines_with(lines, "(a=")]
        return fails + check_probabilities("landauer bits", bits)
    if command == "sweep-epsilon":
        if _flag(argv, "--format") == "csv":
            if lines[0] != "epsilon,p_formula,p_circuit":
                return ["sweep csv header"]
            rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
        else:
            rows = [tuple(float(x) for x in ln.split()) for ln in lines[1:-2]]
            if "max |p_formula - p_circuit|" not in lines[-2]:
                return ["sweep text summary"]
        fails = [] if len(rows) == int(_flag(argv, "--steps")) else ["sweep row count"]
        if _flag(argv, "--format") == "csv":
            return fails + check_sweep(rows)
        # Text rounds epsilon to 8 decimals, so only formula vs circuit is checked.
        for _, pf, pc in rows:
            fails += check_close("sweep", pc, pf, 1e-12) + check_probabilities("sweep", (pf, pc))
        return fails
    if command == "verify-lemma1":
        fails = check_lift(_text_number(_lines_with(lines, "max per-input deviation:")[0]))
        if _lines_with(lines, "result:") != ["result: PASS"]:
            fails.append("verify-lemma1 text result is not PASS")
        return fails
    if command == "q3":
        fails = check_table({
            "q3_all": _text_number(_lines_with(lines, "classical value (all")[0]),
            "q3_cyclic": _text_number(_lines_with(lines, "classical value (cyclic")[0]),
        })
        qutrit = _lines_with(lines, "fixed qutrit strategy value:")[0].split(":")[1].strip()
        return fails + ([] if qutrit == QUTRIT_FIXED_12 else ["q3 qutrit digits"])
    return [f"unknown command {command!r}"]


def check_cli(argv: list[str], rc: int, stdout: str, validator=None) -> list[str]:
    """Check one CLI run: exit code, JSON and schema where asked, and values."""
    if rc != 0:
        return [f"exit code {rc}"]
    command = argv[0]
    try:
        if _flag(argv, "--format") == "json":
            payload = json.loads(stdout)
            if validator is not None:
                errors = [e.message for e in validator.iter_errors(payload)]
                if errors:
                    return [f"schema: {errors[0]}"]
            return _check_json(command, argv, payload)
        return _check_text(command, argv, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable {command} output: {exc!r}"]
