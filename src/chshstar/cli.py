"""Command-line surface: every headline number as a runnable command.

Subcommands
-----------
value           game value for one setting (exhaustive, constructed or evaluated)
verify-lemma1   per-input equivalence of single-system and lifted strategies
sweep-epsilon   closed-form vs circuit success probability over an eps grid
landauer        erasure probability, game value and entropy ledger
q3              mod-3 game: classical searches and the fixed qutrit play
reproduce-all   run everything and print a value-table summary

Each ``cmd_*`` computes its result and describes it as ``(payload, lines,
passed)``: the JSON payload, the text lines (CSV lines for ``sweep-epsilon
--format csv``) and False on a failed verification.  Only ``main`` renders,
writes ``--output``, prints and picks the exit code; commands raise
``ValueError`` on usage errors.

``value --dimension`` defaults to the setting's own dimension (2 for
``reversible``, which also takes 3); a dimension the setting does not take
is a usage error.  ``value --setting unitary`` constructs its witness by two
best responses from one seeded start.  A witness is shown as function
tables (classical) or by the names of its initial state, measurement and
unitary gates, with a gate no name fits given as its raw matrix.  Names and
symbolic values are recognized to ``ATOL_NAME`` (1e-9).

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error.
JSON output is deterministic given ``--seed`` (no timestamps in the
payload); the schema ships at ``chshstar/schemas/cli_output.schema.json``.
The environment variable ``CHSHSTAR_SEED`` overrides the default seed, and
``--seed`` overrides the variable's value.  The variable is checked even when
``--seed`` is given: a malformed or negative ``CHSHSTAR_SEED``, like a
negative ``--seed``, is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import chsh_lift, game, landauer, settings
from .quantum import (
    ATOL_NAME,
    Channel,
    Measurement,
    check_erase_probability,
    matrices_equal_up_to_phase,
    pauli_eigenstates,
    phase_canonical,
    plus_ket,
    projector,
    qudit_gates,
    random_unitary,
    H,
    I2,
    S,
    T,
    X,
    Y,
    Z,
)
from .settings import DEFAULT_SEED, ConsistencyError

TSIRELSON = float(np.cos(np.pi / 8) ** 2)

_SYMBOLIC_VALUES = (
    (TSIRELSON, "cos^2(pi/8)"),
    (1.0, "1"),
    (7 / 8, "7/8"),
    (7 / 9, "7/9"),
    (3 / 4, "3/4"),
    (2 / 3, "2/3"),
    (5 / 9, "5/9"),
    (1 / 2, "1/2"),
    (float(np.sqrt(2) - 1), "sqrt(2)-1"),
    (0.0, "0"),
)

_GATE_NAMES_2 = (
    ("I", I2),
    ("X", X),
    ("Y", Y),
    ("Z", Z),
    ("H", H),
    ("S", S),
    ("S+", S.conj().T),
    ("T", T),
    ("T+", T.conj().T),
)


def value_symbol(v: float) -> str | None:
    """Symbolic name of a constant within ``ATOL_NAME`` of ``v``, or None."""
    for ref, name in _SYMBOLIC_VALUES:
        if abs(v - ref) <= ATOL_NAME:
            return name
    return None


def gate_name(u: np.ndarray) -> str | None:
    """Recognized name of a unitary (up to global phase, to ``ATOL_NAME``), or None."""
    table = _GATE_NAMES_2 if u.shape == (2, 2) else qudit_gates(3).items() if u.shape == (3, 3) else ()
    for name, ref in table:
        if matrices_equal_up_to_phase(u, ref):
            return name
    if u.shape == (2, 2):
        c = phase_canonical(u)
        if abs(c[0, 1]) < ATOL_NAME and abs(c[1, 0]) < ATOL_NAME:
            theta = float(np.angle(c[1, 1] / c[0, 0]))
            return f"Rz({theta:.12g})"
    return None


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matches(matrices, references) -> bool:
    """Equal counts, and each matrix equal in shape and, to ``ATOL_NAME``, entrywise to its reference."""
    return len(matrices) == len(references) and all(
        np.shape(m) == np.shape(r) and np.allclose(m, r, atol=ATOL_NAME, rtol=0.0)
        for m, r in zip(matrices, references)
    )


def _gate_json(ch: Channel) -> dict:
    """A unitary gate by name, or as its raw matrix."""
    (u,) = ch.kraus  # every setting's quantum witness has unitary gates
    name = gate_name(u)
    return {"name": name} if name is not None else {"matrix": _matrix_json(u)}


def _state_name(density: np.ndarray) -> str | None:
    t3_plus = qudit_gates(3)["T3"] @ plus_ket(3)
    named = [*pauli_eigenstates().items(), ("T3|+>", t3_plus), ("|+>", plus_ket(3))]
    return next((name for name, ket in named if _matches([density], [projector(ket)])), None)


def _measurement_json(m: Measurement) -> dict:
    named = [(axis.upper(), Measurement.pauli(axis)) for axis in ("x", "y", "z")]
    named.append((f"F{m.dim}", Measurement.fourier(m.dim)))
    name = next((name for name, ref in named if _matches(m.projectors, ref.projectors)), None)
    return {"name": name, "labels": list(m.outcome_labels)}


def _witness_json(witness) -> dict:
    """Function tables of a classical witness; names (or raw unitary matrices) of a quantum one."""
    if isinstance(witness, game.ClassicalStrategy):
        def tables(gates):
            # Column j of a function table's 0/1 matrix has its 1 at the image of j.
            return {str(k): np.argmax(gates[k], axis=0).tolist() for k in sorted(gates)}

        return {
            "type": "classical",
            "num_symbols": witness.num_symbols,
            "initial": witness.initial,
            "a_gates": tables(witness.a_gates),
            "b_gates": tables(witness.b_gates),
            "readout": list(witness.readout),
        }
    return {
        "type": "quantum",
        "dimension": witness.dim,
        "initial": {"name": _state_name(witness.initial.density)},
        "a_gates": {str(k): _gate_json(witness.a_gates[k]) for k in sorted(witness.a_gates)},
        "b_gates": {str(k): _gate_json(witness.b_gates[k]) for k in sorted(witness.b_gates)},
        "measurement": _measurement_json(witness.measurement),
    }


def _witness_text(data: dict) -> list[str]:
    """Text lines of a witness from its JSON form."""
    classical = data["type"] == "classical"
    if classical:
        lines = [f"  initial symbol: {data['initial']}"]
    else:
        lines = [f"  initial: {data['initial']['name']}"]
    for stage in ("a_gates", "b_gates"):
        for k, g in data[stage].items():
            shown = g if classical else g.get("name", g.get("matrix"))
            lines.append(f"  {stage[0].upper()}{k} = {shown}")
    if classical:
        lines.append(f"  readout: {data['readout']}")
    else:
        meas = data["measurement"]
        lines.append(f"  measurement: {meas['name']}, labels {meas['labels']}")
    return lines


def _fmt_value(v: float) -> str:
    symbol = value_symbol(v)
    text = f"{v:.12f}"
    return f"{text} (= {symbol})" if symbol else text


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_SETTING_CLI = {
    "unitary": "unitary",
    "clifford": "clifford",
    "reversible": "classical_reversible",
    "irreversible": "classical_irreversible",
    "clifford-plus-rz": "clifford_plus_rz",
    "qutrit-q3": "qutrit_unitary_fixed",
    "classical-q3": "classical_q3_reversible",
}


def cmd_value(args) -> tuple[dict, list[str], bool]:
    setting = settings.SettingSpec(kind=_SETTING_CLI[args.setting], dimension=args.dimension,
                                   epsilon=args.epsilon)
    config = settings.OptimizerConfig(seed=args.seed)
    t0 = time.perf_counter()
    result = settings.compute_value(setting, config)
    elapsed = time.perf_counter() - t0

    payload = {
        "command": "value",
        "setting": args.setting,
        "dimension": setting.dimension,
        "value": float(result.value),
        "symbolic": value_symbol(result.value),
        "method": result.method,
        "strategies_examined": result.strategies_examined,
        "witness": _witness_json(result.witness),
        "seed": args.seed,
    }
    if result.quantization_error is not None:
        payload["quantization_error"] = result.quantization_error
    if args.epsilon is not None:
        payload["epsilon"] = args.epsilon

    lines = [
        f"setting: {args.setting} (d={setting.dimension})",
        f"value: {_fmt_value(result.value)}",
        f"method: {result.method}",
        f"strategies examined: {result.strategies_examined}",
        "witness:",
        *_witness_text(payload["witness"]),
        f"wall time: {elapsed:.3f} s",
    ]
    if result.quantization_error is not None:
        lines.insert(4, f"max overlap deviation from {{0, 1/2, 1}}: {result.quantization_error:.3e}")
    return payload, lines, True


# Random plays drawn and verified at once by ``_lemma1_max_deviation``: a
# chunk's stacks take about 100 KB, so peak memory stays flat in n_random.
_LEMMA1_CHUNK = 64


def _lemma1_max_deviation(seed: int, n_random: int) -> tuple[float, int]:
    """Largest lift deviation over the optimal play and n_random seeded random ones.

    The random plays are ``chsh_lift.random_normal_form``'s, drawn in the
    same order from the same stream, but ``_LEMMA1_CHUNK`` at a time: each
    chunk is one (m, 4, 2, 2) stack of ``random_unitary`` gates, checked
    unitary once and verified in one pass (``chsh_lift.max_deviation``),
    then dropped before the next is drawn, so memory does not grow with
    n_random.  Every deviation has the bits ``verify_equivalence`` gives
    the same play.
    """
    rng = np.random.default_rng(seed)
    max_dev = chsh_lift.verify_equivalence(settings.optimal_unitary_strategy())[1]
    for start in range(0, n_random, _LEMMA1_CHUNK):
        gates = random_unitary(2, rng, (min(_LEMMA1_CHUNK, n_random - start), 4))
        max_dev = max(max_dev, chsh_lift.max_deviation(gates))
    return max_dev, 1 + n_random


def cmd_verify_lemma1(args) -> tuple[dict, list[str], bool]:
    if args.n_random < 1:
        raise ValueError("--n-random must be >= 1")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValueError("--tol must be a finite number >= 0")
    max_dev, checked = _lemma1_max_deviation(args.seed, args.n_random)
    passed = max_dev <= args.tol

    payload = {
        "command": "verify_lemma1",
        "n_random": args.n_random,
        "strategies_checked": checked,
        "seed": args.seed,
        "tol": args.tol,
        "max_deviation": max_dev,
        "passed": passed,
    }
    lines = [
        f"strategies checked: {checked} (optimal + {args.n_random} random)",
        f"seed: {args.seed}",
        f"max per-input deviation: {max_dev:.3e} (tolerance {args.tol:.1e})",
        f"result: {'PASS' if passed else 'FAIL'}",
    ]
    return payload, lines, passed


def _sweep_summary(steps: int) -> tuple[list, float, tuple]:
    """Sweep rows, the largest formula-vs-circuit gap and the row of largest p_formula."""
    rows = settings.epsilon_sweep(settings.uniform_open_grid(steps))
    max_delta = max(abs(pf - pc) for _, pf, pc in rows)
    best = max(rows, key=lambda r: r[1])
    return rows, max_delta, best


def cmd_sweep_epsilon(args) -> tuple[dict, list[str], bool]:
    if args.steps < 2:
        raise ValueError("--steps must be >= 2")
    rows, max_delta, best = _sweep_summary(args.steps)

    payload = {
        "command": "sweep_epsilon",
        "steps": args.steps,
        "rows": [
            {"epsilon": eps, "p_formula": pf, "p_circuit": pc} for eps, pf, pc in rows
        ],
        "max_abs_delta": max_delta,
        "max_point": {"epsilon": best[0], "p_formula": best[1]},
    }
    if args.format == "csv":
        lines = ["epsilon,p_formula,p_circuit", *(f"{eps!r},{pf!r},{pc!r}" for eps, pf, pc in rows)]
    else:
        lines = [
            f"{'epsilon':>12}  {'p_formula':>18}  {'p_circuit':>18}",
            *(f"{eps:12.8f}  {pf:18.14f}  {pc:18.14f}" for eps, pf, pc in rows),
            f"max |p_formula - p_circuit|: {max_delta:.3e}",
            f"max p_formula: {_fmt_value(best[1])} at epsilon = {best[0]:.8f}",
        ]
    return payload, lines, True


def cmd_landauer(args) -> tuple[dict, list[str], bool]:
    if (args.p is None) == (args.target is None):
        raise ValueError("give exactly one of --p or --target")
    if args.p is not None:
        p = check_erase_probability(args.p)  # also reports --p -0 as 0.0
    else:
        target = TSIRELSON if args.target == "tsirelson" else float(args.target)
        p = landauer.solve_erasure_probability(target)
    report = landauer.erasure_report(p)
    entropy = landauer.entropy_ledger(p)

    payload = {
        "command": "landauer",
        "erase_probability": p,
        "value": report.average,
        "value_symbolic": value_symbol(report.average),
        "per_input_win": {f"{a},{b}": v for (a, b), v in sorted(report.per_input.items())},
        "entropy": {
            "per_input_bits_erased": {
                f"{a},{b}": v for (a, b), v in sorted(entropy.per_input_bits_erased.items())
            },
            "average_bits": entropy.average_bits,
            "unit": entropy.unit,
        },
    }
    lines = [
        f"erase probability: {p:.12f}" + (" (= sqrt(2)-1)" if value_symbol(p) == "sqrt(2)-1" else ""),
        f"game value: {_fmt_value(report.average)}",
        "expected bits erased per input:",
        *(f"  (a={a}, b={b}): {v:.12f}" for (a, b), v in sorted(entropy.per_input_bits_erased.items())),
        f"average entropy: {entropy.average_bits:.12f} {entropy.unit}",
    ]
    return payload, lines, True


def cmd_q3(args) -> tuple[dict, list[str], bool]:
    classical = settings.value_classical_q3()
    cyclic = settings.value_classical_q3(gate_family="cyclic")
    qutrit = settings.value_qutrit_q3_fixed()

    payload = {
        "command": "q3",
        "classical_value": classical.value,
        "classical_value_symbolic": value_symbol(classical.value),
        "classical_strategies_examined": classical.strategies_examined,
        "classical_cyclic_value": cyclic.value,
        "classical_cyclic_value_symbolic": value_symbol(cyclic.value),
        "qutrit_value": qutrit.value,
        "qutrit_value_12_digits": f"{qutrit.value:.12f}",
        "qutrit_minus_two_thirds": qutrit.value - 2 / 3,
        "qutrit_minus_classical": qutrit.value - classical.value,
        "classical_witness": _witness_json(classical.witness),
    }
    lines = [
        f"classical value (all permutation gates): {_fmt_value(classical.value)}",
        f"  strategies examined: {classical.strategies_examined}",
        f"classical value (cyclic-shift gates only): {_fmt_value(cyclic.value)}",
        f"fixed qutrit strategy value: {qutrit.value:.12f}",
        f"qutrit - 2/3 margin: {qutrit.value - 2 / 3:+.12f}",
        f"qutrit - classical(all) margin: {qutrit.value - classical.value:+.12f}",
    ]
    return payload, lines, True


def cmd_reproduce_all(args) -> tuple[dict, list[str], bool]:
    if args.n_random < 1:
        raise ValueError("--n-random must be >= 1")
    config = settings.OptimizerConfig(seed=args.seed)
    checks: list[dict] = []

    def check(name: str, value: float, expected: float | None, tol: float = 1e-9) -> dict:
        row = {"name": name, "value": value, "symbolic": value_symbol(value)}
        if expected is not None:
            row["expected"] = expected
            row["ok"] = bool(abs(value - expected) <= tol)
        checks.append(row)
        return row

    check("unitary", settings.value_unitary(config).value, TSIRELSON, tol=1e-12)
    check("clifford", settings.value_clifford().value, 0.75)
    check("classical_reversible_d2", settings.value_classical_reversible(2).value, 0.75)
    check("classical_irreversible", settings.value_classical_irreversible().value, 1.0)
    check("classical_reversible_d3", settings.value_classical_reversible(3).value, 1.0)

    max_dev, _ = _lemma1_max_deviation(args.seed, args.n_random)
    checks.append({"name": "lemma1_max_deviation", "value": max_dev, "ok": bool(max_dev <= 1e-10)})

    _, sweep_delta, best = _sweep_summary(1001)
    checks.append({"name": "sweep_dual_path_delta", "value": sweep_delta, "ok": bool(sweep_delta < 1e-12)})
    check("sweep_max", best[1], TSIRELSON, tol=1e-12)

    p = landauer.solve_erasure_probability(TSIRELSON)
    check("landauer_p_for_tsirelson", p, float(np.sqrt(2) - 1), tol=1e-12)
    check("landauer_entropy_at_tsirelson", landauer.entropy_ledger(p).average_bits,
          float(np.sqrt(2) - 1) / 4, tol=1e-12)

    check("classical_q3_all_gates", settings.value_classical_q3().value, None)
    check("classical_q3_cyclic_gates", settings.value_classical_q3(gate_family="cyclic").value, 2 / 3)
    qutrit = settings.value_qutrit_q3_fixed()
    row = check("qutrit_q3_fixed", qutrit.value, None)
    row["ok"] = bool(round(qutrit.value, 2) == 0.71 and qutrit.value > 2 / 3)

    all_ok = all(c.get("ok", True) for c in checks)
    payload = {"command": "reproduce_all", "seed": args.seed, "checks": checks, "all_ok": all_ok}
    lines = [f"{'setting / check':<32} {'value':>20} {'expected':>16}  ok"]
    for c in checks:
        expected = c.get("expected")
        expected_text = f"{expected:.12g}" if expected is not None else "-"
        ok_text = {True: "yes", False: "NO"}.get(c.get("ok"), "-")
        symbol = f" (= {c['symbolic']})" if c.get("symbolic") else ""
        lines.append(f"{c['name']:<32} {c['value']:>20.12f} {expected_text:>16}  {ok_text}{symbol}")
    lines.append(f"all checks passed: {'yes' if all_ok else 'NO'}")
    return payload, lines, all_ok


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _default_seed() -> int:
    raw = os.environ.get("CHSHSTAR_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        print(f"error: CHSHSTAR_SEED must be an integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(2) from None


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reads ``-1e-10``, ``-inf`` and ``-nan`` as numbers.

    argparse takes a token for an option name unless it matches its
    negative-number pattern, which knows only forms such as ``-3`` and
    ``-0.5``; ``--tol -1e-10`` would then stop with "expected one argument"
    instead of reaching the command's own check.  Subparsers inherit the
    class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|nan)$", re.IGNORECASE
        )


def build_parser(default_seed: int) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chshstar",
        description="Evaluate the CHSH* single-system game across physical settings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None, help="also write the output to this path")
        p.add_argument("--seed", type=int, default=default_seed)
        p.set_defaults(func=func)

    p = sub.add_parser("value", help="game value for one setting")
    p.add_argument("--setting", choices=sorted(_SETTING_CLI), required=True)
    p.add_argument("--dimension", type=int, default=None,
                   help="the setting's dimension: 2 or 3 for reversible (default 2), its own otherwise")
    p.add_argument("--epsilon", type=float, default=None, help="for --setting clifford-plus-rz")
    add_common(p, cmd_value)

    p = sub.add_parser("verify-lemma1", help="check the two-player equivalence numerically")
    p.add_argument("--n-random", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p, cmd_verify_lemma1)

    p = sub.add_parser("sweep-epsilon", help="rz(epsilon) family: formula vs circuit")
    p.add_argument("--steps", type=int, default=1001)
    add_common(p, cmd_sweep_epsilon, formats=("text", "json", "csv"))

    p = sub.add_parser("landauer", help="erasure probability, value and entropy ledger")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--target", default=None, help="target value in [0.75, 1], or 'tsirelson'")
    add_common(p, cmd_landauer)

    p = sub.add_parser("q3", help="mod-3 game values")
    add_common(p, cmd_q3)

    p = sub.add_parser("reproduce-all", help="run every computation and summarize")
    p.add_argument("--n-random", type=int, default=1000)
    add_common(p, cmd_reproduce_all)

    return parser


def main(argv=None) -> int:
    default_seed = _default_seed()
    args = build_parser(default_seed).parse_args(argv)
    try:
        if default_seed < 0:
            raise ValueError(f"CHSHSTAR_SEED must be >= 0, got {default_seed}")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        payload, lines, passed = args.func(args)
    except ConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = _dump_json(payload) if args.format == "json" else "\n".join(lines)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    print(text)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
