"""Command-line surface: every headline number as a runnable command.

Subcommands
-----------
value           game value for one setting (exhaustive or optimized)
verify-lemma1   per-input equivalence of single-system and lifted strategies
sweep-epsilon   closed-form vs circuit success probability over an eps grid
landauer        erasure probability, game value and entropy ledger
q3              mod-3 game: classical searches and the fixed qutrit play
reproduce-all   run everything and print a value-table summary

Exit codes: 0 success, 1 verification/consistency failure, 2 usage error.
JSON output is deterministic given ``--seed`` (no timestamps in the
payload); the schema ships at ``chshstar/schemas/cli_output.schema.json``.
The environment variable ``CHSHSTAR_SEED`` overrides the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import chsh_lift, game, landauer, settings
from .quantum import (
    Channel,
    Measurement,
    matrices_equal_up_to_phase,
    pauli_eigenstates,
    phase_canonical,
    plus_ket,
    projector,
    qudit_gates,
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


def value_symbol(v: float, atol: float = 1e-9) -> str | None:
    """Symbolic name of a recognized constant, or None."""
    for ref, name in _SYMBOLIC_VALUES:
        if abs(v - ref) <= atol:
            return name
    return None


def _gate_names_3() -> tuple:
    g = qudit_gates(3)
    return (("I", g["I"]), ("X", g["X"]), ("T3", g["T3"]), ("V", g["V"]), ("W", g["W"]), ("F", g["F"]))


def gate_name(u: np.ndarray, atol: float = 1e-9) -> str | None:
    """Recognized name of a unitary (up to global phase), or None."""
    table = _GATE_NAMES_2 if u.shape == (2, 2) else _gate_names_3() if u.shape == (3, 3) else ()
    for name, ref in table:
        if matrices_equal_up_to_phase(u, ref, atol):
            return name
    if u.shape == (2, 2):
        c = phase_canonical(u, atol)
        if abs(c[0, 1]) < atol and abs(c[1, 0]) < atol:
            theta = float(np.angle(c[1, 1] / c[0, 0]))
            return f"Rz({theta:.12g})"
    return None


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _gate_json(ch: Channel) -> dict:
    if len(ch.kraus) == 1:
        name = gate_name(ch.kraus[0])
        if name is not None:
            return {"name": name}
        return {"matrix": _matrix_json(ch.kraus[0])}
    erase = Channel.erase()
    if len(ch.kraus) == len(erase.kraus) and all(
        np.allclose(k, e, atol=1e-9, rtol=0.0) for k, e in zip(ch.kraus, erase.kraus)
    ):
        return {"name": "ERASE"}
    return {"kraus": [_matrix_json(k) for k in ch.kraus]}


def _state_name(density: np.ndarray) -> str | None:
    if density.shape == (2, 2):
        for name, ket in pauli_eigenstates().items():
            if np.allclose(density, projector(ket), atol=1e-9, rtol=0.0):
                return name
    if density.shape == (3, 3):
        t3_plus = qudit_gates(3)["T3"] @ plus_ket(3)
        if np.allclose(density, projector(t3_plus), atol=1e-9, rtol=0.0):
            return "T3|+>"
        if np.allclose(density, projector(plus_ket(3)), atol=1e-9, rtol=0.0):
            return "|+>"
    return None


def _measurement_json(m: Measurement) -> dict:
    for axis in ("x", "y", "z"):
        ref = Measurement.pauli(axis)
        if m.dim == 2 and all(
            np.allclose(p, q, atol=1e-9, rtol=0.0) for p, q in zip(m.projectors, ref.projectors)
        ):
            return {"name": axis.upper(), "labels": list(m.outcome_labels)}
    ref = Measurement.fourier(m.dim) if m.dim >= 2 else None
    if ref is not None and len(m.projectors) == len(ref.projectors) and all(
        np.allclose(p, q, atol=1e-9, rtol=0.0) for p, q in zip(m.projectors, ref.projectors)
    ):
        return {"name": f"F{m.dim}", "labels": list(m.outcome_labels)}
    return {
        "labels": list(m.outcome_labels),
        "projectors": [_matrix_json(p) for p in m.projectors],
    }


def _witness_json(witness) -> dict:
    if isinstance(witness, game.ClassicalStrategy):
        def tables(gates):
            out = {}
            for k in sorted(gates):
                m = np.asarray(gates[k])
                if np.allclose(m, np.round(m), atol=0) and set(np.unique(m)) <= {0.0, 1.0}:
                    out[str(k)] = [int(np.argmax(m[:, j])) for j in range(m.shape[1])]
                else:
                    out[str(k)] = [[float(x) for x in row] for row in m]
            return out

        return {
            "type": "classical",
            "num_symbols": witness.num_symbols,
            "initial": witness.initial,
            "a_gates": tables(witness.a_gates),
            "b_gates": tables(witness.b_gates),
            "readout": list(witness.readout),
        }
    initial: dict = {}
    name = _state_name(witness.initial.density)
    if name is not None:
        initial["name"] = name
    else:
        initial["density"] = _matrix_json(witness.initial.density)
    return {
        "type": "quantum",
        "dimension": witness.dim,
        "initial": initial,
        "a_gates": {str(k): _gate_json(witness.a_gates[k]) for k in sorted(witness.a_gates)},
        "b_gates": {str(k): _gate_json(witness.b_gates[k]) for k in sorted(witness.b_gates)},
        "measurement": _measurement_json(witness.measurement),
    }


def _witness_text(witness) -> list[str]:
    data = _witness_json(witness)
    lines = []
    if data["type"] == "classical":
        lines.append(f"  initial symbol: {data['initial']}")
        for stage in ("a_gates", "b_gates"):
            for k, tab in data[stage].items():
                lines.append(f"  {stage[0].upper()}{k} = {tab}")
        lines.append(f"  readout: {data['readout']}")
        return lines
    lines.append(f"  initial: {data['initial'].get('name', data['initial'].get('density'))}")
    for stage in ("a_gates", "b_gates"):
        for k, g in data[stage].items():
            shown = g.get("name") or g.get("matrix") or g.get("kraus")
            lines.append(f"  {stage[0].upper()}{k} = {shown}")
    meas = data["measurement"]
    shown = meas.get("name", "projectors")
    lines.append(f"  measurement: {shown}, labels {meas['labels']}")
    return lines


def _fmt_value(v: float) -> str:
    symbol = value_symbol(v)
    text = f"{v:.12f}"
    return f"{text} (= {symbol})" if symbol else text


def _emit(payload_text: str, output_path: str | None) -> int:
    if output_path:
        try:
            with open(output_path, "w") as fh:
                fh.write(payload_text + "\n")
        except OSError as exc:
            print(f"error: cannot write {output_path}: {exc}", file=sys.stderr)
            return 2
    print(payload_text)
    return 0


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_SETTING_CLI = {
    "unitary": ("unitary", 2),
    "clifford": ("clifford", 2),
    "reversible": ("classical_reversible", None),
    "irreversible": ("classical_irreversible", 2),
    "clifford-plus-rz": ("clifford_plus_rz", 2),
    "qutrit-q3": ("qutrit_unitary_fixed", 3),
    "classical-q3": ("classical_q3_reversible", 3),
}


def cmd_value(args) -> int:
    kind, fixed_dim = _SETTING_CLI[args.setting]
    dimension = fixed_dim if fixed_dim is not None else args.dimension
    setting = settings.SettingSpec(kind=kind, dimension=dimension, epsilon=args.epsilon)
    config = settings.OptimizerConfig(
        restarts=args.restarts,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        seed=args.seed,
    )
    t0 = time.perf_counter()
    result = settings.compute_value(setting, config)
    elapsed = time.perf_counter() - t0

    payload = {
        "command": "value",
        "setting": args.setting,
        "dimension": dimension,
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

    if args.format == "json":
        return _emit(_dump_json(payload), args.output)
    lines = [
        f"setting: {args.setting} (d={dimension})",
        f"value: {_fmt_value(result.value)}",
        f"method: {result.method}",
        f"strategies examined: {result.strategies_examined}",
        "witness:",
        *_witness_text(result.witness),
        f"wall time: {elapsed:.3f} s",
    ]
    if result.quantization_error is not None:
        lines.insert(4, f"max deviation from 1/8 grid: {result.quantization_error:.3e}")
    return _emit("\n".join(lines), args.output)


def _lemma1_max_deviation(seed: int, n_random: int) -> tuple[float, int]:
    """Largest lift deviation over the optimal play and n_random seeded random ones."""
    rng = np.random.default_rng(seed)
    strategies = [settings.optimal_unitary_strategy()] + [
        chsh_lift.random_normal_form(rng) for _ in range(n_random)
    ]
    max_dev = max(chsh_lift.verify_equivalence(s)[1] for s in strategies)
    return max_dev, len(strategies)


def cmd_verify_lemma1(args) -> int:
    if args.n_random < 1:
        print("error: --n-random must be >= 1", file=sys.stderr)
        return 2
    if not (math.isfinite(args.tol) and args.tol >= 0):
        print("error: --tol must be a finite number >= 0", file=sys.stderr)
        return 2
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
    if args.format == "json":
        rc = _emit(_dump_json(payload), args.output)
    else:
        rc = _emit(
            "\n".join(
                [
                    f"strategies checked: {checked} (optimal + {args.n_random} random)",
                    f"seed: {args.seed}",
                    f"max per-input deviation: {max_dev:.3e} (tolerance {args.tol:.1e})",
                    f"result: {'PASS' if passed else 'FAIL'}",
                ]
            ),
            args.output,
        )
    if rc != 0:
        return rc
    return 0 if passed else 1


def _sweep_summary(steps: int) -> tuple[list, float, tuple]:
    """Sweep rows, the largest formula-vs-circuit gap and the row of largest p_formula."""
    rows = settings.epsilon_sweep(settings.uniform_open_grid(steps))
    max_delta = max(abs(pf - pc) for _, pf, pc in rows)
    best = max(rows, key=lambda r: r[1])
    return rows, max_delta, best


def cmd_sweep_epsilon(args) -> int:
    if args.steps < 2:
        print("error: --steps must be >= 2", file=sys.stderr)
        return 2
    rows, max_delta, best = _sweep_summary(args.steps)

    if args.format == "csv":
        lines = ["epsilon,p_formula,p_circuit"]
        lines += [f"{eps!r},{pf!r},{pc!r}" for eps, pf, pc in rows]
        return _emit("\n".join(lines), args.output)
    if args.format == "json":
        payload = {
            "command": "sweep_epsilon",
            "steps": args.steps,
            "rows": [
                {"epsilon": eps, "p_formula": pf, "p_circuit": pc} for eps, pf, pc in rows
            ],
            "max_abs_delta": max_delta,
            "max_point": {"epsilon": best[0], "p_formula": best[1]},
        }
        return _emit(_dump_json(payload), args.output)
    lines = [
        f"{'epsilon':>12}  {'p_formula':>18}  {'p_circuit':>18}",
    ]
    lines += [f"{eps:12.8f}  {pf:18.14f}  {pc:18.14f}" for eps, pf, pc in rows]
    lines.append(f"max |p_formula - p_circuit|: {max_delta:.3e}")
    lines.append(f"max p_formula: {_fmt_value(best[1])} at epsilon = {best[0]:.8f}")
    return _emit("\n".join(lines), args.output)


def cmd_landauer(args) -> int:
    if (args.p is None) == (args.target is None):
        print("error: give exactly one of --p or --target", file=sys.stderr)
        return 2
    try:
        if args.p is not None:
            p = float(args.p)
        else:
            target = TSIRELSON if args.target == "tsirelson" else float(args.target)
            p = landauer.solve_erasure_probability(target)
        report = landauer.erasure_report(p)
        entropy = landauer.entropy_ledger(p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
    if args.format == "json":
        return _emit(_dump_json(payload), args.output)
    lines = [
        f"erase probability: {p:.12f}" + (" (= sqrt(2)-1)" if value_symbol(p) == "sqrt(2)-1" else ""),
        f"game value: {_fmt_value(report.average)}",
        "expected bits erased per input:",
    ]
    for (a, b), v in sorted(entropy.per_input_bits_erased.items()):
        lines.append(f"  (a={a}, b={b}): {v:.12f}")
    lines.append(f"average entropy: {entropy.average_bits:.12f} {entropy.unit}")
    return _emit("\n".join(lines), args.output)


def cmd_q3(args) -> int:
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
    if args.format == "json":
        return _emit(_dump_json(payload), args.output)
    lines = [
        f"classical value (all permutation gates): {_fmt_value(classical.value)}",
        f"  strategies examined: {classical.strategies_examined}",
        f"classical value (cyclic-shift gates only): {_fmt_value(cyclic.value)}",
        f"fixed qutrit strategy value: {qutrit.value:.12f}",
        f"qutrit - 2/3 margin: {qutrit.value - 2 / 3:+.12f}",
        f"qutrit - classical(all) margin: {qutrit.value - classical.value:+.12f}",
    ]
    return _emit("\n".join(lines), args.output)


def cmd_reproduce_all(args) -> int:
    config = settings.OptimizerConfig(seed=args.seed)
    checks: list[dict] = []

    def check(name: str, value: float, expected: float | None, tol: float = 1e-9) -> dict:
        row = {"name": name, "value": value, "symbolic": value_symbol(value)}
        if expected is not None:
            row["expected"] = expected
            row["ok"] = bool(abs(value - expected) <= tol)
        checks.append(row)
        return row

    unitary = settings.value_unitary(config)
    check("unitary", unitary.value, TSIRELSON, tol=1e-4)
    clifford = settings.value_clifford()
    check("clifford", clifford.value, 0.75)
    rev2 = settings.value_classical_reversible(2)
    check("classical_reversible_d2", rev2.value, 0.75)
    irrev = settings.value_classical_irreversible()
    check("classical_irreversible", irrev.value, 1.0)
    rev3 = settings.value_classical_reversible(3)
    check("classical_reversible_d3", rev3.value, 1.0)

    max_dev, _ = _lemma1_max_deviation(args.seed, args.n_random)
    checks.append({"name": "lemma1_max_deviation", "value": max_dev, "ok": bool(max_dev <= 1e-10)})

    _, sweep_delta, best = _sweep_summary(1001)
    checks.append({"name": "sweep_dual_path_delta", "value": sweep_delta, "ok": bool(sweep_delta < 1e-12)})
    check("sweep_max", best[1], TSIRELSON, tol=1e-12)

    p = landauer.solve_erasure_probability(TSIRELSON)
    check("landauer_p_for_tsirelson", p, float(np.sqrt(2) - 1), tol=1e-12)
    check("landauer_entropy_at_tsirelson", landauer.entropy_ledger(p).average_bits,
          float(np.sqrt(2) - 1) / 4, tol=1e-12)

    q3_classical = settings.value_classical_q3()
    check("classical_q3_all_gates", q3_classical.value, None)
    q3_cyclic = settings.value_classical_q3(gate_family="cyclic")
    check("classical_q3_cyclic_gates", q3_cyclic.value, 2 / 3)
    qutrit = settings.value_qutrit_q3_fixed()
    row = check("qutrit_q3_fixed", qutrit.value, None)
    row["ok"] = bool(round(qutrit.value, 2) == 0.71 and qutrit.value > 2 / 3)

    all_ok = all(c.get("ok", True) for c in checks)
    payload = {"command": "reproduce_all", "seed": args.seed, "checks": checks, "all_ok": all_ok}
    if args.format == "json":
        rc = _emit(_dump_json(payload), args.output)
    else:
        lines = [f"{'setting / check':<32} {'value':>20} {'expected':>16}  ok"]
        for c in checks:
            expected = c.get("expected")
            expected_text = f"{expected:.12g}" if expected is not None else "-"
            ok_text = {True: "yes", False: "NO"}.get(c.get("ok"), "-")
            symbol = f" (= {c['symbolic']})" if c.get("symbolic") else ""
            lines.append(f"{c['name']:<32} {c['value']:>20.12f} {expected_text:>16}  {ok_text}{symbol}")
        lines.append(f"all checks passed: {'yes' if all_ok else 'NO'}")
        rc = _emit("\n".join(lines), args.output)
    if rc != 0:
        return rc
    return 0 if all_ok else 1


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


def build_parser(default_seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshstar",
        description="Evaluate the CHSH* single-system game across physical settings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", default=None, help="also write the output to this path")
        p.add_argument("--seed", type=int, default=default_seed)

    p = sub.add_parser("value", help="game value for one setting")
    p.add_argument("--setting", choices=sorted(_SETTING_CLI), required=True)
    p.add_argument("--dimension", type=int, default=2, help="for --setting reversible: 2 or 3")
    p.add_argument("--epsilon", type=float, default=None, help="for --setting clifford-plus-rz")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iterations", type=int, default=4000)
    p.add_argument("--tolerance", type=float, default=1e-12)
    add_common(p)
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("verify-lemma1", help="check the two-player equivalence numerically")
    p.add_argument("--n-random", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(func=cmd_verify_lemma1)

    p = sub.add_parser("sweep-epsilon", help="rz(epsilon) family: formula vs circuit")
    p.add_argument("--steps", type=int, default=1001)
    add_common(p, formats=("text", "json", "csv"))
    p.set_defaults(func=cmd_sweep_epsilon)

    p = sub.add_parser("landauer", help="erasure probability, value and entropy ledger")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--target", default=None, help="target value in [0.75, 1], or 'tsirelson'")
    add_common(p)
    p.set_defaults(func=cmd_landauer)

    p = sub.add_parser("q3", help="mod-3 game values")
    add_common(p)
    p.set_defaults(func=cmd_q3)

    p = sub.add_parser("reproduce-all", help="run every computation and summarize")
    p.add_argument("--n-random", type=int, default=1000)
    add_common(p)
    p.set_defaults(func=cmd_reproduce_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser(_default_seed())
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
