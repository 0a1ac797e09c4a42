"""Per-layer metrics from a traced run (``--trace 1``).

The run has three parts:

1. The workload's operations for a quarter of ``--seconds``, as the workload
   runs them (cli-quick: fresh processes).  This also warms the process,
   so that first-call costs do not land in part 2.
2. The same operations replayed in this process (cli-quick: through
   ``cli.main``), once untraced and once with every public callable of the
   package wrapped (spans.py).  Traced minus untraced time of the replays
   is the tracing overhead; on cli-quick, fresh-process time minus the
   untraced replay is the process overhead.
3. Probes: for a layer that the workload's operations did not reach, one
   operation of value-table (some of its rows) or of eval-stream runs under
   a separate tracer and is checked as that workload checks it, so every
   metric is reported on every workload.  Self-time shares and
   per-operation counts come from part 2 only.

The import metrics come from ``python -X importtime`` children.
"""

from __future__ import annotations

import functools
import os
import statistics
import subprocess
import sys

import harness
import spans
import workloads
from chshstar import chsh_lift, cli, game, landauer, quantum, settings

MODULES = (quantum, game, chsh_lift, settings, landauer, cli)
IMPORTTIME_RUNS = 3
IMPORT_CODE = "import chshstar; import scipy.optimize"
# Share of --seconds that part 1 runs the workload's operations for.  Part 1
# and its two replays then take about three quarters of --seconds, which
# leaves the rest for the import timings and the probes.
PART1_SHARE = 1 / 4

# Spans whose per-call times feed a metric.
SAMPLED = (
    "quantum.State", "quantum.Channel", "quantum.Measurement",
    "quantum.apply_channel", "quantum.outcome_distribution",
    "game.evaluate", "game.evaluate_classical",
    "chsh_lift.lift", "chsh_lift.evaluate_chsh", "chsh_lift.verify_equivalence",
    "settings.value_unitary", "settings.objective", "settings.value_clifford",
    # The searches' cost depends on their argument: one variant each (spans.VARIANTS).
    "settings.value_classical_q3[all]", "settings.value_classical_reversible[3]",
    "settings.epsilon_sweep",
    "landauer.erasure_report", "landauer.solve_erasure_probability",
    "cli.main",
)
CLI_PROBE = (["value", "--setting", "irreversible", "--format", "json"], False)


def _probes(seed):
    """Probe operations: (workload, run, spec, the sampled spans the operation reaches).

    Each is one operation of value-table (some of its rows) or of
    eval-stream, checked as that workload checks it.  A probe runs when one
    of its spans has no samples.
    """
    es, vt = workloads.EvalStream(seed), workloads.ValueTable(seed)
    inputs = dict(next(es.cycles()))  # a cycle holds each kind once
    table = next(vt.cycles())[0]

    def rows(*names):
        return functools.partial(vt.run, rows=names)

    return (
        (vt, rows("unitary"), table, ("settings.value_unitary",)),
        (vt, rows("clifford", "reversible_d3", "q3_all"), table,
         ("settings.value_clifford", "settings.value_classical_reversible[3]",
          "settings.value_classical_q3[all]", "game.evaluate_classical")),
        (vt, rows("sweep"), table, ("settings.epsilon_sweep",)),
        (es, es.run, ("qutrit", inputs["qutrit"]),
         ("game.evaluate", "quantum.State", "quantum.Channel", "quantum.Measurement",
          "quantum.apply_channel", "quantum.outcome_distribution")),
        (es, es.run, ("normal_form", inputs["normal_form"]),
         ("chsh_lift.verify_equivalence", "chsh_lift.lift", "chsh_lift.evaluate_chsh")),
        (es, es.run, ("erasure_report", inputs["erasure_report"]),
         ("landauer.erasure_report", "landauer.solve_erasure_probability")),
    )


def import_times(tally) -> dict[str, float]:
    """Median cumulative import seconds of chshstar and scipy.optimize in fresh interpreters."""
    runs = {"chshstar": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CODE],
                              env=workloads.child_env(), capture_output=True, text=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        missing = [m for m in runs if m not in cumulative]
        tally.add([f"importtime exit {proc.returncode}, missing {missing}"]
                  if proc.returncode or missing else [])
        for module in runs:
            if module in cumulative:
                runs[module].append(cumulative[module])
    return {m: statistics.median(v) if v else float("nan") for m, v in runs.items()}


def _traced(tracer, tally, wl, run_op, spec, cli_self: list) -> float | None:
    """One operation under ``tracer``; appends the cli layer's self time of it."""
    before = tracer.layer_self()["cli"]
    with tracer.op():
        dt, result = harness.attempt(tally, run_op, spec)
    if dt is None:
        return None
    harness.check(tally, wl, spec, result)
    cli_self.append(tracer.layer_self()["cli"] - before)
    return tracer.op_durations[-1]


def _cli_probe(tally, seed, tracer, overhead: list, cli_self: list) -> None:
    """CLI metrics from one fixed command, for workloads that do not run the CLI."""
    cq = workloads.CliQuick(seed)
    harness.attempt(tally, cq.run_in_process, CLI_PROBE)  # warm-up
    for _ in range(3):
        fresh, result = harness.attempt(tally, cq.run, CLI_PROBE)
        if fresh is not None:
            harness.check(tally, cq, CLI_PROBE, result)
        inproc, result = harness.attempt(tally, cq.run_in_process, CLI_PROBE)
        if inproc is not None:
            harness.check(tally, cq, CLI_PROBE, result)
        if fresh is not None and inproc is not None:
            overhead.append(fresh - inproc)
    with tracer.installed(MODULES):
        for _ in range(3):
            _traced(tracer, tally, cq, cq.run_in_process, CLI_PROBE, cli_self)


def traced_run(wl, args, tally, out_dir: str) -> dict:
    imports = import_times(tally)
    in_process = getattr(wl, "run_in_process", None)

    # 1. The operations as the workload runs them; this also warms the process.
    specs: list = []
    times = harness.closed_loop(wl, args.seconds * PART1_SHARE, tally, specs)
    run_op = in_process or wl.run
    if in_process is not None:  # no determinism repeats in the replays
        specs = [(argv, False) for argv, _ in specs]
    done = zip(specs, times)

    # 2. The same operations replayed in this process, untraced and then traced.
    pairs, process_overhead = [], []
    for spec, dt in done:
        replay, result = harness.attempt(tally, run_op, spec)
        if replay is not None:
            harness.check(tally, wl, spec, result)
            pairs.append((spec, replay))
            if in_process is not None:
                process_overhead.append(dt - replay)
    tracer = spans.Tracer(SAMPLED)
    cli_self: list[float] = []
    untraced = traced = 0.0
    with tracer.installed(MODULES):
        for spec, dt in pairs:
            t = _traced(tracer, tally, wl, run_op, spec, cli_self)
            if t is not None:
                untraced, traced = untraced + dt, traced + t
    n_ops = len(tracer.op_durations) or 1
    op_total = sum(tracer.op_durations) or 1.0

    # 3. Probes for layers the operations did not reach.
    probe = spans.Tracer(SAMPLED)
    if not tracer.samples["cli.main"][0]:
        cli_self = []
        _cli_probe(tally, args.seed, probe, process_overhead, cli_self)
    with probe.installed(MODULES):
        for probe_wl, run_probe, spec, names in _probes(args.seed):
            if all(tracer.samples[n][0] for n in names):
                continue
            with probe.op():
                dt, result = harness.attempt(tally, run_probe, spec)
            if dt is not None:
                harness.check(tally, probe_wl, spec, result)

    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(os.path.join(out_dir, f"trace-{stem}.json"))
    if probe.stats:
        probe.write(os.path.join(out_dir, f"probe-{stem}.json"))

    def pick(name: str) -> spans.Tracer:
        return tracer if tracer.samples[name][0] else probe

    def median_us(name: str, self_time: bool = False) -> float:
        return statistics.median(pick(name).samples[name][1 if self_time else 0]) * 1e6

    def median_s(name: str) -> float:
        return statistics.median(pick(name).samples[name][0])

    def count(*names: str) -> float:
        return sum(tracer.stats.get(n, (0,))[0] for n in names) / n_ops

    opt = tracer if tracer.unitary_runs else probe
    restarts = [r for run in opt.unitary_runs for r in run]
    best_shares = [sum(1 for f, _ in run if f <= min(f for f, _ in run) + 1e-9) / len(run)
                   for run in opt.unitary_runs]
    clifford = pick("settings.value_clifford")
    sweep = pick("settings.epsilon_sweep")
    layer_self = tracer.layer_self()
    covered = sum(t for (parent, _), (_, t) in tracer.edges.items() if parent == "op")

    metric = {
        "import.chshstar_s": (imports["chshstar"], "s"),
        "import.scipy_optimize_s": (imports["scipy.optimize"], "s"),
        "cli.main_self_ms": (statistics.median(cli_self) * 1e3, "ms"),
        "cli.process_overhead_s": (statistics.median(process_overhead), "s"),
        "quantum.State_us": (median_us("quantum.State", True), "us"),
        "quantum.Channel_us": (median_us("quantum.Channel", True), "us"),
        "quantum.Measurement_us": (median_us("quantum.Measurement", True), "us"),
        "quantum.apply_channel_us": (median_us("quantum.apply_channel"), "us"),
        "quantum.outcome_distribution_us": (median_us("quantum.outcome_distribution"), "us"),
        "quantum.constructions_per_op": (
            count("quantum.State", "quantum.Channel", "quantum.Measurement"), "count"),
        "game.evaluate_us": (median_us("game.evaluate"), "us"),
        "game.evaluate_classical_us": (median_us("game.evaluate_classical"), "us"),
        "game.evaluate_calls": (count("game.evaluate"), "count"),
        "chsh_lift.lift_us": (median_us("chsh_lift.lift"), "us"),
        "chsh_lift.evaluate_chsh_us": (median_us("chsh_lift.evaluate_chsh"), "us"),
        "chsh_lift.verify_equivalence_us": (median_us("chsh_lift.verify_equivalence"), "us"),
        "settings.value_unitary_s": (median_s("settings.value_unitary"), "s"),
        "settings.objective_calls": (statistics.median(opt.objective_calls), "count"),
        "settings.objective_us": (median_us("settings.objective"), "us"),
        "settings.nfev_per_restart": (statistics.median(n for _, n in restarts), "count"),
        "settings.restarts_at_best_share": (statistics.mean(best_shares), "share"),
        "settings.value_clifford_s": (median_s("settings.value_clifford"), "s"),
        "settings.clifford_strategies_per_s": (
            clifford.clifford_strategies / sum(clifford.samples["settings.value_clifford"][0]),
            "1/s"),
        "settings.value_classical_q3_s": (median_s("settings.value_classical_q3[all]"), "s"),
        "settings.value_classical_reversible_s": (
            median_s("settings.value_classical_reversible[3]"), "s"),
        "settings.epsilon_sweep_s": (median_s("settings.epsilon_sweep"), "s"),
        "settings.sweep_point_us": (
            sum(sweep.samples["settings.epsilon_sweep"][0]) / sweep.sweep_points * 1e6, "us"),
        "landauer.erasure_report_us": (median_us("landauer.erasure_report"), "us"),
        "landauer.solve_us": (median_us("landauer.solve_erasure_probability"), "us"),
        "trace.overhead_share": ((traced - untraced) / untraced, "share"),
        "trace.span_coverage": (covered / op_total, "share"),
    }
    for layer in spans.LAYERS:
        metric[f"{layer}.self_share"] = (layer_self[layer] / op_total, "share")
    return {k: {"value": v, "unit": u} for k, (v, u) in metric.items()}
