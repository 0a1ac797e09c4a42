"""Benchmark chshstar on one seeded workload and check every output.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-quick --seed 1 --seconds 35 --trace 0

Workloads (see METRICS.md): ``cli-quick`` runs fresh ``python -m
chshstar.cli`` processes, ``eval-stream`` builds and evaluates one strategy
per operation in this process, and ``value-table`` computes reproduce-all's
table repeatedly in this process.  One client drives each in a closed loop.

``--trace 0`` measures the end-to-end metrics with nothing wrapped, with
every time scaled to a reference machine pace by a probe interleaved with
the operations (pace.py).
``--trace 1`` runs the operations once untraced and once more with every
public callable of the package wrapped (spans.py), and reports per-layer
metrics; aggregate spans go to ``.perfbench/`` in the checkout.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
environment record.  Exit code 2 means the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")


def percentile(values, q: int) -> float:
    """q-th percentile (inclusive method); the only value when there is one."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int, workload: str, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # else git would search parent directories
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(), "cores_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "git_commit": commit,
        "seed": seed, "workload": workload, "seconds": seconds, "trace": trace,
    }


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-quick" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(wl, args, tally, record: dict) -> dict:
    """End-to-end metrics; every time is scaled to the reference pace (pace.py)."""
    import harness
    import pace

    probe = pace.Pace()
    setup_spans, op_spans = [], []
    with probe.timer():
        raw_setup = harness.measure_setup(tally, probe, setup_spans)
        raw = harness.closed_loop(wl, args.seconds, tally, pace=probe, spans=op_spans)
    rss = peak_rss_mb(args.workload)  # before the summaries below allocate
    setup = probe.scaled(raw_setup, setup_spans)
    ms = [dt * 1e3 for dt in probe.scaled(raw, op_spans)]
    record.update(setup_s=setup, op_ms=ms, raw_setup_s=raw_setup,
                  raw_op_ms=[dt * 1e3 for dt in raw], pace_probe_s=list(probe.durations))
    metric = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms.p50": (statistics.median(ms), "ms"),
        "op_ms.p90": (percentile(ms, 90), "ms"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metric.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-quick", "eval-stream", "value-table"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "chshstar", "__init__.py")):
        print(f"error: no chshstar package under {SRC}", file=sys.stderr)
        return 2
    # One core for this process and the children it starts, so that the pace
    # probe (pace.py) runs on the core that does the measured work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    os.environ.pop("CHSHSTAR_SEED", None)  # the program gets its seeds from the workload only
    import harness
    import layers
    import workloads

    env = environment(args.seed, args.workload, args.seconds, args.trace)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tally = harness.Tally()
    record = {"environment": env}
    if args.trace:
        metrics = layers.traced_run(wl, args, tally, OUT_DIR)
    else:
        metrics = end_to_end(wl, args, tally, record)

    for msg in tally.messages:
        print(f"failure: {msg}", file=sys.stderr)
    record["failures"] = tally.messages
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump({**record, **result}, fh, indent=1)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
