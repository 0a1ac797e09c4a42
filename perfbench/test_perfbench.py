"""Tests of the benchmark itself: run with ``python -m pytest perfbench``.

The checker tests hand fabricated outputs to the checker; they test the
checker, not the program.
"""

import json
import math
import os
import shutil
import subprocess
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import pace  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from chshstar import game, quantum, settings  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_short_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_checkout_without_program_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("eval-stream", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# The checker flags fabricated wrong outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_quick():
    return workloads.CliQuick(0)


def cli_output(cq, argv):
    return cq.run_in_process((argv, False))


def test_real_outputs_pass(cli_quick):
    for argv in (["value", "--setting", "irreversible", "--format", "json"],
                 ["value", "--setting", "clifford-plus-rz", "--epsilon", "0.3", "--format", "text"],
                 ["landauer", "--target", "tsirelson", "--format", "text"],
                 ["sweep-epsilon", "--steps", "5", "--format", "csv"],
                 ["verify-lemma1", "--n-random", "2", "--format", "json"],
                 ["q3", "--format", "json"]):
        assert cli_quick.check((argv, False), cli_output(cli_quick, argv)) == []


def test_wrong_value_json_flagged(cli_quick):
    argv = ["value", "--setting", "irreversible", "--format", "json"]
    rc, out = cli_output(cli_quick, argv)
    payload = json.loads(out)
    payload["value"] = 0.75
    assert cli_quick.check((argv, False), (rc, json.dumps(payload)))


def test_schema_violation_flagged(cli_quick):
    argv = ["landauer", "--p", "0.5", "--format", "json"]
    rc, out = cli_output(cli_quick, argv)
    payload = json.loads(out)
    del payload["entropy"]
    assert any("schema" in f for f in cli_quick.check((argv, False), (rc, json.dumps(payload))))


def test_q3_two_thirds_flagged(cli_quick):
    argv = ["q3", "--format", "json"]
    rc, out = cli_output(cli_quick, argv)
    payload = json.loads(out)
    payload["classical_value"] = 2 / 3  # the quoted bound, not the optimum 7/9
    assert cli_quick.check((argv, False), (rc, json.dumps(payload)))


def test_sweep_csv_mismatch_flagged(cli_quick):
    argv = ["sweep-epsilon", "--steps", "4", "--format", "csv"]
    rc, out = cli_output(cli_quick, argv)
    lines = out.splitlines()
    eps, pf, pc = lines[2].split(",")
    lines[2] = f"{eps},{pf},{float(pc) + 1e-9!r}"
    assert cli_quick.check((argv, False), (rc, "\n".join(lines)))


def test_landauer_text_and_exit_code_flagged(cli_quick):
    argv = ["landauer", "--p", "0.2", "--format", "text"]
    rc, out = cli_output(cli_quick, argv)
    assert cli_quick.check((argv, False), (rc, out.replace("0.800000000000", "0.810000000000")))
    assert cli_quick.check((argv, False), (1, out)) == ["exit code 1"]
    assert cli_quick.check((argv, False), (0, "not the output"))


def test_unitary_and_probability_checks():
    assert reference.check_unitary(reference.TSIRELSON) == []
    assert reference.check_unitary(reference.TSIRELSON - 1e-6)
    assert reference.check_unitary(reference.TSIRELSON + 1e-10)  # above the bound
    assert reference.check_probabilities("p", [0.5, 1.0 + 1e-6])
    assert reference.check_lift(1e-9)
    assert reference.check_qutrit_fixed(0.7123860142)


def test_value_table_check_flags_wrong_row():
    vt = workloads.ValueTable(0)
    rows = {
        "unitary": reference.TSIRELSON, "clifford": 0.75, "reversible_d2": 0.75,
        "reversible_d3": 1.0, "irreversible": 1.0, "q3_all": 7 / 9, "q3_cyclic": 2 / 3,
        "qutrit_fixed": 0.712386014201086,
        "sweep": [(e, reference.rz_formula(e), reference.rz_formula(e))
                  for e in settings.uniform_open_grid(workloads.SWEEP_STEPS)],
        "lift": 1e-16,
        "landauer": (math.sqrt(2) - 1, reference.TSIRELSON, (math.sqrt(2) - 1) / 4),
    }
    assert set(rows) == set(workloads.TABLE_ROWS)
    assert vt.check(None, rows) == []
    assert vt.check(None, {**rows, "q3_all": 2 / 3})
    assert vt.check(None, {**rows, "lift": 1e-6})
    assert vt.check(None, {**rows, "landauer": (0.4, 0.85, 0.1)})
    assert vt.check(None, {**rows, "sweep": rows["sweep"][:-1]})
    assert vt.check(None, {"clifford": 0.75, "q3_all": 7 / 9}) == []  # a probe's subset
    assert vt.check(None, {"q3_cyclic": 7 / 9})


def test_eval_stream_check_flags_wrong_probability():
    es = workloads.EvalStream(0)
    spec = next(s for c in es.cycles() for s in c if s[0] == "qutrit")
    report = es.run(spec)
    assert es.check(spec, report) == []
    per_input = dict(report.per_input)
    per_input[(1, 1)] += 1e-6
    wrong = game.EvaluationReport(per_input=per_input, average=report.average)
    assert es.check(spec, wrong)


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_tracer_nests_spans_and_restores_originals():
    originals = (game.apply_channel, quantum.State.__init__, quantum.Channel.__dict__["unitary"])
    tracer = spans.Tracer(sampled=("game.evaluate",))
    with tracer.installed((quantum, game)):
        assert game.apply_channel is not originals[0]
        with tracer.op():
            game.evaluate(game.GameSpec(2), settings.optimal_unitary_strategy())
        game.evaluate(game.GameSpec(2), settings.optimal_unitary_strategy())  # outside an op
    assert (game.apply_channel, quantum.State.__init__,
            quantum.Channel.__dict__["unitary"]) == originals
    assert tracer.stats["game.evaluate"][0] == 1
    assert tracer.edges[("game.evaluate", "quantum.apply_channel")][0] == 8
    assert tracer.edges[("quantum.apply_channel", "quantum.State")][0] == 8
    count, total, self_time = tracer.stats["game.evaluate"]
    assert 0 < self_time < total
    assert len(tracer.samples["game.evaluate"][0]) == 1


def test_tracer_samples_searches_per_argument():
    tracer = spans.Tracer(sampled=("settings.value_classical_reversible[2]",
                                   "settings.value_classical_reversible[3]"))
    with tracer.installed((settings,)):
        with tracer.op():
            settings.value_classical_reversible(2)
            settings.value_classical_reversible(d=2)
    assert tracer.stats["settings.value_classical_reversible"][0] == 2
    assert len(tracer.samples["settings.value_classical_reversible[2]"][0]) == 2
    assert len(tracer.samples["settings.value_classical_reversible[3]"][0]) == 0


def test_closed_loop_keeps_specs_only_when_asked():
    es = workloads.EvalStream(0)
    tally = harness.Tally()
    times = harness.closed_loop(es, 0.05, tally)
    assert len(times) >= 5 and all(isinstance(t, float) for t in times)
    specs = []
    times = harness.closed_loop(es, 0.05, tally, specs)
    assert len(specs) == len(times) and tally.failed == 0


# ---------------------------------------------------------------------------
# Pace scaling
# ---------------------------------------------------------------------------

def test_pace_scale_uses_mean_of_nearby_probes():
    p = pace.Pace()
    p.starts.extend([10.0, 10.5, 20.0])
    p.durations.extend([0.004, 0.006, 0.010])
    assert p.scale(10.6, 10.8) == pytest.approx(pace.REFERENCE_S / 0.005)
    assert p.scale(15.0, 15.1) == pytest.approx(pace.REFERENCE_S / 0.006)  # nearest
    assert p.scale(30.0, 31.0) == pytest.approx(pace.REFERENCE_S / 0.010)
    assert p.scaled([2.0], [(19.5, 19.6)]) == pytest.approx([2.0 * pace.REFERENCE_S / 0.010])


class Busy:
    """Operations that keep the CPU busy for 0.15 s, long enough for timer ticks inside."""

    def cycles(self):
        while True:
            yield [None]

    def run(self, spec):
        end = time.perf_counter() + 0.15
        while time.perf_counter() < end:
            pass
        return spec

    def check(self, spec, result):
        return []


@pytest.mark.parametrize("wl", [workloads.EvalStream(0), Busy()], ids=["short", "long"])
def test_closed_loop_leaves_the_probe_out(wl):
    p, op_spans, tally = pace.Pace(), [], harness.Tally()
    t0 = time.perf_counter()
    with p.timer():
        times = harness.closed_loop(wl, 0.6, tally, pace=p, spans=op_spans)
    elapsed = time.perf_counter() - t0
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)
    assert len(op_spans) == len(times) >= 3 and tally.failed == 0
    # the probes take their share of the run, give or take the last probe
    assert abs(p.spent - pace.SHARE * (elapsed - p.spent)) <= max(p.durations) + 0.01
    inside = [d for t, d in zip(p.starts, p.durations)
              if any(a <= t < b for a, b in op_spans)]
    spanned = sum(b - a for a, b in op_spans)
    assert spanned - sum(times) == pytest.approx(sum(inside), abs=1e-3 * len(times))
    if isinstance(wl, Busy):  # the timer probes inside a long operation
        assert inside
