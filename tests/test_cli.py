"""CLI contract: exit codes, formats, determinism, schema conformance."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from importlib import resources

import jsonschema
import numpy as np
import pytest

import chshstar
from chshstar import chsh_lift, cli, settings

TSIRELSON = math.cos(math.pi / 8) ** 2


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_usage_error(rc, out, err):
    """Exit 2, nothing on stdout, and one stderr line starting ``error: ``."""
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.fixture(scope="module")
def schema():
    path = resources.files("chshstar") / "schemas" / "cli_output.schema.json"
    return json.loads(path.read_text())


def validate(payload, schema):
    jsonschema.validate(instance=payload, schema=schema)


def test_value_clifford_text(capsys):
    rc, out, _ = run_cli(capsys, "value", "--setting", "clifford")
    assert rc == 0
    assert "0.750000000000 (= 3/4)" in out
    assert "strategies examined: 11943936" in out
    assert "wall time" in out


def test_value_irreversible_json(capsys, schema):
    rc, out, _ = run_cli(capsys, "value", "--setting", "irreversible", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["value"] == 1.0
    assert payload["symbolic"] == "1"
    assert payload["witness"]["type"] == "classical"
    assert "wall" not in out  # no timing in the machine payload


def test_value_unitary_json(capsys, schema):
    rc, out, err = run_cli(capsys, "value", "--setting", "unitary", "--format", "json")
    assert rc == 0
    assert err == ""
    payload = json.loads(out)
    validate(payload, schema)
    assert abs(payload["value"] - TSIRELSON) < 1e-4
    assert payload["method"] == "constructed"
    assert payload["strategies_examined"] == 2
    assert payload["seed"] == 12345


def _fresh_python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(chshstar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_the_optimizer():
    code = "import sys, chshstar, chshstar.cli; print('scipy.optimize' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_value_unitary_does_not_load_scipy():
    code = ("import sys; from chshstar import settings; "
            "settings.value_unitary(); print('scipy' in sys.modules)")
    assert _fresh_python(code) == "False"


def test_value_reversible_d3(capsys, schema):
    rc, out, _ = run_cli(
        capsys, "value", "--setting", "reversible", "--dimension", "3", "--format", "json"
    )
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["value"] == 1.0


def test_value_qutrit_q3(capsys, schema):
    rc, out, _ = run_cli(capsys, "value", "--setting", "qutrit-q3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert abs(payload["value"] - 0.712386014201) < 1e-9
    assert payload["witness"]["initial"]["name"] == "T3|+>"
    assert payload["witness"]["a_gates"]["1"]["name"] == "V"
    assert payload["witness"]["measurement"]["name"] == "F3"


def test_value_classical_q3(capsys, schema):
    rc, out, _ = run_cli(capsys, "value", "--setting", "classical-q3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["value"] == 7 / 9


def test_value_clifford_plus_rz(capsys, schema):
    rc, out, _ = run_cli(
        capsys, "value", "--setting", "clifford-plus-rz", "--epsilon", "0.785398163397448",
        "--format", "json",
    )
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert abs(payload["value"] - TSIRELSON) < 1e-12
    assert_usage_error(*run_cli(capsys, "value", "--setting", "clifford-plus-rz", "--epsilon", "2.0"))


def test_single_evaluations_report_method_evaluated(capsys, schema):
    # Both settings evaluate one fixed strategy; nothing is searched.
    for setting in (["clifford-plus-rz", "--epsilon", "0.3"], ["qutrit-q3"]):
        rc, out, _ = run_cli(capsys, "value", "--setting", *setting, "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        validate(payload, schema)
        assert payload["method"] == "evaluated"
        assert payload["strategies_examined"] == 1


def test_value_rejects_unknown_setting(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["value", "--setting", "telepathy"])
    assert exc.value.code == 2


def test_value_rejects_bad_dimension(capsys):
    rc, out, err = run_cli(capsys, "value", "--setting", "reversible", "--dimension", "5")
    assert_usage_error(rc, out, err)
    assert "dimension" in err


def test_value_rejects_a_dimension_its_setting_does_not_take(capsys):
    # Each of these once ran at the setting's own dimension with exit 0.
    for setting, dimension, allowed in (("clifford", "3", "(2,)"), ("irreversible", "7", "(2,)"),
                                        ("qutrit-q3", "2", "(3,)")):
        rc, out, err = run_cli(capsys, "value", "--setting", setting, "--dimension", dimension)
        assert_usage_error(rc, out, err)
        assert f"supports dimensions {allowed}, got {dimension}" in err


def test_value_accepts_the_dimension_of_its_setting(capsys, schema):
    # A given dimension that the setting takes changes nothing in the output.
    for setting, dimension in (("clifford", "2"), ("irreversible", "2"), ("qutrit-q3", "3")):
        rc, out, _ = run_cli(capsys, "value", "--setting", setting, "--dimension", dimension,
                             "--format", "json")
        assert rc == 0
        validate(json.loads(out), schema)
        assert json.loads(out)["dimension"] == int(dimension)
        assert run_cli(capsys, "value", "--setting", setting, "--format", "json") == (0, out, "")


def test_value_reversible_runs_at_dimension_2_unless_given_3(capsys):
    runs = {d: run_cli(capsys, "value", "--setting", "reversible", *d, "--format", "json")
            for d in ((), ("--dimension", "2"), ("--dimension", "3"))}
    assert runs[()] == runs[("--dimension", "2")]
    assert [json.loads(out)["dimension"] for _, out, _ in runs.values()] == [2, 2, 3]
    assert json.loads(runs[("--dimension", "3")][1])["value"] == 1.0


def test_schema_refuses_witness_forms_that_no_setting_produces(capsys, schema):
    # Kraus and ERASE gates, an unnamed density, unnamed projectors and
    # stochastic classical gates were once allowed; every setting's witness
    # is unitary with named states and measurements, or function tables.
    for setting in ("clifford", "irreversible"):
        _, out, _ = run_cli(capsys, "value", "--setting", setting, "--format", "json")
        payload = json.loads(out)
        validate(payload, schema)
        w = payload["witness"]
        if w["type"] == "quantum":
            matrix = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
            changes = ({"a_gates": {**w["a_gates"], "0": {"kraus": [matrix]}}},
                       {"initial": {"density": matrix}},
                       {"measurement": {"labels": [0, 1], "projectors": [matrix, matrix]}})
        else:
            changes = ({"b_gates": {**w["b_gates"], "0": [[0.5, 0.5], [0.5, 0.5]]}},)
        for change in changes:
            with pytest.raises(jsonschema.ValidationError):
                validate({**payload, "witness": {**w, **change}}, schema)


def test_json_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "value", "--setting", "clifford", "--format", "json")
    _, second, _ = run_cli(capsys, "value", "--setting", "clifford", "--format", "json")
    assert first == second


def test_seed_env_override(capsys, monkeypatch, schema):
    monkeypatch.setenv("CHSHSTAR_SEED", "777")
    rc, out, _ = run_cli(capsys, "verify-lemma1", "--n-random", "3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["seed"] == 777


def test_explicit_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("CHSHSTAR_SEED", "777")
    rc, out, _ = run_cli(
        capsys, "verify-lemma1", "--n-random", "3", "--seed", "9", "--format", "json"
    )
    assert rc == 0
    assert json.loads(out)["seed"] == 9


def test_malformed_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CHSHSTAR_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-lemma1", "--n-random", "3"])
    assert exc.value.code == 2
    assert "CHSHSTAR_SEED" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(capsys, monkeypatch):
    # Commands that seed a generator used to stop with numpy's "expected
    # non-negative integer", and the others to accept and echo the seed.
    for argv in (["verify-lemma1", "--n-random", "3", "--seed", "-1"],
                 ["value", "--setting", "clifford", "--seed", "-3", "--format", "json"],
                 ["landauer", "--p", "0.5", "--seed=-2"]):
        rc, out, err = run_cli(capsys, *argv)
        assert_usage_error(rc, out, err)
        assert err.startswith("error: --seed must be >= 0, got -")
    monkeypatch.setenv("CHSHSTAR_SEED", "-5")
    rc, out, err = run_cli(capsys, "value", "--setting", "unitary", "--format", "json")
    assert_usage_error(rc, out, err)
    assert err == "error: CHSHSTAR_SEED must be >= 0, got -5\n"


def test_verify_lemma1_rejects_bad_tol(capsys):
    # NaN used to print "tol": NaN (not JSON) and fail with exit 1.
    for tol in ("nan", "inf", "-1e-10"):
        rc, out, err = run_cli(capsys, "verify-lemma1", "--n-random", "3", f"--tol={tol}",
                               "--format", "json")
        assert_usage_error(rc, out, err)
        assert "--tol" in err
    rc, out, err = run_cli(capsys, "verify-lemma1", "--n-random", "0")
    assert_usage_error(rc, out, err)
    assert "--n-random" in err


def test_verify_lemma1_passes(capsys, schema):
    rc, out, _ = run_cli(capsys, "verify-lemma1", "--n-random", "25", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["passed"] is True
    assert payload["max_deviation"] < 1e-10
    assert payload["strategies_checked"] == 26


def test_verify_lemma1_seeded_runs_repeat(capsys):
    _, first, _ = run_cli(capsys, "verify-lemma1", "--n-random", "5", "--format", "json")
    _, second, _ = run_cli(capsys, "verify-lemma1", "--n-random", "5", "--format", "json")
    assert first == second


def test_lemma1_batch_draws_in_order_and_counts_every_play():
    # The batch as a list, as it was built before it was streamed.
    for seed, n_random in ((0, 1), (5, 40), (12345, 7)):
        rng = np.random.default_rng(seed)
        strategies = [settings.optimal_unitary_strategy()] + [
            chsh_lift.random_normal_form(rng) for _ in range(n_random)
        ]
        expected = max(chsh_lift.verify_equivalence(s)[1] for s in strategies)
        assert cli._lemma1_max_deviation(seed, n_random) == (expected, n_random + 1)


def test_lemma1_chunks_have_the_bits_of_per_strategy_checks():
    # Batches of one play, across each chunk boundary and of several chunks.
    chunk = cli._LEMMA1_CHUNK
    for seed in (5, 12345):
        for n_random in (1, chunk - 1, chunk, chunk + 1, 600):
            rng = np.random.default_rng(seed)
            strategies = [settings.optimal_unitary_strategy()] + [
                chsh_lift.random_normal_form(rng) for _ in range(n_random)
            ]
            expected = max(chsh_lift.verify_equivalence(s)[1] for s in strategies)
            max_dev, checked = cli._lemma1_max_deviation(seed, n_random)
            assert (max_dev.hex(), checked) == (expected.hex(), n_random + 1)


def test_lemma1_batch_memory_does_not_grow_with_n_random():
    # A list of plays would hold about 3.5 KB each (1.6 MB more at 500 than
    # at 50); the streamed batch holds one play at a time.
    cli._lemma1_max_deviation(0, 500)  # warm numpy's and the interpreter's caches

    def peak(n_random):
        tracemalloc.start()
        try:
            cli._lemma1_max_deviation(3, n_random)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(50), peak(500)
    assert large - small < 256 * 1024, (small, large)


def test_verify_lemma1_fails_below_float_floor(capsys):
    rc, out, _ = run_cli(capsys, "verify-lemma1", "--n-random", "5", "--tol", "1e-16")
    assert rc == 1
    assert "FAIL" in out


def test_failing_result_is_still_written_to_output(capsys, tmp_path):
    target = tmp_path / "lemma1.txt"
    rc, out, _ = run_cli(capsys, "verify-lemma1", "--n-random", "5", "--tol", "1e-16",
                         "--output", str(target))
    assert rc == 1
    assert "FAIL" in out
    assert target.read_text() == out


def test_sweep_csv_contract(capsys):
    rc, out, _ = run_cli(capsys, "sweep-epsilon", "--steps", "9", "--format", "csv")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "epsilon,p_formula,p_circuit"
    assert len(lines) == 10
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    quarter_pi = [r for r in rows if abs(r[0] - math.pi / 4) < 1e-12]
    assert len(quarter_pi) == 1
    assert abs(quarter_pi[0][1] - TSIRELSON) <= 1e-12
    for _, p_formula, p_circuit in rows:
        assert p_formula > 0.75
        assert abs(p_formula - p_circuit) < 1e-12


def test_sweep_json(capsys, schema):
    rc, out, _ = run_cli(capsys, "sweep-epsilon", "--steps", "11", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["max_abs_delta"] < 1e-12
    assert abs(payload["max_point"]["epsilon"] - math.pi / 4) < 1e-12


def test_sweep_rejects_single_step(capsys):
    rc, out, err = run_cli(capsys, "sweep-epsilon", "--steps", "1")
    assert_usage_error(rc, out, err)


def test_sweep_output_file(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    rc, _, _ = run_cli(
        capsys, "sweep-epsilon", "--steps", "5", "--format", "csv", "--output", str(target)
    )
    assert rc == 0
    assert target.read_text().startswith("epsilon,p_formula,p_circuit\n")


def test_unwritable_output_path(capsys):
    rc, out, err = run_cli(
        capsys, "sweep-epsilon", "--steps", "5", "--format", "csv",
        "--output", "/nonexistent-dir/sweep.csv",
    )
    assert_usage_error(rc, out, err)
    assert "cannot write" in err


def test_landauer_target_tsirelson(capsys, schema):
    rc, out, _ = run_cli(capsys, "landauer", "--target", "tsirelson", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert abs(payload["erase_probability"] - (math.sqrt(2) - 1)) <= 1e-12
    assert abs(payload["value"] - TSIRELSON) <= 1e-12
    assert abs(payload["entropy"]["average_bits"] - (math.sqrt(2) - 1) / 4) <= 1e-12


def test_landauer_full_erasure(capsys, schema):
    rc, out, _ = run_cli(capsys, "landauer", "--p", "1", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["value"] == 1.0
    assert payload["entropy"]["average_bits"] == 0.25


def test_landauer_no_erasure(capsys):
    rc, out, _ = run_cli(capsys, "landauer", "--p", "0")
    assert rc == 0
    assert "0.750000000000 (= 3/4)" in out
    assert "average entropy: 0.000000000000" in out


def test_landauer_reports_minus_zero_as_zero(capsys, schema):
    rc, out, _ = run_cli(capsys, "landauer", "--p", "-0", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    entropy = payload["entropy"]
    for v in (payload["erase_probability"], entropy["average_bits"],
              *entropy["per_input_bits_erased"].values()):
        assert v == 0.0 and math.copysign(1, v) == 1
    rc, out, _ = run_cli(capsys, "landauer", "--p", "-0")
    assert rc == 0 and "-0.000" not in out


def test_landauer_requires_exactly_one_of_p_target(capsys):
    for argv in ([], ["--p", "0.5", "--target", "0.9"], ["--p", "1.5"], ["--target", "0.5"],
                 ["--target", "abc"]):
        assert_usage_error(*run_cli(capsys, "landauer", *argv))


def test_negative_numbers_in_exponent_notation_reach_the_commands_checks(capsys):
    # argparse alone reads "-1e-10" as an option name: "expected one argument".
    cases = (
        (["verify-lemma1", "--n-random", "3"], "--tol", "-1e-10", "--tol must be a finite number >= 0"),
        (["landauer"], "--p", "-1e-3", "erase probability -0.001 outside [0, 1]"),
    )
    for prefix, option, number, message in cases:
        for argv in ([*prefix, option, number], [*prefix, f"{option}={number}"]):
            rc, out, err = run_cli(capsys, *argv)
            assert_usage_error(rc, out, err)
            assert err == f"error: {message}\n"


def test_q3_report(capsys, schema):
    rc, out, _ = run_cli(capsys, "q3", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["classical_value"] == 7 / 9
    assert payload["classical_cyclic_value"] == 2 / 3
    assert payload["qutrit_value_12_digits"] == "0.712386014201"
    assert payload["qutrit_minus_two_thirds"] > 0.04


def test_q3_text_states_both_classical_values(capsys):
    rc, out, _ = run_cli(capsys, "q3")
    assert rc == 0
    assert "(= 7/9)" in out
    assert "(= 2/3)" in out
    assert "0.712386014201" in out


def test_reproduce_all(capsys, schema):
    rc, out, _ = run_cli(capsys, "reproduce-all", "--n-random", "20", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert payload["all_ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"unitary", "clifford", "classical_reversible_d2",
            "classical_irreversible", "classical_reversible_d3"} <= names


def test_reproduce_all_rejects_n_random_below_one(capsys, monkeypatch):
    # Without any random play the lemma-1 row checked only the optimal one
    # and the command still reported all_ok.  The flag is checked before
    # anything is computed.
    monkeypatch.setattr(settings, "value_unitary", lambda config: pytest.fail("computed"))
    for n_random in ("0", "-3"):
        rc, out, err = run_cli(capsys, "reproduce-all", "--n-random", n_random, "--format", "json")
        assert_usage_error(rc, out, err)
        assert err == "error: --n-random must be >= 1\n"


def test_reproduce_all_rejects_a_unitary_value_short_of_the_bound(capsys, monkeypatch):
    # A value 5e-5 below cos^2(pi/8), or 1e-11 below (the row is checked to
    # 1e-12, since the construction lands within 1.1e-15), must not pass as ok.
    value_unitary = settings.value_unitary
    for short in (5e-5, 1e-11):
        monkeypatch.setattr(settings, "value_unitary",
                            lambda config, short=short: replace(value_unitary(config),
                                                                value=TSIRELSON - short))
        rc, out, _ = run_cli(capsys, "reproduce-all", "--n-random", "1", "--format", "json")
        assert rc == 1
        payload = json.loads(out)
        assert payload["all_ok"] is False
        assert [c["ok"] for c in payload["checks"] if c["name"] == "unitary"] == [False]


def test_csv_not_available_outside_sweep():
    with pytest.raises(SystemExit) as exc:
        cli.main(["value", "--setting", "clifford", "--format", "csv"])
    assert exc.value.code == 2
