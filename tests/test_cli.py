"""CLI contract: exit codes, formats, determinism, schema conformance."""

import json
import math
from importlib import resources

import jsonschema
import pytest

from chshstar import cli

TSIRELSON = math.cos(math.pi / 8) ** 2


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
    rc, out, _ = run_cli(capsys, "value", "--setting", "unitary", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert abs(payload["value"] - TSIRELSON) < 1e-4
    assert payload["method"] == "optimized"
    assert payload["seed"] == 12345


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
    rc, _, err = run_cli(capsys, "value", "--setting", "clifford-plus-rz", "--epsilon", "2.0")
    assert rc == 2


def test_value_rejects_unknown_setting(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["value", "--setting", "telepathy"])
    assert exc.value.code == 2


def test_value_rejects_bad_dimension(capsys):
    rc, _, err = run_cli(capsys, "value", "--setting", "reversible", "--dimension", "5")
    assert rc == 2
    assert "dimension" in err


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


def test_verify_lemma1_rejects_bad_tol(capsys):
    # NaN used to print "tol": NaN (not JSON) and fail with exit 1.
    for tol in ("nan", "inf", "-1e-10"):
        rc, out, err = run_cli(capsys, "verify-lemma1", "--n-random", "3", f"--tol={tol}",
                               "--format", "json")
        assert rc == 2
        assert out == ""
        assert "--tol" in err


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


def test_verify_lemma1_fails_below_float_floor(capsys):
    rc, out, _ = run_cli(capsys, "verify-lemma1", "--n-random", "5", "--tol", "1e-16")
    assert rc == 1
    assert "FAIL" in out


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
    rc, _, err = run_cli(capsys, "sweep-epsilon", "--steps", "1")
    assert rc == 2


def test_sweep_output_file(capsys, tmp_path):
    target = tmp_path / "sweep.csv"
    rc, _, _ = run_cli(
        capsys, "sweep-epsilon", "--steps", "5", "--format", "csv", "--output", str(target)
    )
    assert rc == 0
    assert target.read_text().startswith("epsilon,p_formula,p_circuit\n")


def test_unwritable_output_path(capsys):
    rc, _, err = run_cli(
        capsys, "sweep-epsilon", "--steps", "5", "--format", "csv",
        "--output", "/nonexistent-dir/sweep.csv",
    )
    assert rc == 2
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


def test_landauer_requires_exactly_one_of_p_target(capsys):
    rc, _, err = run_cli(capsys, "landauer")
    assert rc == 2
    rc, _, err = run_cli(capsys, "landauer", "--p", "0.5", "--target", "0.9")
    assert rc == 2
    rc, _, err = run_cli(capsys, "landauer", "--p", "1.5")
    assert rc == 2
    rc, _, err = run_cli(capsys, "landauer", "--target", "0.5")
    assert rc == 2


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


def test_csv_not_available_outside_sweep():
    with pytest.raises(SystemExit) as exc:
        cli.main(["value", "--setting", "clifford", "--format", "csv"])
    assert exc.value.code == 2
