"""Golden diff of the CLI: record what every command prints, compare later.

    python tools/cli_golden.py --record DIR     # writes DIR/golden.json
    python tools/cli_golden.py --compare DIR    # exit 1 on any difference
    python tools/cli_golden.py --against REF    # exit 1 if REF's outputs differ

Each command of ``COMMANDS`` runs as ``python -m chshstar.cli`` with the
``src`` directory of the tree holding this script first on ``PYTHONPATH``,
in a fresh temporary working directory.  Its exit code, stdout and stderr
are stored, plus the file a ``--output`` command wrote.  The ``wall time:``
line of ``value --format text`` is masked, since it varies from run to run.

``--against REF`` checks a change against a commit in one step: it checks
REF out into a temporary ``git worktree``, records this script's commands
with that tree's ``src``, removes the worktree and compares the recording
with the working tree's outputs.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = "{out}"  # replaced by a path in the command's temporary directory
FIELDS = ("rc", "stdout", "stderr", "output")

_VALUE_SETTINGS = (
    ["unitary"],
    ["clifford"],
    ["reversible", "--dimension", "2"],
    ["reversible", "--dimension", "3"],
    ["irreversible"],
    ["clifford-plus-rz", "--epsilon", "0.785398163397448"],
    ["clifford-plus-rz", "--epsilon", "0.3"],
    ["qutrit-q3"],
    ["classical-q3"],
)
_LANDAUER = (["--p", "0.3"], ["--p", "0"], ["--p", "-0"], ["--p", "1"], ["--target", "tsirelson"],
             ["--target", "0.9"])

# (environment overrides, argv) per command.
COMMANDS = [
    *(({}, ["value", "--setting", *s, "--format", f]) for s in _VALUE_SETTINGS for f in ("json", "text")),
    ({}, ["value", "--setting", "unitary", "--seed", "7", "--format", "json"]),
    ({}, ["value", "--setting", "irreversible", "--seed", "3", "--format", "json"]),
    ({}, ["value", "--setting", "irreversible", "--dimension", "2", "--format", "json"]),
    *(({}, ["verify-lemma1", "--n-random", "5", *tol, "--format", f])
      for tol in ([], ["--tol", "1e-16"]) for f in ("json", "text")),
    ({"CHSHSTAR_SEED": "777"}, ["verify-lemma1", "--n-random", "3", "--format", "json"]),
    # The lift at the batch size of the benchmark's value table, and across
    # the chunks the batch is drawn and checked in.
    ({}, ["verify-lemma1", "--n-random", "200", "--seed", "5", "--format", "json"]),
    ({}, ["verify-lemma1", "--n-random", "600", "--seed", "12345", "--format", "json"]),
    *(({}, ["sweep-epsilon", "--steps", "9", "--format", f]) for f in ("json", "csv", "text")),
    ({}, ["sweep-epsilon", "--steps", "1001", "--format", "csv"]),
    *(({}, ["landauer", *a, "--format", f]) for a in _LANDAUER for f in ("json", "text")),
    ({}, ["q3", "--format", "json"]),
    ({}, ["q3", "--format", "text"]),
    ({}, ["reproduce-all", "--n-random", "5", "--format", "json"]),
    ({}, ["reproduce-all", "--n-random", "5", "--format", "text"]),
    ({}, ["reproduce-all", "--format", "json"]),  # the default --n-random 1000
    # --output: the written file must equal stdout, also on a failing result.
    ({}, ["sweep-epsilon", "--steps", "5", "--format", "csv", "--output", OUT]),
    ({}, ["landauer", "--p", "0.5", "--format", "json", "--output", OUT]),
    ({}, ["verify-lemma1", "--n-random", "5", "--tol", "1e-16", "--output", OUT]),
    # Usage errors.
    ({}, ["verify-lemma1", "--n-random", "0"]),
    ({}, ["reproduce-all", "--n-random", "0"]),
    ({}, ["verify-lemma1", "--n-random", "3", "--tol", "nan"]),
    ({}, ["verify-lemma1", "--n-random", "3", "--tol=-1e-10"]),
    ({}, ["sweep-epsilon", "--steps", "1"]),
    ({}, ["landauer"]),
    ({}, ["landauer", "--p", "0.5", "--target", "0.9"]),
    ({}, ["landauer", "--p", "1.5"]),
    ({}, ["landauer", "--target", "0.5"]),
    ({}, ["landauer", "--target", "abc"]),
    ({}, ["value", "--setting", "reversible", "--dimension", "5"]),
    ({}, ["value", "--setting", "clifford", "--dimension", "3"]),
    ({}, ["value", "--setting", "qutrit-q3", "--dimension", "2"]),
    ({}, ["value", "--setting", "clifford-plus-rz", "--epsilon", "2.0"]),
    ({}, ["value", "--setting", "clifford", "--epsilon", "0.5"]),
    ({}, ["value", "--setting", "clifford", "--format", "csv"]),
    ({}, ["value", "--setting", "telepathy"]),
    ({}, ["value", "--setting", "unitary", "--restarts", "64"]),
    ({}, ["value", "--setting", "unitary", "--tolerance", "1e-9"]),
    ({}, ["value", "--setting", "unitary", "--max-iterations", "1", "--format", "json"]),
    ({}, ["sweep-epsilon", "--steps", "5", "--format", "csv", "--output", "/nonexistent-dir/sweep.csv"]),
    ({"CHSHSTAR_SEED": "abc"}, ["verify-lemma1", "--n-random", "3"]),
    ({}, ["verify-lemma1", "--n-random", "3", "--seed", "-1"]),
    ({"CHSHSTAR_SEED": "-5"}, ["value", "--setting", "unitary", "--format", "json"]),
    ({}, ["value", "--setting", "clifford", "--seed", "-3", "--format", "json"]),
]


def _key(env: dict, argv: list[str]) -> str:
    return " ".join([*(f"{k}={v}" for k, v in sorted(env.items())), "chshstar", *argv])


def _mask(text: str) -> str:
    return re.sub(r"^wall time: .*$", "wall time: <masked>", text, flags=re.MULTILINE)


def run(env: dict, argv: list[str], src: str = SRC) -> dict:
    """Exit code, stdout, stderr and the ``--output`` file of one command run on ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "output.txt")
        proc = subprocess.run(
            [sys.executable, "-m", "chshstar.cli", *(out_path if a == OUT else a for a in argv)],
            env=dict(os.environ, PYTHONPATH=src, **env), cwd=tmp, capture_output=True, text=True,
        )
        output = None
        if OUT in argv and os.path.exists(out_path):
            with open(out_path) as fh:
                output = _mask(fh.read())
    return {"rc": proc.returncode, "stdout": _mask(proc.stdout), "stderr": proc.stderr,
            "output": output}


def record_all(src: str = SRC) -> dict:
    return {_key(env, argv): run(env, argv, src) for env, argv in COMMANDS}


def record_ref(ref: str) -> dict:
    """``record_all`` on the tree of commit ``ref``, checked out in a temporary worktree."""
    git = ["git", "-C", ROOT, "worktree"]
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "ref")
        subprocess.run([*git, "add", "--detach", tree, ref], check=True, capture_output=True, text=True)
        try:
            return record_all(os.path.join(tree, "src"))
        finally:
            subprocess.run([*git, "remove", "--force", tree], capture_output=True)


def differences(golden: dict, current: dict) -> list[str]:
    """One block of text per differing field, missing or extra command."""
    diffs = []
    for key in sorted(golden.keys() | current.keys()):
        if key not in current or key not in golden:
            diffs.append(f"{key}: only in the {'recording' if key in golden else 'current run'}")
            continue
        for field in FIELDS:
            old, new = golden[key][field], current[key][field]
            if old == new:
                continue
            if isinstance(old, str) and isinstance(new, str):
                body = "".join(difflib.unified_diff(
                    old.splitlines(True), new.splitlines(True), "recorded", "current", n=0))
            else:
                body = f"recorded {old!r}, current {new!r}\n"
            diffs.append(f"{key}: {field} differs\n{body}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", metavar="DIR", help="run every command and store the outputs")
    mode.add_argument("--compare", metavar="DIR", help="run every command and diff against DIR")
    mode.add_argument("--against", metavar="REF", help="run every command at commit REF and here, and diff")
    args = parser.parse_args(argv)
    if args.against:
        try:
            golden = record_ref(args.against)
        except subprocess.CalledProcessError as exc:
            print(f"error: cannot check out {args.against!r}: {exc.stderr.strip()}", file=sys.stderr)
            return 2
    current = record_all()
    if args.record:
        os.makedirs(args.record, exist_ok=True)
        with open(os.path.join(args.record, "golden.json"), "w") as fh:
            json.dump(current, fh, indent=1, sort_keys=True)
        print(f"recorded {len(current)} commands in {args.record}")
        return 0
    if args.compare:
        with open(os.path.join(args.compare, "golden.json")) as fh:
            golden = json.load(fh)
    diffs = differences(golden, current)
    for block in diffs:
        print(block, end="" if block.endswith("\n") else "\n")
    print(f"{len(current)} commands, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
