"""The three seeded workloads.

Each workload turns the benchmark seed into a deterministic stream of
cycles of operations; a cycle holds each kind of operation once, so a run
of whole cycles always times the same mix.  The program sees only the
generated inputs (matrices, kets, probabilities, argv).  ``run(spec)`` performs one operation through the
package's public API and returns its result, and ``check(spec, result)``
hands that result to the reference checker.  Only ``run`` is timed.

Calls go through module attributes (``game.evaluate``, not a name bound at
import), so a tracer installed on the modules sees them.  The importer puts
the checkout's ``src`` on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np

import reference
from chshstar import chsh_lift, cli, game, landauer, quantum, settings

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child_env() -> dict:
    """Environment for child interpreters: the checkout's package first on the path."""
    return dict(os.environ, PYTHONPATH=SRC_DIR)


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_ket(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


PLUS = np.array([1, 1], dtype=complex) / math.sqrt(2)
ZERO = np.array([1, 0], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


def normal_form(unitaries):
    """Normal-form qubit strategy (|+>, X measurement) from four 2x2 unitaries."""
    u = [quantum.Channel.unitary(m) for m in unitaries]
    return game.Strategy(
        initial=quantum.State.from_ket(PLUS),
        a_gates={0: u[0], 1: u[1]},
        b_gates={0: u[2], 1: u[3]},
        measurement=quantum.Measurement.pauli("x"),
    )


# ---------------------------------------------------------------------------
# eval-stream: one strategy built and evaluated per operation
# ---------------------------------------------------------------------------

class EvalStream:
    """Five strategy kinds, in a seeded order per cycle."""

    name = "eval-stream"
    KINDS = ("normal_form", "erasure_channel", "qutrit", "classical", "erasure_report")

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])

    def cycles(self):
        while True:
            kinds = [self.KINDS[i] for i in self.rng.permutation(len(self.KINDS))]
            yield [(kind, getattr(self, "_make_" + kind)()) for kind in kinds]

    def _make_normal_form(self):
        return [haar_unitary(2, self.rng) for _ in range(4)]

    def _make_erasure_channel(self):
        return float(self.rng.uniform(0.0, 1.0))

    def _make_qutrit(self):
        return random_ket(3, self.rng), [haar_unitary(3, self.rng) for _ in range(6)]

    def _make_classical(self):
        rng = self.rng
        d = int(rng.integers(2, 4))
        q = 2 if d == 2 else int(rng.integers(2, 4))

        def gate():
            if rng.random() < 0.5:
                return tuple(int(x) for x in rng.integers(0, d, size=d))
            return rng.dirichlet(np.ones(d), size=d).T  # columns sum to 1

        return dict(
            num_symbols=d, q=q, initial=int(rng.integers(0, d)),
            a_gates={a: gate() for a in range(q)}, b_gates={b: gate() for b in range(q)},
            readout=tuple(int(x) for x in rng.integers(0, q, size=d)),
        )

    def _make_erasure_report(self):
        return float(self.rng.uniform(0.75, 1.0))

    def run(self, spec):
        kind, x = spec
        if kind == "normal_form":
            return chsh_lift.verify_equivalence(normal_form(x))
        if kind == "erasure_channel":
            s = game.Strategy(
                initial=quantum.State.from_ket(ZERO),
                a_gates={0: quantum.Channel.unitary(IDENTITY), 1: quantum.Channel.unitary(FLIP)},
                b_gates={0: quantum.Channel.partial_erase(x), 1: quantum.Channel.unitary(IDENTITY)},
                measurement=quantum.Measurement.pauli("z"),
            )
            return game.evaluate(game.GameSpec(2), s)
        if kind == "qutrit":
            ket, u = x
            s = game.Strategy(
                initial=quantum.State.from_ket(ket),
                a_gates={a: quantum.Channel.unitary(u[a]) for a in range(3)},
                b_gates={b: quantum.Channel.unitary(u[3 + b]) for b in range(3)},
                measurement=quantum.Measurement.fourier(3),
            )
            return game.evaluate(game.GameSpec(3), s)
        if kind == "classical":
            args = {k: v for k, v in x.items() if k != "q"}
            cs = game.ClassicalStrategy(**args)
            return cs, game.evaluate_classical(game.GameSpec(x["q"]), cs)
        p = landauer.solve_erasure_probability(x)
        return p, landauer.erasure_report(p)

    def check(self, spec, result) -> list[str]:
        kind, x = spec
        if kind == "normal_form":
            ok, dev = result
            return reference.check_lift(dev) + ([] if ok else ["lift reported not ok"])
        if kind == "erasure_channel":
            return (reference.check_landauer(x, result.average)
                    + reference.check_probabilities("erasure", result.per_input.values()))
        if kind == "qutrit":
            ket, u = x
            w = np.exp(2j * np.pi / 3)
            fails = reference.check_probabilities("qutrit", result.per_input.values())
            for (a, b), p in result.per_input.items():
                f = np.array([w ** (j * ((a * b) % 3)) for j in range(3)]) / math.sqrt(3)
                ref = abs(np.vdot(f, u[3 + b] @ (u[a] @ ket))) ** 2
                fails += reference.check_close(f"qutrit ({a},{b})", p, float(ref), 1e-12)
            return fails
        if kind == "classical":
            cs, rep = result
            embedded = game.evaluate(game.GameSpec(x["q"]), game.classical_to_quantum(cs))
            fails = reference.check_probabilities("classical", rep.per_input.values())
            for key, p in rep.per_input.items():
                fails += reference.check_close(f"classical {key}", p, embedded.per_input[key], 1e-12)
            return fails
        p, rep = result
        fails = reference.check_landauer(p, rep.average)
        fails += reference.check_close("erasure target", rep.average, x, 1e-12)
        fails += reference.check_probabilities("erasure report", rep.per_input.values())
        if rep.erasure_ledger != {k: (p if k == (1, 0) else 0.0) for k in rep.per_input}:
            fails.append("erasure ledger")
        return fails


# ---------------------------------------------------------------------------
# value-table: reproduce-all's table through the public functions
# ---------------------------------------------------------------------------

SWEEP_STEPS = 1001


def _lift_row(spec) -> float:
    """Largest lemma-1 deviation over the optimal strategy and the table's random ones."""
    strategies = [settings.optimal_unitary_strategy()] + [normal_form(u) for u in spec[1]]
    return max(chsh_lift.verify_equivalence(s)[1] for s in strategies)


def _landauer_row(spec):
    p = landauer.solve_erasure_probability(reference.TSIRELSON)
    return p, landauer.erasure_value(p), landauer.entropy_ledger(p).average_bits


# reproduce-all's rows, each from the table's spec (optimizer seed, lift batch);
# reference.check_table checks them.
TABLE_ROWS = {
    "unitary": lambda spec: settings.value_unitary(settings.OptimizerConfig(seed=spec[0])).value,
    "clifford": lambda spec: settings.value_clifford().value,
    "reversible_d2": lambda spec: settings.value_classical_reversible(2).value,
    "reversible_d3": lambda spec: settings.value_classical_reversible(3).value,
    "irreversible": lambda spec: settings.value_classical_irreversible().value,
    "q3_all": lambda spec: settings.value_classical_q3("all").value,
    "q3_cyclic": lambda spec: settings.value_classical_q3("cyclic").value,
    "qutrit_fixed": lambda spec: settings.value_qutrit_q3_fixed().value,
    "sweep": lambda spec: settings.epsilon_sweep(settings.uniform_open_grid(SWEEP_STEPS)),
    "lift": _lift_row,
    "landauer": _landauer_row,
}


class ValueTable:
    """One operation is one full table; the optimizer seed and lift batch vary per table."""

    name = "value-table"
    LIFT_BATCH = 200

    def __init__(self, seed: int):
        self.seed = seed

    def cycles(self):
        for index in itertools.count():
            rng = np.random.default_rng([self.seed, 2, index])
            unitary_seed = int(rng.integers(0, 2**31))
            lift = [[haar_unitary(2, rng) for _ in range(4)] for _ in range(self.LIFT_BATCH)]
            yield [(unitary_seed, lift)]

    def run(self, spec, rows=tuple(TABLE_ROWS)):
        """The table's ``rows``, all of them unless named."""
        return {name: TABLE_ROWS[name](spec) for name in rows}

    def check(self, spec, rows) -> list[str]:
        fails = reference.check_table(rows)
        if "sweep" in rows and len(rows["sweep"]) != SWEEP_STEPS:
            fails.append("sweep row count")
        return fails


# ---------------------------------------------------------------------------
# cli-quick: fresh `python -m chshstar.cli` processes
# ---------------------------------------------------------------------------

class CliQuick:
    """Seeded CLI templates, each once per cycle in a seeded order.

    A seeded share of json/csv commands is run a second time with the same
    argv, inside ``check``; the two stdouts must be byte-identical.  The
    repeat is part of the operation's check, not of its timing.
    """

    name = "cli-quick"
    REPEAT_SHARE = 0.25

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        self.validator = None

    def templates(self) -> list[list[str]]:
        rng = self.rng
        return [
            ["value", "--setting", "irreversible"],
            ["value", "--setting", "reversible", "--dimension", "2"],
            ["value", "--setting", "reversible", "--dimension", "3"],
            ["value", "--setting", "clifford"],
            ["value", "--setting", "clifford-plus-rz",
             "--epsilon", repr(float(rng.uniform(0.01, math.pi / 2 - 0.01)))],
            ["value", "--setting", "qutrit-q3"],
            ["value", "--setting", "classical-q3"],
            ["landauer", "--p", repr(float(rng.uniform(0.0, 1.0)))],
            ["landauer", "--target", repr(float(rng.uniform(0.75, 1.0)))],
            ["landauer", "--target", "tsirelson"],
            ["sweep-epsilon", "--steps", str(int(rng.integers(2, 65)))],
            ["verify-lemma1", "--n-random", str(int(rng.integers(1, 21))),
             "--seed", str(int(rng.integers(0, 2**31)))],
            ["q3"],
        ]

    def cycles(self):
        """Each template once, as (argv, repeat) pairs."""
        while True:
            templates = self.templates()
            cycle = []
            for i in self.rng.permutation(len(templates)):
                argv = templates[i]
                fmt = "json" if self.rng.random() < 0.7 else (
                    "csv" if argv[0] == "sweep-epsilon" and self.rng.random() < 0.5 else "text")
                # `value --format text` prints its wall time, so it is not repeatable.
                repeatable = fmt != "text" or argv[0] != "value"
                repeat = repeatable and self.rng.random() < self.REPEAT_SHARE
                cycle.append((argv + ["--format", fmt], repeat))
            yield cycle

    def run(self, spec):
        argv, _ = spec
        proc = subprocess.run(
            [sys.executable, "-m", "chshstar.cli", *argv],
            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        return proc.returncode, proc.stdout

    def run_in_process(self, spec):
        """The same command through ``cli.main`` in this process, output captured."""
        argv, _ = spec
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects argv the way a fresh process would
                rc = exc.code
        return rc, out.getvalue()

    def _validator(self):
        if self.validator is None:
            import jsonschema

            path = os.path.join(SRC_DIR, "chshstar", "schemas", "cli_output.schema.json")
            with open(path) as fh:
                schema = json.load(fh)
            self.validator = jsonschema.Draft202012Validator(schema)
        return self.validator

    def check(self, spec, result) -> list[str]:
        argv, repeat = spec
        fails = reference.check_cli(argv, *result, self._validator())
        if repeat and not fails:
            again = self.run(spec)
            fails += reference.check_cli(argv, *again, self._validator())
            if again[1] != result[1]:
                fails.append(f"stdout of {' '.join(argv)} differs between two runs")
        return fails


WORKLOADS = {w.name: w for w in (CliQuick, EvalStream, ValueTable)}
