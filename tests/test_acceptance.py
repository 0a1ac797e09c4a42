"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 7's classical clause asserts the often-quoted mod-3 bound 2/3 for
the full permutation-gate search.  Exhaustive enumeration proves the true
maximum of that search space is 7/9 (see test_settings for the verified
witness), so that assertion fails; it is kept as stated rather than
weakened.  Everything else passes at the stated tolerances.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from chshstar import chsh_lift, cli, game, landauer, settings
from chshstar import quantum as q

TSIRELSON = math.cos(math.pi / 8) ** 2


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def _best_of(n, fn):
    best = math.inf
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_unitary_value(capsys):
    with criterion("1 unitary value"):
        t0 = time.perf_counter()
        rc = cli.main(["value", "--setting", "unitary", "--format", "json"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 0.853553) <= 1e-4
        assert payload["method"] == "constructed"
        assert elapsed <= 60.0

        spec = game.GameSpec(2)
        witness = settings.optimal_unitary_strategy()
        report = game.evaluate(spec, witness)
        assert abs(report.average - TSIRELSON) <= 1e-12
        fastest = _best_of(3, lambda: game.evaluate(spec, witness))
        assert fastest <= 1e-3


def test_criterion_2_clifford_value():
    with criterion("2 clifford value"):
        t0 = time.perf_counter()
        result = settings.value_clifford()
        elapsed = time.perf_counter() - t0
        assert result.value == 0.75
        assert result.strategies_examined == 6 * 24 ** 4 * 6
        # The search aborts unless every stabilizer overlap sits on the
        # {0, 1/2, 1} grid within 1e-9, which puts every examined average
        # exactly on the 1/8 grid.
        assert result.quantization_error < 1e-9
        assert elapsed <= 300.0


def test_criterion_3_classical_values():
    with criterion("3 classical values"):
        t0 = time.perf_counter()
        rev2 = settings.value_classical_reversible(2)
        assert rev2.value == 0.75
        assert time.perf_counter() - t0 <= 1.0

        t0 = time.perf_counter()
        irrev = settings.value_classical_irreversible()
        assert irrev.value == 1.0
        assert time.perf_counter() - t0 <= 1.0

        t0 = time.perf_counter()
        rev3 = settings.value_classical_reversible(3)
        assert rev3.value == 1.0
        assert time.perf_counter() - t0 <= 10.0
        # Witness sits in the dimension-witness construction family: a
        # perfect reversible play over four inputs must reach three distinct
        # trit values, with the a*b = 1 input alone on its readout label.
        witness = rev3.witness
        report = game.evaluate_classical(game.GameSpec(2), witness)
        assert report.average == 1.0
        finals = []
        for a, b in game.GameSpec(2).input_pairs():
            p0 = np.zeros(3)
            p0[witness.initial] = 1.0
            finals.append(int(np.argmax(witness.b_gates[b] @ (witness.a_gates[a] @ p0))))
        assert len(set(finals)) == 3
        assert all(witness.readout[f] == (a * b) % 2
                   for (a, b), f in zip(game.GameSpec(2).input_pairs(), finals))


def test_criterion_4_lemma1_equivalence():
    with criterion("4 lemma-1 equivalence"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(settings.DEFAULT_SEED)
        strategies = [settings.optimal_unitary_strategy()]
        for _ in range(1000):
            strategies.append(
                game.Strategy(
                    initial=q.State.from_ket(q.plus_ket()),
                    a_gates={k: q.Channel.unitary(q.random_unitary(2, rng)) for k in (0, 1)},
                    b_gates={k: q.Channel.unitary(q.random_unitary(2, rng)) for k in (0, 1)},
                    measurement=q.Measurement.pauli("x"),
                )
            )
        for s in strategies:
            ok, dev = chsh_lift.verify_equivalence(s, tol=1e-10)
            assert ok, f"per-input deviation {dev} above 1e-10"
        assert time.perf_counter() - t0 <= 10.0


def test_criterion_5_epsilon_sweep():
    with criterion("5 epsilon sweep"):
        t0 = time.perf_counter()
        rows = settings.epsilon_sweep(settings.uniform_open_grid(1001))
        assert len(rows) == 1001
        for eps, p_formula, p_circuit in rows:
            assert p_formula > 0.75
            assert abs(p_formula - p_circuit) < 1e-12
        best = max(rows, key=lambda r: r[1])
        assert abs(best[0] - math.pi / 4) <= 1e-12
        assert abs(best[1] - TSIRELSON) <= 1e-12
        assert time.perf_counter() - t0 <= 1.0


def test_criterion_6_landauer():
    with criterion("6 landauer"):
        t0 = time.perf_counter()
        p = landauer.solve_erasure_probability(TSIRELSON)
        assert abs(p - (math.sqrt(2) - 1)) <= 1e-12
        assert landauer.entropy_ledger(1.0).average_bits == 0.25
        assert landauer.entropy_ledger(math.sqrt(2) - 1).average_bits == 0.25 * (math.sqrt(2) - 1)
        assert time.perf_counter() - t0 <= 1.0


def test_criterion_7_q3_classical():
    with criterion("7 q3 classical value"):
        t0 = time.perf_counter()
        result = settings.value_classical_q3()
        assert result.strategies_examined == 3 * 6 ** 6
        assert time.perf_counter() - t0 <= 30.0
        # As stated: exhaustive value = 2/3 exactly.  The search space
        # (all S3 gate tuples, identity readout) in fact attains 7/9.
        assert result.value == 2 / 3


def test_criterion_7_q3_qutrit():
    with criterion("7 q3 qutrit strategy"):
        t0 = time.perf_counter()
        result = settings.value_qutrit_q3_fixed()
        assert round(result.value, 2) == 0.71
        assert result.value > 2 / 3
        # Frozen 12-digit regression constant from the first derivation.
        assert abs(result.value - 0.712386014201) <= 5e-13
        assert time.perf_counter() - t0 <= 1.0


def test_criterion_8_property_suites():
    with criterion("8 property suites"):
        t0 = time.perf_counter()
        n = 500

        # Channel trace preservation (and hermiticity) on random states.
        rng = np.random.default_rng(801)
        for _ in range(n):
            d = int(rng.integers(2, 4))
            if rng.random() < 0.5:
                ch = q.Channel.unitary(q.random_unitary(d, rng))
            elif d == 2:
                ch = q.Channel.partial_erase(float(rng.random()))
            else:
                m = rng.random(size=(d, d))
                ch = q.Channel.classical(m / m.sum(axis=0))
            ket = rng.normal(size=d) + 1j * rng.normal(size=d)
            out = q.apply_channel(ch, q.State.from_ket(ket / np.linalg.norm(ket)))
            assert abs(np.trace(out.density).real - 1.0) <= 1e-10
            assert np.allclose(out.density, out.density.conj().T, atol=1e-12, rtol=0.0)

        # Measurement normalization on random bases and states.
        rng = np.random.default_rng(802)
        for _ in range(n):
            d = int(rng.integers(2, 5))
            basis = q.random_unitary(d, rng).T
            m = q.Measurement.from_basis(list(basis), [int(rng.integers(2)) for _ in range(d)])
            ket = rng.normal(size=d) + 1j * rng.normal(size=d)
            dist = q.outcome_distribution(m, q.State.from_ket(ket / np.linalg.norm(ket)))
            probs = [p for _, p in dist]
            assert all(-1e-10 <= p <= 1 + 1e-10 for p in probs)
            assert abs(sum(probs) - 1.0) <= 1e-10

        # The 2x2 unitary identities closing the equivalence proof.
        rng = np.random.default_rng(803)
        plus, minus = q.plus_ket(), q.minus_ket()
        for _ in range(n):
            ba = q.random_unitary(2, rng) @ q.random_unitary(2, rng)
            assert abs(abs(np.vdot(plus, ba @ plus)) ** 2
                       - abs(np.vdot(minus, ba @ minus)) ** 2) <= 1e-10
            assert abs(abs(np.vdot(minus, ba @ plus)) ** 2
                       - abs(np.vdot(plus, ba @ minus)) ** 2) <= 1e-10

        # Transpose identity on the Bell pair.
        rng = np.random.default_rng(804)
        bell = chsh_lift.bell_pair_ket()
        for _ in range(n):
            a = q.random_unitary(2, rng)
            assert np.max(np.abs(np.kron(a.T, q.I2) @ bell - np.kron(q.I2, a) @ bell)) <= 1e-12

        # Basis-change invariance of evaluate.
        rng = np.random.default_rng(805)
        spec = game.GameSpec(2)
        for _ in range(n):
            s = game.Strategy(
                initial=q.State.from_ket(q.plus_ket()),
                a_gates={k: q.Channel.unitary(q.random_unitary(2, rng)) for k in (0, 1)},
                b_gates={k: q.Channel.unitary(q.random_unitary(2, rng)) for k in (0, 1)},
                measurement=q.Measurement.pauli("x"),
            )
            u = q.random_unitary(2, rng)
            moved = game.Strategy(
                initial=s.initial,
                a_gates=s.a_gates,
                b_gates={k: q.Channel.unitary(u.conj().T @ ch.kraus[0])
                         for k, ch in s.b_gates.items()},
                measurement=q.Measurement(
                    tuple(u.conj().T @ p @ u for p in s.measurement.projectors),
                    s.measurement.outcome_labels,
                ),
            )
            base = game.evaluate(spec, s)
            shifted = game.evaluate(spec, moved)
            for key in base.per_input:
                assert abs(base.per_input[key] - shifted.per_input[key]) <= 1e-12

        assert time.perf_counter() - t0 <= 30.0
