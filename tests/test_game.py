"""Game definition and exact strategy evaluation."""

import numpy as np
import pytest

from chshstar import game
from chshstar.chsh_lift import normal_form, random_normal_form
from chshstar import quantum as q
from chshstar.settings import (
    irreversible_strategy,
    optimal_unitary_strategy,
    qutrit_fixed_strategy,
    rz_pair_strategy,
    trivial_strategy,
)

TSIRELSON = np.cos(np.pi / 8) ** 2


def test_gamespec_rejects_other_moduli():
    with pytest.raises(ValueError):
        game.GameSpec(4)


def test_winning_answer():
    q2 = game.GameSpec(2)
    assert game.winning_answer(q2, 1, 1) == 1
    assert game.winning_answer(q2, 1, 0) == 0
    assert game.winning_answer(game.GameSpec(3), 2, 2) == 1


def test_winning_answer_rejects_out_of_alphabet():
    with pytest.raises(ValueError, match="alphabet"):
        game.winning_answer(game.GameSpec(2), 2, 0)


def test_gamespec_builds_its_alphabet_and_pairs_once():
    for q_mod in (2, 3):
        spec = game.GameSpec(q_mod)
        assert spec.input_alphabet == tuple(range(q_mod))
        assert spec.input_alphabet is spec.input_alphabet
        assert spec._answers == tuple(game.winning_answer(spec, a, b) for a, b in spec.input_pairs())
        pairs = spec.input_pairs()
        assert pairs == [(a, b) for a in range(q_mod) for b in range(q_mod)]
        assert spec.input_pairs() is not pairs  # a new list per call
        pairs.append((9, 9))
        assert len(spec.input_pairs()) == q_mod ** 2


def test_gamespec_equality_hash_and_repr_read_q_alone():
    assert game.GameSpec(2) == game.GameSpec(2) != game.GameSpec(3)
    assert hash(game.GameSpec(3)) == hash(game.GameSpec(3))
    assert repr(game.GameSpec(2)) == "GameSpec(q=2)"
    spec = game.GameSpec(np.int64(3))
    assert spec == game.GameSpec(3) and repr(spec) == "GameSpec(q=3)"
    assert game.evaluate(game.GameSpec(np.int64(2)), optimal_unitary_strategy()).average == \
        game.evaluate(game.GameSpec(2), optimal_unitary_strategy()).average


def test_gamespec_rejects_a_non_integer_modulus():
    for bad in (2.0, 2.5, "2", None, np.float64(3.0)):
        with pytest.raises(ValueError, match="^modulus q must be an integer"):
            game.GameSpec(bad)


def test_optimal_strategy_hits_tsirelson_on_every_input():
    report = game.evaluate(game.GameSpec(2), optimal_unitary_strategy())
    for prob in report.per_input.values():
        assert prob == pytest.approx(TSIRELSON, abs=1e-12)
    assert report.average == pytest.approx(TSIRELSON, abs=1e-12)


def test_trivial_strategy_value():
    assert game.evaluate(game.GameSpec(2), trivial_strategy()).average == 0.75


def test_irreversible_strategy_wins_always():
    report = game.evaluate(game.GameSpec(2), irreversible_strategy())
    assert report.average == 1.0
    assert all(p == pytest.approx(1.0, abs=1e-12) for p in report.per_input.values())


def test_average_is_mean_of_per_input():
    report = game.evaluate(game.GameSpec(2), optimal_unitary_strategy())
    mean = sum(report.per_input.values()) / 4
    assert report.average == pytest.approx(mean, abs=1e-12)


def test_evaluate_rejects_missing_gates():
    s = optimal_unitary_strategy()
    broken = game.Strategy(
        initial=s.initial,
        a_gates={0: s.a_gates[0]},
        b_gates=s.b_gates,
        measurement=s.measurement,
    )
    with pytest.raises(ValueError, match="missing"):
        game.evaluate(game.GameSpec(2), broken)


def test_evaluate_rejects_labels_out_of_range():
    s = optimal_unitary_strategy()
    bad = game.Strategy(
        initial=s.initial,
        a_gates=s.a_gates,
        b_gates=s.b_gates,
        measurement=q.Measurement.pauli("x", labels=(0, 2)),
    )
    with pytest.raises(ValueError, match="labels"):
        game.evaluate(game.GameSpec(2), bad)


def test_strategy_rejects_mixed_dimensions():
    with pytest.raises(ValueError, match="dimension"):
        game.Strategy(
            initial=q.State.from_ket(q.basis_ket(3, 0)),
            a_gates={0: q.Channel.unitary(q.I2), 1: q.Channel.unitary(q.I2)},
            b_gates={0: q.Channel.unitary(q.I2), 1: q.Channel.unitary(q.I2)},
            measurement=q.Measurement.pauli("z"),
        )


def test_strategy_and_components_compare_and_hash_by_identity():
    # Their fields are arrays, so field-wise == would have no truth value.
    assert (q.Measurement.pauli("x") == q.Measurement.pauli("x")) is False
    s, twin = optimal_unitary_strategy(), optimal_unitary_strategy()
    pairs = [(s.initial, twin.initial), (s.a_gates[1], twin.a_gates[1]),
             (s.measurement, twin.measurement), (s, twin)]
    for obj, equal_twin in pairs:
        assert obj == obj
        assert (obj == equal_twin) is False
        assert {obj: 1}[obj] == 1


# ---------------------------------------------------------------------------
# Stacked unitary kernel
# ---------------------------------------------------------------------------

def _kernel(spec, s, b_plays=None):
    """evaluate_unitary_stack on a unitary strategy; ``b_plays`` stacks more B gates."""
    alphabet = spec.input_alphabet
    if b_plays is None:
        b_plays = [[s.b_gates[b].kraus[0] for b in alphabet]]
    return game.evaluate_unitary_stack(
        spec,
        s.initial.density,
        np.stack([s.a_gates[a].kraus[0] for a in alphabet]),
        np.stack([[play[b] for play in b_plays] for b in alphabet]),
        s.measurement,
    )


def test_unitary_stack_kernel_equals_evaluate():
    rng = np.random.default_rng(204)
    q2 = game.GameSpec(2)
    identity = normal_form(q.I2, q.I2, q.I2, q.I2)
    all_zero = q.Measurement.pauli("x", labels=(0, 0))  # answer 1 has no outcome
    cases = [(q2, optimal_unitary_strategy()), (q2, identity),
             (q2, game.Strategy(identity.initial, identity.a_gates, identity.b_gates, all_zero)),
             (game.GameSpec(3), qutrit_fixed_strategy())]
    cases += [(q2, rz_pair_strategy(eps)) for eps in (1e-6, 0.3, np.pi / 4, 1.2, np.pi / 2 - 1e-9)]
    cases += [(q2, random_normal_form(rng)) for _ in range(300)]
    for spec, s in cases:
        expected = game.evaluate(spec, s).per_input
        per_input = _kernel(spec, s)
        assert list(per_input) == spec.input_pairs()
        for key, p in per_input.items():
            assert p.shape == (1,)
            assert p[0] == expected[key]


def test_unitary_stack_kernel_evaluates_each_stacked_play():
    rng = np.random.default_rng(205)
    spec = game.GameSpec(2)
    a0, a1 = q.random_unitary(2, rng), q.random_unitary(2, rng)
    plays = [[q.random_unitary(2, rng) for _ in range(2)] for _ in range(7)]
    per_input = _kernel(spec, normal_form(a0, a1, *plays[0]), b_plays=plays)
    for j, (b0, b1) in enumerate(plays):
        expected = game.evaluate(spec, normal_form(a0, a1, b0, b1)).per_input
        for key, p in per_input.items():
            assert p.shape == (len(plays),)
            assert p[j] == expected[key]


def _broadcast_kernel(spec, initial, a_stack, b_stack, measurement):
    """The kernel's values for one play of k B choices, every product one broadcast matmul."""
    d, k = initial.shape[0], b_stack.shape[1]
    rho_a = a_stack @ initial @ q._dagger_stack(a_stack)
    rhos = (b_stack[None] @ rho_a[:, None, None] @ q._dagger_stack(b_stack)[None]).reshape(-1, d, d)
    probs = q._sum_by_label(measurement.outcome_labels, q._traces(measurement._stack @ rhos[:, None]).T)
    return {pair: probs[answer][i * k:(i + 1) * k] if answer in probs else np.zeros(k)
            for i, (pair, answer) in enumerate(zip(spec._pairs, spec._answers))}


def _bits(values) -> bytes:
    """The float64 bits of the values, so that equal means equal by ``float.hex``."""
    return np.asarray(values, dtype=float).tobytes()


def test_unitary_stack_kernel_has_the_broadcast_bits_with_and_without_a_play_axis():
    # Shared factors are taken as right products from _SHARED_FACTOR_MIN
    # matrices on; every value must keep the broadcast form's bits, for one
    # play and for each play of a stack of them.
    rng = np.random.default_rng(206)
    cases = [(game.GameSpec(2), q.Measurement.pauli("x")), (game.GameSpec(2), q.Measurement.pauli("y", (1, 1))),
             (game.GameSpec(3), q.Measurement.fourier(3)), (game.GameSpec(3), q.Measurement.fourier(3, (2, 0, 2)))]
    for spec, measurement in cases:
        d = measurement.dim
        initial = q.projector(q.random_unitary(d, rng)[:, 0])
        for k in (1, 2, 37, 1001):
            # 9 plays: the 2 or 3 A gates of each share rho_0 with 17 or more others.
            a_stack = q.random_unitary(d, rng, (9, spec.q))
            b_stack = q.random_unitary(d, rng, (9, spec.q, k))
            stacked = game.evaluate_unitary_stack(spec, initial, a_stack, b_stack, measurement)
            assert list(stacked) == spec.input_pairs()
            for i in range(9):
                expected = _broadcast_kernel(spec, initial, a_stack[i], b_stack[i], measurement)
                single = game.evaluate_unitary_stack(spec, initial, a_stack[i], b_stack[i], measurement)
                for pair, values in expected.items():
                    assert stacked[pair].shape == (9, k) and single[pair].shape == (k,)
                    assert _bits(single[pair]) == _bits(values)
                    assert _bits(stacked[pair][i]) == _bits(values)


def test_unitary_stack_kernel_checks_every_density():
    spec, s = game.GameSpec(2), optimal_unitary_strategy()
    a_stack = np.stack([s.a_gates[a].kraus[0] for a in (0, 1)])
    b_stack = np.stack([[s.b_gates[b].kraus[0]] for b in (0, 1)])
    off = 1 + 1e-9  # the gate no longer preserves the trace
    for a_gates, b_gates in ((a_stack * [[[1]], [[off]]], b_stack),
                             (a_stack, b_stack * [[[[1]]], [[[off]]]])):
        with pytest.raises(ValueError, match="trace"):
            game.evaluate_unitary_stack(spec, s.initial.density, a_gates, b_gates, s.measurement)


def test_unitary_stack_kernel_rejects_stacks_that_do_not_fit_the_game():
    spec, s = game.GameSpec(2), optimal_unitary_strategy()
    a_stack = np.stack([s.a_gates[a].kraus[0] for a in (0, 1)])
    b_stack = np.stack([[s.b_gates[b].kraus[0]] for b in (0, 1)])
    for a_gates, b_gates in ((a_stack[:1], b_stack), (a_stack, b_stack[:, 0]),
                             (a_stack, b_stack[:1]), (a_stack, np.zeros((2, 1, 3, 3))),
                             (a_stack[None], b_stack), (a_stack[None], b_stack[None, None]),
                             (a_stack[None, None], b_stack[None, None]), (a_stack, b_stack[0, 0])):
        with pytest.raises(ValueError, match="do not fit"):
            game.evaluate_unitary_stack(spec, s.initial.density, a_gates, b_gates, s.measurement)


def test_unitary_stack_kernel_with_no_plays_returns_empty_arrays():
    for spec, s in ((game.GameSpec(2), optimal_unitary_strategy()),
                    (game.GameSpec(3), qutrit_fixed_strategy())):
        a_stack = np.stack([s.a_gates[a].kraus[0] for a in spec.input_alphabet])
        no_plays = np.zeros((spec.q, 0, s.dim, s.dim), dtype=complex)
        per_input = game.evaluate_unitary_stack(spec, s.initial.density, a_stack, no_plays, s.measurement)
        assert list(per_input) == spec.input_pairs()
        assert all(p.shape == (0,) for p in per_input.values())


# ---------------------------------------------------------------------------
# Classical evaluation
# ---------------------------------------------------------------------------

def test_classical_erase_strategy_wins_always():
    cs = game.ClassicalStrategy(
        num_symbols=2,
        initial=0,
        a_gates={0: (0, 1), 1: (1, 0)},
        b_gates={0: (0, 0), 1: (0, 1)},
        readout=(0, 1),
    )
    report = game.evaluate_classical(game.GameSpec(2), cs)
    assert report.average == 1.0
    assert set(report.per_input.values()) == {1.0}


def test_classical_trit_shift_strategy_wins_always():
    shift = (1, 2, 0)
    cs = game.ClassicalStrategy(
        num_symbols=3,
        initial=0,
        a_gates={0: (0, 1, 2), 1: shift},
        b_gates={0: (0, 1, 2), 1: shift},
        readout=(0, 0, 1),
    )
    assert game.evaluate_classical(game.GameSpec(2), cs).average == 1.0


def test_classical_identity_strategy():
    cs = game.ClassicalStrategy(
        num_symbols=2,
        initial=0,
        a_gates={0: (0, 1), 1: (0, 1)},
        b_gates={0: (0, 1), 1: (0, 1)},
        readout=(0, 1),
    )
    assert game.evaluate_classical(game.GameSpec(2), cs).average == 0.75


def test_deterministic_strategies_have_zero_one_probabilities():
    cs = game.ClassicalStrategy(
        num_symbols=2,
        initial=1,
        a_gates={0: (1, 0), 1: (0, 1)},
        b_gates={0: (0, 1), 1: (1, 0)},
        readout=(1, 0),
    )
    report = game.evaluate_classical(game.GameSpec(2), cs)
    assert set(report.per_input.values()) <= {0.0, 1.0}


def test_non_stochastic_gate_rejected():
    with pytest.raises(ValueError, match="stochastic"):
        game.ClassicalStrategy(
            num_symbols=2,
            initial=0,
            a_gates={0: np.array([[0.5, 0.0], [0.2, 1.0]]), 1: (0, 1)},
            b_gates={0: (0, 1), 1: (0, 1)},
            readout=(0, 1),
        )


def test_column_sums_off_by_more_than_the_channel_tolerance_rejected():
    # A column summing to 1 + 1e-6 is no trace-preserving channel, so it is
    # rejected as a classical gate and as a channel alike.
    m = [[1 + 1e-6, 0.0], [0.0, 1.0]]
    with pytest.raises(ValueError, match="left-stochastic"):
        game.stochastic_matrix(m, 2)
    with pytest.raises(ValueError, match="left-stochastic"):
        q.Channel.classical(np.array(m))


def test_classical_strategy_keeps_its_own_copy_of_gate_matrices():
    # A write to the caller's gate matrix after validation must not reach
    # the strategy: here it would give a per-input value of 3.0.
    g = np.eye(2)
    cs = game.ClassicalStrategy(
        num_symbols=2, initial=1, a_gates={0: g, 1: g}, b_gates={0: (0, 1), 1: (0, 1)},
        readout=(0, 1),
    )
    g[0, 1], g[1, 1] = 3.0, -2.0
    report = game.evaluate_classical(game.GameSpec(2), cs)
    assert report.per_input == {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 1.0}
    assert report.average == 0.25
    with pytest.raises(ValueError, match="read-only"):
        cs.a_gates[0][0, 1] = 3.0


def test_dirichlet_column_matrices_accepted():
    rng = np.random.default_rng(17)
    for d in (2, 3, 5):
        m = rng.dirichlet(np.ones(d), size=d).T
        assert np.array_equal(game.stochastic_matrix(m, d), m)
        q.Channel.classical(m)


def test_bad_function_table_rejected():
    with pytest.raises(ValueError, match="map"):
        game.ClassicalStrategy(
            num_symbols=2,
            initial=0,
            a_gates={0: (0, 2), 1: (0, 1)},
            b_gates={0: (0, 1), 1: (0, 1)},
            readout=(0, 1),
        )


def _classical(**changes) -> game.ClassicalStrategy:
    fields = dict(num_symbols=2, initial=0, a_gates={0: (0, 1), 1: (1, 0)},
                  b_gates={0: (0, 0), 1: (0, 1)}, readout=(0, 1))
    return game.ClassicalStrategy(**{**fields, **changes})


def test_classical_strategy_rejects_non_integer_symbols():
    # Each of these was once truncated to an integer symbol without error,
    # or, for the initial symbol, failed later with an IndexError.
    cases = (
        (dict(a_gates={0: (0.5, 1.9), 1: (1, 0)}), "is not a map on 2 symbols"),
        (dict(b_gates={0: (0, 0), 1: np.array([0.0, 1.0])}), "is not a map on 2 symbols"),
        (dict(readout=(0.7, 1.2)), "has a label that is not an integer"),
        (dict(readout=(0, "1")), "has a label that is not an integer"),
        (dict(initial=0.5), "initial symbol 0.5 is not an integer"),
        (dict(initial=np.float64(1.0)), "is not an integer"),
    )
    for changes, message in cases:
        with pytest.raises(ValueError, match=message):
            _classical(**changes)


def test_classical_strategy_rejects_a_non_integer_number_of_symbols():
    # Each once failed with a TypeError: at construction from the function
    # tables, or, with matrix gates, only later in evaluate_classical.
    eye = np.eye(2)
    for gates in (dict(a_gates={0: (0, 1), 1: (1, 0)}, b_gates={0: (0, 0), 1: (0, 1)}),
                  dict(a_gates={0: eye, 1: eye}, b_gates={0: eye, 1: eye})):
        for num_symbols in (2.0, "2", None):
            with pytest.raises(ValueError) as raised:
                _classical(num_symbols=num_symbols, **gates)
            assert type(raised.value) is ValueError
            assert str(raised.value) == f"number of symbols {num_symbols!r} is not an integer"


def test_classical_strategy_keeps_a_numpy_integer_number_of_symbols_as_an_int():
    eye = np.eye(2)
    for gates in (dict(), dict(a_gates={0: eye, 1: eye}, b_gates={0: eye, 1: eye})):
        cs = _classical(num_symbols=np.int64(2), **gates)
        assert type(cs.num_symbols) is int and cs.num_symbols == 2
        assert game.evaluate_classical(game.GameSpec(2), cs) == \
            game.evaluate_classical(game.GameSpec(2), _classical(**gates))


def test_evaluate_classical_rejects_strategies_that_do_not_fit_the_game():
    # Gate coverage is checked before the readout labels, A before B.
    cases = (
        (dict(a_gates={0: (0, 1)}), "A gates missing for inputs [1]"),
        (dict(b_gates={1: (0, 1)}), "B gates missing for inputs [0]"),
        (dict(readout=(0, 2)), "readout labels [2] outside range(0, 2)"),
        (dict(a_gates={1: (0, 1)}, b_gates={0: (0, 1)}, readout=(3, 2)), "A gates missing for inputs [0]"),
        (dict(b_gates={0: (0, 1)}, readout=(3, 2)), "B gates missing for inputs [1]"),
    )
    for changes, message in cases:
        with pytest.raises(ValueError) as raised:
            game.evaluate_classical(game.GameSpec(2), _classical(**changes))
        assert type(raised.value) is ValueError
        assert str(raised.value) == message


def test_classical_strategy_accepts_numpy_integer_symbols():
    plain = game.evaluate_classical(game.GameSpec(2), _classical())
    cs = _classical(
        initial=np.int64(0),
        a_gates={0: np.array([0, 1], dtype=np.uint8), 1: np.array([1, 0])},
        readout=(np.int64(0), np.uint8(1)),
    )
    assert type(cs.initial) is int and all(type(c) is int for c in cs.readout)
    assert game.evaluate_classical(game.GameSpec(2), cs) == plain
    assert plain.average == 1.0


def _evaluate_classical_per_pair(spec, cs):
    """evaluate_classical's earlier loop: numpy scalars summed per pair by symbol index."""
    p0 = np.zeros(cs.num_symbols)
    p0[cs.initial] = 1.0
    per_input = {}
    for a, b in spec.input_pairs():
        p = cs.b_gates[b] @ (cs.a_gates[a] @ p0)
        target = game.winning_answer(spec, a, b)
        per_input[(a, b)] = float(sum(p[s] for s in range(cs.num_symbols) if cs.readout[s] == target))
    return per_input, sum(per_input.values()) / len(per_input)


def test_evaluate_classical_matches_the_per_pair_loop_exactly():
    rng = np.random.default_rng(61)
    for qq in (2, 3):
        spec = game.GameSpec(qq)
        for d in (2, 3, 4):
            for _ in range(100):
                def gate():
                    if rng.random() < 0.5:
                        return tuple(int(i) for i in rng.integers(d, size=d))
                    return rng.dirichlet(np.ones(d), size=d).T
                cs = game.ClassicalStrategy(
                    num_symbols=d,
                    initial=int(rng.integers(d)),
                    a_gates={a: gate() for a in range(qq)},
                    b_gates={b: gate() for b in range(qq)},
                    readout=tuple(int(c) for c in rng.integers(qq, size=d)),
                )
                report = game.evaluate_classical(spec, cs)
                per_input, average = _evaluate_classical_per_pair(spec, cs)
                assert list(report.per_input) == list(per_input)
                assert all(type(v) is float for v in report.per_input.values())
                assert [v.hex() for v in report.per_input.values()] == \
                    [v.hex() for v in per_input.values()]
                assert report.average.hex() == average.hex()


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

N_PROPERTY = 500


def _basis_changed(s: game.Strategy, u: np.ndarray) -> game.Strategy:
    """Compose u^+ after every B gate and u^+ . u around the measurement."""
    return game.Strategy(
        initial=s.initial,
        a_gates=s.a_gates,
        b_gates={k: q.Channel.unitary(u.conj().T @ ch.kraus[0]) for k, ch in s.b_gates.items()},
        measurement=q.Measurement(
            tuple(u.conj().T @ p @ u for p in s.measurement.projectors),
            s.measurement.outcome_labels,
        ),
    )


def test_property_basis_change_invariance():
    rng = np.random.default_rng(201)
    spec = game.GameSpec(2)
    for _ in range(N_PROPERTY):
        s = random_normal_form(rng)
        u = q.random_unitary(2, rng)
        base = game.evaluate(spec, s)
        moved = game.evaluate(spec, _basis_changed(s, u))
        for key in base.per_input:
            assert abs(base.per_input[key] - moved.per_input[key]) <= 1e-12


def test_property_per_input_probabilities_in_range():
    rng = np.random.default_rng(202)
    spec = game.GameSpec(2)
    for _ in range(N_PROPERTY):
        report = game.evaluate(spec, random_normal_form(rng))
        for p in report.per_input.values():
            assert -1e-10 <= p <= 1 + 1e-10


def _random_classical_strategy(rng, d: int, q_mod: int) -> game.ClassicalStrategy:
    def random_gate():
        if rng.random() < 0.5:
            return tuple(int(v) for v in rng.integers(0, d, size=d))
        m = rng.random(size=(d, d))
        return m / m.sum(axis=0)

    alphabet = range(q_mod)
    return game.ClassicalStrategy(
        num_symbols=d,
        initial=int(rng.integers(d)),
        a_gates={k: random_gate() for k in alphabet},
        b_gates={k: random_gate() for k in alphabet},
        readout=tuple(int(v) for v in rng.integers(0, q_mod, size=d)),
    )


def test_property_classical_quantum_agreement():
    rng = np.random.default_rng(203)
    for _ in range(N_PROPERTY):
        q_mod = int(rng.choice([2, 3]))
        d = int(rng.integers(2, 4))
        spec = game.GameSpec(q_mod)
        cs = _random_classical_strategy(rng, d, q_mod)
        classical = game.evaluate_classical(spec, cs)
        quantum = game.evaluate(spec, game.classical_to_quantum(cs))
        for key in classical.per_input:
            assert abs(classical.per_input[key] - quantum.per_input[key]) <= 1e-12
