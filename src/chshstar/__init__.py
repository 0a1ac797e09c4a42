"""Exact evaluation and value search for the CHSH* single-system game.

A single d-dimensional system is prepared, transformed by two controlled
gates (controls a and b), and measured once; the play wins when the outcome
equals ``a * b mod q``.  This package evaluates arbitrary quantum and
classical strategies exactly, computes the game value under a range of
physical settings (unitary, Clifford, reversible / irreversible classical,
mod-3 variants), maps unitary qubit strategies to two-player CHSH
strategies, and accounts for the entropy cost of erasure-based strategies.
"""

from .quantum import (
    ATOL_NAME,
    ATOL_PROB,
    ATOL_STRUCT,
    Channel,
    Measurement,
    State,
    apply_channel,
    basis_ket,
    fourier_ket,
    minus_ket,
    outcome_distribution,
    pauli_eigenstates,
    phase_canonical,
    plus_ket,
    projector,
    qudit_gates,
    random_unitary,
    rz,
    ry,
    shift_gate,
    H,
    I2,
    S,
    T,
    X,
    Y,
    Z,
)
from .game import (
    ClassicalStrategy,
    EvaluationReport,
    GameSpec,
    Strategy,
    classical_to_quantum,
    evaluate,
    evaluate_classical,
    winning_answer,
)
from .chsh_lift import (
    ChshReport,
    ChshStrategy,
    bell_pair_ket,
    evaluate_chsh,
    lift,
    verify_equivalence,
)
from .settings import (
    ConsistencyError,
    OptimizerConfig,
    SettingSpec,
    ValueResult,
    clifford_group_d2,
    compute_value,
    epsilon_sweep,
    irreversible_strategy,
    optimal_unitary_strategy,
    qutrit_fixed_strategy,
    rz_pair_strategy,
    success_probability_formula,
    trivial_strategy,
    uniform_open_grid,
    value_classical_irreversible,
    value_classical_q3,
    value_classical_reversible,
    value_clifford,
    value_clifford_plus_rz,
    value_qutrit_q3_fixed,
    value_unitary,
)
from .landauer import (
    EntropyReport,
    entropy_ledger,
    erasure_report,
    erasure_strategy,
    erasure_value,
    solve_erasure_probability,
)

__version__ = "0.1.0"
