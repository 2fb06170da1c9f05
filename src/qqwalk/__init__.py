"""Quaternionic quantum walks on the integer line.

Simulation (states, one-step evolution, position distributions),
path-sum operator enumeration with its split-basis word algebra, and
verification tools for right eigenpairs, stationary measures, and the
complex reduction of quaternion initial states under real coins.
"""

from .quaternion import (
    DEFAULT_TOL,
    I,
    J,
    K,
    ONE,
    ZERO,
    NotUnitError,
    Quaternion,
    format_quaternion,
    parse_quaternion,
)
from .coin import (
    Coin,
    NotUnitaryError,
    PRESET_NAMES,
    QMatrix2,
    coin_from_json,
    coin_from_spec,
    preset_coin,
    random_unitary_coin,
)
from .walk import (
    FiniteSupportState,
    Measure,
    NORM_TOL,
    NotNormalizedError,
    PeriodicState,
    WalkState,
    distribution,
    distributions,
    hadamard_three_step_distribution,
    measure_from_json,
    random_unit_pair,
    state_from_json,
)
from .pathsum import (
    CapExceededError,
    InvalidSplitError,
    PQRSDecomposition,
    PQWord,
    WORD_CAP,
    decompose_pqrs,
    path_sum,
    path_sum_bruteforce,
    path_sum_reduced,
    path_sums,
    reduce_word,
)
from .stationary import (
    EXP_FIT_TOL,
    EigenCandidate,
    MeasureClass,
    NotImaginaryUnitError,
    NotRealCoinError,
    PolarInitialState,
    TwoStepUniformityReport,
    WrongCoinClassError,
    ZeroCoefficientError,
    build_eigenstate_flip,
    build_eigenstate_flipneg,
    check_two_step_uniformity,
    classify_measure,
    complexify_initial_state,
    effective_phase_cosine,
    quadratic_form_coefficients,
    right_eigen_check,
    stationary_residual,
    verify_stationary,
)
from .verify import SUITES, run_suites

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "NORM_TOL", "EXP_FIT_TOL", "WORD_CAP",
    "Quaternion", "ZERO", "ONE", "I", "J", "K",
    "format_quaternion", "parse_quaternion",
    "QMatrix2", "Coin", "PRESET_NAMES",
    "preset_coin", "coin_from_json", "coin_from_spec", "random_unitary_coin",
    "FiniteSupportState", "PeriodicState", "WalkState", "Measure",
    "state_from_json", "measure_from_json",
    "distribution", "distributions", "hadamard_three_step_distribution",
    "random_unit_pair",
    "PQWord", "PQRSDecomposition", "reduce_word", "decompose_pqrs",
    "path_sum", "path_sums", "path_sum_bruteforce", "path_sum_reduced",
    "EigenCandidate", "right_eigen_check",
    "build_eigenstate_flip", "build_eigenstate_flipneg",
    "stationary_residual", "verify_stationary", "check_two_step_uniformity",
    "TwoStepUniformityReport", "MeasureClass", "classify_measure",
    "PolarInitialState", "effective_phase_cosine", "complexify_initial_state",
    "quadratic_form_coefficients",
    "SUITES", "run_suites",
    "NotUnitError", "NotUnitaryError", "NotNormalizedError",
    "InvalidSplitError", "CapExceededError", "ZeroCoefficientError",
    "NotImaginaryUnitError", "WrongCoinClassError", "NotRealCoinError",
]
