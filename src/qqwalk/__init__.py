"""Quaternionic quantum walks on the integer line.

Simulation (states, one-step evolution, position distributions),
path-sum operator enumeration with its split-basis word algebra, and
verification tools for right eigenpairs, stationary measures, and the
complex reduction of quaternion initial states under real coins.

``import qqwalk`` loads no submodule: each exported name, and each
submodule name, resolves on first use through the module ``__getattr__``
(PEP 562), which imports the submodule that defines it.  So a process
that only walks never loads ``pathsum``, ``stationary`` or ``verify``.
Those define their result classes by hand, so no subcommand loads
``inspect``, and only a ``classify`` that fits an exponential profile
to a finite measure loads ``statistics``.  An exported name is
read from its submodule on every access and never stored here, so it is
always the submodule's current binding.
"""

import importlib

# each submodule and the names it exports; cli exports none
_EXPORTS = {
    "quaternion": ("DEFAULT_TOL", "Quaternion", "ZERO", "ONE", "I", "J", "K",
                   "format_quaternion", "parse_quaternion", "NotUnitError"),
    "coin": ("QMatrix2", "Coin", "PRESET_NAMES", "preset_coin", "coin_from_json",
             "coin_from_spec", "random_unitary_coin", "NotUnitaryError"),
    "walk": ("NORM_TOL", "FiniteSupportState", "PeriodicState", "WalkState", "Measure",
             "state_from_json", "measure_from_json", "distribution", "distributions",
             "random_unit_pair", "NotNormalizedError"),
    "pathsum": ("WORD_CAP", "PQWord", "PQRSDecomposition", "reduce_word", "decompose_pqrs",
                "path_sum", "path_sums", "path_sum_bruteforce", "path_sum_reduced",
                "InvalidSplitError", "CapExceededError"),
    "stationary": ("EXP_FIT_TOL", "EigenCandidate", "right_eigen_check",
                   "build_eigenstate_flip", "build_eigenstate_flipneg",
                   "stationary_residual", "verify_stationary", "check_two_step_uniformity",
                   "TwoStepUniformityReport", "MeasureClass", "classify_measure",
                   "PolarInitialState", "effective_phase_cosine", "complexify_initial_state",
                   "quadratic_form_coefficients", "ZeroCoefficientError",
                   "NotImaginaryUnitError", "WrongCoinClassError", "NotRealCoinError"),
    "verify": ("SUITES", "run_suites"),
    "cli": (),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _OWNER:
        return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
