"""Burn-in and sample-size planning for MCMC averages of heavy-tailed
functions, plus chain testbeds with exactly known constants and a Monte
Carlo validation harness.

A name is public when its module's ``__all__`` lists it; the package
exports exactly those lists and resolves each name on first access
(PEP 562).  So the package, like the ``plan`` and ``bound`` commands,
loads numpy only on the first use of a simulation name (one from
``chains`` or ``estimator``): ``optimize`` and ``tables`` load it through
``delta_star``, and ``simulate`` and ``validate`` through the chain.
"""
import importlib

# each module's __all__, in order, so that finding a name's module imports
# nothing; test_public_names_resolve holds the copies equal
_EXPORTS = {
    "bounds": (
        "BoundBreakdown", "ChainParams", "ExponentPair", "FunctionClass",
        "gap_burnin", "gap_endpoint_bounds", "gap_error_bound",
        "interpolated_error_bound", "interpolation_exponent",
        "refined_gap_bound", "refined_uniform_bound",
        "riesz_thorin_exponents", "uniform_burnin",
        "uniform_endpoint_bounds", "uniform_error_bound"),
    "chains": (
        "TV_RESOLUTION", "FiniteChain", "FiniteChainModel",
        "IidUniformSampler", "IndepMHSampler", "InitialDistribution",
        "PowerLawDensity", "SingularFunction", "finite_model", "load_chain",
        "make_chain", "spectral_gap_exact", "uniform_ergodicity_constants"),
    "estimator": (
        "DEFAULT_CHUNK_ELEMENTS", "ErrorEstimate", "RateFit", "estimate_e1",
        "estimate_e1_windows", "exact_e1_small", "rate_regression"),
    "exceptions": (
        "ChainValidationError", "DivergenceError", "DomainError",
        "McmcBudgetError", "NumericalError", "RegimeError"),
    "planner": (
        "REFERENCE_TABLE", "Budget", "PlanRequest", "ReferenceRow",
        "TableRow", "budget_for_delta", "budget_table", "delta_hat",
        "delta_star", "plan_uniform", "required_n"),
    "validate": (
        "CSV_COLUMNS", "CheckRow", "ValidationReport",
        "bound_dominance_suite", "constants_suite", "oracle_suite",
        "rate_suite", "resolve_model"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_OWNER[name]}", __name__)
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
