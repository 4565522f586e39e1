"""Exact mixing coefficients of finite sequence measures, measures built to
order from prescribed coefficients, mixing-rate processes, and the
concentration bounds the coefficients feed.

Importing the package loads no submodule and no numpy: each public name
imports its module on first use (PEP 562), so ``from etamix import X``
loads only what X needs.
"""

__version__ = "0.3.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "errors": ("DEFAULT_STATE_CAP", "StateCapExceeded", "TargetInvalid", "SolveError",
               "HorizonTooSmall"),
    "measures": ("FiniteMeasure", "SeqSpace", "ZeroProbabilityPrefix", "conditional",
                 "from_weights", "marginal", "random_measure", "tv_distance", "uniform"),
    "mixing": ("ConjectureRow", "MixingMatrix", "Violation", "check_samson_inequality",
               "conjecture_scan", "eta", "eta_bar", "mixing_matrix", "phi_vector",
               "validate_target"),
    "products": ("ProductMeasure", "factored_mixing_matrix", "materialize", "series_product"),
    "construction": ("PureRow", "TraceStep", "ValidRow", "check_conditional_preservation",
                     "construct_from_target", "pure_row_measure", "reweight", "solve_row"),
    "process": ("BuiltinRate", "Checkpoint", "CheckpointReport", "RateFunction",
                "TruncatedProcess", "build_process", "check_checkpoints", "delta_matrix",
                "rate_R"),
    "concentration": ("bounds_report", "coupling_matrices", "op_norm_2"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
