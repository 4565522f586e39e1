"""Exact mixing coefficients of finite sequence measures, measures built to
order from prescribed coefficients, mixing-rate processes, and the
concentration bounds the coefficients feed."""

__version__ = "0.3.0"

from .measures import (
    DEFAULT_STATE_CAP,
    FiniteMeasure,
    SeqSpace,
    StateCapExceeded,
    ZeroProbabilityPrefix,
    conditional,
    from_weights,
    marginal,
    random_measure,
    tv_distance,
    uniform,
)
from .mixing import (
    ConjectureRow,
    MixingMatrix,
    TargetInvalid,
    Violation,
    check_samson_inequality,
    conjecture_scan,
    eta,
    eta_bar,
    mixing_matrix,
    phi,
    phi_vector,
    validate_target,
)
from .products import (
    FactoredMixing,
    ProductMeasure,
    factored_mixing_matrix,
    materialize,
    series_product,
)
from .construction import (
    ConstructionTrace,
    PureRow,
    SolveError,
    TraceStep,
    ValidRow,
    check_conditional_preservation,
    construct_from_target,
    pure_row_measure,
    reweight,
    solve_row,
)
from .process import (
    Checkpoint,
    CheckpointReport,
    HorizonTooSmall,
    RateFunction,
    TruncatedProcess,
    build_process,
    check_checkpoints,
    delta_matrix,
    rate_R,
    validate_rate,
)
from .concentration import (
    bounds_report,
    coupling_matrices,
    kontram_bound,
    op_norm_2,
    op_norm_inf,
    samson_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
