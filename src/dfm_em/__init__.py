"""Quasi-maximum-likelihood estimation of large approximate dynamic factor
models by the EM algorithm with Kalman smoothing, plus a Monte Carlo
harness for evaluating the estimators on synthetic panels."""

from .model import (
    DfmParams,
    ModelDims,
    Panel,
    ShapeError,
    validate,
)
from .simulate import DgpConfig, DgpDraw, Innovation, draw_dgp, stream
from .kalman import (
    FilterNumericalError,
    FilterOutput,
    InitState,
    SmootherOutput,
    kalman_filter,
    kalman_smoother,
    stationary_init,
    steady_state_diagnostics,
)
from .pca import IdentificationError, PcEstimate, pc_estimate, var_from_factors
from .em import (
    AscentViolationError,
    EmConfig,
    EmDivergenceError,
    EmError,
    EmResult,
    SufficientStats,
    e_step,
    em_fit,
    m_step,
)
from .extensions import (
    ecm_fit,
    gls_loadings,
    ridge_covariance,
    ridge_fit,
)
from .metrics import (
    BURN_IN_T,
    DEFAULT_ALPHAS,
    HIST_EDGES,
    CoverageTable,
    ZAccumulator,
    asvar_matrices,
    common_mse,
    trace_statistic,
    z_scores,
)
from .montecarlo import (
    CellAbortError,
    McCell,
    McCellReport,
    McGrid,
    McReport,
    run_cell,
    run_grid,
    write_report,
)

__version__ = "0.1.0"
