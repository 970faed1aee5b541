"""Bootstrap impulse-response intervals under cointegration-rank uncertainty."""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapConfig,
    IntervalSet,
    bers_interval,
    fdbb_interval,
    fixed_rank_interval,
    hall_quantile,
    lag_augmented_interval,
    ma_interval,
    wimp_interval,
)
from .bootstrap import _prepare as prepare
from .errors import ConfigError, DataError, EstimationError, WimpvarError
from .montecarlo import (
    CoverageTable,
    DgpSpec,
    ExperimentConfig,
    make_dgp,
    run_experiment,
    simulate_path,
    true_irf,
)
from .ranks import (
    PlausibilityWeights,
    RankSelector,
    plausibility_weights,
    relative_plausibility,
    select_rank_ic,
    select_rank_sequential,
)
from .timeseries import (
    DetrendMode,
    DetrendedSeries,
    TimeSeriesData,
    detrend,
    difference,
)
from .vecm import (
    IrfArray,
    IrfQuery,
    VarLevels,
    VecmFit,
    cholesky_factor,
    companion_matrix,
    fit_vecm,
    irf_reduced,
    trace_statistics,
    var_to_vecm,
    vecm_to_var,
)
from .wimp import PrudenceReport, WimpInterval, check_prudence, wimp_combine

__all__ = [name for name in dir() if not name.startswith("_")]
