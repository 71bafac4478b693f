"""Direction-of-influence analysis for dyadic facial expression recordings.

The package mines transient intervals of correlated action-unit activity
between two interacting people and applies Granger-causality tests over those
intervals to classify who influences whom, per expression and condition.
"""

from .au_features import (
    AU_IDS,
    AUBaseline,
    AURecording,
    EXPRESSIONS,
    EXPRESSIONS_BY_NAME,
    ExpressionDef,
    SyncedPair,
    au_activation,
    baseline_stats,
    confidence_sync,
    count_activations,
    expression_activation,
    expression_signal,
    parse_au_csv,
)
from .config import AnalysisConfig, load_config
from .errors import (
    AnalysisError,
    ConfigError,
    DegenerateSeries,
    EmptyInput,
    EmptyOverlap,
    FormatError,
    InsufficientData,
    ShapeError,
    SingularDesign,
)
from .granger import (
    Direction,
    GCTestResult,
    VarModel,
    average_gc,
    cap_order,
    f_sf,
    f_statistic,
    fit_var,
    gc_test,
    select_order,
)
from .intervals import (
    Interval,
    IntervalParams,
    IntervalSet,
    correlated_intervals,
    intersect_sets,
    longest_set,
    mine_shifted,
    postprocess,
    segment_series,
)
from .pipeline import (
    ConditionReport,
    Manifest,
    PipelineResult,
    emit_report,
    run_pipeline,
)
from .stats import (
    PairedSample,
    WilcoxonResult,
    benjamini_hochberg,
    condition_comparison,
    wilcoxon_signed_rank,
)
from .synth import CouplingSpec, gen_au_fixture, gen_coupled_pair, make_demo_cohort
from .timeseries import TimeSeries, median_filter, runs, standardize

__version__ = "0.1.0"
