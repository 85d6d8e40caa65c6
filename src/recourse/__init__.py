"""Recourse-set generation for black-box tabular classifiers under
uncertain, user-specific cost functions."""

from .cost import (
    CostSampleSet,
    min_cost,
    sample_cost_batch,
    sample_cost_function,
)
from .evaluate import (
    MetricsReport,
    compute_report,
    concentration_distance,
    coverage,
    dir_ratio,
    distance_metrics,
    fs_at_k,
    pac,
    simulate_user,
    simulate_users,
)
from .model import (
    BudgetExhausted,
    BudgetMeter,
    Classifier,
    TrainConfig,
    load_model,
    predict_batch,
    save_model,
    train_classifier,
)
from .schema import (
    DatasetSchema,
    FeatureSpec,
    PercentileTable,
    SchemaError,
    UserState,
    build_percentile_table,
    feasible_positions,
    feasible_values,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
)
from .search import (
    GenerationSettings,
    SearchResult,
    cols,
    local_search,
    pcols,
    random_search,
)

__version__ = "0.1.0"
