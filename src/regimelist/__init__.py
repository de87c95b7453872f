"""Cost-aware treatment regimes as decision lists.

Learns an ordered rule list mapping subject characteristics to treatments
from observational data, trading estimated outcome against the cost of the
characteristics each rule reads and of the treatments it assigns.
"""

from .domain import (
    BINARY,
    CATEGORICAL,
    REAL,
    CharacteristicSpec,
    Dataset,
    DecisionList,
    GroupAssignment,
    Pattern,
    Predicate,
    assessment_cost_vector,
    assign,
    feature_set_cost,
    partition,
    pattern_mask,
    treatment_cost_vector,
)
from .errors import (
    CellError,
    ConvergenceError,
    EmptyCandidateSetError,
    InvalidPredicateError,
    RegimeListError,
    SingularSystemError,
    SizeLimitError,
    ValidationError,
)
from .estimation import (
    DRScoreMatrix,
    FeatureEncoder,
    OutcomeModel,
    PropensityModel,
    compute_dr_scores,
    encode_features,
    fit_outcome,
    fit_propensity,
)
from .io import (
    DataSchema,
    decision_list_from_dict,
    decision_list_to_dict,
    format_decision_list,
    read_dataset,
    read_schema,
    write_dataset_csv,
    write_schema,
)
from .mining import CandidateSet, MiningConfig, discretize, mine_patterns
from .objective import (
    MetricsReport,
    ObjectiveWeights,
    compute_metrics,
    estimated_outcome,
    mean_assessment_cost,
    mean_treatment_cost,
    objective_value,
)
from .search import (
    SearchConfig,
    SearchProblem,
    SearchResult,
    exhaustive_search,
    greedy_baseline,
    uct_search,
)
from .synth import (
    GeneratorSpec,
    GroundTruth,
    Marginal,
    default_generator_spec,
    generate,
    true_objective,
    true_value,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
