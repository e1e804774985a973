"""Pareto set learning by hypervolume maximization.

Trains a neural model that transforms an arbitrary latent distribution into
the Pareto set of a multi-objective problem, and benchmarks it against
preference-based Pareto set learning baselines on synthetic and engineering
design problems.
"""

from .hv import (
    HvReport,
    exact_hv,
    log_hv_difference,
    nondominated_filter,
    r2_hv_approx,
    r2_hv_subgradient,
)
from .network import (
    AdamState,
    NetworkParams,
    NonFiniteGradient,
    adam_step,
    backward,
    forward,
    init_adam,
    init_network,
    load_checkpoint,
    save_checkpoint,
)
from .problems import (
    ParetoFrontData,
    Problem,
    available_problems,
    finite_difference_jacobian,
    get_problem,
    load_reference_front,
    pareto_front,
    register_problem,
)
from .sampling import (
    DirectionSet,
    das_dennis,
    default_divisions,
    r2_constant,
    sample_dirichlet,
    sample_gaussian,
    sample_lhs,
)
from .scalarization import (
    cosmos,
    hv_scalarization,
    modified_tchebycheff,
    tchebycheff,
    weighted_sum,
)
from .trainer import (
    ALGORITHMS,
    GPSL_ALGORITHMS,
    PREFERENCE_ALGORITHMS,
    MetricsLog,
    MetricsRecord,
    TrainConfig,
    TrainResult,
    TrainingDiverged,
    evaluate_model,
    latent_sampler,
    train,
    write_metrics_csv,
)

__version__ = "0.1.0"
