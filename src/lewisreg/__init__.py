"""Label-budgeted L1/Lp linear regression via Lewis-weight importance sampling."""

__version__ = "0.1.0"

from .errors import BudgetExceededError, DegenerateMatrixError
from .linalg import LeverageScores, leverage_scores, lp_norm, weighted_lp_loss
from .lewis import (
    ImportanceWeights,
    LewisWeights,
    SandwichReport,
    UniformityReport,
    importance_weight_oracle,
    importance_weights,
    lewis_weights,
    sandwich_check,
    split_row,
    uniformity_report,
)
from .sampling import (
    SamplePlan,
    Sketch,
    plan_l1,
    plan_lp,
    plan_uniform,
    realize,
    support_size_bound,
)
from .solvers import (
    SolveResult,
    approx_transfer_bound,
    solve_weighted_l1,
    solve_weighted_lp,
    weighted_median,
)
from .oracle import (
    ActiveSolveOutcome,
    QueryLedger,
    RegressionInstance,
    active_solve,
    query,
)
from .instances import (
    GeneratedInstance,
    LowerBoundInstance,
    gen_lower_bound,
    gen_random,
    sign_recovery_experiment,
)
from .verify import (
    BetaSample,
    CrossTermReport,
    EmbedReport,
    RucTrial,
    TaylorReport,
    cross_term_check,
    embedding_check,
    ruc_check,
    taylor_claim_check,
    taylor_remainder_ratio,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    fit_loglog_slope,
    preset_config,
    run_experiment,
    sweep,
)
