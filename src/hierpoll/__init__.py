"""Adaptive polling of hierarchical networks as a belief-state control problem.

Core pieces: validated stochastic-matrix and convex-polynomial algebra,
polling channel constructors with exact and approximate dominance
certification, information-theoretic orderings, belief-grid planning with a
myopic upper-bound policy, Monte Carlo loss metrics, and constrained EM
parameter estimation.
"""

__version__ = "0.1.0"

from .stochastic import (  # noqa: F401
    ConvexPolynomial,
    StochasticMatrix,
    deflate_chain,
    eval_matrix_polynomial,
    fractional_power,
    is_hurwitz,
    is_ultrametric,
    matrix_power,
    polynomial_quotient,
    validate_stochastic,
)
from .channels import (  # noqa: F401
    Channel,
    DominanceChain,
    HierarchyModel,
    approximate_blackwell_chain,
    blackwell_dominates,
    expectation_channel,
    friendship_channel,
    garbling_residual,
    intent_channel,
    lecam_deficiency,
    make_channel,
)
from .infotheory import (  # noqa: F401
    Capacity,
    InfoReport,
    mutual_information,
    renyi_divergence,
    shannon_capacities,
    shannon_capacity,
    verify_orderings,
)
from .pomdp import (  # noqa: F401
    CostSpec,
    FreudenthalGrid,
    GridValueFunction,
    PollingModel,
    belief_cost,
    filter_update,
    model_distance,
    myopic_policy,
    validate_belief,
    value_iteration,
    verify_myopic_bound,
    verify_ordinal_sensitivity,
    verify_sensitivity_bounds,
)
from .sim import (  # noqa: F401
    CostEstimate,
    FixedPolicy,
    GridPolicy,
    MyopicPolicy,
    Step,
    Trajectory,
    estimate_cost,
    loss_L1,
    loss_L2,
    simulate,
)
from .estimate import (  # noqa: F401
    EmEstimate,
    ObservationDataset,
    em_fit,
    load_observations,
    project_ultrametric,
)
