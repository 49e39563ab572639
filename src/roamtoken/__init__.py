"""Token-passing distributed linear estimation over time-varying directed networks.

A single token roams the network along currently available edges, fusing the
agents' running measurement statistics; the holder can always produce an
estimate whose error rate approaches the centralized oracle.  The package
bundles the estimator, a consensus+innovations baseline, graph process
generators, hitting-time verification tools, a Monte Carlo harness, and a CLI.
"""

from .baseline import CiConfig, GridSearchResult, grid_search
from .chain import (
    Lazy,
    OutDegreeReciprocal,
    TailConstants,
    apply_rule,
    chain_floor,
    exact_mean_transition_matrix,
    hitting_time_samples,
    is_irreducible,
    mean_transition_matrix,
    stationary_distribution,
    tail_constants,
)
from .errors import (
    ConfigError,
    GenerationFailed,
    MissingTrace,
    NonFiniteMetric,
    RoamTokenError,
    SequenceExhausted,
    SingularModel,
    SolveFailed,
    UnsupportedProcess,
)
from .graphs import (
    DeterministicSequence,
    IidFailureGraph,
    StaticGraph,
    generate_backbone_with_degree,
    generate_geometric_backbone,
    is_strongly_connected,
    relative_degree,
    window_union_connected,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    MetricSeries,
    optimality_ratio,
    rmse_central,
    rmse_last_seen,
    rmse_network_ci,
    rmse_token,
    run_experiment,
    verify_sequential_connectivity,
    verify_state_identity,
    verify_tail_bounds,
)
from .observation import (
    AgentModel,
    GlobalModel,
    fisher_information,
    sample_measurements,
)
from .token import (
    AgentLocalState,
    AlphaSchedule,
    EpisodeTrace,
    TokenPayload,
    estimate,
    local_update,
    run_episode,
    token_visit,
)

__version__ = "0.1.0"
