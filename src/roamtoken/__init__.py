"""Token-passing distributed linear estimation over time-varying directed networks.

A single token roams the network along currently available edges, fusing the
agents' running measurement statistics; the holder can always produce an
estimate whose error rate approaches the centralized oracle.  The package
bundles the estimator, a consensus+innovations baseline, graph process
generators, hitting-time verification tools, a Monte Carlo harness, and a CLI.
"""

# Set before the submodules load: the harness writes it into meta.yaml.
__version__ = "0.1.0"

from .baseline import CiConfig, GridSearchResult, grid_search
from .chain import (
    Lazy,
    OutDegreeReciprocal,
    TailConstants,
    apply_rule,
    chain_floor,
    is_irreducible,
    mean_transition_matrix,
    tail_constants,
)
from .errors import (
    ConfigError,
    GenerationFailed,
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
    is_strongly_connected,
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
    verify_state_identity,
    verify_tail_bounds,
)
from .observation import (
    AgentModel,
    GlobalModel,
    fisher_information,
    sample_measurements,
)
from .token import AlphaSchedule, EpisodeTrace, run_episode
