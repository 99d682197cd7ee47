"""Online LQR control warm-started from offline trajectories of a similar
linear system, plus a Monte-Carlo experiment harness."""

from .config import ExperimentConfig
from .controller import (
    BeliefState,
    EpisodeResult,
    MultiSourceSummary,
    SampleOutcome,
    VARIANTS,
    compute_beta,
    effective_sources,
    init_belief,
    run_episode,
    sample_constrained,
    update_belief,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    NonStabilizable,
    SingularPrecision,
    TsodLqrError,
    UnstableRollout,
    UsageError,
)
from .harness import (
    AggregateResult,
    DiagnosticsReport,
    ExperimentResult,
    RunRecord,
    ScalingResult,
    run_diagnostics,
    run_experiment,
    scaling_study,
)
from .lqr import (
    ConstraintSetP,
    ConstraintSetQ,
    CostMatrices,
    RiccatiSolution,
    ThetaParams,
    closed_loop_norm,
    p_membership,
    q_membership,
    riccati_map,
    solve_dare,
)
from .offline import (
    Assumption2Report,
    OfflineConfig,
    OfflineSummary,
    alpha_from_bound,
    check_assumption2,
    load_offline,
    save_offline,
    simulate_offline,
)
from .rng import RngStream, hash64
from .sim import sample_theta_delta, step_system
from .traces import EpisodeDiagnostics, RegretTrace

__version__ = "0.1.0"
