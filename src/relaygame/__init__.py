"""Relay-selection security game: solver, channel/throughput models, simulator."""

__version__ = "0.1.0"

from .errors import (
    DegenerateGameError,
    DimensionError,
    InfeasibleEquilibriumError,
    NoFeasibleMessageCountError,
    RelayGameError,
    ValidationError,
)
from .game import (
    EquilibriumSolution,
    GameParams,
    MixedStrategy,
    RelayProfile,
    TargetPartition,
    VerificationReport,
    combined_asset,
    diagnostic_attack_strategy,
    partition_targets,
    solve_equilibrium,
    verify_equilibrium,
)
from .channel import (
    LinkModel,
    OutageEstimate,
    ber_direct,
    ber_diversity,
    ber_end_to_end,
    outage_closed_form,
    outage_monte_carlo,
    outage_sr_link,
    packet_success,
)
from .throughput import (
    ArqMode,
    SecurityRequirement,
    ThroughputConfig,
    compromising_probability,
    min_auth_probability,
    optimize_messages,
    throughput_gbn,
    throughput_general,
    throughput_sr,
    window_size,
)
from .sim import (
    AttackerMode,
    CompromisePoint,
    SimConfig,
    SourceMode,
    estimate_compromise_curve,
    policy_auth_probs,
    run_simulation,
)
from .scenario import Scenario, load_scenario, presets, scenario_hash

__all__ = [name for name in dir() if not name.startswith("_")]
