"""Optimal 1-bit surface phase configuration via divide-and-sort, with baselines."""

from .baselines import (
    EXHAUSTIVE_LIMIT,
    ExhaustiveLimitError,
    continuous_upper_bound,
    exhaustive_search,
    greedy_bitflip,
    random_best_of_k,
)
from .das import das_solve
from .harness import (
    AggregateRow,
    ExperimentPlan,
    PlanError,
    TrialRecord,
    aggregate,
    run_plan,
    trial_seeds,
    write_aggregate_csv,
    write_trial_csv,
)
from .model import (
    ChannelFormatError,
    ChannelParams,
    ChannelRealization,
    PhaseConfig,
    Solution,
    composite_phi,
    generate_channel,
    read_channel_csv,
    received_power,
    snr_db,
    write_channel_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRow",
    "ChannelFormatError",
    "ChannelParams",
    "ChannelRealization",
    "EXHAUSTIVE_LIMIT",
    "ExhaustiveLimitError",
    "ExperimentPlan",
    "PhaseConfig",
    "PlanError",
    "Solution",
    "TrialRecord",
    "aggregate",
    "composite_phi",
    "continuous_upper_bound",
    "das_solve",
    "exhaustive_search",
    "generate_channel",
    "greedy_bitflip",
    "random_best_of_k",
    "read_channel_csv",
    "received_power",
    "run_plan",
    "snr_db",
    "trial_seeds",
    "write_aggregate_csv",
    "write_channel_csv",
    "write_trial_csv",
    "__version__",
]
