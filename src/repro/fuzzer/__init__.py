"""Greybox fuzzing engine: queue, mutators, scheduling, virtual clock."""

from repro.fuzzer.campaign import CampaignResult, replay_edge_coverage
from repro.fuzzer.clock import TICKS_PER_HOUR, VirtualClock, hours_to_ticks
from repro.fuzzer.cmin import coverage_of, minimize_corpus
from repro.fuzzer.corpus import Queue, QueueEntry
from repro.fuzzer.engine import (
    CrashRecord,
    EngineConfig,
    FuzzEngine,
    afl_engine_config,
)
from repro.fuzzer.parallel import (
    CellFailure,
    ParallelMatrixError,
    run_cells,
    run_instance_campaign,
)
from repro.fuzzer.stats import CampaignStats, MatrixProgress

__all__ = [
    "FuzzEngine",
    "EngineConfig",
    "afl_engine_config",
    "CrashRecord",
    "Queue",
    "QueueEntry",
    "VirtualClock",
    "hours_to_ticks",
    "TICKS_PER_HOUR",
    "CampaignResult",
    "replay_edge_coverage",
    "minimize_corpus",
    "coverage_of",
    "CellFailure",
    "ParallelMatrixError",
    "run_cells",
    "run_instance_campaign",
    "CampaignStats",
    "MatrixProgress",
]
