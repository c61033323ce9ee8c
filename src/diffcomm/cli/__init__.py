"""Experiment harness: config schema, seeded runners, CSV emission."""

from .config import (
    Cell,
    ChannelConfig,
    CodecConfig,
    ExperimentConfig,
    ModeConfig,
    OutputConfig,
    ScheduleConfig,
    SourceConfig,
    SweepConfig,
    TrainSection,
    parse_config,
    resolved_config,
)
from .main import main
from .run import RunResult, emit_csv, render_report, run_simulate, run_sweep, run_train

__all__ = [
    "Cell",
    "ChannelConfig",
    "CodecConfig",
    "ExperimentConfig",
    "ModeConfig",
    "OutputConfig",
    "RunResult",
    "ScheduleConfig",
    "SourceConfig",
    "SweepConfig",
    "TrainSection",
    "emit_csv",
    "main",
    "parse_config",
    "render_report",
    "resolved_config",
    "run_simulate",
    "run_sweep",
    "run_train",
]
