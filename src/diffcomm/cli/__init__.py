"""Experiment harness: config schema, seeded runners, CSV emission."""

from .config import ExperimentConfig, parse_config, resolved_config
from .run import RunResult, emit_csv, render_report, run_simulate, run_sweep, run_train

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "emit_csv",
    "parse_config",
    "render_report",
    "resolved_config",
    "run_simulate",
    "run_sweep",
    "run_train",
]
