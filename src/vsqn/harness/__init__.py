"""Experiment harness: CLI, configs, CSV logs, presets, verification oracles."""

from .checks import FdReport, RateFit, fd_check, rate_fit, sparsity_count
from .config import ExperimentConfig, build_problem, load_config
from .logs import CSV_HEADER, read_csv, read_summary, write_csv, write_summary
from .presets import PRESET_NAMES, preset_cells

__all__ = [
    "FdReport", "RateFit", "fd_check", "rate_fit", "sparsity_count",
    "ExperimentConfig", "build_problem", "load_config",
    "CSV_HEADER", "read_csv", "read_summary", "write_csv", "write_summary",
    "PRESET_NAMES", "preset_cells",
]
