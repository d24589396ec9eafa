"""Experiment harness reproducing the paper's evaluation (§6)."""

from repro.experiments.config import (
    DEFAULT,
    LARGE,
    PRESETS,
    SMOKE,
    ExperimentScale,
    get_scale,
)
from repro.experiments.networks import benchmark_network, table2_statistics
from repro.experiments.runners import ALGORITHMS, RunRecord
from repro.experiments import figures, tables
from repro.experiments.figures import (
    figure3,
    figure4,
    figure5,
    figure6_blocking,
    figure6_items,
    figure6_scalability,
    figure7,
)
from repro.experiments.tables import table2, table5, table6
from repro.experiments.reporting import format_table, summarize_by

__all__ = [
    "ExperimentScale",
    "SMOKE",
    "DEFAULT",
    "LARGE",
    "PRESETS",
    "get_scale",
    "benchmark_network",
    "table2_statistics",
    "ALGORITHMS",
    "RunRecord",
    "figures",
    "tables",
    "figure3",
    "figure4",
    "figure5",
    "figure6_items",
    "figure6_blocking",
    "figure6_scalability",
    "figure7",
    "table2",
    "table5",
    "table6",
    "format_table",
    "summarize_by",
]
