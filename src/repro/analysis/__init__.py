"""Analysis utilities: CDFs, parameter-evolution statistics, report tables.

These back the paper's Fig. 2 (how parameters evolve during EXTRA
iterations) and the plain-text tables the benchmark harness prints for every
reproduced figure.
"""

from repro.analysis.cdf import fraction_below
from repro.analysis.estimates import (
    mlp_parameter_count,
    neighbor_exchange_traffic,
    parameter_server_traffic,
)
from repro.analysis.evolution import EvolutionSnapshot, ParameterEvolutionRecorder
from repro.analysis.plots import sparkline, trace_panel
from repro.analysis.reporting import ascii_table, format_bytes

__all__ = [
    "fraction_below",
    "mlp_parameter_count",
    "neighbor_exchange_traffic",
    "parameter_server_traffic",
    "EvolutionSnapshot",
    "ParameterEvolutionRecorder",
    "sparkline",
    "trace_panel",
    "ascii_table",
    "format_bytes",
]
