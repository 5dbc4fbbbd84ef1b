"""Characterisation and reporting utilities (Figs. 4-5, 10-11)."""

from .characterization import (
    EnvCharacterisation,
    RunCharacterisation,
    characterise_env,
    record_workload,
)
from .footprint import FootprintReport, footprint_report, genes_to_bytes
from .netviz import connection_matrix, describe_genome, sparsity
from .reporting import (
    fmt_bytes,
    fmt_joules,
    fmt_seconds,
    fmt_si,
    orders_of_magnitude,
    render_distribution_table,
    render_series,
    render_table,
    summarize_distribution,
    write_csv,
    write_json,
)
from .species_tracker import SpeciesHistory, SpeciesSnapshot, track_run

__all__ = [
    "EnvCharacterisation",
    "FootprintReport",
    "RunCharacterisation",
    "characterise_env",
    "fmt_bytes",
    "fmt_joules",
    "fmt_seconds",
    "fmt_si",
    "connection_matrix",
    "describe_genome",
    "footprint_report",
    "genes_to_bytes",
    "orders_of_magnitude",
    "record_workload",
    "render_distribution_table",
    "render_series",
    "render_table",
    "sparsity",
    "SpeciesHistory",
    "SpeciesSnapshot",
    "summarize_distribution",
    "track_run",
    "write_csv",
    "write_json",
]
