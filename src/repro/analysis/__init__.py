"""Characterisation and reporting utilities (Figs. 4-5, 10-11)."""

from .characterization import (
    EnvCharacterisation,
    RunCharacterisation,
    characterise_env,
)
from .netviz import describe_genome
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

__all__ = [
    "EnvCharacterisation",
    "RunCharacterisation",
    "characterise_env",
    "fmt_bytes",
    "fmt_joules",
    "fmt_seconds",
    "fmt_si",
    "describe_genome",
    "orders_of_magnitude",
    "render_distribution_table",
    "render_series",
    "render_table",
    "summarize_distribution",
    "write_csv",
    "write_json",
]
