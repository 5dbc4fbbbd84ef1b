"""GeneSys core: the SoC model and workload traces."""

from .config import GeneSysConfig
from .runner import config_for_env
from .soc import GenerationReport, GeneSysSoC
from .trace import (
    GenerationWorkload,
    TraceRecorder,
    WorkloadTrace,
)

__all__ = [
    "GeneSysConfig",
    "GeneSysSoC",
    "GenerationReport",
    "GenerationWorkload",
    "TraceRecorder",
    "WorkloadTrace",
    "config_for_env",
]
