"""Run settings: the one settings object of a run, and the error for a
setting a backend cannot run without.

This module imports only the standard library, so the command line can read
its defaults without loading a backend or the benchmark harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["BenchmarkConfig", "MissingSetting"]


class MissingSetting(ValueError):
    """The chosen backend kind lacks a setting it cannot run without."""


@dataclass
class BenchmarkConfig:
    cases_dir: str
    generations_per_case: int = 5
    iterations: int = 10
    early_stop: bool = False
    trials: int = 6
    master_seed: int = 0
    backend: str = "synthetic"
    parallelism: int = 1
    # synthetic backend
    p_fix: float = 0.55
    p_spawn: float = 0.15
    stubborn_fraction: float = 0.25
    initial_defects_min: int = 6
    initial_defects_max: int = 10
    # scripted backend
    script_dir: Optional[str] = None
    # http backend
    api_base_url: Optional[str] = None
    model: str = "gpt-4o"
    temperature: float = 0.0
    schemas_dir: Optional[str] = None
    traces_dir: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("generations_per_case", "iterations", "trials", "parallelism"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # No request can carry NaN or infinity; NaN fails every comparison.
        if not self.model:
            raise ValueError("model must be non-empty")
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")

    def to_dict(self) -> dict:
        # parallelism and traces_dir are execution details, not experiment
        # parameters; leaving them out keeps results files byte-identical
        # across schedules and output locations.  temperature and early_stop
        # are left out because only loop sets them, and loop writes no
        # results file.
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("parallelism", "traces_dir", "temperature", "early_stop")
        }
