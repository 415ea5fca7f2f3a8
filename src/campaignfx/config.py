"""Run configuration: analysis knobs with their standard defaults.

Each default is the constant of the module that owns the analysis step.
Values come from, in increasing priority: built-in defaults, the
``CAMPAIGNFX_SEED`` environment variable (seed only), a ``key = value``
config file, and command-line flags.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import Mapping, Optional

from .cohort import MATCH_CELL_DEG, N_REFERENCE_GROUPS
from .effect import DEFAULT_ALPHA, DEFAULT_BLOCK_LEN, DEFAULT_BOOTSTRAPS, DEFAULT_POWER_MIN, Horizon
from .errors import InvalidConfig
from .features import NEIGHBORHOOD_RADIUS_MILES
from .learn import CV_FOLDS
from .series import AFTER_MAX_DAYS, AFTER_MIN_DAYS, BEFORE_DAYS, MIN_CAMPAIGN_DAYS



@dataclass
class RunConfig:
    alpha: float = DEFAULT_ALPHA
    bootstraps: int = DEFAULT_BOOTSTRAPS
    block_len: int = DEFAULT_BLOCK_LEN
    power_min: float = DEFAULT_POWER_MIN
    k: int = BEFORE_DAYS                   # baseline window length (days)
    w_max: int = AFTER_MAX_DAYS            # post-campaign window cap (days)
    min_duration: int = MIN_CAMPAIGN_DAYS  # minimum campaign duration (days)
    radius_miles: float = NEIGHBORHOOD_RADIUS_MILES
    grid_deg: float = MATCH_CELL_DEG       # matching cell size (degrees)
    n_groups: int = N_REFERENCE_GROUPS
    folds: int = CV_FOLDS
    seed: int = 0
    jobs: int = 1
    horizon: str = "both"                  # short | long | both

    @property
    def horizons(self) -> tuple[Horizon, ...]:
        """The horizons ``horizon`` selects, in ``Horizon`` order; none for a value that names none."""
        return tuple(h for h in Horizon if self.horizon in (h.flag, "both"))

    def validate(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise InvalidConfig("alpha must be in (0, 1)")
        if self.bootstraps < 1:
            raise InvalidConfig("bootstraps must be >= 1")
        if self.block_len < 1:
            raise InvalidConfig("block_len must be >= 1")
        if not 0.0 <= self.power_min <= 1.0:
            raise InvalidConfig("power_min must be in [0, 1]")
        if self.k < 2:
            raise InvalidConfig("k must be >= 2")
        if self.w_max < AFTER_MIN_DAYS:  # a shorter cap could never admit an after window
            raise InvalidConfig(f"w_max must be >= {AFTER_MIN_DAYS}")
        if self.min_duration < 2:
            raise InvalidConfig("min_duration must be >= 2")
        if not 0 < self.radius_miles < math.inf:
            raise InvalidConfig("radius_miles must be positive and finite")
        if not 0 < self.grid_deg < math.inf:
            raise InvalidConfig("grid_deg must be positive and finite")
        if self.n_groups < 1:
            raise InvalidConfig("n_groups must be >= 1")
        if self.folds < 2:
            raise InvalidConfig("folds must be >= 2")
        if self.jobs < 1:
            raise InvalidConfig("jobs must be >= 1")
        if not self.horizons:
            raise InvalidConfig("horizon must be short, long, or both")

    def as_dict(self) -> dict:
        # jobs is an execution detail: results are identical under any worker
        # count, and reports must be byte-identical across --jobs settings
        return {f.name: getattr(self, f.name) for f in fields(RunConfig) if f.name != "jobs"}


def parse_config_file(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"config line {line_no}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip().strip("\"'")
    return out


def build_run_config(
    file_values: Optional[Mapping[str, str]] = None,
    overrides: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, str]] = None,
) -> RunConfig:
    """Merge defaults, environment seed, a config file's ``parse_config_file`` values, and flag overrides."""
    env = os.environ if env is None else env
    config = RunConfig()
    field_types = {f.name: f.type for f in fields(RunConfig)}

    def apply(name: str, value: object, source: str) -> None:
        if name not in field_types:
            raise InvalidConfig(f"unknown config key {name!r} ({source})")
        current = getattr(config, name)
        try:
            if isinstance(current, int):
                coerced: object = int(str(value))
            elif isinstance(current, float):
                coerced = float(str(value))
            else:
                coerced = str(value)
        except ValueError as exc:
            raise InvalidConfig(f"config key {name!r}: {exc}") from exc
        setattr(config, name, coerced)

    if "CAMPAIGNFX_SEED" in env:
        apply("seed", env["CAMPAIGNFX_SEED"], "environment")
    if file_values:
        for key, value in file_values.items():
            apply(key, value, "config file")
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                apply(key, value, "flag")
    config.validate()
    return config
