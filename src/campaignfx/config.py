"""Run configuration: the bootstrap test's ``TestConfig`` extended by the other analysis knobs.

Each default is the constant of the module that owns the analysis step.
Values come from, in increasing priority: built-in defaults, the
``CAMPAIGNFX_SEED`` environment variable (seed only), a ``key = value``
config file, and command-line flags.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Optional

from .cohort import MATCH_CELL_DEG, N_REFERENCE_GROUPS
from .effect import Horizon, TestConfig
from .errors import InvalidConfig
from .features import NEIGHBORHOOD_RADIUS_MILES
from .learn import CV_FOLDS
from .series import AFTER_MAX_DAYS, AFTER_MIN_DAYS, BEFORE_DAYS, MIN_CAMPAIGN_DAYS


CGROUP_ROOT = Path("/sys/fs/cgroup")  # read, never written


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one, else the CPU count,
    and at most ceil(quota / period) under a cgroup CPU quota (v2 ``cpu.max``, else v1 ``cpu.cfs_*_us``).

    A quota that is missing, unparsable, or unlimited (``max``, ``-1``) sets no limit.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    v2 = CGROUP_ROOT / "cpu.max"
    v1 = [CGROUP_ROOT / "cpu" / f"cpu.cfs_{part}_us" for part in ("quota", "period")]
    try:
        quota, period = map(int, v2.read_text().split() if v2.exists() else [f.read_text() for f in v1])
    except (OSError, ValueError):
        return cpus
    return min(cpus, math.ceil(quota / period)) if quota > 0 and period > 0 else cpus


@dataclass(frozen=True)
class RunConfig(TestConfig):
    k: int = BEFORE_DAYS                   # baseline window length (days)
    w_max: int = AFTER_MAX_DAYS            # post-campaign window cap (days)
    min_duration: int = MIN_CAMPAIGN_DAYS  # minimum campaign duration (days)
    radius_miles: float = NEIGHBORHOOD_RADIUS_MILES
    grid_deg: float = MATCH_CELL_DEG       # matching cell size (degrees)
    n_groups: int = N_REFERENCE_GROUPS
    folds: int = CV_FOLDS
    jobs: int = field(default_factory=usable_cpus)  # worker processes, at most; outputs do not depend on it
    horizon: str = "both"                  # short | long | both

    @property
    def horizons(self) -> tuple[Horizon, ...]:
        """The horizons ``horizon`` selects, in ``Horizon`` order; none for a value that names none."""
        return tuple(h for h in Horizon if self.horizon in (h.flag, "both"))

    def validate(self, origin: Optional[Mapping[str, str]] = None) -> None:
        """Raise ``InvalidConfig`` for the first knob out of range; ``origin`` prefixes a knob's message."""
        for name, ok, rule in (
            ("alpha", 0.0 < self.alpha < 1.0, "must be in (0, 1)"),
            ("bootstraps", self.bootstraps >= 1, "must be >= 1"),
            ("block_len", self.block_len >= 1, "must be >= 1"),
            ("power_min", 0.0 <= self.power_min <= 1.0, "must be in [0, 1]"),
            ("k", self.k >= 2, "must be >= 2"),
            # a shorter cap could never admit an after window
            ("w_max", self.w_max >= AFTER_MIN_DAYS, f"must be >= {AFTER_MIN_DAYS}"),
            ("min_duration", self.min_duration >= 2, "must be >= 2"),
            ("radius_miles", 0 < self.radius_miles < math.inf, "must be positive and finite"),
            ("grid_deg", 0 < self.grid_deg < math.inf, "must be positive and finite"),
            ("n_groups", self.n_groups >= 1, "must be >= 1"),
            ("folds", self.folds >= 2, "must be >= 2"),
            ("jobs", self.jobs >= 1, "must be >= 1"),
            ("horizon", bool(self.horizons), "must be short, long, or both"),
        ):
            if not ok:
                raise InvalidConfig(f"{(origin or {}).get(name, '')}{name} {rule}")

    def as_dict(self) -> dict:
        # jobs is an execution detail: results are identical under any worker
        # count, and reports must be byte-identical across --jobs settings
        return {f.name: getattr(self, f.name) for f in fields(RunConfig) if f.name != "jobs"}


def parse_config_file(text: str) -> dict[str, tuple[int, str]]:
    """Parse ``key = value`` lines into ``key -> (line number, value)``; ``#`` starts a comment."""
    out: dict[str, tuple[int, str]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"config line {line_no}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip()] = (line_no, value.strip().strip("\"'"))
    return out


def build_run_config(
    file_values: Optional[Mapping[str, tuple[int, str]]] = None,
    overrides: Optional[Mapping[str, object]] = None,
    env: Optional[Mapping[str, str]] = None,
    file_name: str = "config file",
) -> RunConfig:
    """Merge defaults, environment seed, the ``parse_config_file`` values of the file ``file_name``, and flag overrides.

    An error in a value the file set, or kept, names ``file_name`` and the line.
    """
    env = os.environ if env is None else env
    defaults = RunConfig()
    values: dict[str, object] = {}
    origin: dict[str, str] = {}  # knob -> "<file>: config line N: " while the file's value stands
    # (knob, value, message prefix) in increasing priority: environment seed, file values, flags
    entries = [("seed", env["CAMPAIGNFX_SEED"], "")] if "CAMPAIGNFX_SEED" in env else []
    entries += [(key, value, f"{file_name}: config line {line_no}: ")
                for key, (line_no, value) in (file_values or {}).items()]
    entries += [(key, value, "") for key, value in (overrides or {}).items() if value is not None]
    for name, value, where in entries:
        if name not in vars(defaults):
            raise InvalidConfig(f"{where}unknown config key {name!r}")
        try:
            values[name] = type(getattr(defaults, name))(str(value))
        except ValueError as exc:
            raise InvalidConfig(f"{where}config key {name!r}: {exc}") from exc
        origin[name] = where
    config = replace(defaults, **values)
    config.validate(origin)
    return config
