"""Outside-in span tracing of campaignfx, installed without editing its files.

``install`` replaces public functions at the module attribute their callers
look up (``cli.test_stage``, ``pipeline.parse_snapshots``, ...) with wrappers
that record a span and, for some, counts taken from the arguments or the
result. Spans nest on one stack, so each span's self time is its duration
minus the time covered by the spans it caused. Counts only ever add up, so
snapshots from several processes merge by summing. Work done inside pool
workers is invisible here; it shows as the self time of the span that waits
for the pool.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list] = []  # [name, start, time covered by child spans]

    def begin(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self) -> None:
        name, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, fn, name, observe=None):
        """``name`` is a span name, or a function of (args, kwargs) giving one."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if observe is not None:
                try:
                    observe(self.counts, result, args, kwargs)
                except (AttributeError, TypeError, ValueError, KeyError, IndexError):
                    # the program's return shapes changed; say so, keep running
                    where = f"{fn.__module__}.{fn.__qualname__} counts"
                    if where not in self.missing:
                        self.missing.append(where)
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def merge(snapshots: list[dict]) -> dict:
    """Sum the snapshots of the processes that ran one iteration's commands."""
    out: dict = {"self_s": defaultdict(float), "calls": defaultdict(int),
                 "counts": defaultdict(float), "missing": []}
    for snap in snapshots:
        for key in ("self_s", "calls", "counts"):
            for name, value in snap[key].items():
                out[key][name] += value
        out["missing"] += [m for m in snap["missing"] if m not in out["missing"]]
    return {key: dict(value) if key != "missing" else value for key, value in out.items()}


def _count_lines(counts, result, args, kwargs):
    counts["series.lines"] += len(args[0]) if args and hasattr(args[0], "__len__") else 0
    counts["series.duplicate_timestamps"] += getattr(result, "duplicate_timestamps", 0)


def _corpus_quality(counts, result, args, kwargs):
    cumulative = getattr(result, "cumulative", {})
    counts["series.anomaly_count"] += sum(getattr(dc, "anomaly_count", 0) for dc in cumulative.values())
    counts["series.short_series"] += len(getattr(result, "short_series_venues", ()))


def _eligibility(counts, result, args, kwargs):
    counts["campaign.eligible"] += len(result.eligible)
    counts["campaign.skipped"] += len(result.skipped)


def _windows(key):
    def observe(counts, result, args, kwargs):
        counts[key] += len(result)
    return observe


def _match(counts, result, args, kwargs):
    filled = sum(len(g.members) for g in result.groups)
    counts["cohort.filled"] += filled
    counts["cohort.requested"] += filled + result.exhausted_count + result.unfittable_count
    counts["cohort.exhausted"] += result.exhausted_count
    counts["cohort.unfittable"] += result.unfittable_count
    counts["cohort.zero_removed"] += result.zero_removed


def _neighbors(counts, result, args, kwargs):
    counts["features.neighbors_total"] += len(args[1])


def _trained(counts, result, args, kwargs):
    records, _ = result
    counts["learn.configs_skipped"] += sum(1 for r in records if "skipped" in r)


def _logistic(counts, result, args, kwargs):
    counts["models.logistic_not_converged"] += 0 if getattr(result, "converged", True) else 1


def _cv_name(args, kwargs):
    kind = kwargs.get("kind", args[1] if len(args) > 1 else "unknown")
    return f"learn.cv_{kind}"


# (module, attribute looked up by the caller, span name, observer)
HOOKS = (
    ("campaignfx.cli", "load_corpus", "pipeline.load", _corpus_quality),
    ("campaignfx.pipeline", "parse_snapshots", "series.parse", _count_lines),
    ("campaignfx.pipeline", "interpolate_daily", "series.interpolate", None),
    ("campaignfx.pipeline", "daily_checkins", "series.interpolate", None),
    ("campaignfx.cli", "segment_stage", "campaign.segment", _eligibility),
    ("campaignfx.cli", "test_stage", "effect.test", _windows("effect.windows_promo")),
    ("campaignfx.cli", "reference_test_stage", "effect.ref_test", _windows("effect.windows_ref")),
    ("campaignfx.cli", "match_stage", "cohort.match", _match),
    ("campaignfx.cli", "features_stage", "features.stage", None),
    ("campaignfx.pipeline", "extract_geo_features", "features.geo", _neighbors),
    ("campaignfx.pipeline", "RadiusIndex", "geo.index_build", None),
    ("campaignfx.geo.RadiusIndex", "within_radius", "geo.query", None),
    ("campaignfx.cli", "train_models", "learn.train", _trained),
    ("campaignfx.report", "cross_validate", _cv_name, None),
    ("campaignfx.learn", "train_logistic", "models.logistic_fit", _logistic),
    ("campaignfx.learn", "train_forest", "models.forest_fit", None),
    ("campaignfx.cli", "build_report", "report.build", None),
)


def _resolve(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ImportError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr, None)


def install(tracer: Tracer) -> None:
    """Wrap every hook that exists; record the ones that do not."""
    for owner_path, attr, name, observe in HOOKS:
        owner = _resolve(owner_path)
        fn = getattr(owner, attr, None)
        if fn is None:
            tracer.missing.append(f"{owner_path}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(fn, name, observe))
