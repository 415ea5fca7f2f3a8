"""Kernel measurements under the pipeline stages, on seeded fixed inputs.

Each kernel is timed in-process over several repetitions and reported as
the median. Inputs depend only on the seed, not on the workload, so the
kernel figures mean the same thing on every workload.
"""

from __future__ import annotations

import statistics
import time

from campaignfx.cohort import parse_venues
from campaignfx.config import RunConfig
from campaignfx.effect import Horizon, TestConfig, evaluate_effect
from campaignfx.features import design_matrix
from campaignfx.geo import RadiusIndex
from campaignfx.learn import Dataset
from campaignfx.models import ForestConfig, train_forest
from campaignfx.pipeline import features_stage, load_corpus, segment_stage, test_stage
from campaignfx.rng import derive_rng
from campaignfx.series import parse_snapshots

from workloads import WORKLOADS, corpus_lines

EFFECT_CALLS = 40
EFFECT_WARMUP = 5
REPEATS = 3
PARSE_LINES = 20_000
ALL_FEATURE_SETS = ("F_p", "F_v", "F_g")


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def effect_window_ms(seed: int, other_days: int) -> float:
    """One ``evaluate_effect`` call on a 28-day baseline vs ``other_days``."""
    data = derive_rng(seed, "kernel-effect").poisson(6.0, size=(EFFECT_CALLS, 28 + other_days))
    config = TestConfig(seed=seed)
    for row in data[:EFFECT_WARMUP].astype(float):
        evaluate_effect(row[:28], row[28:], Horizon.LONG_TERM, config, derive_rng(seed))
    times = []
    for i, row in enumerate(data.astype(float)):
        rng = derive_rng(seed, "kernel-effect", other_days, i)
        start = time.perf_counter()
        evaluate_effect(row[:28], row[28:], Horizon.LONG_TERM, config, rng)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def classify_design_matrix(seed: int):
    """Short-term design matrix over all feature sets of the classify corpus."""
    lines = corpus_lines(WORKLOADS["classify"], seed)
    corpus = load_corpus(lines["snapshots.jsonl"], lines["offers.jsonl"], lines["venues.jsonl"])
    config = RunConfig(seed=seed, horizon="short")
    eligibility = segment_stage(corpus, config)
    effects = test_stage(corpus, eligibility, config)
    ds = Dataset.from_rows(features_stage(corpus, eligibility, effects, config))
    X, _ = design_matrix(ds.rows, ALL_FEATURE_SETS)
    return X, ds.y


def measure(seed: int) -> dict[str, float]:
    out = {
        "effect.window_ms_28x14": effect_window_ms(seed, 14),
        "effect.window_ms_28x28": effect_window_ms(seed, 28),
    }

    X, y = classify_design_matrix(seed)
    out["kernel.forest_fit_s"] = _median_seconds(
        lambda: train_forest(X, y, derive_rng(seed, "kernel-forest"), ForestConfig()), REPEATS)

    dense = corpus_lines(WORKLOADS["ingest-dense"], seed)
    profiles = parse_venues(dense["venues.jsonl"]).profiles
    radius = RunConfig().radius_miles
    index = RadiusIndex(profiles, cell_deg=radius / 60.0)

    def query_all():
        for p in profiles:
            index.within_radius(p.lat, p.lon, radius)

    out["kernel.within_radius_us"] = _median_seconds(query_all, REPEATS) / len(profiles) * 1e6

    snapshot_lines = dense["snapshots.jsonl"][:PARSE_LINES]
    out["kernel.parse_us_per_line"] = (
        _median_seconds(lambda: parse_snapshots(snapshot_lines), REPEATS)
        / len(snapshot_lines) * 1e6)
    return out
