"""The benchmark's per-layer spans wrap functions by name; each name must still exist."""

import collections
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_SPANS = _PERFBENCH / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "owner_path, attr", [(owner, attr) for owner, attr, _, _ in spans.HOOKS],
    ids=[f"{owner}.{attr}" for owner, attr, _, _ in spans.HOOKS],
)
def test_hook_resolves(owner_path, attr):
    owner = spans._resolve(owner_path)
    assert owner is not None, owner_path
    assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


def test_benchmark_imports_resolve(monkeypatch):
    """Every name the benchmark's kernels, workloads and spot script import from the package still exists."""
    monkeypatch.syspath_prepend(str(_PERFBENCH))
    importlib.import_module("kernels")
    importlib.import_module("workloads")
    importlib.import_module("spot")
    from campaignfx.synth import SynthVenue

    # workloads.py edits polls through this row view and assigns them back
    assert isinstance(SynthVenue.readings, property)
    assert SynthVenue.readings.fset is not None


def test_observed_fields_exist():
    """Observers read some fields through ``getattr`` defaults, so a deleted field would count 0 unnoticed."""
    from campaignfx.config import RunConfig
    from campaignfx.models import train_logistic
    from campaignfx.pipeline import load_corpus, match_stage, segment_stage
    from campaignfx.series import parse_snapshots
    from campaignfx.synth import SynthConfig, generate_corpus_data

    data = generate_corpus_data(SynthConfig(n_venues=16, days=70, promo_fraction=0.5,
                                            zero_venue_fraction=0.25, seed=5))
    lines = data.snapshot_lines()
    poll = json.loads(lines[0])
    extra = [{**poll, "venue_id": "lonely"}] + [
        {**poll, "venue_id": "noisy", "ts": day * 86400, "checkins": checkins}
        for day, checkins in enumerate((5, 3, 8))
    ]
    lines = [*lines, lines[0], *map(json.dumps, extra)]  # a duplicate poll, a one-poll venue, a decrease
    parse = parse_snapshots(lines)
    corpus = load_corpus(parse, data.offer_lines(), data.venue_lines())
    config = RunConfig(n_groups=2)
    eligibility = segment_stage(corpus, config)
    match = match_stage(corpus, eligibility, config)
    fit = train_logistic(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 0.0, 1.0]))

    assert parse.duplicate_timestamps == 1
    assert sum(dc.anomaly_count for dc in corpus.cumulative.values()) == 1
    assert corpus.short_series_venues == ["lonely"]
    assert eligibility.eligible and eligibility.skipped == []
    promo = {c.period.venue_id for c in eligibility.eligible}
    slots = sum(len(g.members) for g in match.groups) + match.exhausted_count + match.unfittable_count
    assert slots == config.n_groups * len(promo)
    assert match.zero_removed == sum(1 for v in data.venues if not v.offers and not np.any(v.daily)) > 0
    assert fit.converged is True

    counts = collections.defaultdict(float)
    spans._count_lines(counts, parse, (lines,), {})
    spans._corpus_quality(counts, corpus, (), {})
    spans._eligibility(counts, eligibility, (), {})
    spans._match(counts, match, (), {})
    spans._logistic(counts, fit, (), {})
    assert dict(counts) == {
        "series.lines": len(lines), "series.duplicate_timestamps": 1,
        "series.anomaly_count": 1, "series.short_series": 1,
        "campaign.eligible": len(eligibility.eligible), "campaign.skipped": 0,
        "cohort.filled": slots - match.exhausted_count - match.unfittable_count, "cohort.requested": slots,
        "cohort.exhausted": match.exhausted_count, "cohort.unfittable": match.unfittable_count,
        "cohort.zero_removed": match.zero_removed, "models.logistic_not_converged": 0,
    }


def test_neighbors_observer_counts_the_neighbor_argument(monkeypatch):
    """``features.neighbors_total`` is the length of ``extract_geo_features``' second positional argument."""
    from campaignfx import pipeline
    from campaignfx.config import RunConfig
    from campaignfx.features import neighborhood
    from campaignfx.geo import RadiusIndex
    from campaignfx.series import parse_snapshots
    from campaignfx.synth import SynthConfig, generate_corpus_data

    (owner, attr, name, observe), = [h for h in spans.HOOKS if h[1] == "extract_geo_features"]
    data = generate_corpus_data(SynthConfig(n_venues=24, days=70, promo_fraction=0.5, seed=6))
    corpus = pipeline.load_corpus(parse_snapshots(data.snapshot_lines()), data.offer_lines(), data.venue_lines())
    config = RunConfig(radius_miles=5.0)
    eligibility = pipeline.segment_stage(corpus, config)
    tracer = spans.Tracer()
    module = spans._resolve(owner)
    monkeypatch.setattr(module, attr, tracer.wrap(getattr(module, attr), name, observe))
    pipeline.features_stage(corpus, eligibility, [], config)

    index = RadiusIndex(corpus.profiles)
    profile_of = {p.venue_id: p for p in corpus.profiles}
    expected = sum(len(neighborhood(profile_of[c.period.venue_id], index, config.radius_miles))
                   for c in eligibility.eligible if c.period.venue_id in profile_of)
    assert tracer.missing == []
    assert tracer.calls[name] == len(eligibility.eligible)
    assert tracer.counts["features.neighbors_total"] == expected > 0
