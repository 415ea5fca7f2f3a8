import numpy as np
import pytest

from campaignfx import pipeline
from campaignfx.config import RunConfig
from campaignfx.effect import EffectLabel, Horizon
from campaignfx.errors import IneligibleCampaign, InsufficientData
from campaignfx.pipeline import test_stage as run_test_stage
from campaignfx.pipeline import (
    build_corpus,
    features_stage,
    load_corpus,
    match_stage,
    read_effects_csv,
    read_groups_csv,
    reference_test_stage,
    segment_stage,
    write_effects_csv,
    write_groups_csv,
)
from campaignfx.synth import SynthConfig, generate_corpus_data


def fast_config(**kw):
    defaults = dict(bootstraps=499, seed=11, n_groups=4)
    defaults.update(kw)
    return RunConfig(**defaults)


def mixed_corpus(seed=5, n_each=25):
    """Two concatenated corpora: one with lifts, one with declines."""
    lifted = generate_corpus_data(SynthConfig(
        n_venues=n_each, days=100, promo_fraction=0.5, effect_multiplier=1.2,
        base_rate_log_mean=1.6, base_rate_log_sd=0.3, seed=seed, venue_prefix="a",
    ))
    declining = generate_corpus_data(SynthConfig(
        n_venues=n_each, days=100, promo_fraction=0.5, effect_multiplier=0.0,
        platform_trend_per_day=-0.012, base_rate_log_mean=1.6, base_rate_log_sd=0.3,
        seed=seed + 1, venue_prefix="b",
    ))
    snapshots = {**lifted.snapshots, **declining.snapshots}
    offers = lifted.offers + declining.offers
    profiles = lifted.profiles + declining.profiles
    return build_corpus(snapshots, offers, profiles)


@pytest.fixture(scope="module")
def corpus():
    return mixed_corpus()


@pytest.fixture(scope="module")
def eligibility(corpus):
    return segment_stage(corpus, fast_config())


@pytest.fixture(scope="module")
def effects(corpus, eligibility):
    return run_test_stage(corpus, eligibility, fast_config())


class TestStages:
    def test_corpus_loaded(self, corpus):
        assert len(corpus.series) == 50
        assert len(corpus.periods) == 24  # 12 + 12 promoted venues, 1 period each

    def test_eligibility(self, corpus, eligibility):
        assert len(eligibility.eligible) >= 20
        for c in eligibility.eligible:
            assert c.period.duration >= 7

    def test_effects_have_both_horizons(self, effects):
        horizons = {e.horizon for e in effects}
        assert Horizon.SHORT_TERM in horizons and Horizon.LONG_TERM in horizons

    def test_labels_mixed(self, effects):
        labels = {e.result.label for e in effects}
        assert EffectLabel.SIGNIFICANT_INCREASE in labels
        assert EffectLabel.SIGNIFICANT_DECREASE in labels

    def test_effect_results_deterministic(self, corpus, eligibility, effects):
        again = run_test_stage(corpus, eligibility, fast_config())
        assert write_effects_csv(again) == write_effects_csv(effects)

    def test_jobs_do_not_change_results(self, corpus, eligibility, effects):
        parallel = run_test_stage(corpus, eligibility, fast_config(jobs=2))
        assert write_effects_csv(parallel) == write_effects_csv(effects)

    def test_match_and_reference(self, corpus, eligibility):
        config = fast_config()
        match = match_stage(corpus, eligibility, config)
        assert len(match.groups) == 4
        members = [m for g in match.groups for m in g.members]
        assert members, "some reference members matched"
        assert len({m.venue_id for m in members}) == len(members)
        reference = reference_test_stage(corpus, match.groups, config)
        assert reference
        assert all(e.group_id is not None for e in reference)

    def test_features_join_labels(self, corpus, eligibility, effects):
        rows = features_stage(corpus, eligibility, effects, fast_config())
        keyed = {(e.venue_id, e.start_day, e.horizon) for e in effects}
        assert len(rows) == len(keyed)
        for row in rows[:20]:
            assert row.label is not None
            assert row.promo.duration >= 7


class TestMakeTasks:
    def _window(self, corpus):
        venue_id = sorted(corpus.series)[0]
        return [(venue_id, 40, 50, None)]

    def test_short_history_window_is_skipped(self, corpus):
        venue_id, series = sorted(corpus.series.items())[0]
        window = [(venue_id, series.origin_day, series.origin_day + 10, None)]
        assert pipeline._make_tasks(corpus, window, fast_config()) == []
        assert pipeline._make_tasks(corpus, self._window(corpus), fast_config())

    @pytest.mark.parametrize("error", [IneligibleCampaign("ShortHistory"), InsufficientData("gap")])
    def test_ineligible_window_is_skipped(self, corpus, monkeypatch, error):
        def refuse(*args, **kwargs):
            raise error
        monkeypatch.setattr(pipeline, "segment", refuse)
        assert pipeline._make_tasks(corpus, self._window(corpus), fast_config()) == []

    @pytest.mark.parametrize("error", [RuntimeError("bug"), ValueError("bad"), KeyError("x")])
    def test_other_errors_propagate(self, corpus, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error
        monkeypatch.setattr(pipeline, "segment", broken)
        with pytest.raises(type(error)):
            pipeline._make_tasks(corpus, self._window(corpus), fast_config())


class TestCsvRoundTrips:
    def test_effects_roundtrip(self, effects):
        text = write_effects_csv(effects)
        back = read_effects_csv(text)
        assert write_effects_csv(back) == text

    def test_groups_roundtrip(self, corpus, eligibility):
        match = match_stage(corpus, eligibility, fast_config())
        text = write_groups_csv(match.groups)
        back = read_groups_csv(text)
        assert write_groups_csv(back) == text


class TestLoadCorpusFromLines:
    def test_jsonl_path_equivalent_to_structured(self):
        synth = generate_corpus_data(SynthConfig(
            n_venues=10, days=80, promo_fraction=0.4, effect_multiplier=0.5, seed=9,
        ))
        from_lines = load_corpus(
            synth.snapshot_lines(), synth.offer_lines(), synth.venue_lines()
        )
        structured = build_corpus(synth.snapshots, synth.offers, synth.profiles)
        assert from_lines.periods == structured.periods
        for venue_id, ds in structured.series.items():
            assert np.allclose(from_lines.series[venue_id].values, ds.values)
