import dataclasses
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor

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
        horizons = {e.result.horizon for e in effects}
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

    def test_pool_starts_no_more_workers_than_tasks(self, corpus, eligibility, monkeypatch):
        started = []

        class CountingPool(ProcessPoolExecutor):
            def __exit__(self, *exc_info):
                started.append(len(self._processes))
                return super().__exit__(*exc_info)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", CountingPool)
        windows = [(c.period.venue_id, None, c.segments) for c in eligibility.eligible[:2]]
        config = fast_config(horizon="short", jobs=4)
        effects = pipeline._run_effect_tasks(windows, config)
        assert started == [2]
        assert effects == pipeline._run_effect_tasks(windows, dataclasses.replace(config, jobs=1))

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
        keyed = {(e.venue_id, e.start_day, e.result.horizon) for e in effects}
        assert len(rows) == len(keyed)
        for row in rows[:20]:
            assert row.label is not None
            assert row.values["duration"] >= 7
        # the horizons of one campaign share no values dict, so editing one row leaves the other
        by_campaign = {}
        for row in rows:
            by_campaign.setdefault((row.venue_id, row.start_day), []).append(row)
        pairs = [pair for pair in by_campaign.values() if len(pair) == 2]
        assert pairs
        for short, long in pairs:
            assert short.values == long.values and short.values is not long.values


_affinity_calls = []  # this process's sched_setaffinity arguments; a forked worker appends to its copy


def _worker_affinity_calls(_):
    time.sleep(0.2)  # long enough that every worker takes a task
    return os.getpid(), list(_affinity_calls)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
@pytest.mark.usefixtures("fork_start_method")
def test_pool_workers_start_on_distinct_cpus(monkeypatch):
    """Each worker is first moved to its own allowed CPU, then allowed every CPU again."""
    real = os.sched_setaffinity

    def recording(pid, cpus):
        _affinity_calls.append(set(cpus))
        real(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recording)
    allowed = os.sched_getaffinity(0)
    calls = dict(pipeline.fan_out(_worker_affinity_calls, range(4), 2))
    assert _affinity_calls == []  # nothing moved this process
    assert len(calls) == 2
    firsts = []
    for first, restored in calls.values():
        assert len(first) == 1 and first <= allowed and restored == allowed
        firsts.append(min(first))
    assert len(set(firsts)) == min(2, len(allowed))


class TestMakeTasks:
    def _window(self, corpus):
        venue_id = sorted(corpus.series)[0]
        return [(venue_id, 40, 50, None)]

    def test_short_history_window_is_skipped(self, corpus):
        venue_id, series = sorted(corpus.series.items())[0]
        window = [(venue_id, 0, 10, None)]
        assert pipeline._segment_windows(corpus, window, fast_config()) == []
        assert corpus.drops["reference windows skipped: ShortHistory"][-1] == f"{venue_id} days 0-10"
        assert pipeline._segment_windows(corpus, self._window(corpus), fast_config())

    @pytest.mark.parametrize("error", [IneligibleCampaign("ShortHistory"), InsufficientData("gap")])
    def test_ineligible_window_is_skipped(self, corpus, monkeypatch, error):
        def refuse(*args, **kwargs):
            raise error
        monkeypatch.setattr(pipeline, "segment", refuse)
        assert pipeline._segment_windows(corpus, self._window(corpus), fast_config()) == []
        venue_id = self._window(corpus)[0][0]
        assert corpus.drops[f"reference windows skipped: {error}"][-1] == f"{venue_id} days 40-50"

    @pytest.mark.parametrize("error", [RuntimeError("bug"), ValueError("bad"), KeyError("x")])
    def test_other_errors_propagate(self, corpus, monkeypatch, error):
        def broken(*args, **kwargs):
            raise error
        monkeypatch.setattr(pipeline, "segment", broken)
        with pytest.raises(type(error)):
            pipeline._segment_windows(corpus, self._window(corpus), fast_config())


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

    def test_long_span_venue_counted_apart(self):
        synth = generate_corpus_data(SynthConfig(n_venues=10, days=80, promo_fraction=0.4, seed=9))
        far = [json.dumps({"venue_id": "far", "ts": ts, "checkins": 0, "users": 0,
                           "specials": 0, "tips": 0, "likes": 0}) for ts in (0, 1e300)]
        one = [json.dumps({"venue_id": "one", "ts": 0, "checkins": 0, "users": 0,
                           "specials": 0, "tips": 0, "likes": 0})]
        loaded = load_corpus(synth.snapshot_lines() + far + one, synth.offer_lines())
        assert loaded.drops == {
            "venues skipped: too few readings for a daily series": ["one"],
            "venues skipped: readings span 3660 days or more": ["far"],
            "offers skipped: venue has no usable daily series": [],
        }
        assert set(loaded.series) == set(synth.snapshots)


def _poll(venue_id, ts, checkins=0):
    return json.dumps({"venue_id": venue_id, "ts": ts, "checkins": checkins, "users": 0,
                       "specials": 0, "tips": 0, "likes": 0})


def _non_blank(lines):
    return sum(1 for line in lines if line.strip())


class TestConservation:
    """Every input line, venue, offer, period, reference slot and window, and campaign horizon is kept or counted."""

    @pytest.fixture(scope="class")
    def run(self):
        synth = generate_corpus_data(SynthConfig(n_venues=30, days=100, promo_fraction=0.4, seed=3))
        snapshots = synth.snapshot_lines()
        decreased = json.loads(snapshots[60]) | {"checkins": 0}  # below the venue's earlier polls
        snapshots = (snapshots[:60] + [json.dumps(decreased)] + snapshots[61:]
                     + [snapshots[10], "{broken", "", _poll("lonely", 0), _poll("far", 0), _poll("far", 1e300)])
        offers = synth.offer_lines()
        spare = json.loads(offers[0])
        quiet = min(set(synth.snapshots) - {json.loads(line)["venue_id"] for line in offers})
        offers = offers + [offers[1], "[]",
                           json.dumps(spare | {"venue_id": "ghost", "special_id": "ghost-s0"}),
                           json.dumps(spare | {"venue_id": "lonely", "special_id": "lonely-s0"}),
                           json.dumps(spare | {"venue_id": quiet, "special_id": f"{quiet}-s9",  # too short
                                               "start": "2012-12-01", "end": "2012-12-03"})]
        # an unpromoted venue whose polls never gain a check-in: its daily series is all zeros
        snapshots = snapshots + [json.dumps(json.loads(line) | {"venue_id": "idle", "checkins": 0})
                                 for line in synth.snapshot_lines() if json.loads(line)["venue_id"] == quiet]
        config = fast_config(bootstraps=99, n_groups=3, grid_deg=5.0)  # one matching cell: slots get filled
        promoted = sorted({c.period.venue_id for c in segment_stage(
            load_corpus(snapshots, offers), config).eligible})
        venues = synth.venue_lines()
        # the first promoted venue's line comes twice; the last promoted venue has no profile
        venues = [line for line in venues if json.loads(line)["venue_id"] != promoted[-1]] + [
            next(line for line in venues if json.loads(line)["venue_id"] == promoted[0])]
        # two matchable profiles: the idle venue, removed for zero activity, and one with no polls at all
        twin = json.loads(next(line for line in venues if json.loads(line)["venue_id"] == promoted[1]))
        venues = venues + [json.dumps(twin | {"venue_id": venue_id}) for venue_id in ("idle", "unpolled")]
        corpus = load_corpus(snapshots, offers, venues)
        eligibility = segment_stage(corpus, config)
        effects = run_test_stage(corpus, eligibility, config)
        effects = [e for e in effects if e.venue_id != promoted[0]] + [
            e for e in effects if e.venue_id == promoted[0]][1:]  # one horizon of a profiled campaign lacks a row
        matcher = pipeline.cohort_mod.match_reference
        drawn = []  # the pool the matcher drew from and the groups it returned

        def spy(promo, pool, **kwargs):
            groups, exhausted = matcher(promo, pool, **kwargs)
            drawn.append((list(pool), groups))
            return groups, exhausted

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pipeline.cohort_mod, "match_reference", spy)
            matched = match_stage(corpus, eligibility, config)
        (pool, drawn_groups), = drawn
        # a longer history than the pseudo-windows were drawn with, so some of them are skipped
        reference = reference_test_stage(corpus, matched.groups, dataclasses.replace(config, k=60))
        return dict(lines=(snapshots, offers, venues), config=config, corpus=corpus, eligibility=eligibility,
                    pool=pool, drawn_groups=drawn_groups, matched=matched, reference=reference,
                    rows=features_stage(corpus, eligibility, effects, config))

    def test_snapshot_lines(self, run):
        report = run["corpus"].snapshot_parse
        kept = sum(len(s) for s in report.readings.values())
        assert report.duplicate_timestamps >= 1 and report.errors
        assert sum(dc.anomaly_count for dc in run["corpus"].cumulative.values()) >= 1
        assert _non_blank(run["lines"][0]) == kept + report.duplicate_timestamps + len(report.errors)

    def test_venues_with_snapshots(self, run):
        corpus = run["corpus"]
        short, long_span = corpus.drops[pipeline._SHORT_SERIES], corpus.drops[pipeline._LONG_SPAN]
        assert short == ["lonely"] and long_span == ["far"]
        assert len(corpus.snapshot_parse.readings) == len(corpus.series) + len(short) + len(long_span)

    def test_offers(self, run):
        corpus = run["corpus"]
        placed = sum(len(p.offers) for p in corpus.periods)
        unplaced = corpus.drops[pipeline._UNPLACED]
        assert unplaced == ["ghost-s0", "lonely-s0"]
        assert [e.message for e in corpus.parse_errors["offers"]] == [
            "repeated special_id " + repr(json.loads(run["lines"][1][1])["special_id"]), "record is not an object"]
        assert _non_blank(run["lines"][1]) == placed + len(unplaced) + len(corpus.parse_errors["offers"])

    def test_periods(self, run):
        corpus, eligibility = run["corpus"], run["eligibility"]
        assert eligibility.skipped
        assert len(corpus.periods) == len(eligibility.eligible) + len(eligibility.skipped)

    def test_reference_slots(self, run):
        corpus, eligibility, matched = run["corpus"], run["eligibility"], run["matched"]
        promoted = {c.period.venue_id for c in eligibility.eligible} & {p.venue_id for p in corpus.profiles}
        filled = sum(len(g.members) for g in matched.groups)
        assert filled and matched.exhausted_count
        assert filled + matched.exhausted_count + matched.unfittable_count == run["config"].n_groups * len(promoted)
        assert len(corpus.parse_errors["venues"]) == 1  # the repeated line

    def test_reference_pool(self, run):
        corpus, matched = run["corpus"], run["matched"]
        promoted = {p.venue_id for p in corpus.periods}
        unpromoted = [p for p in corpus.profiles if p.venue_id not in promoted]
        assert matched.zero_removed == 1  # the idle venue
        assert len(unpromoted) == len(run["pool"]) + matched.zero_removed

    def test_matched_slots(self, run):
        matched = run["matched"]
        slots = sum(len(g.members) for g in run["drawn_groups"])
        windowed = sum(m.pseudo_start is not None for g in matched.groups for m in g.members)
        assert matched.unfittable_count  # the unpolled venue has no series to fit a window in
        assert slots == windowed + matched.unfittable_count

    def test_reference_windows(self, run):
        windows = [m for g in run["matched"].groups for m in g.members if m.pseudo_start is not None]
        tested = {(e.group_id, e.venue_id, e.start_day) for e in run["reference"]}
        skipped = [items for key, items in run["corpus"].drops.items() if key.startswith("reference windows skipped: ")]
        assert tested and any(skipped)
        assert len(windows) == len(tested) + sum(map(len, skipped))

    def test_campaign_horizons(self, run):
        corpus, eligibility = run["corpus"], run["eligibility"]
        profiled = {p.venue_id for p in corpus.profiles}
        no_profile = corpus.drops["campaigns skipped: venue has no profile"]
        no_row = corpus.drops["campaign horizons skipped: no row in effects"]
        assert no_profile and len(no_row) == 1
        horizons = [1 + (c.segments.after is not None) for c in eligibility.eligible]
        unprofiled = [1 + (c.segments.after is not None) for c in eligibility.eligible
                      if c.period.venue_id not in profiled]
        assert len(no_profile) == len(unprofiled)
        assert len(run["rows"]) + sum(unprofiled) + len(no_row) == sum(horizons)
