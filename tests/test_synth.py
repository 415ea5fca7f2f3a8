import dataclasses
import hashlib
import json

import numpy as np
import pytest

from campaignfx.campaign import align_offer, build_promotion_periods, parse_offers
from campaignfx.cohort import parse_venues
from campaignfx.errors import InvalidConfig
from campaignfx.rng import derive_rng
from campaignfx.series import DAY_SECONDS, daily_checkins, interpolate_daily, parse_snapshots
from campaignfx.synth import (
    SynthConfig,
    delta_for_target_d,
    expected_effect_size,
    day_intensity,
    generate_corpus_data,
    oracle_expected_d,
)


def small_config(**kw):
    defaults = dict(
        n_venues=30, days=90, promo_fraction=0.3, effect_multiplier=0.0,
        zero_venue_fraction=0.1, seed=7,
    )
    defaults.update(kw)
    return SynthConfig(**defaults)


# Promoted and zero venues, split and duplicated offers, polls on and off the day grid.
PINNED_CONFIGS = {
    "jitter0": small_config(effect_multiplier=0.5, poll_jitter_hours=0.0),
    "jitter2": small_config(effect_multiplier=0.5, poll_jitter_hours=2.0, seed=8,
                            duration_min=12, duration_max=30),
}
LINE_OUTPUTS = ("snapshot_lines", "offer_lines", "venue_lines", "ground_truth_lines")


class TestConfigValidation:
    def test_days_floor(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_venues=10, days=62).validate()

    def test_negative_effect(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_venues=10, days=90, effect_multiplier=-0.1).validate()

    def test_fractions_exceed_one(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_venues=10, days=90, promo_fraction=0.8, zero_venue_fraction=0.5).validate()

    def test_seasonality_range(self):
        with pytest.raises(InvalidConfig):
            SynthConfig(n_venues=10, days=90, weekly_seasonality_amp=1.0).validate()


class TestGenerateCorpus:
    def test_zero_venues_never_promoted(self):
        corpus = generate_corpus_data(small_config(n_venues=50, zero_venue_fraction=0.1))
        all_zero = [v for v in corpus.venues if not np.any(v.daily)]
        assert len(all_zero) >= 5  # the 5 designated plus any Poisson accidents
        assert all(v.planted is None and not v.offers for v in all_zero)

    def test_zero_count_contract(self):
        cfg = small_config(n_venues=1000, zero_venue_fraction=0.1, days=63,
                           base_rate_log_mean=2.0, base_rate_log_sd=0.1)
        corpus = generate_corpus_data(cfg)
        # designated zero venues have an identically-zero daily series; with a
        # high base rate no healthy venue collapses to zero by chance
        zero = [v for v in corpus.venues if not np.any(v.daily)]
        assert len(zero) == 100

    def test_promoted_count_and_ground_truth(self):
        corpus = generate_corpus_data(small_config())
        promoted = [v for v in corpus.venues if v.offers]
        assert len(promoted) == 9  # round(0.3 * 30)
        assert len(corpus.ground_truth) == 9
        for v in promoted:
            assert v.planted is not None
            assert v.offers

    def test_bit_reproducible(self):
        a = generate_corpus_data(small_config())
        b = generate_corpus_data(small_config())
        assert a.snapshot_lines() == b.snapshot_lines()
        assert a.offer_lines() == b.offer_lines()
        assert a.venue_lines() == b.venue_lines()

    def test_different_seed_differs(self):
        a = generate_corpus_data(small_config(seed=1))
        b = generate_corpus_data(small_config(seed=2))
        assert a.snapshot_lines() != b.snapshot_lines()

    def test_cumulative_nondecreasing(self):
        corpus = generate_corpus_data(small_config())
        for venue in corpus.venues:
            assert np.all(np.diff(venue.snapshots.checkins) >= 0)
            assert np.all(np.diff(venue.snapshots.users) >= 0)

    def test_no_anomalies_on_synthetic_data(self):
        corpus = generate_corpus_data(small_config())
        for snapshots in corpus.snapshots.values():
            assert interpolate_daily(snapshots).anomaly_count == 0

    def test_offers_merge_to_single_planted_period(self):
        corpus = generate_corpus_data(small_config(effect_multiplier=0.5))
        report = parse_offers(corpus.offer_lines())
        assert report.errors == []
        for venue in corpus.venues:
            if venue.planted is None:
                continue
            origin = float(venue.snapshots.ts[0])
            periods = build_promotion_periods([align_offer(raw, origin) for raw in venue.offers])
            assert len(periods) == 1
            assert (periods[0].start_day, periods[0].end_day) == (
                venue.planted.start_day, venue.planted.end_day,
            )

    def test_exact_daily_recovery_without_jitter(self):
        cfg = small_config(poll_jitter_hours=0.0)
        corpus = generate_corpus_data(cfg)
        snapshots = corpus.snapshots
        for venue in corpus.venues[:10]:
            ds = daily_checkins(interpolate_daily(snapshots[venue.profile.venue_id]))
            assert np.array_equal(ds.values, venue.daily)

    def test_lines_parse_through_real_parsers(self):
        corpus = generate_corpus_data(small_config())
        snaps = parse_snapshots(corpus.snapshot_lines())
        assert snaps.errors == []
        assert len(snaps.readings) == 30
        offers = parse_offers(corpus.offer_lines())
        assert offers.errors == []
        venues = parse_venues(corpus.venue_lines())
        assert venues.errors == []
        assert len(venues.profiles) == 30

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_specials_count_active_offers(self, name):
        corpus = generate_corpus_data(PINNED_CONFIGS[name])
        spans = [{(o.start_ts, o.end_ts) for o in v.offers} for v in corpus.venues]
        assert any(len(s) > 1 for s in spans)  # a split offer
        assert any(len(s) < len(v.offers) for s, v in zip(spans, corpus.venues))  # a duplicate
        for venue in corpus.venues:
            # reference: a poll counts each offer active from its start to one day past its end
            expected = [sum(1 for o in venue.offers if o.start_ts <= ts < o.end_ts + DAY_SECONDS)
                        for ts in venue.snapshots.ts.tolist()]
            assert venue.specials.tolist() == expected

    @pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
    def test_readings_round_trip_is_identity(self, name):
        corpus = generate_corpus_data(PINNED_CONFIGS[name])
        lines = corpus.snapshot_lines()
        before = {vid: _column_bytes(s) for vid, s in corpus.snapshots.items()}
        for venue in corpus.venues:
            venue.readings = venue.readings
        assert corpus.snapshot_lines() == lines
        assert {vid: _column_bytes(s) for vid, s in corpus.snapshots.items()} == before

    def test_edited_reading_reaches_snapshot_lines(self):
        corpus = generate_corpus_data(small_config())
        venue = corpus.venues[0]
        readings = venue.readings
        readings[3] = dataclasses.replace(readings[3], checkins=10**6, specials=5)
        venue.readings = readings
        line = json.loads(corpus.snapshot_lines()[3])
        assert (line["checkins"], line["specials"]) == (10**6, 5)
        assert venue.snapshots.checkins[3] == 10**6

    @pytest.mark.parametrize("name, digests", [
        ("jitter0", {
            "snapshot_lines": "e49b385ce0794f3983213fe8470bddb766c87f43eceb6b939ec7cabf818429ea",
            "offer_lines": "cee2e1e1d865f7ecd5f1f446d26d8462d386afc71b31dfd0bfb6f493f61bdd85",
            "venue_lines": "90b6ae5c2460527dabd81eec4c134f9eaf14110e35f73895a38d9d14afcccc31",
            "ground_truth_lines": "da351bbff11d06905076e930fb81fef5d8ff9abf7d4771d7bc848c7c73d274d9",
        }),
        ("jitter2", {
            "snapshot_lines": "d837938e01ce7d7b68e9d3da5df749e1fceaaa167da946a8b0f728f1347e8866",
            "offer_lines": "8c39c8ae1139afae78a79d280023d2b13e7163236717c1e7c1ede36c1fea72a2",
            "venue_lines": "f879e4bc986ba0955d6d127f2820768ca1f85ab0828e429fd9bfe3e9c38104bd",
            "ground_truth_lines": "0ff92a3ea1db66ba7d84578f55f9f59fa4644f3bdb0585e528436a941b84e5a7",
        }),
    ])
    def test_lines_pinned(self, name, digests):
        """The acceptance criteria stand on this corpus: any change to its text shows here."""
        corpus = generate_corpus_data(PINNED_CONFIGS[name])
        assert {m: _sha256(getattr(corpus, m)()) for m in LINE_OUTPUTS} == digests

    def test_planted_window_fits_segment_rules(self):
        corpus = generate_corpus_data(small_config())
        for g in corpus.ground_truth:
            assert g.start_day >= 28
            assert g.end_day - g.start_day + 1 >= 7


def _column_bytes(snapshots):
    return [getattr(snapshots, name).tobytes() for name in ("ts", "checkins", "users", "tips", "likes")]


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestExpectedEffect:
    def test_zero_delta_zero_effect(self):
        intensity = day_intensity(4.0, 60, 0.3, 0.002)
        assert expected_effect_size(intensity[:28], intensity[28:40], 0.0) == 0.0

    def test_positive_delta_positive_effect(self):
        intensity = day_intensity(4.0, 60, 0.0, 0.0)
        d = expected_effect_size(intensity[:28], intensity[28:40], 0.5)
        assert d > 0

    def test_iff_property_on_corpus(self):
        null = generate_corpus_data(small_config(effect_multiplier=0.0,
                                                 platform_trend_per_day=0.003,
                                                 weekly_seasonality_amp=0.3))
        assert all(g.d_exp == 0.0 for g in null.ground_truth)
        lifted = generate_corpus_data(small_config(effect_multiplier=0.4))
        assert all(g.d_exp > 0.0 for g in lifted.ground_truth)

    def test_delta_solver_round_trips(self):
        for lam in (1.0, 3.0, 9.0):
            for d_target in (0.2, 0.5, 0.8, 1.2):
                delta = delta_for_target_d(lam, d_target, 28, 28)
                flat = np.full(28, lam)
                d = expected_effect_size(flat, flat.copy(), delta)
                assert d == pytest.approx(d_target, rel=1e-6)


class TestOracleExpectedD:
    def test_null_within_noise(self):
        est = oracle_expected_d(3.0, 0.0, 0.0, 28, 28, derive_rng(71), n_sims=20_000)
        assert abs(est.d_mean) <= 3 * est.d_se

    def test_matches_analytic_target(self):
        # delta solved for d = 0.5 at lambda 4: Monte-Carlo mean lands nearby
        delta = delta_for_target_d(4.0, 0.5, 28, 28)
        est = oracle_expected_d(4.0, delta, 0.0, 28, 28, derive_rng(73), n_sims=60_000)
        # small-sample bias of the plug-in d is below 0.02 here
        assert est.d_mean == pytest.approx(0.5, abs=3 * est.d_se + 0.02)

    def test_monotone_in_delta(self):
        means = []
        for delta in (0.0, 0.3, 0.8, 2.0, 10.0):
            est = oracle_expected_d(2.0, delta, 0.0, 28, 28, derive_rng(75, delta), n_sims=10_000)
            means.append(est.d_mean)
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_self_consistent_across_seeds(self):
        a = oracle_expected_d(1.0, 1.0, 0.0, 28, 28, derive_rng(77), n_sims=40_000)
        b = oracle_expected_d(1.0, 1.0, 0.0, 28, 28, derive_rng(78), n_sims=40_000)
        assert abs(a.d_mean - b.d_mean) <= 3 * (a.d_se + b.d_se)

    def test_invalid_lam(self):
        with pytest.raises(InvalidConfig):
            oracle_expected_d(0.0, 0.5, 0.0, 28, 28, derive_rng(0))
