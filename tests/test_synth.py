import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campaignfx.campaign import align_offer, build_promotion_periods, parse_offers
from campaignfx.cohort import parse_venues
from campaignfx.errors import InvalidConfig
from campaignfx.rng import derive_rng
from campaignfx.series import (
    DAY_SECONDS,
    daily_checkins,
    format_timestamp,
    format_timestamps,
    interpolate_daily,
    parse_snapshots,
)
from campaignfx.synth import (
    SynthConfig,
    delta_for_target_d,
    expected_effect_size,
    day_intensity,
    generate_corpus_data,
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


@dataclasses.dataclass
class OracleEstimate:
    d_mean: float
    d_se: float
    n_valid: int


def oracle_expected_d(
    lam: float,
    delta: float,
    seasonality_amp: float,
    n_before: int,
    n_during: int,
    rng: np.random.Generator,
    n_sims: int = 100_000,
) -> OracleEstimate:
    """Monte-Carlo estimate of the expected observed effect size.

    Simulates ``n_sims`` independent (before, during) segment pairs and
    averages their standardized mean differences; pairs with zero pooled
    deviation are excluded from the average.
    """
    if lam <= 0:
        raise InvalidConfig("lam must be positive")
    if n_before < 2 or n_during < 2:
        raise InvalidConfig("segments need at least 2 days each")
    intensity = day_intensity(lam, n_before + n_during, seasonality_amp, 0.0)
    before = rng.poisson(intensity[:n_before], size=(n_sims, n_before)).astype(float)
    during = rng.poisson(intensity[n_before:] * (1.0 + delta), size=(n_sims, n_during)).astype(float)
    m1 = before.mean(axis=1)
    m2 = during.mean(axis=1)
    v1 = before.var(axis=1, ddof=1)
    v2 = during.var(axis=1, ddof=1)
    pooled = np.sqrt(((n_before - 1) * v1 + (n_during - 1) * v2) / (n_before + n_during - 2))
    valid = pooled > 0
    d = (m2[valid] - m1[valid]) / pooled[valid]
    n_valid = int(valid.sum())
    if n_valid == 0:
        return OracleEstimate(d_mean=0.0, d_se=0.0, n_valid=0)
    return OracleEstimate(
        d_mean=float(d.mean()),
        d_se=float(d.std(ddof=1) / math.sqrt(n_valid)) if n_valid > 1 else 0.0,
        n_valid=n_valid,
    )


FIRST_TS, LAST_TS = -30_610_224_000, 253_402_300_799  # 1000-01-01T00:00:00Z, 9999-12-31T23:59:59Z
DAY = int(DAY_SECONDS)


def _texts_or_error(fmt, ts):
    """What ``fmt(ts)`` returns, or the type and text of what it raises; any warning fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fmt(ts)
        except Exception as exc:  # noqa: BLE001 - compared, not handled
            return type(exc), str(exc)


def _reference_texts(ts):
    return [format_timestamp(t) for t in ts.tolist()]


whole_seconds = st.integers(FIRST_TS - DAY, LAST_TS + DAY).map(float)
edges = st.sampled_from([FIRST_TS, LAST_TS]).flatmap(
    lambda edge: st.integers(-2, 2).map(lambda step: edge + step + 0.0))
fractional = st.floats(FIRST_TS - DAY, LAST_TS, allow_nan=False)
# +-0.5 microsecond ties around whole microseconds, on both sides of the epoch
ties = st.tuples(st.integers(-2**31, 2**31), st.integers(0, 999_999), st.sampled_from([-0.5, 0.5])).map(
    lambda t: t[0] + (t[1] + t[2]) * 1e-6)


class TestFormatTimestamps:
    """``format_timestamps`` writes, or raises, what ``format_timestamp`` does value by value."""

    @settings(max_examples=40)
    @given(st.lists(st.one_of(whole_seconds, edges, fractional, ties), max_size=12))
    def test_matches_format_timestamp(self, values):
        ts = np.array(values, dtype=float)
        assert _texts_or_error(format_timestamps, ts) == _texts_or_error(_reference_texts, ts)

    @settings(max_examples=20)
    @given(st.lists(st.integers(FIRST_TS, LAST_TS).map(float), min_size=1, max_size=12))
    def test_whole_seconds_in_range_format(self, values):
        """Every value takes the numpy path."""
        assert format_timestamps(np.array(values)) == [format_timestamp(t) for t in values]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_raises_as_format_timestamp(self, bad):
        ts = np.array([0.0, bad, 86400.0])
        expected = _texts_or_error(format_timestamp, bad)
        assert isinstance(expected, tuple) and issubclass(expected[0], (ValueError, OverflowError))
        assert _texts_or_error(format_timestamps, ts) == expected


ODD_PREFIX = '"\\\u00e9\u2028%'  # a quote, a backslash, e-acute, LINE SEPARATOR and a percent sign
poll_edits = st.lists(st.tuples(
    st.integers(1, 61),                  # a poll between the first and the last
    st.floats(0.0, 0.999, allow_nan=False),  # fraction of a second added to its ts
    st.integers(0, 2**53),
    st.integers(0, 2**53),
    st.integers(0, 9),
), max_size=6)


class TestSnapshotLinesSerializer:
    @settings(max_examples=15)
    @given(st.lists(poll_edits, min_size=2, max_size=2))
    def test_lines_equal_json_dumps_of_each_poll(self, edits):
        corpus = generate_corpus_data(SynthConfig(n_venues=2, days=63, promo_fraction=0.5,
                                                  venue_prefix=ODD_PREFIX, seed=3))
        rows = []
        for venue, venue_edits in zip(corpus.venues, edits):
            readings = venue.readings
            for i, fraction, checkins, tips, specials in venue_edits:
                readings[i] = dataclasses.replace(readings[i], ts=readings[i].ts + fraction,
                                                  checkins=checkins, tips=tips, specials=specials)
            venue.readings = readings
            rows += readings
        expected = [
            json.dumps({"venue_id": r.venue_id, "ts": format_timestamp(r.ts), "checkins": r.checkins,
                        "users": r.users, "specials": r.specials, "tips": r.tips, "likes": r.likes},
                       sort_keys=True)
            for r in rows
        ]
        assert corpus.snapshot_lines() == expected
        assert ODD_PREFIX in json.loads(expected[0])["venue_id"]
