import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campaignfx.cohort import (
    PSEUDO_PERIOD_MAX_ATTEMPTS,
    Category,
    FractionMode,
    ReferenceGroup,
    ReferenceMember,
    VenueProfile,
    assign_pseudo_periods,
    effect_ecdf,
    filter_zero_activity,
    increase_fraction,
    linear_quantiles,
    match_reference,
    parse_venues,
)
from campaignfx.effect import EffectLabel, EffectResult, Horizon
from campaignfx.errors import EmptyDenominator
from campaignfx.geo import haversine_miles
from campaignfx.rng import derive_rng

from conftest import make_series


def profile(venue_id, category=Category.FOOD, lat=40.44, lon=-79.99, promo=False):
    return VenueProfile(venue_id=venue_id, category=category, lat=lat, lon=lon, has_promotion=promo)


def result(diff=1.0, p=0.01, power=0.9, label=EffectLabel.SIGNIFICANT_INCREASE, d=0.5):
    return EffectResult(
        diff=diff, cohens_d=d, p_value=p, power=power,
        ci_low=diff - 1, ci_high=diff + 1,
        horizon=Horizon.SHORT_TERM, label=label,
    )


class TestMatchReference:
    def test_sufficient_pool_fills_all_groups(self):
        promo = [profile("p0", promo=True)]
        pool = [profile(f"r{i}") for i in range(25)]
        report = match_reference(promo, pool, n_groups=20, rng=derive_rng(0, "m"))
        assert len(report.groups) == 20
        assert all(len(g.members) == 1 for g in report.groups)
        assert report.exhausted == []
        members = [g.members[0].venue_id for g in report.groups]
        assert len(set(members)) == 20  # sampling without replacement

    def test_exhaustion_recorded(self):
        promo = [profile("p0", promo=True)]
        pool = [profile(f"r{i}") for i in range(5)]
        report = match_reference(promo, pool, n_groups=20, rng=derive_rng(0, "m"))
        filled = [g for g in report.groups if g.members]
        assert len(filled) == 5
        assert len(report.exhausted) == 15

    def test_empty_pool_all_skipped(self):
        promo = [profile("p0", category=Category.RESIDENCE, promo=True)]
        pool = [profile("r0", category=Category.FOOD)]
        report = match_reference(promo, pool, n_groups=3, rng=derive_rng(0))
        assert len(report.exhausted) == 3

    def test_category_must_match_exactly(self):
        promo = [profile("p0", category=Category.ARTS, promo=True)]
        pool = [profile("r0", category=Category.ARTS), profile("r1", category=Category.FOOD)]
        report = match_reference(promo, pool, n_groups=2, rng=derive_rng(0))
        picked = [m.venue_id for g in report.groups for m in g.members]
        assert picked == ["r0"]

    def test_cell_expansion_to_neighborhood(self):
        promo = [profile("p0", lat=40.05, lon=-80.05, promo=True)]
        # same category, adjacent 0.1-degree cell only
        pool = [profile("r0", lat=40.15, lon=-80.05)]
        report = match_reference(promo, pool, n_groups=1, rng=derive_rng(0))
        assert [m.venue_id for m in report.groups[0].members] == ["r0"]

    def test_far_venue_not_matched(self):
        promo = [profile("p0", lat=40.05, lon=-80.05, promo=True)]
        pool = [profile("r0", lat=41.5, lon=-80.05)]
        report = match_reference(promo, pool, n_groups=1, rng=derive_rng(0))
        assert report.exhausted

    def test_groups_disjoint_and_category_preserved(self):
        rng = derive_rng(1, "gen")
        promo = [
            profile(f"p{i}", category=list(Category)[i % 4], lat=40 + rng.uniform(0, 0.5),
                    lon=-80 + rng.uniform(0, 0.5), promo=True)
            for i in range(10)
        ]
        pool = [
            profile(f"r{i}", category=list(Category)[i % 4], lat=40 + rng.uniform(0, 0.5),
                    lon=-80 + rng.uniform(0, 0.5))
            for i in range(600)
        ]
        report = match_reference(promo, pool, n_groups=5, rng=derive_rng(0, "m"))
        seen = set()
        category_of = {p.venue_id: p.category for p in promo + pool}
        max_dist = 3 * 0.1 * 69.2 * math.sqrt(2)  # 3x3 cell envelope bound
        position_of = {p.venue_id: (p.lat, p.lon) for p in promo + pool}
        for group in report.groups:
            for member in group.members:
                assert member.venue_id not in seen
                seen.add(member.venue_id)
                assert category_of[member.venue_id] == category_of[member.counterpart_id]
                (la1, lo1), (la2, lo2) = position_of[member.venue_id], position_of[member.counterpart_id]
                assert haversine_miles(la1, lo1, la2, lo2) <= max_dist

    def test_promoted_pool_rejected(self):
        with pytest.raises(ValueError):
            match_reference([], [profile("r0", promo=True)], rng=derive_rng(0))


class TestAssignPseudoPeriods:
    def test_fitting_draw_accepted(self):
        group = ReferenceGroup(0, [ReferenceMember("r0", "p0")])
        series = {"r0": make_series(np.ones(100))}
        assigned, dropped = assign_pseudo_periods(group, [(40, 10)], series, derive_rng(0))
        assert dropped == []
        member = assigned.members[0]
        assert (member.pseudo_start, member.pseudo_end) == (40, 49)

    def test_unfittable_member_dropped(self):
        group = ReferenceGroup(0, [ReferenceMember("r0", "p0")])
        series = {"r0": make_series(np.ones(30))}
        assigned, dropped = assign_pseudo_periods(group, [(40, 10)], series, derive_rng(0))
        assert assigned.members == []
        assert [d.venue_id for d in dropped] == ["r0"]

    def test_degenerate_distribution(self):
        group = ReferenceGroup(0, [ReferenceMember(f"r{i}", "p") for i in range(5)])
        series = {f"r{i}": make_series(np.ones(60)) for i in range(5)}
        assigned, dropped = assign_pseudo_periods(group, [(30, 7)], series, derive_rng(0))
        assert dropped == []
        assert all((m.pseudo_start, m.pseudo_end) == (30, 36) for m in assigned.members)

    def test_missing_series_dropped(self):
        group = ReferenceGroup(0, [ReferenceMember("r0", "p0")])
        assigned, dropped = assign_pseudo_periods(group, [(30, 7)], {}, derive_rng(0))
        assert assigned.members == []
        assert len(dropped) == 1


    @given(
        st.lists(st.tuples(st.integers(0, 80), st.integers(1, 20)), min_size=1, max_size=6),
        st.lists(st.tuples(st.integers(-10, 10), st.integers(2, 90)), min_size=1, max_size=6),
        st.integers(2, 40), st.integers(2, 10), st.integers(0, 2**32),
    )
    def test_same_windows_and_draws_as_the_explicit_checks(
        self, periods, spans, min_history, min_duration, seed,
    ):
        # the rule written out: full duration, enough history, no truncation
        series = {f"r{i}": make_series(np.ones(n), origin_day=o) for i, (o, n) in enumerate(spans)}
        group = ReferenceGroup(0, [ReferenceMember(venue_id, "p") for venue_id in series])
        rng = derive_rng(seed)
        expected = []
        for venue_id, s in series.items():
            for _ in range(PSEUDO_PERIOD_MAX_ATTEMPTS):
                start, duration = periods[int(rng.integers(len(periods)))]
                end = start + duration - 1
                if duration >= min_duration and start - s.origin_day >= min_history and end <= s.last_day:
                    expected.append((venue_id, start, end))
                    break
        assigned, dropped = assign_pseudo_periods(
            group, periods, series, derive_rng(seed), min_history=min_history, min_duration=min_duration,
        )
        assert [(m.venue_id, m.pseudo_start, m.pseudo_end) for m in assigned.members] == expected
        assert len(assigned.members) + len(dropped) == len(series)


class TestFilterZeroActivity:
    def test_all_zero_removed(self):
        series = {"a": make_series(np.zeros(50)), "b": make_series(np.ones(50))}
        assert filter_zero_activity(["a", "b"], series) == ["b"]

    def test_single_checkin_retained(self):
        values = np.zeros(50)
        values[13] = 1.0
        series = {"a": make_series(values)}
        assert filter_zero_activity(["a"], series) == ["a"]

    def test_empty_input(self):
        assert filter_zero_activity([], {}) == []

    def test_exact_set_removed(self, rng):
        series = {}
        expected_kept = []
        for i in range(40):
            venue = f"v{i}"
            values = rng.poisson(0.15, 60).astype(float)
            series[venue] = make_series(values)
            if values.sum() > 0:
                expected_kept.append(venue)
        assert filter_zero_activity(list(series), series) == expected_kept


class TestIncreaseFraction:
    def test_raw_sign_zero_not_increase(self):
        results = [result(diff=d) for d in (1.0, -2.0, 3.0, 0.0)]
        f = increase_fraction(results, FractionMode.RAW_SIGN)
        assert f.fraction == pytest.approx(0.5)

    def test_significant_only_denominator(self):
        results = [
            result(label=EffectLabel.SIGNIFICANT_INCREASE),
            result(label=EffectLabel.POWERED_NULL),
            result(label=EffectLabel.SIGNIFICANT_DECREASE),
            result(label=EffectLabel.INCONCLUSIVE),
        ]
        f = increase_fraction(results, FractionMode.SIGNIFICANT_ONLY)
        assert f.fraction == pytest.approx(1 / 3)
        assert f.n == 3

    def test_all_inconclusive_raises(self):
        results = [result(label=EffectLabel.INCONCLUSIVE)] * 4
        with pytest.raises(EmptyDenominator):
            increase_fraction(results, FractionMode.SIGNIFICANT_ONLY)

    def test_group_level_interval(self):
        results = []
        groups = []
        for gid in range(4):
            for _ in range(10):
                results.append(result(diff=1.0 if (gid + len(results)) % 2 else -1.0))
                groups.append(gid)
        f = increase_fraction(results, FractionMode.RAW_SIGN, groups=groups)
        assert 0.0 <= f.ci_low <= f.fraction <= f.ci_high <= 1.0
        assert f.n == 4

    def test_binomial_interval(self):
        results = [result(diff=1.0)] * 30 + [result(diff=-1.0)] * 10
        f = increase_fraction(results, FractionMode.RAW_SIGN)
        assert f.fraction == pytest.approx(0.75)
        # Wilson score bounds in counts form: (x + z²/2 ± z·sqrt(x(n-x)/n + z²/4)) / (n + z²)
        z = 1.96
        half = z * math.sqrt(30 * 10 / 40 + z * z / 4)
        assert f.ci_low == pytest.approx((30 + z * z / 2 - half) / (40 + z * z))
        assert f.ci_high == pytest.approx((30 + z * z / 2 + half) / (40 + z * z))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5000).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
    def test_pooled_interval_in_range(self, hits_n):
        hits, n = hits_n
        results = [result(diff=1.0)] * hits + [result(diff=-1.0)] * (n - hits)
        f = increase_fraction(results, FractionMode.RAW_SIGN)
        assert 0.0 <= f.ci_low <= f.fraction <= f.ci_high <= 1.0
        assert f.ci_high > f.ci_low

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 12).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))),
                 min_size=2, max_size=25),
        st.integers(0, 2**32 - 1),
    )
    def test_grouped_interval_in_range(self, hits_per_group, seed):
        results, groups = [], []
        for gid, (hits, n) in enumerate(hits_per_group):
            results += [result(diff=1.0)] * hits + [result(diff=-1.0)] * (n - hits)
            groups += [gid] * n
        f = increase_fraction(results, FractionMode.RAW_SIGN, groups=groups, rng=derive_rng(seed))
        assert 0.0 <= f.ci_low <= f.fraction <= f.ci_high <= 1.0
        assert f.fraction == pytest.approx(np.mean([h / n for h, n in hits_per_group]))
        assert f.n == len(hits_per_group)
        if len({h / n for h, n in hits_per_group}) == 1:
            assert f.ci_high - f.ci_low < 1e-12
        again = increase_fraction(results, FractionMode.RAW_SIGN, groups=groups, rng=derive_rng(seed))
        assert (again.ci_low, again.ci_high) == (f.ci_low, f.ci_high)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60)
    | st.lists(st.floats(0, 1), min_size=1, max_size=60)
    | st.lists(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 1.0]), min_size=1, max_size=60),
    st.lists(st.floats(0, 1) | st.sampled_from([0.0, 0.025, 0.5, 0.975, 1.0]), min_size=1, max_size=4),
)
def test_linear_quantiles_match_numpy_bitwise(values, qs):
    arr = np.array(values)
    expected = np.quantile(arr, qs)
    got = linear_quantiles(arr, qs)
    assert np.array(got).tobytes() == expected.tobytes()


def test_linear_quantiles_of_bootstrap_means_match_numpy():
    rng = derive_rng(3, "quantiles")
    for g in (2, 3, 7, 20):
        fractions = rng.random(g)
        means = fractions[rng.integers(0, g, size=(4999, g))].mean(axis=1)
        assert linear_quantiles(means, (0.025, 0.975)) == np.quantile(means, [0.025, 0.975]).tolist()


class TestEffectEcdf:
    def test_definition(self):
        ecdf = effect_ecdf([0.0, 0.0, 1.0])
        assert ecdf.points == [(0.0, pytest.approx(2 / 3)), (1.0, pytest.approx(1.0))]

    def test_empty(self):
        ecdf = effect_ecdf([])
        assert ecdf.points == []
        assert ecdf.n == 0

    def test_point_mass_plateau(self):
        ecdf = effect_ecdf([0.5] * 10)
        assert ecdf.points == [(0.5, 1.0)]

    def test_undefined_excluded_with_count(self):
        ecdf = effect_ecdf([None, 0.3, None])
        assert ecdf.undefined_count == 2
        assert ecdf.n == 1

    def test_right_continuous_and_monotone(self, rng):
        values = rng.normal(size=200).tolist()
        ecdf = effect_ecdf(values)
        xs = [p[0] for p in ecdf.points]
        fs = [p[1] for p in ecdf.points]
        assert xs == sorted(xs)
        assert fs == sorted(fs)
        assert fs[-1] == pytest.approx(1.0)
        # F(x) equals the fraction of values <= x at each jump point
        for x, f in ecdf.points[:10]:
            assert f == pytest.approx(sum(1 for v in values if v <= x) / len(values))


class TestParseVenues:
    def test_valid_line(self):
        import json

        line = json.dumps({"venue_id": "v1", "lat": 40.4, "lon": -80.0, "category": "Food"})
        report = parse_venues([line])
        assert report.profiles[0].category is Category.FOOD

    def test_bad_category_recorded(self):
        import json

        line = json.dumps({"venue_id": "v1", "lat": 40.4, "lon": -80.0, "category": "Bowling"})
        report = parse_venues([line])
        assert report.profiles == []
        assert len(report.errors) == 1

    def test_lat_range_enforced(self):
        import json

        line = json.dumps({"venue_id": "v1", "lat": 91.0, "lon": 0.0, "category": "Food"})
        report = parse_venues([line])
        assert report.profiles == []
        assert len(report.errors) == 1

    def test_nine_categories(self):
        assert len(Category) == 9
