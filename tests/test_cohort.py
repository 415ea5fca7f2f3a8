import math

import numpy as np
import pytest

from campaignfx.cohort import (
    Category,
    FractionMode,
    ReferenceGroup,
    ReferenceMember,
    VenueProfile,
    assign_pseudo_periods,
    effect_ecdf,
    filter_zero_activity,
    increase_fraction,
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
        half = 1.96 * math.sqrt(0.75 * 0.25 / 40)
        assert f.ci_low == pytest.approx(0.75 - half)
        assert f.ci_high == pytest.approx(0.75 + half)


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
