import math

import numpy as np
import pytest

from campaignfx.campaign import OfferKind, PromotionPeriod, SpecialOffer
from campaignfx.cohort import Category, VenueProfile
from campaignfx.effect import EffectLabel, Horizon
from campaignfx.errors import MissingCounter
from campaignfx.features import (
    CSV_HEADER,
    FeatureVector,
    GeoFeatures,
    PromoFeatures,
    VenueFeatures,
    design_matrix,
    extract_geo_features,
    extract_promo_features,
    extract_venue_features,
    feature_values,
    neighborhood,
    read_features_csv,
    write_features_csv,
)
from campaignfx.geo import RadiusIndex
from campaignfx.series import SegmentedSeries

from conftest import make_snapshots

DAY = 86400.0


def segments(start=30, end=40, before_value=2.0):
    return SegmentedSeries(
        before=np.full(28, before_value),
        during=np.full(end - start + 1, before_value),
        after=None,
        start_day=start,
        end_day=end,
    )


def offer(kind, start=30, end=40, sid="s0"):
    return SpecialOffer("v1", sid, kind, start, end)


def profile(venue_id="v1", category=Category.FOOD, lat=40.0, lon=-80.0):
    return VenueProfile(venue_id, category, lat, lon)


class TestVenueFeatures:
    def base_snapshots(self):
        return make_snapshots([0.0, 60 * DAY], [0, 120], users=[0, 48], tips=[0, 12], likes=[0, 30])

    def test_constant_before_mean(self):
        f = extract_venue_features(segments(before_value=2.0), self.base_snapshots(), 0.0, profile())
        assert f.m_b == pytest.approx(2.0)

    def test_loyalty_arithmetic(self):
        # counters grow linearly: at day 29 c_a = 58, p_a = 23.2 -> ratio 2.5
        f = extract_venue_features(segments(), self.base_snapshots(), 0.0, profile())
        assert f.loyalty == pytest.approx(f.c_a / (f.c_a / 2.5))
        assert f.c_a == pytest.approx(58.0)

    def test_zero_users_loyalty_missing(self):
        snaps = make_snapshots([0.0, 60 * DAY], [0, 50])
        f = extract_venue_features(segments(), snaps, 0.0, profile())
        assert f.loyalty is None
        assert f.loyalty_imputed == 1.0
        assert f.loyalty_missing == 1.0

    def test_counters_must_cover_campaign_eve(self):
        snaps = make_snapshots([0.0, 10 * DAY], [0, 5])
        with pytest.raises(MissingCounter):
            extract_venue_features(segments(start=30), snaps, 0.0, profile())


class TestPromoFeatures:
    def test_single_offer(self):
        period = PromotionPeriod("v1", 30, 39, [offer(OfferKind.FREQUENCY, 30, 39)])
        f = extract_promo_features(period)
        assert f.duration == 10
        assert f.kinds == frozenset({OfferKind.FREQUENCY})
        assert f.n_s == pytest.approx(0.1)

    def test_same_kind_twice_changes_only_count(self):
        period = PromotionPeriod("v1", 30, 39, [
            offer(OfferKind.FREQUENCY, 30, 39, "a"),
            offer(OfferKind.FREQUENCY, 30, 39, "b"),
        ])
        f = extract_promo_features(period)
        assert f.kinds == frozenset({OfferKind.FREQUENCY})
        assert f.n_s == pytest.approx(0.2)

    def test_multi_type(self):
        period = PromotionPeriod("v1", 30, 43, [
            offer(OfferKind.MAYOR, 30, 36, "a"),
            offer(OfferKind.FLASH, 37, 43, "b"),
        ])
        f = extract_promo_features(period)
        assert f.kinds == frozenset({OfferKind.MAYOR, OfferKind.FLASH})
        assert f.n_s == pytest.approx(2 / 14)
        values = feature_values(_vector(promo=f))
        assert values["xi_Mayor"] == 1.0 and values["xi_Flash"] == 1.0
        assert sum(values[f"xi_{k.value}"] for k in OfferKind) == 2.0


class TestNeighborhood:
    def test_isolated_venue(self):
        venues = [profile("a"), profile("b", lat=41.0)]
        index = RadiusIndex(venues)
        assert neighborhood(venues[0], index, 0.5) == []

    def test_self_excluded_but_colocated_kept(self):
        venues = [profile("a"), profile("b")]  # identical coordinates
        index = RadiusIndex(venues)
        got = neighborhood(venues[0], index, 0.5)
        assert [p.venue_id for p in got] == ["b"]


class TestGeoFeatures:
    def test_homogeneous_neighborhood(self):
        nbrs = [profile(f"n{i}") for i in range(4)]
        f = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f.density == 4
        assert f.competitiveness == 1.0
        assert f.entropy == 0.0

    def test_two_way_split_entropy(self):
        nbrs = [profile("a", category=Category.FOOD), profile("b", category=Category.SHOPS)]
        f = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f.entropy == pytest.approx(math.log(2), abs=1e-12)
        assert f.competitiveness == pytest.approx(0.5)

    def test_uniform_nine_way_entropy(self):
        nbrs = [profile(f"n{i}", category=c) for i, c in enumerate(Category)]
        f = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f.entropy == pytest.approx(math.log(9), abs=1e-12)

    def test_empty_neighborhood_flagged(self):
        f = extract_geo_features(profile("v"), [], {}, 0.0)
        assert (f.density, f.area_pop, f.competitiveness, f.entropy) == (0, 0.0, 0.0, 0.0)
        assert f.empty_neighborhood

    def test_area_pop_sums_neighbor_counters(self):
        nbrs = [profile("a"), profile("b")]
        snaps = {
            "a": make_snapshots([0.0, 2 * DAY], [0, 10], venue_id="a"),
            "b": make_snapshots([0.0, 2 * DAY], [4, 4], venue_id="b"),
        }
        f = extract_geo_features(profile("v"), nbrs, snaps, DAY)
        assert f.area_pop == pytest.approx(5.0 + 4.0)

    def test_entropy_permutation_invariant(self, rng):
        cats = list(Category)
        nbrs = [profile(f"n{i}", category=cats[int(rng.integers(9))]) for i in range(30)]
        f1 = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        rng.shuffle(nbrs)
        f2 = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f1.entropy == f2.entropy
        assert round(f1.competitiveness * f1.density) == f1.competitiveness * f1.density


def _vector(venue=None, promo=None, geo=None, label=EffectLabel.SIGNIFICANT_INCREASE, d=0.4):
    return FeatureVector(
        venue_id="v1",
        start_day=30,
        end_day=40,
        horizon=Horizon.SHORT_TERM,
        venue=venue or VenueFeatures(2.0, 58.0, 2.5, 15.0, 6.0, Category.FOOD),
        promo=promo or PromoFeatures(11, frozenset({OfferKind.FREQUENCY}), 1 / 11),
        geo=geo or GeoFeatures(3, 120.0, 1 / 3, 0.9),
        d_observed=d,
        label=label,
    )


class TestMatrixAndCsv:
    def test_design_matrix_shapes(self):
        rows = [_vector(), _vector()]
        X, cols = design_matrix(rows, ("F_v",))
        assert X.shape == (2, 15)
        X, cols = design_matrix(rows, ("F_p",))
        assert X.shape == (2, 9)
        X, cols = design_matrix(rows, ("F_g",))
        assert X.shape == (2, 4)
        X, cols = design_matrix(rows, ("F_v", "F_p", "F_g"))
        assert X.shape == (2, 28)
        assert cols[-1] == "entropy"

    def test_set_order_fixed_regardless_of_request_order(self):
        rows = [_vector()]
        a, cols_a = design_matrix(rows, ("F_g", "F_v"))
        b, cols_b = design_matrix(rows, ("F_v", "F_g"))
        assert cols_a == cols_b
        assert np.array_equal(a, b)

    def test_csv_roundtrip(self):
        rows = [
            _vector(),
            _vector(label=EffectLabel.INCONCLUSIVE, d=None),
            _vector(venue=VenueFeatures(1.0, 9.0, None, 0.0, 0.0, Category.ARTS),
                    label=EffectLabel.POWERED_NULL, d=-0.2),
        ]
        text = write_features_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        back = read_features_csv(text)
        assert len(back) == 3
        origs = {(r.label, r.d_observed, r.venue.loyalty) for r in rows}
        loadeds = {(r.label, r.d_observed, r.venue.loyalty) for r in back}
        assert origs == loadeds
        key = lambda r: (str(r.label), str(r.d_observed))
        for a, b in zip(sorted(rows, key=key), sorted(back, key=key)):
            assert feature_values(a) == feature_values(b)

    def test_label_column_last(self):
        assert CSV_HEADER[-1] == "label"
        assert CSV_HEADER[-2] == "d_observed"

    def test_extraction_deterministic(self):
        nbrs = [profile(f"n{i}", category=list(Category)[i % 3]) for i in range(9)]
        f1 = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        f2 = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f1 == f2
