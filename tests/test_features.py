import math

import numpy as np
import pytest

from campaignfx.campaign import OfferKind, PromotionPeriod, SpecialOffer
from campaignfx.cohort import Category, VenueProfile
from campaignfx.effect import EffectLabel, Horizon
from campaignfx.errors import MissingCounter
from campaignfx.features import (
    CSV_HEADER,
    FEATURE_SET_COLUMNS,
    FeatureVector,
    design_matrix,
    extract_geo_features,
    extract_promo_features,
    extract_venue_features,
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
        f = extract_venue_features(segments(before_value=2.0), self.base_snapshots(), profile())
        assert f["m_b"] == pytest.approx(2.0)

    def test_loyalty_arithmetic(self):
        # counters grow linearly: at day 29 c_a = 58, p_a = 23.2 -> ratio 2.5
        f = extract_venue_features(segments(), self.base_snapshots(), profile())
        assert f["loyalty"] == pytest.approx(f["c_a"] / (f["c_a"] / 2.5))
        assert f["c_a"] == pytest.approx(58.0)
        assert f["loyalty_missing"] == 0.0

    def test_zero_users_loyalty_missing(self):
        snaps = make_snapshots([0.0, 60 * DAY], [0, 50])
        f = extract_venue_features(segments(), snaps, profile())
        assert f["loyalty"] == 1.0  # imputed
        assert f["loyalty_missing"] == 1.0

    def test_counters_must_cover_campaign_eve(self):
        snaps = make_snapshots([0.0, 10 * DAY], [0, 5])
        with pytest.raises(MissingCounter):
            extract_venue_features(segments(start=30), snaps, profile())


class TestPromoFeatures:
    def test_single_offer(self):
        period = PromotionPeriod("v1", 30, 39, [offer(OfferKind.FREQUENCY, 30, 39)])
        f = extract_promo_features(period)
        assert f["duration"] == 10
        assert kinds(f) == {OfferKind.FREQUENCY}
        assert f["n_s"] == pytest.approx(0.1)

    def test_same_kind_twice_changes_only_count(self):
        period = PromotionPeriod("v1", 30, 39, [
            offer(OfferKind.FREQUENCY, 30, 39, "a"),
            offer(OfferKind.FREQUENCY, 30, 39, "b"),
        ])
        f = extract_promo_features(period)
        assert kinds(f) == {OfferKind.FREQUENCY}
        assert f["n_s"] == pytest.approx(0.2)

    def test_multi_type(self):
        period = PromotionPeriod("v1", 30, 43, [
            offer(OfferKind.MAYOR, 30, 36, "a"),
            offer(OfferKind.FLASH, 37, 43, "b"),
        ])
        f = extract_promo_features(period)
        assert kinds(f) == {OfferKind.MAYOR, OfferKind.FLASH}
        assert f["n_s"] == pytest.approx(2 / 14)
        assert f["xi_Mayor"] == 1.0 and f["xi_Flash"] == 1.0
        assert sum(f[f"xi_{k.value}"] for k in OfferKind) == 2.0


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
        assert f["density"] == 4
        assert f["competitiveness"] == 1.0
        assert f["entropy"] == 0.0

    def test_two_way_split_entropy(self):
        nbrs = [profile("a", category=Category.FOOD), profile("b", category=Category.SHOPS)]
        f = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f["entropy"] == pytest.approx(math.log(2), abs=1e-12)
        assert f["competitiveness"] == pytest.approx(0.5)

    def test_uniform_nine_way_entropy(self):
        nbrs = [profile(f"n{i}", category=c) for i, c in enumerate(Category)]
        f = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f["entropy"] == pytest.approx(math.log(9), abs=1e-12)

    def test_empty_neighborhood_flagged(self):
        f = extract_geo_features(profile("v"), [], {}, 0.0)
        assert f == {"density": 0.0, "area_pop": 0.0, "competitiveness": 0.0, "entropy": 0.0}

    def test_area_pop_sums_neighbor_counters(self):
        nbrs = [profile("a"), profile("b")]
        snaps = {
            "a": make_snapshots([0.0, 2 * DAY], [0, 10], venue_id="a"),
            "b": make_snapshots([0.0, 2 * DAY], [4, 4], venue_id="b"),
        }
        f = extract_geo_features(profile("v"), nbrs, snaps, DAY)
        assert f["area_pop"] == pytest.approx(5.0 + 4.0)

    def test_entropy_permutation_invariant(self, rng):
        cats = list(Category)
        nbrs = [profile(f"n{i}", category=cats[int(rng.integers(9))]) for i in range(30)]
        f1 = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        rng.shuffle(nbrs)
        f2 = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f1["entropy"] == f2["entropy"]
        same_type = f1["competitiveness"] * f1["density"]
        assert round(same_type) == same_type


def kinds(promo_values):
    """Offer kinds flagged 1 in a promotion-feature dict."""
    return {k for k in OfferKind if promo_values[f"xi_{k.value}"] == 1.0}


def _values(category=Category.FOOD, loyalty=2.5, m_b=2.0):
    """A full row of design-column values with the given venue fields."""
    missing = loyalty is None
    return {
        "m_b": m_b, "c_a": 58.0, "loyalty": 1.0 if missing else loyalty,
        "loyalty_missing": 1.0 if missing else 0.0, "likes": 15.0, "tips": 6.0,
        **{f"cat_{c.value}": 1.0 if c is category else 0.0 for c in Category},
        "duration": 11.0,
        **{f"xi_{k.value}": 1.0 if k is OfferKind.FREQUENCY else 0.0 for k in OfferKind},
        "n_s": 1 / 11,
        "density": 3.0, "area_pop": 120.0, "competitiveness": 1 / 3, "entropy": 0.9,
    }


def _vector(values=None, label=EffectLabel.SIGNIFICANT_INCREASE, d=0.4, venue_id="v1"):
    return FeatureVector(
        venue_id=venue_id,
        start_day=30,
        end_day=40,
        horizon=Horizon.SHORT_TERM,
        values=values or _values(),
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
            _vector(label=EffectLabel.INCONCLUSIVE, d=None, venue_id="v2"),  # one campaign per row
            _vector(values=_values(Category.ARTS, loyalty=None, m_b=1.0),
                    label=EffectLabel.POWERED_NULL, d=-0.2, venue_id="v3"),
        ]
        text = write_features_csv(rows)
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        back = read_features_csv(text)
        assert len(back) == 3
        origs = {(r.label, r.d_observed, r.values["loyalty_missing"]) for r in rows}
        loadeds = {(r.label, r.d_observed, r.values["loyalty_missing"]) for r in back}
        assert origs == loadeds
        key = lambda r: (str(r.label), str(r.d_observed))
        for a, b in zip(sorted(rows, key=key), sorted(back, key=key)):
            assert a.values == b.values

    def test_measurements_read_as_written(self):
        header, row = write_features_csv([_vector()]).splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        cells.update(duration="14.5", loyalty="3.5", loyalty_missing="1.0")
        (back,) = read_features_csv(f"{header}\n{','.join(cells.values())}\n")
        assert back.values["duration"] == 14.5
        assert (back.values["loyalty"], back.values["loyalty_missing"]) == (3.5, 1.0)

    def test_label_column_last(self):
        assert CSV_HEADER[-1] == "label"
        assert CSV_HEADER[-2] == "d_observed"

    def test_extraction_deterministic(self):
        nbrs = [profile(f"n{i}", category=list(Category)[i % 3]) for i in range(9)]
        f1 = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        f2 = extract_geo_features(profile("v"), nbrs, {}, 0.0)
        assert f1 == f2


class TestExtractorLayout:
    def test_each_extractor_returns_its_family_columns(self):
        snaps = make_snapshots([0.0, 60 * DAY], [0, 120], users=[0, 48], tips=[0, 12], likes=[0, 30])
        venue = extract_venue_features(segments(), snaps, profile())
        promo = extract_promo_features(PromotionPeriod("v1", 30, 39, [offer(OfferKind.FREQUENCY, 30, 39)]))
        lone = extract_geo_features(profile("v"), [], {}, 0.0)
        crowded = extract_geo_features(profile("v"), [profile("a"), profile("b")], {}, 0.0)
        assert list(venue) == FEATURE_SET_COLUMNS["F_v"]
        assert list(promo) == FEATURE_SET_COLUMNS["F_p"]
        assert list(lone) == list(crowded) == FEATURE_SET_COLUMNS["F_g"]
        assert all(isinstance(v, float) for f in (venue, promo, lone, crowded) for v in f.values())
