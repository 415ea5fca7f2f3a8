import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from campaignfx.campaign import (
    OfferKind,
    SpecialOffer,
    align_offer,
    build_promotion_periods,
    eligible_campaigns,
    offer_stats,
    parse_offers,
)

from conftest import make_series


def offer(start, end, kind=OfferKind.FREQUENCY, venue_id="v1", special_id=None):
    return SpecialOffer(
        venue_id=venue_id,
        special_id=special_id or f"s{start}-{end}",
        kind=kind,
        start_day=start,
        end_day=end,
    )


class TestBuildPromotionPeriods:
    def test_one_day_gap_merges(self):
        periods = build_promotion_periods([offer(1, 5), offer(7, 10)])
        assert len(periods) == 1
        assert (periods[0].start_day, periods[0].end_day) == (1, 10)
        assert len(periods[0].offers) == 2

    def test_three_day_gap_splits(self):
        periods = build_promotion_periods([offer(1, 5), offer(9, 12)])
        assert [(p.start_day, p.end_day) for p in periods] == [(1, 5), (9, 12)]

    def test_two_day_gap_still_merges(self):
        periods = build_promotion_periods([offer(1, 5), offer(8, 10)])
        assert len(periods) == 1

    def test_singleton(self):
        periods = build_promotion_periods([offer(4, 4)])
        assert [(p.start_day, p.end_day) for p in periods] == [(4, 4)]

    def test_empty(self):
        assert build_promotion_periods([]) == []

    def test_overlapping_offers_kept_distinct(self):
        periods = build_promotion_periods([offer(1, 10), offer(1, 10, special_id="dup")])
        assert len(periods) == 1
        assert len(periods[0].offers) == 2

    def test_mixed_venues_rejected(self):
        with pytest.raises(ValueError):
            build_promotion_periods([offer(1, 2), offer(4, 5, venue_id="v2")])

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=15)),
        min_size=1, max_size=12,
    ))
    def test_merge_properties(self, spans):
        offers = [offer(s, s + d, special_id=f"s{i}") for i, (s, d) in enumerate(spans)]
        periods = build_promotion_periods(offers)
        # every offer day is covered by its period
        for p in periods:
            for o in p.offers:
                assert p.start_day <= o.start_day and o.end_day <= p.end_day
        # periods sorted and separated by more than the merge gap
        for a, b in zip(periods, periods[1:]):
            assert b.start_day - a.end_day - 1 > 2
        # idempotence: re-merging the flattened offers reproduces the periods
        again = build_promotion_periods([o for p in periods for o in p.offers])
        assert [(p.start_day, p.end_day) for p in again] == [
            (p.start_day, p.end_day) for p in periods
        ]


class TestEligibleCampaigns:
    def test_short_period_excluded(self):
        s = make_series(np.ones(80))
        report = eligible_campaigns([p for p in build_promotion_periods([offer(30, 35)])], {"v1": s})
        assert report.eligible == []
        assert report.skipped[0].reason == "ShortCampaign"

    def test_boundary_duration_included(self):
        s = make_series(np.ones(80))
        periods = build_promotion_periods([offer(30, 36)])  # 7 days
        report = eligible_campaigns(periods, {"v1": s})
        assert len(report.eligible) == 1
        assert report.eligible[0].segments.after is not None  # 43 days remain after

    def test_short_history_excluded(self):
        s = make_series(np.ones(80))
        periods = build_promotion_periods([offer(20, 30)])
        report = eligible_campaigns(periods, {"v1": s})
        assert report.skipped[0].reason == "ShortHistory"

    def test_missing_series_recorded(self):
        periods = build_promotion_periods([offer(30, 40)])
        report = eligible_campaigns(periods, {})
        assert report.skipped[0].reason == "MissingSeries"

    def test_output_subset_of_input_and_filters_hold(self):
        series_index = {"v1": make_series(np.ones(100))}
        offers = [offer(30, 40), offer(50, 52), offer(70, 90)]
        periods = build_promotion_periods(offers)
        report = eligible_campaigns(periods, series_index)
        assert len(report.eligible) + len(report.skipped) == len(periods)
        for c in report.eligible:
            assert c.segments.end_day - c.segments.start_day + 1 >= 7
            assert c.period.start_day >= 28


class TestOfferStats:
    def test_single_offer_step(self):
        periods = build_promotion_periods([offer(1, 3, kind=OfferKind.FLASH)])
        stats = offer_stats(periods)
        assert stats.duration_ecdf["Flash"] == [(3, 1.0)]
        assert type(stats.duration_ecdf["Flash"][0][0]) is int  # offer_stats.json keeps whole days

    def test_kind_shares(self):
        offers = [offer(i * 10, i * 10 + 2, kind=OfferKind.FREQUENCY, special_id=f"f{i}") for i in range(3)]
        offers.append(offer(50, 55, kind=OfferKind.MAYOR))
        periods = build_promotion_periods(offers)
        stats = offer_stats(periods)
        assert stats.kind_shares["Frequency"] == pytest.approx(0.75)
        assert stats.kind_counts["Mayor"] == 1

    def test_empty(self):
        stats = offer_stats([])
        assert stats.kind_counts == {}
        assert stats.duration_ecdf == {}


class TestParseOffers:
    def test_roundtrip_and_alignment(self):
        line = json.dumps({
            "venue_id": "v1", "special_id": "s1", "type": "Mayor",
            "start": "2012-11-01", "end": "2012-11-10",
        })
        report = parse_offers([line])
        assert report.errors == []
        raw = report.offers[0]
        origin = raw.start_ts - 10 * 86400.0
        aligned = align_offer(raw, origin)
        assert (aligned.start_day, aligned.end_day) == (10, 19)
        assert aligned.kind is OfferKind.MAYOR

    def test_unknown_kind_recorded(self):
        line = json.dumps({
            "venue_id": "v1", "special_id": "s1", "type": "Bogus",
            "start": "2012-11-01", "end": "2012-11-02",
        })
        report = parse_offers([line])
        assert len(report.errors) == 1
        assert report.offers == []

    def test_exactly_seven_kinds(self):
        assert len(OfferKind) == 7
        assert {k.value for k in OfferKind} == {
            "Newbie", "Flash", "Frequency", "Friends", "Mayor", "Loyalty", "Swarm"
        }
