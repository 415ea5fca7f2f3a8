"""Edge paths not covered by the per-module suites."""

import json

import numpy as np
import pytest

from campaignfx.campaign import parse_offers
from campaignfx.cohort import Category, VenueProfile, parse_venues
from campaignfx.config import RunConfig
from campaignfx.geo import RadiusIndex, haversine_miles
from campaignfx.pipeline import load_corpus, segment_stage
from campaignfx.series import parse_snapshots, segment
from campaignfx.synth import SynthConfig, generate_corpus_data

from conftest import make_series


class TestPolarRadiusQuery:
    def test_near_pole_falls_back_to_row_scan(self):
        # at this latitude the longitude bound degenerates and the index
        # must scan whole row bands instead
        profiles = [
            VenueProfile(f"p{i}", Category.FOOD, 89.999, -180.0 + i * 40.0)
            for i in range(9)
        ]
        profiles.append(VenueProfile("lower", Category.FOOD, 89.9, 0.0))
        index = RadiusIndex(profiles, cell_deg=0.001)
        got = {p.venue_id for p in index.within_radius(89.999, 0.0, 5.0)}
        expected = {
            p.venue_id for p in profiles
            if haversine_miles(89.999, 0.0, p.lat, p.lon) <= 5.0
        }
        assert got == expected
        assert len(got) >= 2  # the near-pole ring collapses within a few miles


class TestWindowKnobs:
    def test_custom_baseline_and_post_windows(self):
        s = make_series(np.arange(60))
        seg = segment(s, 20, 30, k=14, w_max=10, w_min=5)
        assert len(seg.before) == 14
        assert len(seg.after) == 10

    def test_knobs_flow_through_config(self):
        corpus = generate_corpus_data(SynthConfig(
            n_venues=10, days=70, promo_fraction=0.5, seed=31,
        ))
        loaded = load_corpus(corpus.snapshot_lines(), corpus.offer_lines())
        strict = segment_stage(loaded, RunConfig(k=60, seed=31))
        default = segment_stage(loaded, RunConfig(seed=31))
        # a 60-day history requirement excludes every campaign in a 70-day corpus
        assert strict.eligible == []
        assert len(default.eligible) == 5
        assert all(s.reason == "ShortHistory" for s in strict.skipped)


class TestCsvSnapshotCorpus:
    def test_csv_snapshots_equivalent_to_jsonl(self):
        corpus = generate_corpus_data(SynthConfig(n_venues=6, days=70, promo_fraction=0.5, seed=33))
        jsonl_loaded = load_corpus(corpus.snapshot_lines(), corpus.offer_lines())

        header = "venue_id,ts,checkins,users,specials,tips,likes"
        from campaignfx.series import format_timestamp

        csv_lines = [header]
        for venue in corpus.venues:
            s = venue.snapshots
            for ts, c, u, sp, t, l in zip(s.ts, s.checkins, s.users, venue.specials, s.tips, s.likes):
                csv_lines.append(
                    f"{venue.profile.venue_id},{format_timestamp(ts)},{int(c)},"
                    f"{int(u)},{sp},{int(t)},{int(l)}"
                )
        csv_loaded = load_corpus(csv_lines, corpus.offer_lines())
        assert csv_loaded.periods == jsonl_loaded.periods
        for venue_id, ds in jsonl_loaded.series.items():
            assert np.array_equal(csv_loaded.series[venue_id].values, ds.values)


def _edited(obj, **changes):
    """JSON line of ``obj`` with fields replaced; ``...`` removes one."""
    obj = dict(obj)
    for name, value in changes.items():
        if value is ...:
            del obj[name]
        else:
            obj[name] = value
    return json.dumps(obj)


_SNAPSHOT = {"venue_id": "v1", "ts": "2012-10-22T00:00:00Z", "checkins": 1, "users": 1,
             "specials": 0, "tips": 0, "likes": 0}
_OFFER = {"venue_id": "v1", "special_id": "s1", "type": "Flash", "start": "2012-10-22", "end": "2012-10-29"}
_VENUE = {"venue_id": "v1", "lat": 40.0, "lon": -80.0, "category": "Food"}
_SHARED_ERRORS = [
    (2, "invalid JSON: Expecting property name enclosed in double quotes"),
    (3, "record is not an object"),
]


class TestParseErrorLadder:
    """All three JSONL parsers skip blank lines and word each failure the same way."""

    @pytest.mark.parametrize("parse, good, bad_lines, errors", [
        (parse_snapshots, _SNAPSHOT,
         [_edited(_SNAPSHOT, users=...), _edited(_SNAPSHOT, tips="x"),
          _edited(_SNAPSHOT, venue_id=""), _edited(_SNAPSHOT, ts=None),
          _edited(_SNAPSHOT, ts=float("nan")), _edited(_SNAPSHOT, ts=-float("inf")),
          _edited(_SNAPSHOT, ts=10**400), _edited(_SNAPSHOT, checkins=float("inf")),
          _edited(_SNAPSHOT, likes=10**400), _edited(_SNAPSHOT, tips=float("nan"))],
         [(6, "missing field 'users'"), (7, "invalid literal for int() with base 10: 'x'"),
          (8, "venue_id must be a non-empty string"),
          (9, "timestamp must be a string or number, got NoneType"),
          (10, "timestamp must be a finite number"), (11, "timestamp must be a finite number"),
          (12, "timestamp must be a finite number"), (13, "checkins is out of range"),
          (14, "likes is out of range"), (15, "cannot convert float NaN to integer")]),
        (parse_offers, _OFFER,
         [_edited(_OFFER, special_id=...), _edited(_OFFER, type="Bogus"),
          _edited(_OFFER, end="2012-10-01"), _edited(_OFFER, start=[1]),
          _edited(_OFFER, start=float("nan")), _edited(_OFFER, end=float("inf"))],
         [(6, "missing field 'special_id'"), (7, "unknown offer type 'Bogus'"),
          (8, "offer ends before it starts"), (9, "timestamp must be a string or number, got list"),
          (10, "timestamp must be a finite number"), (11, "timestamp must be a finite number")]),
        (parse_venues, _VENUE,
         [_edited(_VENUE, lat=...), _edited(_VENUE, category="Bowling"),
          _edited(_VENUE, lat=91.0), _edited(_VENUE, lon="east"),
          _edited(_VENUE, lat=float("nan")), _edited(_VENUE, lon=10**400)],
         [(6, "missing field 'lat'"), (7, "'Bowling' is not a valid Category"),
          (8, "latitude 91.0 out of range"), (9, "could not convert string to float: 'east'"),
          (10, "latitude nan out of range"), (11, "int too large to convert to float")]),
    ], ids=["snapshots", "offers", "venues"])
    def test_line_numbers_and_messages(self, parse, good, bad_lines, errors):
        lines = ["", "{not json", "[1, 2]", "   ", json.dumps(good)] + bad_lines
        report = parse(lines)
        assert [(e.line_no, e.message) for e in report.errors] == _SHARED_ERRORS + errors
