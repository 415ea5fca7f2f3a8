import csv
import io
import json
import locale
import tracemalloc
from collections import namedtuple
from enum import Enum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from campaignfx.campaign import parse_offers
from campaignfx.cohort import parse_venues
from campaignfx.errors import IneligibleCampaign, InsufficientData, SpanTooLong
from campaignfx.series import (
    MAX_GRID_DAYS,
    DailyCumulative,
    counter_at,
    csv_text,
    daily_checkins,
    format_timestamp,
    interpolate_daily,
    parse_snapshots,
    parse_timestamp,
    segment,
)
from campaignfx.snapcache import read_lines

from conftest import make_series, make_snapshots

HOUR = 3600.0


def snapshot_line(venue_id="v1", ts="2012-10-22T00:00:00Z", checkins=0, **kw):
    obj = {"venue_id": venue_id, "ts": ts, "checkins": checkins,
           "users": kw.get("users", 0), "specials": kw.get("specials", 0),
           "tips": kw.get("tips", 0), "likes": kw.get("likes", 0)}
    return json.dumps(obj)


class TestParseSnapshots:
    def test_out_of_order_lines_sorted(self):
        lines = [
            snapshot_line(ts="2012-10-23T00:00:00Z", checkins=5),
            snapshot_line(ts="2012-10-22T00:00:00Z", checkins=3),
        ]
        report = parse_snapshots(lines)
        assert report.errors == []
        snaps = report.readings["v1"]
        assert list(snaps.checkins) == [3, 5]
        assert snaps.ts[0] < snaps.ts[1]

    def test_duplicate_timestamp_keeps_last(self):
        lines = [
            snapshot_line(checkins=3),
            snapshot_line(checkins=7),
        ]
        report = parse_snapshots(lines)
        assert list(report.readings["v1"].checkins) == [7]
        assert report.duplicate_timestamps == 1

    def test_missing_field_skips_line_keeps_others(self):
        bad = json.dumps({"venue_id": "v1", "ts": "2012-10-22T00:00:00Z"})
        lines = [bad, snapshot_line(ts="2012-10-23T00:00:00Z", checkins=2)]
        report = parse_snapshots(lines)
        assert len(report.errors) == 1
        assert report.errors[0].line_no == 1
        assert "checkins" in report.errors[0].message
        assert len(report.readings["v1"]) == 1

    def test_negative_count_rejected(self):
        report = parse_snapshots([snapshot_line(checkins=-1)])
        assert len(report.errors) == 1

    def test_invalid_json_recorded(self):
        report = parse_snapshots(["{not json", snapshot_line()])
        assert len(report.errors) == 1
        assert len(report.readings["v1"]) == 1

    def test_csv_alternative(self):
        lines = [
            "venue_id,ts,checkins,users,specials,tips,likes",
            "v1,2012-10-22T00:00:00Z,3,1,0,0,0",
            "v1,2012-10-23T00:00:00Z,5,2,0,1,1",
        ]
        report = parse_snapshots(lines)
        assert report.errors == []
        assert list(report.readings["v1"].checkins) == [3, 5]

    def test_csv_after_leading_blank_lines(self):
        """The header is the first non-blank line; line numbers count the blank lines before it."""
        header = "venue_id,ts,checkins,users,specials,tips,likes"
        rows = ["v1,2012-10-22T00:00:00Z,3,1,0,0,0", "v1,2012-10-23T00:00:00Z,5,2,0,1,1", "v1,x,1,1,0,0,0"]
        report = parse_snapshots(["", " ", header, *rows])
        assert list(report.readings["v1"].checkins) == [3, 5]
        assert [e.line_no for e in report.errors] == [6]
        report = parse_snapshots(["", "venue_id,ts", *rows])
        assert [(e.line_no, e.message) for e in report.errors] == [
            (2, "CSV header missing required columns: checkins, users, specials, tips, likes")]


ID_PARSERS = {
    "snapshots": (parse_snapshots, json.loads(snapshot_line()), "readings"),
    "offers": (parse_offers, {"venue_id": "v1", "special_id": "v1-s0", "type": "Loyalty",
                              "start": "2012-12-10", "end": "2012-12-15"}, "offers"),
    "venues": (parse_venues, {"venue_id": "v1", "category": "Food", "lat": 40.5, "lon": -79.9}, "profiles"),
}


@pytest.mark.parametrize("kind, field", [
    ("snapshots", "venue_id"), ("offers", "venue_id"), ("offers", "special_id"), ("venues", "venue_id"),
])
@pytest.mark.parametrize("value", [None, 12, ""])
def test_ids_must_be_non_empty_strings(kind, field, value):
    """All three input parsers reject an id that is not a non-empty string, with one message."""
    parse, good, parsed = ID_PARSERS[kind]
    report = parse([json.dumps(good), json.dumps(good | {field: value})])
    assert len(getattr(report, parsed)) == 1
    assert [(e.line_no, e.message) for e in report.errors] == [(2, f"{field} must be a non-empty string")]


@pytest.mark.parametrize("kind, field", [("offers", "special_id"), ("venues", "venue_id")])
def test_repeated_id_is_malformed(kind, field):
    """A later offer or venue line with an earlier line's id is malformed; a line that failed claims no id."""
    parse, good, parsed = ID_PARSERS[kind]
    failed = good | {field: "v3", "lat" if kind == "venues" else "type": "bad"}
    report = parse([json.dumps(good), json.dumps(good | {field: "v2"}), "", json.dumps(good),
                    json.dumps(failed), json.dumps(good | {field: "v3"}), json.dumps(good | {field: "v2"})])
    assert [getattr(item, field) for item in getattr(report, parsed)] == [good[field], "v2", "v3"]
    assert [e.line_no for e in report.errors] == [4, 5, 7]
    assert [e.message for e in report.errors if e.line_no != 5] == [
        f"repeated {field} {good[field]!r}", f"repeated {field} 'v2'"]


class TestInterpolateDaily:
    def test_hand_linear_interpolation(self):
        # 10 check-ins at t=0h, 20 at t=25h: the 24h grid point interpolates
        # to 10 + 24/25 * 10 = 19.6
        dc = interpolate_daily(make_snapshots([0.0, 25 * HOUR], [10, 20]))
        # the grid starts at the first reading: the same polls 7h later give the same grid values
        assert np.array_equal(interpolate_daily(make_snapshots([7 * HOUR, 32 * HOUR], [10, 20])).values, dc.values)
        assert np.allclose(dc.values, [10.0, 19.6])
        assert dc.anomaly_count == 0

    def test_identity_on_exact_grid(self):
        dc = interpolate_daily(make_snapshots([i * 86400.0 for i in range(5)], [0, 4, 9, 9, 15]))
        assert np.array_equal(dc.values, [0, 4, 9, 9, 15])

    def test_decrease_clamped_and_counted(self):
        dc = interpolate_daily(make_snapshots([0.0, 86400.0, 2 * 86400.0], [10, 8, 12]))
        assert np.array_equal(dc.values, [10, 10, 12])
        assert dc.anomaly_count == 1

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            interpolate_daily(make_snapshots([0.0], [1]))

    def test_no_extrapolation_beyond_last_reading(self):
        dc = interpolate_daily(make_snapshots([0.0, 86400.0 * 2.5], [0, 10]))
        assert len(dc.values) == 3  # grid days 0, 1, 2 only

    def test_span_bounded_before_allocating(self):
        limit = MAX_GRID_DAYS * 86400.0
        dc = interpolate_daily(make_snapshots([0.0, limit - 1.0], [0, 1]))
        assert len(dc.values) == MAX_GRID_DAYS
        for ts in ([0.0, limit], [0.0, 1e300], [-1e308, 1e308]):
            with pytest.raises(SpanTooLong):
                interpolate_daily(make_snapshots(ts, [0, 1]))

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=40))
    def test_anomaly_count_matches_raw_decreases(self, counts):
        ts = [i * 86400.0 + (i % 3) * HOUR for i in range(len(counts))]
        dc = interpolate_daily(make_snapshots(ts, counts))
        expected = sum(1 for a, b in zip(counts, counts[1:]) if b < a)
        assert dc.anomaly_count == expected
        assert np.all(np.diff(dc.values) >= 0)


class TestDailyCheckins:
    def test_direct_difference(self):
        dc = DailyCumulative("v1", np.array([10.0, 12.0, 15.0]))
        ds = daily_checkins(dc)
        assert np.array_equal(ds.values, [2, 3])

    def test_constant_series(self):
        dc = DailyCumulative("v1", np.array([5.0, 5.0, 5.0, 5.0]))
        assert np.array_equal(daily_checkins(dc).values, [0, 0, 0])

    def test_real_valued(self):
        dc = DailyCumulative("v1", np.array([0.0, 1.5, 4.0]))
        assert np.allclose(daily_checkins(dc).values, [1.5, 2.5])

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            daily_checkins(DailyCumulative("v1", np.array([1.0])))

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=60))
    def test_telescoping_sum(self, counts):
        values = np.maximum.accumulate(np.asarray(counts, dtype=float))
        ds = daily_checkins(DailyCumulative("v1", values))
        assert ds.values.sum() == pytest.approx(values[-1] - values[0])
        assert np.all(ds.values >= 0)


class TestSegment:
    def test_full_after_window(self):
        s = make_series(np.arange(70))
        seg = segment(s, 30, 40)
        assert len(seg.before) == 28
        assert len(seg.during) == 11
        assert len(seg.after) == 28
        assert seg.before[0] == 2  # days 2..29

    def test_short_after_window_kept(self):
        s = make_series(np.arange(50))
        seg = segment(s, 30, 40)
        assert len(seg.after) == 9

    def test_tiny_after_window_absent(self):
        s = make_series(np.arange(45))
        seg = segment(s, 30, 40)
        assert seg.after is None

    def test_short_history_rejected(self):
        s = make_series(np.arange(60))
        with pytest.raises(IneligibleCampaign) as exc:
            segment(s, 20, 30)
        assert str(exc.value) == "ShortHistory"

    def test_short_campaign_rejected(self):
        s = make_series(np.arange(60))
        with pytest.raises(IneligibleCampaign) as exc:
            segment(s, 30, 33)
        assert str(exc.value) == "ShortCampaign"

    def test_campaign_truncated_to_data(self):
        # campaign extends beyond the observed series: during is truncated
        s = make_series(np.arange(60))
        seg = segment(s, 30, 200)
        assert seg.end_day == 59
        assert len(seg.during) == 30
        assert seg.after is None

    @given(
        st.integers(min_value=28, max_value=60),
        st.integers(min_value=7, max_value=40),
        st.integers(min_value=0, max_value=40),
    )
    def test_segments_disjoint_and_contiguous(self, start, duration, extra_after):
        n = start + duration + extra_after
        s = make_series(np.arange(n))
        seg = segment(s, start, start + duration - 1)
        assert seg.before[-1] == start - 1
        assert seg.during[0] == start
        assert seg.during[-1] == seg.end_day
        if seg.after is not None:
            assert 7 <= len(seg.after) <= 28
            assert seg.after[0] == seg.end_day + 1
        chained = np.concatenate(
            [seg.before, seg.during] + ([seg.after] if seg.after is not None else [])
        )
        assert np.all(np.diff(chained) == 1)  # strictly increasing day labels


class TestCsvText:
    def test_cell_rules(self):
        class Kind(Enum):
            A = "alpha"

        text = csv_text(
            ["none", "yes", "no", "kind", "float", "numpy", "int", "text"],
            [(None, True, False, Kind.A, 0.1, np.float64(0.25), 7, "a,b")],
        )
        assert text == 'none,yes,no,kind,float,numpy,int,text\n,1,0,alpha,0.1,0.25,7,"a,b"\n'
        assert csv_text(["a", "b"], []) == "a,b\n"


class TestCountersAtDay:
    def test_interpolates_all_counters(self):
        snaps = make_snapshots([0.0, 2 * 86400.0], [0, 10], users=[0, 4], tips=[0, 2], likes=[0, 6])
        t = 1 * 86400.0  # grid day 1 of a venue first polled at 0
        assert counter_at(snaps, "checkins", t) == pytest.approx(5.0)
        assert counter_at(snaps, "users", t) == pytest.approx(2.0)
        assert counter_at(snaps, "tips", t) == pytest.approx(1.0)
        assert counter_at(snaps, "likes", t) == pytest.approx(3.0)


# --- Reference row parser: one frozen reading per line, sorted and deduped per venue in Python.

_ORACLE_FIELDS = ("venue_id", "ts", "checkins", "users", "specials", "tips", "likes")
_ORACLE_COUNTERS = ("checkins", "users", "specials", "tips", "likes")
_OracleRow = namedtuple("_OracleRow", _ORACLE_FIELDS)


class _OracleMalformed(Exception):
    def __init__(self, line_no, message):
        super().__init__(message)
        self.line_no = line_no
        self.message = message


def _oracle_reading(obj, line_no):
    try:
        venue_id = obj["venue_id"]
        ts = parse_timestamp(obj["ts"])
        counters = {}
        for name in _ORACLE_COUNTERS:
            counters[name] = int(obj[name])
            if counters[name] < 0:
                raise ValueError(f"{name} is negative")
    except KeyError as exc:
        raise _OracleMalformed(line_no, f"missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise _OracleMalformed(line_no, str(exc)) from exc
    if not isinstance(venue_id, str) or not venue_id:
        raise _OracleMalformed(line_no, "venue_id must be a non-empty string")
    return _OracleRow(venue_id=venue_id, ts=ts, **counters)


def _oracle_records(lines, errors):
    first = next((line.strip() for line in lines if line.strip()), "{")
    if first.startswith("{"):
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append((line_no, f"invalid JSON: {exc.msg}"))
                continue
            if not isinstance(obj, dict):
                errors.append((line_no, "record is not an object"))
                continue
            yield line_no, obj
    else:
        skipped = next(i for i, line in enumerate(lines) if line.strip())  # the header is the first non-blank line
        text = "".join(line if line.endswith("\n") else line + "\n" for line in lines[skipped:])
        reader = csv.DictReader(io.StringIO(text))
        missing = [name for name in _ORACLE_FIELDS if name not in (reader.fieldnames or ())]
        if missing:
            errors.append((skipped + 1, f"CSV header missing required columns: {', '.join(missing)}"))
            return
        for row in reader:
            yield skipped + reader.line_num, {k: v for k, v in row.items() if k is not None}


def oracle_parse(lines):
    """(errors, duplicate count, {venue_id: [_OracleRow]}) of the row parser."""
    errors, per_venue, duplicates = [], {}, 0
    for line_no, obj in _oracle_records(lines, errors):
        try:
            reading = _oracle_reading(obj, line_no)
        except _OracleMalformed as exc:
            errors.append((exc.line_no, exc.message))
            continue
        per_venue.setdefault(reading.venue_id, []).append((reading.ts, line_no, reading))
    readings = {}
    for venue_id, entries in per_venue.items():
        entries.sort(key=lambda e: (e[0], e[1]))
        deduped = []
        for ts, _, reading in entries:
            if deduped and deduped[-1].ts == ts:
                deduped[-1] = reading
                duplicates += 1
            else:
                deduped.append(reading)
        readings[venue_id] = deduped
    return errors, duplicates, readings


# Several spellings of a few instants, so equal timestamps arrive out of order and in mixed forms.
_TIMESTAMPS = st.one_of(
    st.sampled_from([
        "2012-10-22T00:00:00Z", "2012-10-22T02:00:00+02:00", "2012-10-21T19:00:00-05:00",
        "2012-10-22T12:00:00Z", "2012-10-23T00:00:00+00:00", "2012-10-23T00:00:00",
        "2012-10-22T00:00:00.500Z", " 2012-10-24T00:00:00Z ",
    ]),
    st.integers(min_value=0, max_value=12).map(lambda k: 1350864000 + 21600 * k),
)
# Values that convert (epoch numbers, bools, floats int() truncates, numeric strings) ...
_ODD = {
    "venue_id": st.sampled_from(["v1", "v2", "v3"]),
    "ts": st.sampled_from([1350864000, 1350864000.0, 1350907200.5, 0, 0.0, -0.0, -1.5]),
    "counter": st.sampled_from([True, False, 2.0, 3.7, -0.5, -0.0, "4", " 7 ", 2**53 + 1, 2**60]),
}
# ... and values that do not.
_BAD = {
    "venue_id": st.sampled_from(["", 7, None, ["v1"], True]),
    "ts": st.sampled_from(["yesterday", "", "2012-13-01T00:00:00Z", None, True, [1]]),
    "counter": st.sampled_from([-1, -3, -1.0, "x", "2.5", "", None, [], {}]),
}


@st.composite
def _snapshot_objects(draw):
    obj = {
        "venue_id": draw(_ODD["venue_id"]),
        "ts": draw(_TIMESTAMPS),
        **{name: draw(st.integers(min_value=0, max_value=50)) for name in _ORACLE_COUNTERS},
    }
    for name in draw(st.lists(st.sampled_from(_ORACLE_FIELDS), max_size=2)):
        kind = draw(st.sampled_from(["missing", "odd", "odd", "bad"]))
        if kind == "missing":
            obj.pop(name, None)
        else:
            obj[name] = draw((_ODD if kind == "odd" else _BAD)[name if name in _ODD else "counter"])
    return obj


_JSONL_LINES = st.lists(
    st.one_of(
        _snapshot_objects().map(json.dumps),
        _snapshot_objects().map(json.dumps),
        _snapshot_objects().map(json.dumps),
        st.tuples(st.sampled_from(["", " ", "\ufeff"]), _snapshot_objects().map(json.dumps),
                  st.sampled_from(["", "\t ", " x", "{}", "]"])).map("".join),
        st.sampled_from(["", "   ", "{not json", "[1, 2]", "3", '"text"', "null", "{}"]),
    ),
    max_size=40,
)


def _csv_cell(value):
    return "" if value is None else str(value)


@st.composite
def _csv_lines(draw):
    header = list(_ORACLE_FIELDS)
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        header.remove(draw(st.sampled_from(_ORACLE_FIELDS)))
    lines = [",".join(header)]
    for obj in draw(st.lists(_snapshot_objects(), max_size=40)):
        if type(obj.get("ts")) is int and draw(st.booleans()):
            obj["ts"] = format_timestamp(obj["ts"])  # an epoch string is not a CSV timestamp
        cells = [_csv_cell(obj.get(name)) for name in header]
        shape = draw(st.integers(min_value=0, max_value=9))
        if shape == 0:
            cells = cells[:-2]  # short row: the last columns read as None
        elif shape == 1:
            cells.append("extra")
        elif shape == 2:
            lines.append("")
        lines.append(",".join(cells))
    return lines


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestColumnarParseMatchesRowParser:
    def _check(self, lines):
        errors, duplicates, expected = oracle_parse(lines)
        report = parse_snapshots(lines)
        assert [(e.line_no, e.message) for e in report.errors] == errors
        assert report.duplicate_timestamps == duplicates
        assert list(report.readings) == list(expected)
        for venue_id, readings in expected.items():
            snaps = report.readings[venue_id]
            assert snaps.venue_id == venue_id
            for name in ("ts", "checkins", "users", "tips", "likes"):
                column = getattr(snaps, name)
                assert column.dtype == np.float64
                assert column.tobytes() == _bits([getattr(r, name) for r in readings]), name

    @settings(max_examples=300)
    @given(_JSONL_LINES)
    def test_jsonl(self, lines):
        self._check(lines)

    @settings(max_examples=150)
    @given(_csv_lines())
    def test_csv(self, lines):
        self._check(lines)

    def test_empty_input(self):
        report = parse_snapshots([])
        assert (report.readings, report.errors, report.duplicate_timestamps) == ({}, [], 0)

    def test_columns_read_only(self):
        snaps = parse_snapshots([snapshot_line(checkins=3)]).readings["v1"]
        with pytest.raises(ValueError):
            snaps.checkins[0] = 9.0


# --- One pass over the input: a lazy iterator parses like the list of the same lines.

_QUOTED_NEWLINE_ROW = '"v\n1",2012-10-22T00:00:00Z,1,1,0,0,0'


@st.composite
def _separator_lines(draw):
    """JSONL lines with raw U+2028, U+2029 and U+0085 inside the venue id, where ``splitlines`` would break."""
    return [
        json.dumps({**obj, "venue_id": draw(st.sampled_from(["v\u2028", "\x85v", "v\u2029w", "v1"]))},
                   ensure_ascii=False)
        for obj in draw(st.lists(_snapshot_objects(), max_size=10))
    ]


@st.composite
def _stream_cases(draw):
    blank = draw(st.lists(st.sampled_from(["", " ", "\t"]), max_size=3))
    kind = draw(st.sampled_from(["jsonl", "csv", "header only", "quoted newline", "separators"]))
    if kind == "jsonl":
        body = draw(_JSONL_LINES)
    elif kind == "csv":
        body = draw(_csv_lines())
    elif kind == "header only":
        body = [",".join(_ORACLE_FIELDS)]
    elif kind == "quoted newline":
        body = draw(_csv_lines())
        at = draw(st.integers(min_value=1, max_value=len(body)))
        # the record over two lines, or as one line that holds the newline;
        # the malformed row after it shows which line number the next record gets
        row = _QUOTED_NEWLINE_ROW.split("\n") if draw(st.booleans()) else [_QUOTED_NEWLINE_ROW]
        body[at:at] = [*row, "v1,yesterday,1,1,0,0,0"]
    else:
        body = draw(_separator_lines())
    return blank + body


def assert_same_parse(report, expected):
    assert [(e.line_no, e.message) for e in report.errors] == [(e.line_no, e.message) for e in expected.errors]
    assert report.duplicate_timestamps == expected.duplicate_timestamps
    assert list(report.readings) == list(expected.readings)
    assert report.columns.tobytes() == expected.columns.tobytes()


class TestStreamedParse:
    @settings(max_examples=80)
    @given(_stream_cases())
    def test_iterator_parses_like_the_list(self, lines):
        assert_same_parse(parse_snapshots(iter(lines)), parse_snapshots(list(lines)))
        TestColumnarParseMatchesRowParser()._check(lines)

    @settings(max_examples=30)
    @given(lines=st.one_of(_JSONL_LINES, _csv_lines(), _separator_lines()))
    def test_crlf_file_through_read_lines(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("crlf") / "snapshots"
        path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        with mock.patch.object(locale, "getpreferredencoding", lambda do_setlocale=True: "utf-8"):
            assert_same_parse(parse_snapshots(read_lines(path)), parse_snapshots(lines))

    @pytest.mark.parametrize("lines", [
        ["", snapshot_line(checkins=1), "{bad", snapshot_line(ts="2012-10-23T00:00:00Z", checkins=2)],
        [",".join(_ORACLE_FIELDS), "v1,2012-10-22T00:00:00Z,1,1,0,0,0", "", "v1,x,1,1,0,0,0"],
    ], ids=["jsonl", "csv"])
    def test_one_shot_iterator_read_once(self, lines):
        reads = []

        def one_shot():  # no __len__, and a second pass would see nothing
            for line in lines:
                reads.append(line)
                yield line

        assert_same_parse(parse_snapshots(one_shot()), parse_snapshots(lines))
        assert reads == lines

    def test_lines_are_not_held(self):
        # 4,000 lines of ~2 KB each, from ten venues: ~8.6 MB of text that a
        # list of the lines would hold, against ~0.2 MB of parsed columns
        ids = [f"{i}" + "x" * 2000 for i in range(10)]
        lines = (snapshot_line(ids[i % 10], 1350864000 + 3600 * i, i) for i in range(4000))
        tracemalloc.start()
        try:
            report = parse_snapshots(lines)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (len(report.readings), report.columns.shape) == (10, (5, 4000))
        assert peak < 2_000_000
