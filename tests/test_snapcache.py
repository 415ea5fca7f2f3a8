import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from campaignfx.series import ParseError, ParseReport, parse_snapshots, venue_columns
from campaignfx.snapcache import cache_key, load_cache, write_cache

KEY = bytes(range(32))

# every code point, surrogates included, plus the strings a string array, a
# strict codec or JSON's \u escapes would change: trailing NULs, lone
# surrogates, and a surrogate pair kept as two code points
_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ["\x00", "v\x00", "\ud800", "\udfff", "\ud83d\ude00", "\U0001f600", " ", "\u00e9"]
)


@st.composite
def parse_reports(draw) -> ParseReport:
    venue_ids = draw(st.lists(_TEXT, unique=True, max_size=6))
    lengths = [draw(st.integers(0, 4)) for _ in venue_ids]
    bounds = np.cumsum([0, *lengths]).tolist()
    values = draw(st.lists(st.floats(width=64), min_size=5 * bounds[-1], max_size=5 * bounds[-1]))
    columns = np.array(values, dtype=float).reshape(5, bounds[-1])
    errors = draw(st.lists(st.builds(ParseError, st.integers(1, 2**40), _TEXT), max_size=4))
    return ParseReport(
        readings=venue_columns(columns, venue_ids, bounds),
        errors=errors,
        duplicate_timestamps=draw(st.integers(0, 2**40)),
        columns=columns,
    )


def assert_same_report(loaded: ParseReport, report: ParseReport):
    assert list(loaded.readings) == list(report.readings)
    for venue_id, snaps in report.readings.items():
        got = loaded.readings[venue_id]
        assert got.venue_id == venue_id
        for name in ("ts", "checkins", "users", "tips", "likes"):
            assert getattr(got, name).dtype == np.float64
            assert getattr(got, name).tobytes() == getattr(snaps, name).tobytes(), name
    assert loaded.columns.tobytes() == report.columns.tobytes()
    assert loaded.errors == report.errors
    assert loaded.duplicate_timestamps == report.duplicate_timestamps


def save(path, report, key=KEY):
    with path.open("wb") as f:
        write_cache(f, key, report)


@pytest.fixture(scope="module")
def cache_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cache") / "cache"


class TestRoundTrip:
    @settings(max_examples=150)
    @given(parse_reports())
    @example(ParseReport())
    def test_every_report_comes_back_bit_for_bit(self, cache_path, report):
        save(cache_path, report)
        assert_same_report(load_cache(cache_path, KEY), report)

    def test_parsed_report(self, cache_path):
        lines = [
            json.dumps({"venue_id": venue_id, "ts": ts, "checkins": 3, "users": 1, "specials": 0,
                        "tips": 0, "likes": 0})
            for venue_id, ts in (("b", 5), ("\x00", 1), ("b", 2), ("b", 5), ("\ud800", 3))
        ] + ["{not json", json.dumps({"venue_id": "c", "ts": "nan"})]
        report = parse_snapshots(lines)
        assert report.errors and report.duplicate_timestamps == 1
        save(cache_path, report)
        assert_same_report(load_cache(cache_path, KEY), report)

    def test_loaded_columns_read_only(self, cache_path):
        save(cache_path, parse_snapshots([json.dumps(
            {"venue_id": "v", "ts": 1, "checkins": 3, "users": 1, "specials": 0, "tips": 0, "likes": 0})]))
        snaps = load_cache(cache_path, KEY).readings["v"]
        with pytest.raises(ValueError):
            snaps.checkins[0] = 9.0


class TestMisses:
    @pytest.fixture
    def saved(self, tmp_path):
        report = parse_snapshots([json.dumps(
            {"venue_id": f"v{i % 3}", "ts": i, "checkins": i, "users": 1, "specials": 0, "tips": 0,
             "likes": 0}) for i in range(12)] + ["oops"])
        path = tmp_path / "cache"
        save(path, report)
        return path

    def test_other_key(self, saved):
        assert load_cache(saved, bytes(32)) is None

    def test_every_truncation(self, saved):
        data = saved.read_bytes()
        for size in range(len(data)):
            saved.write_bytes(data[:size])
            assert load_cache(saved, KEY) is None, size

    def test_garbage(self, saved):
        rng = np.random.default_rng(5)
        for prefix in (b"", b"\x93NUMPY\x01\x00", b"PK\x03\x04", KEY):
            saved.write_bytes(prefix + rng.bytes(300))
            assert load_cache(saved, KEY) is None

    # numpy evaluates the header as a Python literal, which may warn about escapes
    @pytest.mark.filterwarnings("ignore::DeprecationWarning", "ignore::SyntaxWarning")
    def test_damaged_header_after_the_key(self, saved):
        """Past a matching key, a damaged ``.npy`` header is still a miss, not an exception."""
        data = saved.read_bytes()
        rng = np.random.default_rng(6)
        alphabet = np.frombuffer(b" \n\t(){}[]'\":,0123456789<f8shapeTrueFalse#\\", dtype=np.uint8)
        for _ in range(3000):
            damaged = bytearray(data)
            for _ in range(int(rng.integers(1, 6))):
                damaged[len(KEY) + int(rng.integers(0, 140))] = int(rng.choice(alphabet))
            saved.write_bytes(bytes(damaged))
            load_cache(saved, KEY)  # returns a report or None; raises nothing

    def test_missing_file_and_directory(self, tmp_path):
        assert load_cache(tmp_path / "absent", KEY) is None
        assert load_cache(tmp_path, KEY) is None


class TestKey:
    def test_follows_bytes_not_path_or_time(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_bytes(b'{"venue_id": "v"}\n')
        b.write_bytes(b'{"venue_id": "v"}\n')
        assert cache_key(a) == cache_key(b)
        b.write_bytes(b'{"venue_id": "w"}\n')  # same size
        assert cache_key(a) != cache_key(b)
        assert len(cache_key(a)) == 32


def test_write_does_not_copy_the_column_block(tmp_path):
    n = 200_000
    columns = np.arange(5 * n, dtype=float).reshape(5, n)
    bounds = [0, n // 2, n]
    report = ParseReport(readings=venue_columns(columns, ["a", "b"], bounds), columns=columns)
    tracemalloc.start()
    try:
        save(tmp_path / "cache", report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < columns.nbytes / 10  # the block is 8 MB
    assert_same_report(load_cache(tmp_path / "cache", KEY), report)
