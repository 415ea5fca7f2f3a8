"""Snapshot parsing, daily-grid interpolation, and campaign segmentation.

Raw venue snapshots arrive roughly once per day but never exactly on a 24h
cadence. Parsing puts each venue's polls into one ``VenueSnapshots`` record
of float64 columns (``ts``, ``checkins``, ``users``, ``tips``, ``likes``)
sorted by timestamp; of polls sharing a timestamp, the one that appeared
last in the input is kept. This module then rebuilds an exact daily grid
anchored at each venue's first observation, first-differences the
cumulative check-in counter into daily counts, and slices those counts into
before / during / after windows around a campaign.

Day-index convention: grid point ``g`` sits at ``origin_ts + g * 86400``
seconds. The daily value labelled day ``d`` is the accrual over the grid
window ``[d, d+1)``, i.e. ``values[d]`` of a ``DailySeries``. Campaign day
indices use the same labels.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import operator
import sys
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import IneligibleCampaign, InsufficientData, SpanTooLong

DAY_SECONDS = 86400.0
MAX_GRID_DAYS = 3660      # longest daily grid interpolate_daily builds, about ten years

BEFORE_DAYS = 28          # k: baseline window length
AFTER_MAX_DAYS = 28       # cap on the post-campaign window
AFTER_MIN_DAYS = 7        # minimum post-campaign window for long-term analysis
MIN_CAMPAIGN_DAYS = 7     # minimum campaign duration

_SNAPSHOT_FIELDS = ("venue_id", "ts", "checkins", "users", "specials", "tips", "likes")
_COUNTER_FIELDS = ("checkins", "users", "specials", "tips", "likes")
_counter_values = operator.itemgetter(*_COUNTER_FIELDS)
_EXACT = 2**53  # plain integer counters below this convert to float64 exactly
_MAX_FLOAT = sys.float_info.max
_decode_prefix = json.JSONDecoder().raw_decode


@dataclass(frozen=True, eq=False)
class VenueSnapshots:
    """One venue's snapshot polls as read-only float64 columns sorted by ``ts``."""

    venue_id: str
    ts: np.ndarray  # seconds since epoch, UTC
    checkins: np.ndarray
    users: np.ndarray
    tips: np.ndarray
    likes: np.ndarray

    def __post_init__(self):
        for column in (self.ts, self.checkins, self.users, self.tips, self.likes):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ts)


@dataclass
class DailyCumulative:
    """Cumulative check-ins interpolated onto an exact 24h grid."""

    venue_id: str
    origin_ts: float
    values: np.ndarray
    anomaly_count: int = 0


@dataclass
class DailySeries:
    """Daily check-in counts: first difference of a ``DailyCumulative``."""

    venue_id: str
    values: np.ndarray  # values[d] is day d's count; day 0 starts at the venue's first reading

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last_day(self) -> int:
        return len(self.values) - 1

    def day_slice(self, start_day: int, end_day: int) -> np.ndarray:
        """Values for day labels ``start_day..end_day`` inclusive."""
        if start_day < 0 or end_day >= len(self.values):
            raise InsufficientData(
                f"days [{start_day}, {end_day}] outside series of {self.venue_id}"
            )
        return self.values[start_day:end_day + 1]


@dataclass
class SegmentedSeries:
    """Daily counts split around a campaign window."""

    before: np.ndarray
    during: np.ndarray
    after: Optional[np.ndarray]
    start_day: int
    end_day: int

    @property
    def long_term_eligible(self) -> bool:
        return self.after is not None


@dataclass
class ParseError:
    line_no: int
    message: str


@dataclass
class ParseReport:
    """Outcome of parsing a snapshot file."""

    readings: dict[str, VenueSnapshots] = field(default_factory=dict)
    errors: list[ParseError] = field(default_factory=list)
    duplicate_timestamps: int = 0
    # (5, M) float64 block of ts, checkins, users, tips, likes; each venue's
    # columns in ``readings`` are slices of it, venue after venue
    columns: np.ndarray = field(default_factory=lambda: np.empty((5, 0)), compare=False, repr=False)


def record_id(value: object, name: str) -> str:
    """``value`` of the id field ``name``, which must be a non-empty string."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string")
    return value


def parse_timestamp(raw: object) -> float:
    """ISO-8601 UTC string (or epoch seconds) -> seconds since epoch."""
    if isinstance(raw, str):
        text = raw.strip()
        if text.endswith("Z"):
            text = text[:-1] + "+00:00"
        dt = datetime.fromisoformat(text)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.timestamp()
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        if not -_MAX_FLOAT <= raw <= _MAX_FLOAT:  # NaN and the infinities fail too
            raise ValueError("timestamp must be a finite number")
        return float(raw)
    raise ValueError(f"timestamp must be a string or number, got {type(raw).__name__}")


def format_timestamp(ts: float) -> str:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%SZ")


_ISO_FIRST, _ISO_LAST = -30_610_224_000.0, 253_402_300_799.0  # 1000-01-01, 9999-12-31T23:59:59


def format_timestamps(ts: np.ndarray) -> list[str]:
    """``format_timestamp`` of each value, by numpy for whole seconds in years 1000-9999.

    Any other value (fractional, out of that range, NaN or infinite) goes
    through ``format_timestamp`` itself, and raises what it raises: that
    rounds to whole microseconds before it truncates to seconds, and writes
    years below 1000 unpadded, where numpy would do neither.
    """
    ts = np.asarray(ts, dtype=float)
    fast = (ts >= _ISO_FIRST) & (ts <= _ISO_LAST) & (ts == np.floor(ts))  # False for NaN and ±inf
    texts = np.datetime_as_string(ts[fast].astype(np.int64).astype("datetime64[s]"), timezone="UTC").tolist()
    if len(texts) == len(ts):
        return texts
    fast_texts = iter(texts)
    return [next(fast_texts) if ok else format_timestamp(t) for ok, t in zip(fast.tolist(), ts.tolist())]


def parse_records(
    lines: Iterable[str], convert: Callable[[dict], object], errors: list[ParseError],
    csv_fields: Sequence[str] = (),
) -> Iterator:
    """``convert`` of each JSONL record, lazily; each bad line is appended to ``errors`` and skipped.

    With ``csv_fields``, lines whose first non-blank one is not a JSON object
    are CSV with that line as the header, which must name every one of
    ``csv_fields``. A line fails when it is not a JSON object or ``convert``
    raises ``KeyError`` (missing field), ``TypeError``, ``ValueError`` or
    ``OverflowError`` (a number beyond float range). ``lines`` is read once,
    one line at a time; only the blank lines before the first other one are
    held, to choose the format.
    """
    lines = iter(lines)
    head: list[str] = []
    if csv_fields:
        for line in lines:
            head.append(line)
            if line.strip():
                break
    if head and head[-1].strip() and not head[-1].lstrip().startswith("{"):
        # the header is the first non-blank line; line numbers still count the blank ones before it
        skipped = sum(1 for _ in _csv_lines(head[:-1]))
        records = _csv_rows(_csv_lines(itertools.chain(head[-1:], lines)), csv_fields, errors, skipped)
    else:
        lines = itertools.chain(head, lines)
        records = ((line_no, line) for line_no, line in enumerate(lines, start=1) if line.strip())
    yield from _convert_records(records, convert, errors)


def read_csv_table(text: str, fields: Sequence[str], convert: Callable[[dict], object]) -> list:
    """``convert`` of every row of CSV ``text``, whose header must name every one of ``fields``.

    Rows fail as in ``parse_records``, but a table is read whole or not at
    all: any failure raises ``ValueError`` naming the line of the first.
    """
    errors: list[ParseError] = []
    rows = list(_convert_records(_csv_rows(io.StringIO(text), fields, errors), convert, errors))
    if errors:
        raise ValueError(f"line {errors[0].line_no}: {errors[0].message}")
    return rows


def _convert_records(records: Iterable[tuple[int, object]], convert: Callable[[dict], object],
                     errors: list[ParseError]) -> Iterator:
    """``convert`` of each ``(line_no, record)``; each failure is appended to ``errors`` and skipped."""
    for line_no, record in records:
        try:
            if type(record) is str:  # a JSONL line; CSV rows arrive as dicts
                record = _load_json(record)
                if not isinstance(record, dict):
                    raise TypeError("record is not an object")
            value = convert(record)
        except json.JSONDecodeError as exc:
            errors.append(ParseError(line_no, f"invalid JSON: {exc.msg}"))
        except KeyError as exc:
            errors.append(ParseError(line_no, f"missing field {exc.args[0]!r}"))
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append(ParseError(line_no, str(exc)))
        else:
            yield value


def _load_json(line: str) -> object:
    """``json.loads(line)``, through the decoder's prefix scan when the line is one whole document."""
    try:
        obj, end = _decode_prefix(line)
        if end == len(line):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(line)  # anything else: json.loads itself gives the object or the error


def _csv_lines(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` as the csv reader takes them: split at each ``\\n`` and ending in one, as if joined into a file."""
    for line in lines:
        yield from io.StringIO(line if line.endswith("\n") else line + "\n")  # splits at \n only


def _csv_rows(lines: Iterable[str], fields: Sequence[str], errors: list[ParseError], skipped: int = 0):
    """``(line_no, row)`` of each CSV record in ``lines``, which start ``skipped`` lines into the input."""
    reader = csv.DictReader(lines)
    missing = [name for name in fields if name not in (reader.fieldnames or ())]
    if missing:
        errors.append(ParseError(skipped + 1, f"CSV header missing required columns: {', '.join(missing)}"))
        return
    for row in reader:  # line_num: the line the record ends on, blank lines and quoted newlines counted
        yield skipped + reader.line_num, {k: v for k, v in row.items() if k is not None}


def csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """CSV text of ``header`` then ``rows``, one ``\\n``-terminated line each.

    ``None`` writes an empty cell (the csv module's rule), a bool ``0``/``1``
    and an enum its value; every other cell, floats included, is written as
    ``str`` writes it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_csv_cell(v) for v in row] for row in rows)
    return buf.getvalue()


def _csv_cell(value: object) -> object:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Enum):
        return value.value
    return value


def _snapshot_row(obj: dict) -> tuple[str, tuple]:
    """``venue_id`` and ``(ts, checkins, users, tips, likes)`` of one snapshot record."""
    venue_id = obj["venue_id"]
    ts = parse_timestamp(obj["ts"])
    try:
        c, u, s, t, l = _counter_values(obj)
        plain = type(c) is type(u) is type(s) is type(t) is type(l) is int and (
            0 <= c < _EXACT and 0 <= u < _EXACT and 0 <= s < _EXACT and 0 <= t < _EXACT and 0 <= l < _EXACT
        )
    except KeyError:
        plain = False
    if not plain:
        # field by field, so int() truncation and the first failing field decide
        counters = []
        for name in _COUNTER_FIELDS:
            try:
                value = int(obj[name])
                counters.append(float(value))  # counters are stored as float64
            except OverflowError:  # infinity, or an integer beyond float range
                raise ValueError(f"{name} is out of range") from None
            if value < 0:
                raise ValueError(f"{name} is negative")
        c, u, s, t, l = counters
    return record_id(venue_id, "venue_id"), (ts, c, u, t, l)


def parse_snapshots(lines: Iterable[str]) -> ParseReport:
    """Parse snapshot records (JSONL, or CSV with identical column names).

    Each venue gets one ``VenueSnapshots`` record sorted by timestamp. Of
    polls with the same venue and timestamp only the one that appeared last
    in the input is kept; each one dropped counts in
    ``duplicate_timestamps``. Malformed lines are recorded and skipped
    rather than aborting the parse.
    """
    report = ParseReport()
    code_of: dict[str, int] = {}  # venue codes in order of first appearance
    codes, table = array("q"), array("d")  # one code, and one row of five floats, per line
    for venue_id, values in parse_records(lines, _snapshot_row, report.errors, _SNAPSHOT_FIELDS):
        codes.append(code_of.setdefault(venue_id, len(code_of)))
        table.extend(values)
    if not codes:
        return report
    codes = np.frombuffer(codes, dtype=np.int64)
    table = np.frombuffer(table, dtype=float).reshape(len(codes), 5)
    order = np.lexsort((table[:, 0], codes))  # stable: equal timestamps stay in line order
    codes, ts = codes[order], table[order, 0]
    keep = np.ones(len(codes), dtype=bool)
    keep[:-1] = (codes[1:] != codes[:-1]) | (ts[1:] != ts[:-1])  # a later poll supersedes
    report.duplicate_timestamps = len(codes) - int(np.count_nonzero(keep))
    kept, codes = order[keep], codes[keep]
    del order, ts  # freed before the block, the largest array yet, is allocated
    report.columns = np.empty((5, len(kept)))
    for j, column in enumerate(report.columns):  # one column at a time: no full-size temporary
        np.take(table[:, j], kept, out=column, mode="clip")  # kept is in range; "raise" would buffer `out`
    bounds = np.searchsorted(codes, np.arange(len(code_of) + 1)).tolist()
    report.readings = venue_columns(report.columns, code_of, bounds)
    return report


def venue_columns(columns: np.ndarray, venue_ids: Iterable[str], bounds: Sequence[int]) -> dict[str, VenueSnapshots]:
    """Each venue's ``VenueSnapshots``, in order: columns ``bounds[i]:bounds[i + 1]`` of the block for venue ``i``."""
    return {
        venue_id: VenueSnapshots(venue_id, *(column[lo:hi] for column in columns))
        for venue_id, lo, hi in zip(venue_ids, bounds, bounds[1:])
    }


def interpolate_daily(snapshots: VenueSnapshots) -> DailyCumulative:
    """Linearly interpolate cumulative check-ins onto the venue's 24h grid.

    The grid is anchored at the first reading and never extrapolates beyond
    the last one. Decreases between consecutive raw readings (API noise) are
    clamped to the running maximum; each decreasing raw pair increments
    ``anomaly_count``. Readings spanning ``MAX_GRID_DAYS`` days or more raise
    ``SpanTooLong`` before any grid is allocated.
    """
    if len(snapshots) < 2:
        raise InsufficientData("need at least 2 readings to interpolate")
    ts = snapshots.ts
    origin = ts[0]
    span_days = ts[-1] / DAY_SECONDS - origin / DAY_SECONDS  # cannot overflow
    if span_days >= MAX_GRID_DAYS:
        raise SpanTooLong(f"readings span {span_days:.4g} days, the limit is {MAX_GRID_DAYS}")
    raw = snapshots.checkins
    anomalies = int(np.count_nonzero(np.diff(raw) < 0))
    clamped = np.maximum.accumulate(raw)

    n_days = int((ts[-1] - origin) // DAY_SECONDS) + 1
    grid = origin + DAY_SECONDS * np.arange(n_days)
    values = np.interp(grid, ts, clamped)
    return DailyCumulative(
        venue_id=snapshots.venue_id,
        origin_ts=origin,
        values=values,
        anomaly_count=anomalies,
    )


def daily_checkins(dc: DailyCumulative) -> DailySeries:
    """First difference of the daily cumulative series."""
    if len(dc.values) < 2:
        raise InsufficientData("need at least 2 grid points to difference")
    return DailySeries(
        venue_id=dc.venue_id,
        values=np.diff(dc.values),
    )


def counter_at(snapshots: VenueSnapshots, name: str, t: float) -> float:
    """Cumulative counter ``name`` (``checkins``, ``users``, ``tips`` or ``likes``) at time ``t``.

    The counter is clamped monotone first (counters never truly decrease).
    Times outside the observation span clamp to the nearest endpoint, which
    keeps neighborhood aggregates total.
    """
    return float(np.interp(t, snapshots.ts, np.maximum.accumulate(getattr(snapshots, name))))


def segment(
    s: DailySeries,
    start_day: int,
    end_day: int,
    k: int = BEFORE_DAYS,
    w_max: int = AFTER_MAX_DAYS,
    w_min: int = AFTER_MIN_DAYS,
    min_duration: int = MIN_CAMPAIGN_DAYS,
) -> SegmentedSeries:
    """Split daily counts into before / during / after windows.

    ``before`` is the ``k`` days ending the day before the campaign starts.
    ``during`` covers the campaign, truncated to observed data. ``after`` is
    up to ``w_max`` post-campaign days and is present only when at least
    ``w_min`` are observed. Raises ``IneligibleCampaign`` with reason
    ``ShortHistory`` or ``ShortCampaign`` when the windows cannot be formed.
    """
    effective_end = min(end_day, s.last_day)
    duration = effective_end - start_day + 1
    if duration < min_duration:
        raise IneligibleCampaign("ShortCampaign")
    if start_day < k:
        raise IneligibleCampaign("ShortHistory")

    before = s.day_slice(start_day - k, start_day - 1)
    during = s.day_slice(start_day, effective_end)
    available_after = s.last_day - effective_end
    after = None
    if available_after >= w_min:
        w = min(w_max, available_after)
        after = s.day_slice(effective_end + 1, effective_end + w)
    return SegmentedSeries(
        before=before,
        during=during,
        after=after,
        start_day=start_day,
        end_day=effective_end,
    )
