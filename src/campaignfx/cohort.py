"""Matched reference groups and group-level effect statistics.

Reference venues never ran a promotion; sampling them to match each
promotion venue's category and location, and replaying pseudo-promotion
windows drawn from the real campaigns' empirical distribution, yields a
baseline that absorbs seasonal and platform-wide externalities. Comparing
increase fractions between the two cohorts is what separates genuine
campaign effects from background drift.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .effect import EffectLabel, EffectResult, linear_quantiles
from .errors import EmptyDenominator, IneligibleCampaign
from .geo import grid_cell
from .rng import derive_rng
from .series import (BEFORE_DAYS, MIN_CAMPAIGN_DAYS, DailySeries, ParseError, first_by_id, parse_records,
                     record_id, segment)

MATCH_CELL_DEG = 0.1
N_REFERENCE_GROUPS = 20
PSEUDO_PERIOD_MAX_ATTEMPTS = 100


class Category(Enum):
    NIGHTLIFE = "Nightlife"
    FOOD = "Food"
    SHOPS = "Shops"
    ARTS = "Arts"
    COLLEGE = "College"
    OUTDOORS = "Outdoors"
    TRAVEL = "Travel"
    RESIDENCE = "Residence"
    PROFESSIONAL = "Professional"


CATEGORIES = tuple(Category)


@dataclass(frozen=True)
class VenueProfile:
    venue_id: str
    category: Category
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of range")


@dataclass
class VenueParseReport:
    profiles: list[VenueProfile] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)


def _venue_profile(obj: dict) -> VenueProfile:
    category = Category(obj["category"])
    return VenueProfile(
        venue_id=record_id(obj["venue_id"], "venue_id"),
        category=category,
        lat=float(obj["lat"]),
        lon=float(obj["lon"]),
    )


def parse_venues(lines: Iterable[str]) -> VenueParseReport:
    """Parse venue-profile JSONL, skipping and recording malformed lines (a repeated ``venue_id`` among them)."""
    report = VenueParseReport()
    report.profiles = list(parse_records(lines, first_by_id(_venue_profile, "venue_id"), report.errors))
    return report


@dataclass
class ReferenceMember:
    venue_id: str
    counterpart_id: str
    pseudo_start: Optional[int] = None
    pseudo_end: Optional[int] = None


@dataclass
class ReferenceGroup:
    group_id: int
    members: list[ReferenceMember] = field(default_factory=list)


def match_reference(
    promo: Sequence[VenueProfile],
    pool: Sequence[VenueProfile],
    n_groups: int = N_REFERENCE_GROUPS,
    *,
    rng: np.random.Generator,
    cell_deg: float = MATCH_CELL_DEG,
) -> tuple[list[ReferenceGroup], int]:
    """Sample non-overlapping reference groups matched on category and cell.

    For every promotion venue and every group, one pool venue with the same
    category and the same 0.1-degree cell is drawn without replacement across
    all groups; when the cell is exhausted the search widens to the 3x3 cell
    neighborhood. Returns the groups and the number of slots that still
    could not be filled. A pool holding a promoted venue, or one venue id
    twice, raises ``ValueError``.
    """
    promoted = {p.venue_id for p in promo}.intersection(p.venue_id for p in pool)
    if promoted:
        raise ValueError(f"pool contains promoted venues, e.g. {min(promoted)}")
    repeated = [venue_id for venue_id, n in Counter(p.venue_id for p in pool).items() if n > 1]
    if repeated:
        raise ValueError(f"pool repeats venue ids, e.g. {min(repeated)}")

    # each bucket in venue order; take_from pops the venue it draws, so no venue is drawn twice
    buckets: dict[tuple[Category, tuple[int, int]], list[VenueProfile]] = {}
    for profile in sorted(pool, key=lambda p: p.venue_id):
        buckets.setdefault((profile.category, grid_cell(profile.lat, profile.lon, cell_deg)), []).append(profile)

    def take_from(keys: list[tuple[Category, tuple[int, int]]]) -> Optional[VenueProfile]:
        candidates = [buckets[key] for key in keys if buckets.get(key)]
        if not candidates:
            return None
        index = int(rng.integers(sum(map(len, candidates))))
        for bucket in candidates:
            if index < len(bucket):
                return bucket.pop(index)
            index -= len(bucket)

    groups = [ReferenceGroup(group_id=group_id) for group_id in range(n_groups)]
    for group in groups:
        for venue in promo:
            row, col = grid_cell(venue.lat, venue.lon, cell_deg)
            pick = take_from([(venue.category, (row, col))]) or take_from(
                [(venue.category, (row + dr, col + dc)) for dr in (-1, 0, 1) for dc in (-1, 0, 1)])
            if pick is not None:
                group.members.append(ReferenceMember(venue_id=pick.venue_id, counterpart_id=venue.venue_id))
    return groups, len(groups) * len(promo) - sum(len(g.members) for g in groups)


def assign_pseudo_periods(
    group: ReferenceGroup,
    empirical_periods: Sequence[tuple[int, int]],
    series_index: Mapping[str, DailySeries],
    rng: np.random.Generator,
    min_history: int = BEFORE_DAYS,
    min_duration: int = MIN_CAMPAIGN_DAYS,
) -> tuple[ReferenceGroup, int]:
    """Draw (start, duration) pairs from the real campaigns for each member.

    A draw is kept when the whole window lies within the member's series
    (pseudo-windows are never truncated) and ``segment`` accepts it; others
    are retried, up to ``PSEUDO_PERIOD_MAX_ATTEMPTS`` draws. Members with no
    fitting window are dropped; the second value returned counts them.
    """
    if not empirical_periods:
        raise ValueError("empirical_periods must be non-empty")
    kept: list[ReferenceMember] = []
    for member in group.members:
        s = series_index.get(member.venue_id)
        if s is None:
            continue
        for _ in range(PSEUDO_PERIOD_MAX_ATTEMPTS):
            start, duration = empirical_periods[int(rng.integers(len(empirical_periods)))]
            end = start + duration - 1
            if end > s.last_day:
                continue
            try:
                segment(s, start, end, k=min_history, min_duration=min_duration)
            except IneligibleCampaign:
                continue
            kept.append(ReferenceMember(member.venue_id, member.counterpart_id, pseudo_start=start, pseudo_end=end))
            break
    return ReferenceGroup(group_id=group.group_id, members=kept), len(group.members) - len(kept)


def filter_zero_activity(
    profiles: Sequence[VenueProfile], series_index: Mapping[str, DailySeries]
) -> list[VenueProfile]:
    """Drop venues whose daily series is identically zero.

    Such venues carry no usable signal (their bootstrap tests are degenerate)
    and would pile up mass at d = 0. Venues with no series are kept.
    """
    kept = []
    for profile in profiles:
        s = series_index.get(profile.venue_id)
        if s is not None and len(s.values) > 0 and not np.any(s.values):
            continue
        kept.append(profile)
    return kept


class FractionMode(Enum):
    RAW_SIGN = "RawSign"
    SIGNIFICANT_ONLY = "SignificantOnly"


_COUNTED_LABELS = (
    EffectLabel.SIGNIFICANT_INCREASE,
    EffectLabel.SIGNIFICANT_DECREASE,
    EffectLabel.POWERED_NULL,
)


FRACTION_BOOTSTRAPS = 4999  # resamples of the group fractions behind a grouped interval


@dataclass
class IncreaseFraction:
    fraction: float
    ci_low: float
    ci_high: float
    n: int


def _fraction_of(results: Sequence[EffectResult], mode: FractionMode) -> tuple[int, int]:
    if mode is FractionMode.RAW_SIGN:
        return sum(1 for r in results if r.diff > 0), len(results)
    counted = [r for r in results if r.label in _COUNTED_LABELS]
    hits = sum(1 for r in counted if r.label is EffectLabel.SIGNIFICANT_INCREASE)
    return hits, len(counted)


def increase_fraction(
    results: Sequence[EffectResult],
    mode: FractionMode,
    groups: Optional[Sequence[int]] = None,
    rng: Optional[np.random.Generator] = None,
) -> IncreaseFraction:
    """Fraction of campaigns showing an increase, with a 95% interval.

    ``RawSign`` counts positive observed differences over everything (zero is
    not an increase). ``SignificantOnly`` counts significant increases among
    the robust outcomes only (significant either way, or a powered null).
    With ``groups`` given, the fraction is the mean of per-group fractions
    and the interval is a percentile bootstrap over the groups:
    ``FRACTION_BOOTSTRAPS`` resamples drawn from ``rng`` (by default one
    fixed stream), each a mean of fractions, so it stays inside [0, 1].
    Otherwise it is the Wilson score interval, which stays inside [0, 1] and
    has positive width even when every or no result counts.
    """
    if groups is not None and len(groups) != len(results):
        raise ValueError("groups must align with results")
    if not results:
        raise EmptyDenominator("no results")

    if groups is not None and len(set(groups)) > 1:
        per_group: dict[int, list[EffectResult]] = {}
        for gid, result in zip(groups, results):
            per_group.setdefault(gid, []).append(result)
        fractions = []
        for gid in sorted(per_group):
            hits, n = _fraction_of(per_group[gid], mode)
            if n > 0:
                fractions.append(hits / n)
        if not fractions:
            raise EmptyDenominator("no group has qualifying results")
        arr = np.array(fractions)
        mean = float(arr.mean())
        rng = rng if rng is not None else derive_rng(0, "fraction")
        means = arr[rng.integers(0, len(arr), size=(FRACTION_BOOTSTRAPS, len(arr)))].mean(axis=1)
        low, high = linear_quantiles(means, (0.025, 0.975))
        # Monte Carlo error can leave the estimate of a lopsided sample just outside
        return IncreaseFraction(mean, min(low, mean), max(high, mean), n=len(arr))

    hits, n = _fraction_of(results, mode)
    if n == 0:
        raise EmptyDenominator("no qualifying results")
    p = hits / n
    # Wilson score interval; its exact bounds at hits = 0 and hits = n are set
    # directly so that rounding cannot put them past p
    z2 = 1.96**2
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = 1.96 * math.sqrt(p * (1.0 - p) / n + z2 / (4 * n * n)) / denom
    low = 0.0 if hits == 0 else center - half
    high = 1.0 if hits == n else center + half
    return IncreaseFraction(p, low, high, n=n)


def ecdf_points(sorted_values: Sequence) -> list[tuple]:
    """``(value, share of values <= it)`` at each distinct value of an ascending sequence."""
    n = len(sorted_values)
    return [
        (v, i / n) for i, v in enumerate(sorted_values, start=1)
        if i == n or sorted_values[i] != v
    ]


def effect_ecdf(ds: Sequence[Optional[float]]) -> dict:
    """Right-continuous empirical CDF ``points`` of the defined effect sizes, ``n`` and ``undefined`` counts."""
    defined = [d for d in ds if d is not None]
    values = np.sort(np.asarray(defined, dtype=float)).tolist()
    return {"points": ecdf_points(values), "n": len(values), "undefined": len(ds) - len(defined)}
