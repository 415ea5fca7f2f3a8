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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .effect import EffectLabel, EffectResult
from .errors import EmptyDenominator, IneligibleCampaign
from .rng import derive_rng
from .series import BEFORE_DAYS, MIN_CAMPAIGN_DAYS, DailySeries, ParseError, parse_records, segment

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
    has_promotion: bool = False

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
        venue_id=str(obj["venue_id"]),
        category=category,
        lat=float(obj["lat"]),
        lon=float(obj["lon"]),
    )


def parse_venues(lines: Iterable[str]) -> VenueParseReport:
    """Parse venue-profile JSONL, skipping and recording malformed lines; ``has_promotion`` stays False."""
    report = VenueParseReport()
    report.profiles = list(parse_records(lines, _venue_profile, report.errors))
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


@dataclass
class PoolExhausted:
    venue_id: str  # promotion venue that could not be matched
    group_id: int


@dataclass
class UnfittablePeriod:
    venue_id: str


@dataclass
class MatchReport:
    groups: list[ReferenceGroup] = field(default_factory=list)
    exhausted: list[PoolExhausted] = field(default_factory=list)


def _match_cell(lat: float, lon: float, cell_deg: float) -> tuple[int, int]:
    return (int(math.floor(lat / cell_deg)), int(math.floor(lon / cell_deg)))


def match_reference(
    promo: Sequence[VenueProfile],
    pool: Sequence[VenueProfile],
    n_groups: int = N_REFERENCE_GROUPS,
    *,
    rng: np.random.Generator,
    cell_deg: float = MATCH_CELL_DEG,
) -> MatchReport:
    """Sample non-overlapping reference groups matched on category and cell.

    For every promotion venue and every group, one pool venue with the same
    category and the same 0.1-degree cell is drawn without replacement across
    all groups; when the cell is exhausted the search widens to the 3x3 cell
    neighborhood. Slots that still cannot be filled are recorded.
    """
    promoted = [p for p in pool if p.has_promotion]
    if promoted:
        raise ValueError(f"pool contains promoted venues, e.g. {promoted[0].venue_id}")

    buckets: dict[tuple[Category, tuple[int, int]], list[VenueProfile]] = {}
    for profile in pool:
        key = (profile.category, _match_cell(profile.lat, profile.lon, cell_deg))
        buckets.setdefault(key, []).append(profile)
    for bucket in buckets.values():
        bucket.sort(key=lambda p: p.venue_id)

    used: set[str] = set()
    report = MatchReport()

    def take_from(keys: list[tuple[Category, tuple[int, int]]]) -> Optional[VenueProfile]:
        candidates: list[VenueProfile] = []
        for key in keys:
            bucket = buckets.get(key)
            if not bucket:
                continue
            bucket[:] = [p for p in bucket if p.venue_id not in used]
            candidates.extend(bucket)
        if not candidates:
            return None
        pick = candidates[int(rng.integers(len(candidates)))]
        used.add(pick.venue_id)
        return pick

    for group_id in range(n_groups):
        group = ReferenceGroup(group_id=group_id)
        for venue in promo:
            row, col = _match_cell(venue.lat, venue.lon, cell_deg)
            pick = take_from([(venue.category, (row, col))])
            if pick is None:
                ring = [
                    (venue.category, (row + dr, col + dc))
                    for dr in (-1, 0, 1)
                    for dc in (-1, 0, 1)
                    if not (dr == 0 and dc == 0)
                ]
                pick = take_from(ring)
            if pick is None:
                report.exhausted.append(PoolExhausted(venue_id=venue.venue_id, group_id=group_id))
                continue
            group.members.append(ReferenceMember(venue_id=pick.venue_id, counterpart_id=venue.venue_id))
        report.groups.append(group)
    return report


def assign_pseudo_periods(
    group: ReferenceGroup,
    empirical_periods: Sequence[tuple[int, int]],
    series_index: Mapping[str, DailySeries],
    rng: np.random.Generator,
    min_history: int = BEFORE_DAYS,
    min_duration: int = MIN_CAMPAIGN_DAYS,
) -> tuple[ReferenceGroup, list[UnfittablePeriod]]:
    """Draw (start, duration) pairs from the real campaigns for each member.

    A draw is kept when the whole window lies within the member's series
    (pseudo-windows are never truncated) and ``segment`` accepts it; others
    are retried, up to ``PSEUDO_PERIOD_MAX_ATTEMPTS`` draws. Members with no
    fitting window are dropped and recorded.
    """
    if not empirical_periods:
        raise ValueError("empirical_periods must be non-empty")
    kept: list[ReferenceMember] = []
    dropped: list[UnfittablePeriod] = []
    for member in group.members:
        s = series_index.get(member.venue_id)
        assigned = None
        if s is not None:
            for _ in range(PSEUDO_PERIOD_MAX_ATTEMPTS):
                start, duration = empirical_periods[int(rng.integers(len(empirical_periods)))]
                end = start + duration - 1
                if end > s.last_day:
                    continue
                try:
                    segment(s, start, end, k=min_history, min_duration=min_duration)
                except IneligibleCampaign:
                    continue
                assigned = (start, end)
                break
        if assigned is None:
            dropped.append(UnfittablePeriod(venue_id=member.venue_id))
        else:
            kept.append(replace(member, pseudo_start=assigned[0], pseudo_end=assigned[1]))
    return ReferenceGroup(group_id=group.group_id, members=kept), dropped


def filter_zero_activity(members: Sequence, series_index: Mapping[str, DailySeries]) -> list:
    """Drop members whose daily series is identically zero.

    Such venues carry no usable signal (their bootstrap tests are degenerate)
    and would pile up mass at d = 0. Members may be venue-id strings or any
    object with a ``venue_id`` attribute; missing series are kept.
    """
    kept = []
    for member in members:
        venue_id = member if isinstance(member, str) else member.venue_id
        s = series_index.get(venue_id)
        if s is not None and len(s.values) > 0 and not np.any(s.values):
            continue
        kept.append(member)
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


def linear_quantiles(values: np.ndarray, qs: Sequence[float]) -> list[float]:
    """``np.quantile(values, qs)`` of finite ``values`` (its default linear method), bit for bit.

    ``np.quantile`` calls ``np.unique``, whose first call imports
    ``numpy.ma``: ~15 ms of a fresh ``report`` process, for two order
    statistics.
    """
    ordered = np.sort(values)
    last = len(ordered) - 1
    out = []
    for q in qs:
        g = last * q
        lo = min(int(g), last)
        a, b = float(ordered[lo]), float(ordered[min(lo + 1, last)])
        t, d = g - lo, b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)  # numpy's two-sided lerp
    return out


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


@dataclass
class EcdfResult:
    points: list[tuple[float, float]]
    n: int
    undefined_count: int


def ecdf_points(sorted_values: Sequence) -> list[tuple]:
    """``(value, share of values <= it)`` at each distinct value of an ascending sequence."""
    n = len(sorted_values)
    return [
        (v, i / n) for i, v in enumerate(sorted_values, start=1)
        if i == n or sorted_values[i] != v
    ]


def effect_ecdf(ds: Sequence[Optional[float]]) -> EcdfResult:
    """Right-continuous empirical CDF points of the defined effect sizes."""
    defined = [d for d in ds if d is not None]
    values = np.sort(np.asarray(defined, dtype=float)).tolist()
    return EcdfResult(points=ecdf_points(values), n=len(values), undefined_count=len(ds) - len(defined))
