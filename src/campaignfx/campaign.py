"""Special-offer records, promotion-period construction, and eligibility."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .cohort import ecdf_points
from .errors import IneligibleCampaign
from .series import (
    AFTER_MAX_DAYS,
    BEFORE_DAYS,
    DAY_SECONDS,
    DailySeries,
    MIN_CAMPAIGN_DAYS,
    ParseError,
    SegmentedSeries,
    first_by_id,
    parse_records,
    parse_timestamp,
    record_id,
    segment,
)

MAX_GAP_DAYS = 2  # a period tolerates at most 2 consecutive uncovered days


class OfferKind(Enum):
    NEWBIE = "Newbie"
    FLASH = "Flash"
    FREQUENCY = "Frequency"
    FRIENDS = "Friends"
    MAYOR = "Mayor"
    LOYALTY = "Loyalty"
    SWARM = "Swarm"


OFFER_KINDS = tuple(OfferKind)


@dataclass(frozen=True)
class SpecialOffer:
    """One special-deal record with inclusive day bounds on the venue grid."""

    venue_id: str
    special_id: str
    kind: OfferKind
    start_day: int
    end_day: int

    def __post_init__(self):
        if self.end_day < self.start_day:
            raise ValueError("offer ends before it starts")

    @property
    def duration(self) -> int:
        return self.end_day - self.start_day + 1


@dataclass
class PromotionPeriod:
    """Maximal window of continuous offering (gaps of at most 2 days)."""

    venue_id: str
    start_day: int
    end_day: int
    offers: list[SpecialOffer]

    @property
    def duration(self) -> int:
        return self.end_day - self.start_day + 1


@dataclass
class RawOffer:
    """Offer with calendar timestamps, before alignment to a venue grid."""

    venue_id: str
    special_id: str
    kind: OfferKind
    start_ts: float
    end_ts: float


@dataclass
class OfferParseReport:
    offers: list[RawOffer] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)


def _offer(obj: dict) -> RawOffer:
    kind_name = obj["type"]
    try:
        kind = OfferKind(kind_name)
    except ValueError:
        raise ValueError(f"unknown offer type {kind_name!r}") from None
    offer = RawOffer(
        venue_id=record_id(obj["venue_id"], "venue_id"),
        special_id=record_id(obj["special_id"], "special_id"),
        kind=kind,
        start_ts=parse_timestamp(obj["start"]),
        end_ts=parse_timestamp(obj["end"]),
    )
    if offer.end_ts < offer.start_ts:
        raise ValueError("offer ends before it starts")
    return offer


def parse_offers(lines: Iterable[str]) -> OfferParseReport:
    """Parse offer JSONL records; malformed lines (a repeated ``special_id`` among them) are recorded and skipped."""
    report = OfferParseReport()
    report.offers = list(parse_records(lines, first_by_id(_offer, "special_id"), report.errors))
    return report


def align_offer(raw: RawOffer, origin_ts: float) -> SpecialOffer:
    """Floor calendar timestamps to the venue's grid-day indices."""
    start_day = int((raw.start_ts - origin_ts) // DAY_SECONDS)
    end_day = int((raw.end_ts - origin_ts) // DAY_SECONDS)
    return SpecialOffer(
        venue_id=raw.venue_id,
        special_id=raw.special_id,
        kind=raw.kind,
        start_day=start_day,
        end_day=max(start_day, end_day),
    )


def build_promotion_periods(offers: Sequence[SpecialOffer]) -> list[PromotionPeriod]:
    """Merge one venue's offers into maximal promotion periods.

    Two offer spans belong to the same period iff the number of uncovered
    whole days strictly between them is at most 2. Periods come back sorted
    by start day.
    """
    if not offers:
        return []
    venue_ids = {o.venue_id for o in offers}
    if len(venue_ids) > 1:
        raise ValueError(f"offers span multiple venues: {sorted(venue_ids)}")

    ordered = sorted(offers, key=lambda o: (o.start_day, o.end_day, o.special_id))
    periods: list[PromotionPeriod] = []
    current = [ordered[0]]
    cur_start, cur_end = ordered[0].start_day, ordered[0].end_day
    for offer in ordered[1:]:
        gap = offer.start_day - cur_end - 1
        if gap <= MAX_GAP_DAYS:
            current.append(offer)
            cur_end = max(cur_end, offer.end_day)
        else:
            periods.append(PromotionPeriod(offer.venue_id, cur_start, cur_end, current))
            current = [offer]
            cur_start, cur_end = offer.start_day, offer.end_day
    periods.append(PromotionPeriod(ordered[0].venue_id, cur_start, cur_end, current))
    return periods


@dataclass
class EligibleCampaign:
    period: PromotionPeriod
    segments: SegmentedSeries


@dataclass
class SkippedCampaign:
    venue_id: str
    start_day: int
    end_day: int
    reason: str


@dataclass
class EligibilityReport:
    eligible: list[EligibleCampaign] = field(default_factory=list)
    skipped: list[SkippedCampaign] = field(default_factory=list)


def eligible_campaigns(
    periods: Sequence[PromotionPeriod],
    series_index: Mapping[str, DailySeries],
    min_duration: int = MIN_CAMPAIGN_DAYS,
    min_history: int = BEFORE_DAYS,
    w_max: int = AFTER_MAX_DAYS,
) -> EligibilityReport:
    """Keep periods with enough duration and prior history, attach segments.

    Periods whose venue has no series are recorded as ``MissingSeries`` and
    skipped; filter failures are recorded with the segmentation reason.
    """
    report = EligibilityReport()
    for period in periods:
        s = series_index.get(period.venue_id)
        if s is None:
            report.skipped.append(
                SkippedCampaign(period.venue_id, period.start_day, period.end_day, "MissingSeries")
            )
            continue
        try:
            segments = segment(
                s, period.start_day, period.end_day,
                k=min_history, w_max=w_max, min_duration=min_duration,
            )
        except IneligibleCampaign as exc:
            report.skipped.append(
                SkippedCampaign(period.venue_id, period.start_day, period.end_day, str(exc))
            )
            continue
        report.eligible.append(EligibleCampaign(period=period, segments=segments))
    return report


@dataclass
class OfferStats:
    kind_counts: dict[str, int]
    kind_shares: dict[str, float]
    duration_ecdf: dict[str, list[tuple[int, float]]]


def offer_stats(periods: Sequence[PromotionPeriod]) -> OfferStats:
    """Per-kind offer frequencies and duration ECDF points, for reporting."""
    durations: dict[str, list[int]] = {}
    counts: dict[str, int] = {}
    for period in periods:
        for offer in period.offers:
            name = offer.kind.value
            counts[name] = counts.get(name, 0) + 1
            durations.setdefault(name, []).append(offer.duration)

    total = sum(counts.values())
    shares = {k: c / total for k, c in counts.items()} if total else {}
    ecdf = {name: ecdf_points(sorted(values)) for name, values in durations.items()}
    return OfferStats(kind_counts=counts, kind_shares=shares, duration_ecdf=ecdf)
