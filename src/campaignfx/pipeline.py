"""End-to-end stage wiring shared by the CLI and the test harnesses.

Stages are pure functions over an in-memory corpus; every randomized step
derives its RNG stream from the run seed plus stable identifiers, so results
do not depend on execution order or the number of worker processes.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from . import campaign as campaign_mod
from . import cohort as cohort_mod
from .campaign import (
    EligibilityReport,
    PromotionPeriod,
    RawOffer,
    SpecialOffer,
    align_offer,
    build_promotion_periods,
    eligible_campaigns,
)
from .cohort import ReferenceGroup, VenueProfile, filter_zero_activity
from .config import RunConfig
from .effect import EffectLabel, EffectResult, Horizon, TestConfig, evaluate_effect
from .errors import IneligibleCampaign, InsufficientData
from .features import FeatureVector, extract_geo_features, extract_promo_features, extract_venue_features, neighborhood
from .geo import RadiusIndex
from .rng import derive_rng
from .series import (
    DAY_SECONDS,
    DailyCumulative,
    DailySeries,
    ParseError,
    VenueSnapshots,
    daily_checkins,
    interpolate_daily,
    parse_snapshots,
    segment,
)


@dataclass
class LoadedCorpus:
    snapshots: dict[str, VenueSnapshots]
    cumulative: dict[str, DailyCumulative]
    series: dict[str, DailySeries]
    raw_offers: list[RawOffer]
    offers_by_venue: dict[str, list[SpecialOffer]]
    periods: list[PromotionPeriod]
    profiles: list[VenueProfile]
    parse_errors: list[ParseError] = field(default_factory=list)
    short_series_venues: list[str] = field(default_factory=list)


def _index_offers(
    raw_offers: Sequence[RawOffer], cumulative: dict[str, DailyCumulative]
) -> tuple[dict[str, list[SpecialOffer]], list[PromotionPeriod]]:
    offers_by_venue: dict[str, list[SpecialOffer]] = {}
    for raw in raw_offers:
        dc = cumulative.get(raw.venue_id)
        if dc is None:
            continue
        offers_by_venue.setdefault(raw.venue_id, []).append(align_offer(raw, dc.origin_ts))
    periods: list[PromotionPeriod] = []
    for venue_id in sorted(offers_by_venue):
        periods.extend(build_promotion_periods(offers_by_venue[venue_id]))
    return offers_by_venue, periods


def build_corpus(
    snapshots: dict[str, VenueSnapshots],
    raw_offers: Sequence[RawOffer],
    profiles: Sequence[VenueProfile],
    parse_errors: Optional[list[ParseError]] = None,
) -> LoadedCorpus:
    """Derive daily series and promotion periods from already-parsed inputs."""
    cumulative: dict[str, DailyCumulative] = {}
    series: dict[str, DailySeries] = {}
    short_series = []
    for venue_id in sorted(snapshots):
        try:
            dc = interpolate_daily(snapshots[venue_id])
            ds = daily_checkins(dc)
        except InsufficientData:
            short_series.append(venue_id)
            continue
        cumulative[venue_id] = dc
        series[venue_id] = ds
    offers_by_venue, periods = _index_offers(raw_offers, cumulative)
    promoted = {p.venue_id for p in periods}
    resolved_profiles = [
        VenueProfile(
            venue_id=p.venue_id, category=p.category, lat=p.lat, lon=p.lon,
            has_promotion=p.venue_id in promoted,
        )
        for p in profiles
    ]
    return LoadedCorpus(
        snapshots=dict(snapshots),
        cumulative=cumulative,
        series=series,
        raw_offers=list(raw_offers),
        offers_by_venue=offers_by_venue,
        periods=periods,
        profiles=resolved_profiles,
        parse_errors=parse_errors or [],
        short_series_venues=short_series,
    )


def load_corpus(
    snapshot_lines: Iterable[str],
    offer_lines: Iterable[str],
    venue_lines: Optional[Iterable[str]] = None,
) -> LoadedCorpus:
    """Parse raw JSONL/CSV inputs and derive the working corpus."""
    snap_report = parse_snapshots(snapshot_lines)
    offer_report = campaign_mod.parse_offers(offer_lines)
    profiles: list[VenueProfile] = []
    errors = list(snap_report.errors) + list(offer_report.errors)
    if venue_lines is not None:
        venue_report = cohort_mod.parse_venues(venue_lines)
        profiles = venue_report.profiles
        errors.extend(venue_report.errors)
    return build_corpus(snap_report.readings, offer_report.offers, profiles, errors)


def segment_stage(corpus: LoadedCorpus, config: RunConfig) -> EligibilityReport:
    return eligible_campaigns(
        corpus.periods,
        corpus.series,
        min_duration=config.min_duration,
        min_history=config.k,
        w_max=config.w_max,
    )


@dataclass
class CampaignEffect:
    venue_id: str
    start_day: int
    end_day: int
    horizon: Horizon
    result: EffectResult
    group_id: Optional[int] = None


def _horizons(config: RunConfig) -> tuple[Horizon, ...]:
    if config.horizon == "short":
        return (Horizon.SHORT_TERM,)
    if config.horizon == "long":
        return (Horizon.LONG_TERM,)
    return (Horizon.SHORT_TERM, Horizon.LONG_TERM)


def _effect_task(args) -> tuple[str, int, int, str, Optional[int], EffectResult]:
    seed, knobs, venue_id, start_day, end_day, horizon_value, group_id, before, other = args
    test_config = TestConfig(**knobs)
    rng = derive_rng(seed, "effect", venue_id, start_day, horizon_value)
    result = evaluate_effect(before, other, Horizon(horizon_value), test_config, rng)
    return venue_id, start_day, end_day, horizon_value, group_id, result


def _run_effect_tasks(tasks: list, jobs: int) -> list[CampaignEffect]:
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            raw = list(pool.map(_effect_task, tasks, chunksize=max(1, len(tasks) // (jobs * 8))))
    else:
        raw = [_effect_task(t) for t in tasks]
    return [
        CampaignEffect(
            venue_id=v, start_day=s, end_day=e, horizon=Horizon(h), result=r, group_id=g
        )
        for v, s, e, h, g, r in raw
    ]


def _make_tasks(
    corpus: LoadedCorpus,
    windows: Sequence[tuple[str, int, int, Optional[int]]],
    config: RunConfig,
) -> list:
    knobs = dict(
        bootstraps=config.bootstraps,
        alpha=config.alpha,
        block_len=config.block_len,
        power_min=config.power_min,
        seed=config.seed,
    )
    tasks = []
    for venue_id, start_day, end_day, group_id in windows:
        s = corpus.series.get(venue_id)
        if s is None:
            continue
        try:
            seg = segment(
                s, start_day, end_day,
                k=config.k, w_max=config.w_max, min_duration=config.min_duration,
            )
        except (IneligibleCampaign, InsufficientData):
            continue
        for horizon in _horizons(config):
            if horizon is Horizon.LONG_TERM and seg.after is None:
                continue
            other = seg.during if horizon is Horizon.SHORT_TERM else seg.after
            tasks.append((
                config.seed, knobs, venue_id, seg.start_day, seg.end_day,
                horizon.value, group_id, seg.before, other,
            ))
    return tasks


def test_stage(
    corpus: LoadedCorpus, eligibility: EligibilityReport, config: RunConfig
) -> list[CampaignEffect]:
    """Bootstrap-test every eligible promotion campaign."""
    windows = [
        (c.period.venue_id, c.period.start_day, c.period.end_day, None)
        for c in eligibility.eligible
    ]
    windows.sort(key=lambda w: (w[0], w[1]))
    return _run_effect_tasks(_make_tasks(corpus, windows, config), config.jobs)


@dataclass
class MatchStageResult:
    groups: list[ReferenceGroup]
    exhausted_count: int
    unfittable_count: int
    zero_removed: int


def match_stage(
    corpus: LoadedCorpus, eligibility: EligibilityReport, config: RunConfig
) -> MatchStageResult:
    """Build matched reference groups with pseudo-promotion periods."""
    promo_ids = {c.period.venue_id for c in eligibility.eligible}
    promo_profiles = [p for p in corpus.profiles if p.venue_id in promo_ids]
    promo_profiles.sort(key=lambda p: p.venue_id)
    pool = [p for p in corpus.profiles if not p.has_promotion]
    pool = filter_zero_activity(pool, corpus.series)
    zero_removed_pool = len([p for p in corpus.profiles if not p.has_promotion]) - len(pool)

    match_report = cohort_mod.match_reference(
        promo_profiles, pool,
        n_groups=config.n_groups,
        rng=derive_rng(config.seed, "match"),
        cell_deg=config.grid_deg,
    )
    empirical = [
        (c.period.start_day, c.period.duration) for c in eligibility.eligible
    ]
    empirical.sort()
    groups = []
    unfittable = 0
    for group in match_report.groups:
        assigned, dropped = cohort_mod.assign_pseudo_periods(
            group, empirical, corpus.series,
            rng=derive_rng(config.seed, "pseudo", group.group_id),
            min_history=config.k, min_duration=config.min_duration,
        )
        unfittable += len(dropped)
        groups.append(assigned)
    return MatchStageResult(
        groups=groups,
        exhausted_count=len(match_report.exhausted),
        unfittable_count=unfittable,
        zero_removed=zero_removed_pool,
    )


def reference_test_stage(
    corpus: LoadedCorpus, groups: Sequence[ReferenceGroup], config: RunConfig
) -> list[CampaignEffect]:
    """Bootstrap-test the pseudo-campaigns of every reference group."""
    windows = []
    for group in groups:
        for member in group.members:
            if member.pseudo_start is None:
                continue
            windows.append((member.venue_id, member.pseudo_start, member.pseudo_end, group.group_id))
    windows.sort(key=lambda w: (w[3], w[0], w[1]))
    return _run_effect_tasks(_make_tasks(corpus, windows, config), config.jobs)


def features_stage(
    corpus: LoadedCorpus,
    eligibility: EligibilityReport,
    effects: Sequence[CampaignEffect],
    config: RunConfig,
) -> list[FeatureVector]:
    """Extract feature vectors for every tested promotion campaign."""
    by_key: dict[tuple[str, int, str], EffectResult] = {
        (e.venue_id, e.start_day, e.horizon.value): e.result for e in effects
    }
    profile_of = {p.venue_id: p for p in corpus.profiles}
    index = RadiusIndex(corpus.profiles, cell_deg=max(config.radius_miles / 60.0, 1e-4))
    rows: list[FeatureVector] = []
    for campaign in eligibility.eligible:
        period = campaign.period
        profile = profile_of.get(period.venue_id)
        if profile is None:
            continue
        seg = campaign.segments
        dc = corpus.cumulative[period.venue_id]
        venue_f = extract_venue_features(seg, corpus.snapshots[period.venue_id], dc.origin_ts, profile)
        promo_f = extract_promo_features(period)
        neighbors = neighborhood(profile, index, config.radius_miles)
        t_eve = dc.origin_ts + (seg.start_day - 1) * DAY_SECONDS
        geo_f = extract_geo_features(profile, neighbors, corpus.snapshots, t_eve)
        for horizon in _horizons(config):
            result = by_key.get((period.venue_id, seg.start_day, horizon.value))
            if result is None:
                continue
            rows.append(FeatureVector(
                venue_id=period.venue_id,
                start_day=seg.start_day,
                end_day=seg.end_day,
                horizon=horizon,
                venue=venue_f,
                promo=promo_f,
                geo=geo_f,
                d_observed=result.cohens_d,
                label=result.label,
            ))
    return rows


EFFECTS_CSV_HEADER = [
    "group_id", "venue_id", "start_day", "end_day", "horizon",
    "diff", "cohens_d", "p_value", "power", "ci_low", "ci_high", "label", "degenerate",
]


def write_effects_csv(effects: Sequence[CampaignEffect]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EFFECTS_CSV_HEADER)
    ordered = sorted(
        effects,
        key=lambda e: (e.group_id if e.group_id is not None else -1,
                       e.venue_id, e.start_day, e.horizon.value),
    )
    for e in ordered:
        r = e.result
        writer.writerow([
            "" if e.group_id is None else e.group_id,
            e.venue_id, e.start_day, e.end_day, e.horizon.value,
            repr(r.diff),
            "" if r.cohens_d is None else repr(r.cohens_d),
            repr(r.p_value), repr(r.power), repr(r.ci_low), repr(r.ci_high),
            r.label.value, int(r.degenerate),
        ])
    return buf.getvalue()


def read_effects_csv(text: str) -> list[CampaignEffect]:
    reader = csv.DictReader(io.StringIO(text))
    out: list[CampaignEffect] = []
    for rec in reader:
        result = EffectResult(
            diff=float(rec["diff"]),
            cohens_d=float(rec["cohens_d"]) if rec["cohens_d"] else None,
            p_value=float(rec["p_value"]),
            power=float(rec["power"]),
            ci_low=float(rec["ci_low"]),
            ci_high=float(rec["ci_high"]),
            horizon=Horizon(rec["horizon"]),
            label=EffectLabel(rec["label"]),
            degenerate=bool(int(rec["degenerate"])),
        )
        out.append(CampaignEffect(
            venue_id=rec["venue_id"],
            start_day=int(rec["start_day"]),
            end_day=int(rec["end_day"]),
            horizon=result.horizon,
            result=result,
            group_id=int(rec["group_id"]) if rec["group_id"] else None,
        ))
    return out


GROUPS_CSV_HEADER = ["group_id", "venue_id", "pseudo_start", "pseudo_end"]


def write_groups_csv(groups: Sequence[ReferenceGroup]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(GROUPS_CSV_HEADER)
    for group in groups:
        for member in sorted(group.members, key=lambda m: m.venue_id):
            writer.writerow([
                group.group_id, member.venue_id,
                "" if member.pseudo_start is None else member.pseudo_start,
                "" if member.pseudo_end is None else member.pseudo_end,
            ])
    return buf.getvalue()


def read_groups_csv(text: str) -> list[ReferenceGroup]:
    reader = csv.DictReader(io.StringIO(text))
    groups: dict[int, ReferenceGroup] = {}
    for rec in reader:
        gid = int(rec["group_id"])
        group = groups.setdefault(gid, ReferenceGroup(group_id=gid))
        group.members.append(cohort_mod.ReferenceMember(
            venue_id=rec["venue_id"],
            counterpart_id="",
            pseudo_start=int(rec["pseudo_start"]) if rec["pseudo_start"] else None,
            pseudo_end=int(rec["pseudo_end"]) if rec["pseudo_end"] else None,
        ))
    return [groups[g] for g in sorted(groups)]


CAMPAIGNS_CSV_HEADER = ["venue_id", "start_day", "end_day", "duration", "long_term_eligible"]


def write_campaigns_csv(eligibility: EligibilityReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CAMPAIGNS_CSV_HEADER)
    ordered = sorted(eligibility.eligible, key=lambda c: (c.period.venue_id, c.period.start_day))
    for c in ordered:
        writer.writerow([
            c.period.venue_id, c.segments.start_day, c.segments.end_day,
            c.segments.end_day - c.segments.start_day + 1,
            int(c.long_term_eligible),
        ])
    return buf.getvalue()


def write_skipped_csv(eligibility: EligibilityReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["venue_id", "start_day", "end_day", "reason"])
    for s in sorted(eligibility.skipped, key=lambda s: (s.venue_id, s.start_day)):
        writer.writerow([s.venue_id, s.start_day, s.end_day, s.reason])
    return buf.getvalue()
