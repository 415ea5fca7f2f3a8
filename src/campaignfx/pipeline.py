"""End-to-end stage wiring shared by the CLI and the test harnesses.

Stages are pure functions over an in-memory corpus; every randomized step
derives its RNG stream from the run seed plus stable identifiers, so results
do not depend on execution order or the number of worker processes.
"""

from __future__ import annotations

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
from .errors import IneligibleCampaign, InsufficientData, SpanTooLong
from .features import FeatureVector, extract_geo_features, extract_promo_features, extract_venue_features, neighborhood
from .geo import RadiusIndex
from .rng import derive_rng
from .series import (
    DAY_SECONDS,
    DailyCumulative,
    DailySeries,
    ParseError,
    ParseReport,
    SegmentedSeries,
    VenueSnapshots,
    csv_text,
    daily_checkins,
    interpolate_daily,
    parse_snapshots,
    read_csv_table,
    segment,
)


@dataclass
class LoadedCorpus:
    snapshots: dict[str, VenueSnapshots]
    cumulative: dict[str, DailyCumulative]
    series: dict[str, DailySeries]
    periods: list[PromotionPeriod]
    profiles: list[VenueProfile]
    snapshot_parse: Optional[ParseReport] = None  # what ``snapshots`` came from, when loaded from input
    # input ("snapshots", "offers", "venues") -> its malformed lines, when loaded from input
    parse_errors: dict[str, list[ParseError]] = field(default_factory=dict)
    short_series_venues: list[str] = field(default_factory=list)
    long_span_venues: list[str] = field(default_factory=list)  # readings span MAX_GRID_DAYS or more
    unplaced_offers: list[RawOffer] = field(default_factory=list)  # venue has no usable daily series


def _index_offers(
    raw_offers: Sequence[RawOffer], cumulative: dict[str, DailyCumulative]
) -> tuple[list[PromotionPeriod], list[RawOffer]]:
    """Promotion periods of the offers placed on their venue's grid, and the offers that could not be."""
    offers_by_venue: dict[str, list[SpecialOffer]] = {}
    unplaced: list[RawOffer] = []
    for raw in raw_offers:
        dc = cumulative.get(raw.venue_id)
        if dc is None:
            unplaced.append(raw)
            continue
        offers_by_venue.setdefault(raw.venue_id, []).append(align_offer(raw, dc.origin_ts))
    periods: list[PromotionPeriod] = []
    for venue_id in sorted(offers_by_venue):
        periods.extend(build_promotion_periods(offers_by_venue[venue_id]))
    return periods, unplaced


def build_corpus(
    snapshots: dict[str, VenueSnapshots],
    raw_offers: Sequence[RawOffer],
    profiles: Sequence[VenueProfile],
) -> LoadedCorpus:
    """Derive daily series and promotion periods from already-parsed inputs."""
    cumulative: dict[str, DailyCumulative] = {}
    series: dict[str, DailySeries] = {}
    short_series, long_span = [], []
    for venue_id in sorted(snapshots):
        try:
            dc = interpolate_daily(snapshots[venue_id])
            ds = daily_checkins(dc)
        except InsufficientData:
            short_series.append(venue_id)
            continue
        except SpanTooLong:
            long_span.append(venue_id)
            continue
        cumulative[venue_id] = dc
        series[venue_id] = ds
    periods, unplaced = _index_offers(raw_offers, cumulative)
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
        periods=periods,
        profiles=resolved_profiles,
        short_series_venues=short_series,
        long_span_venues=long_span,
        unplaced_offers=unplaced,
    )


def load_corpus(
    snapshots: Iterable[str] | ParseReport,
    offer_lines: Iterable[str],
    venue_lines: Optional[Iterable[str]] = None,
) -> LoadedCorpus:
    """Parse raw JSONL/CSV inputs and derive the working corpus.

    ``snapshots`` is the snapshot file's lines, or a report that already
    holds their parse.
    """
    snap_report = snapshots if isinstance(snapshots, ParseReport) else parse_snapshots(snapshots)
    offer_report = campaign_mod.parse_offers(offer_lines)
    errors = {"snapshots": snap_report.errors, "offers": offer_report.errors}
    profiles: list[VenueProfile] = []
    if venue_lines is not None:
        venue_report = cohort_mod.parse_venues(venue_lines)
        profiles = venue_report.profiles
        errors["venues"] = venue_report.errors
    corpus = build_corpus(snap_report.readings, offer_report.offers, profiles)
    corpus.snapshot_parse, corpus.parse_errors = snap_report, errors
    return corpus


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


@dataclass(frozen=True)
class _EffectTask:
    venue_id: str
    group_id: Optional[int]
    segments: SegmentedSeries
    horizon: Horizon
    config: TestConfig


def _effect_task(task: _EffectTask) -> CampaignEffect:
    seg, horizon = task.segments, task.horizon
    rng = derive_rng(task.config.seed, "effect", task.venue_id, seg.start_day, horizon.value)
    other = seg.during if horizon is Horizon.SHORT_TERM else seg.after
    result = evaluate_effect(seg.before, other, horizon, task.config, rng)
    return CampaignEffect(task.venue_id, seg.start_day, seg.end_day, horizon, result, task.group_id)


def _run_effect_tasks(
    windows: Sequence[tuple[str, Optional[int], SegmentedSeries]], config: RunConfig
) -> list[CampaignEffect]:
    """Test each ``(venue_id, group_id, segments)`` window at every configured horizon it has."""
    test_config = TestConfig(bootstraps=config.bootstraps, alpha=config.alpha, block_len=config.block_len,
                             power_min=config.power_min, seed=config.seed)
    tasks = [
        _EffectTask(venue_id, group_id, seg, horizon, test_config)
        for venue_id, group_id, seg in windows
        for horizon in _horizons(config)
        if horizon is Horizon.SHORT_TERM or seg.after is not None
    ]
    if config.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            return list(pool.map(_effect_task, tasks, chunksize=max(1, len(tasks) // (config.jobs * 8))))
    return [_effect_task(t) for t in tasks]


def _segment_windows(
    corpus: LoadedCorpus,
    windows: Sequence[tuple[str, int, int, Optional[int]]],
    config: RunConfig,
) -> list[tuple[str, Optional[int], SegmentedSeries]]:
    """Segment each ``(venue_id, start_day, end_day, group_id)`` window; skip those that cannot be."""
    segmented = []
    for venue_id, start_day, end_day, group_id in windows:
        s = corpus.series.get(venue_id)
        if s is None:
            continue
        try:
            seg = segment(s, start_day, end_day, k=config.k, w_max=config.w_max, min_duration=config.min_duration)
        except (IneligibleCampaign, InsufficientData):
            continue
        segmented.append((venue_id, group_id, seg))
    return segmented


def test_stage(
    corpus: LoadedCorpus, eligibility: EligibilityReport, config: RunConfig
) -> list[CampaignEffect]:
    """Bootstrap-test every eligible promotion campaign on the segments it carries."""
    eligible = sorted(eligibility.eligible, key=lambda c: (c.period.venue_id, c.period.start_day))
    return _run_effect_tasks([(c.period.venue_id, None, c.segments) for c in eligible], config)


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
    windows = sorted(
        ((m.venue_id, m.pseudo_start, m.pseudo_end, g.group_id)
         for g in groups for m in g.members if m.pseudo_start is not None),
        key=lambda w: (w[3], w[0], w[1]),
    )
    return _run_effect_tasks(_segment_windows(corpus, windows, config), config)


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
    ordered = sorted(
        effects,
        key=lambda e: (e.group_id if e.group_id is not None else -1,
                       e.venue_id, e.start_day, e.horizon.value),
    )
    return csv_text(EFFECTS_CSV_HEADER, (
        (e.group_id, e.venue_id, e.start_day, e.end_day, e.horizon,
         e.result.diff, e.result.cohens_d, e.result.p_value, e.result.power,
         e.result.ci_low, e.result.ci_high, e.result.label, e.result.degenerate)
        for e in ordered
    ))


def _effect_row(rec: dict) -> CampaignEffect:
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
    return CampaignEffect(
        venue_id=rec["venue_id"],
        start_day=int(rec["start_day"]),
        end_day=int(rec["end_day"]),
        horizon=result.horizon,
        result=result,
        group_id=int(rec["group_id"]) if rec["group_id"] else None,
    )


def read_effects_csv(text: str) -> list[CampaignEffect]:
    return read_csv_table(text, EFFECTS_CSV_HEADER, _effect_row)


GROUPS_CSV_HEADER = ["group_id", "venue_id", "pseudo_start", "pseudo_end"]


def write_groups_csv(groups: Sequence[ReferenceGroup]) -> str:
    return csv_text(GROUPS_CSV_HEADER, (
        (group.group_id, m.venue_id, m.pseudo_start, m.pseudo_end)
        for group in groups for m in sorted(group.members, key=lambda m: m.venue_id)
    ))


def _group_member(rec: dict) -> tuple[int, cohort_mod.ReferenceMember]:
    return int(rec["group_id"]), cohort_mod.ReferenceMember(
        venue_id=rec["venue_id"],
        counterpart_id="",
        pseudo_start=int(rec["pseudo_start"]) if rec["pseudo_start"] else None,
        pseudo_end=int(rec["pseudo_end"]) if rec["pseudo_end"] else None,
    )


def read_groups_csv(text: str) -> list[ReferenceGroup]:
    groups: dict[int, ReferenceGroup] = {}
    for gid, member in read_csv_table(text, GROUPS_CSV_HEADER, _group_member):
        groups.setdefault(gid, ReferenceGroup(group_id=gid)).members.append(member)
    return [groups[g] for g in sorted(groups)]


CAMPAIGNS_CSV_HEADER = ["venue_id", "start_day", "end_day", "duration", "long_term_eligible"]


def write_campaigns_csv(eligibility: EligibilityReport) -> str:
    ordered = sorted(eligibility.eligible, key=lambda c: (c.period.venue_id, c.period.start_day))
    return csv_text(CAMPAIGNS_CSV_HEADER, (
        (c.period.venue_id, c.segments.start_day, c.segments.end_day,
         c.segments.end_day - c.segments.start_day + 1, c.long_term_eligible)
        for c in ordered
    ))


def write_skipped_csv(eligibility: EligibilityReport) -> str:
    return csv_text(["venue_id", "start_day", "end_day", "reason"], (
        (s.venue_id, s.start_day, s.end_day, s.reason)
        for s in sorted(eligibility.skipped, key=lambda s: (s.venue_id, s.start_day))
    ))
