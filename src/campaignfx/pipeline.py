"""End-to-end stage wiring shared by the CLI and the test harnesses.

Stages are functions over an in-memory corpus. What loading and the stages
skip is recorded, with its reason, in the corpus's ``drops`` ledger; the
library prints nothing, and callers report the ledger as they see fit. Every
randomized step derives its RNG stream from the run seed plus stable
identifiers, so results do not depend on execution order or the number of
worker processes.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, TypeVar

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
from .effect import EffectLabel, EffectResult, Horizon, evaluate_effect
from .errors import IneligibleCampaign, InsufficientData, SpanTooLong
from .features import FeatureVector, extract_geo_features, extract_promo_features, extract_venue_features, neighborhood
from .geo import RadiusIndex
from .rng import derive_rng
from .series import (
    DAY_SECONDS,
    MAX_GRID_DAYS,
    DailyCumulative,
    DailySeries,
    ParseError,
    ParseReport,
    SegmentedSeries,
    VenueSnapshots,
    csv_text,
    daily_checkins,
    finite_cell,
    first_by_id,
    interpolate_daily,
    parse_snapshots,
    read_csv_table,
    segment,
)

# "<things> skipped: <reason>" -> the skipped items, in input order
Drops = dict[str, list[str]]

_SHORT_SERIES = "venues skipped: too few readings for a daily series"
_LONG_SPAN = f"venues skipped: readings span {MAX_GRID_DAYS} days or more"
_UNPLACED = "offers skipped: venue has no usable daily series"


@dataclass
class LoadedCorpus:
    snapshots: dict[str, VenueSnapshots]
    cumulative: dict[str, DailyCumulative]  # read only by perfbench's observer (ROADMAP item 3 moves it)
    series: dict[str, DailySeries]
    periods: list[PromotionPeriod]
    profiles: list[VenueProfile]
    snapshot_parse: Optional[ParseReport] = None  # what ``snapshots`` came from, when loaded from input
    # input ("snapshots", "offers", "venues") -> its malformed lines, when loaded from input
    parse_errors: dict[str, list[ParseError]] = field(default_factory=dict)
    drops: Drops = field(default_factory=dict)  # what loading and the stages run on it skipped

    @property
    def short_series_venues(self) -> list[str]:  # read only by perfbench's observer (ROADMAP item 3 moves it)
        return self.drops.get(_SHORT_SERIES, [])


def build_corpus(
    snapshots: dict[str, VenueSnapshots],
    raw_offers: Sequence[RawOffer],
    profiles: Sequence[VenueProfile],
) -> LoadedCorpus:
    """Derive daily series and promotion periods from already-parsed inputs; ``drops`` names what is skipped."""
    cumulative: dict[str, DailyCumulative] = {}
    series: dict[str, DailySeries] = {}
    drops: Drops = {_SHORT_SERIES: [], _LONG_SPAN: [], _UNPLACED: []}
    for venue_id in sorted(snapshots):
        try:
            dc = interpolate_daily(snapshots[venue_id])
            ds = daily_checkins(dc)
        except InsufficientData:
            drops[_SHORT_SERIES].append(venue_id)
            continue
        except SpanTooLong:
            drops[_LONG_SPAN].append(venue_id)
            continue
        cumulative[venue_id] = dc
        series[venue_id] = ds
    offers_by_venue: dict[str, list[SpecialOffer]] = {}
    for raw in raw_offers:
        if raw.venue_id not in series:
            drops[_UNPLACED].append(raw.special_id)
            continue
        offers_by_venue.setdefault(raw.venue_id, []).append(align_offer(raw, snapshots[raw.venue_id].ts[0]))
    periods: list[PromotionPeriod] = []
    for venue_id in sorted(offers_by_venue):
        periods.extend(build_promotion_periods(offers_by_venue[venue_id]))
    return LoadedCorpus(
        snapshots=dict(snapshots),
        cumulative=cumulative,
        series=series,
        periods=periods,
        profiles=list(profiles),
        drops=drops,
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
    result: EffectResult
    group_id: Optional[int] = None


_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


def _start_on(cpus: multiprocessing.queues.SimpleQueue) -> None:
    """Pool-worker initializer: move onto the next CPU in ``cpus``, then allow again every CPU allowed before.

    Forked workers start on their parent's CPU, and the scheduler can leave
    them sharing it for a whole run while another CPU idles.
    """
    allowed = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {cpus.get()})
    except OSError:  # the CPU went offline; placement is only a hint
        pass
    os.sched_setaffinity(0, allowed)


def fan_out(fn: Callable[[_Task], _Result], tasks: Sequence[_Task], jobs: int) -> list[_Result]:
    """``fn`` of each task, in task order.

    With ``jobs > 1`` and more than one task, the tasks run in a pool of
    ``min(jobs, len(tasks))`` worker processes, each started on its own CPU
    where the platform allows; ``fn`` and the tasks reach the workers
    pickled. A task's exception is raised here. Otherwise they run in this
    process.
    """
    if jobs > 1 and len(tasks) > 1:
        workers = min(jobs, len(tasks))
        placement: dict = {}
        if hasattr(os, "sched_setaffinity"):
            cpus, allowed = multiprocessing.SimpleQueue(), sorted(os.sched_getaffinity(0))
            for i in range(workers):
                cpus.put(allowed[i % len(allowed)])
            placement = {"initializer": _start_on, "initargs": (cpus,)}
        with ProcessPoolExecutor(max_workers=workers, **placement) as pool:
            return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (jobs * 8))))
    return [fn(t) for t in tasks]


@dataclass(frozen=True)
class _EffectTask:
    venue_id: str
    group_id: Optional[int]
    segments: SegmentedSeries
    horizon: Horizon
    config: RunConfig


def _effect_task(task: _EffectTask) -> CampaignEffect:
    seg, horizon = task.segments, task.horizon
    rng = derive_rng(task.config.seed, "effect", task.venue_id, seg.start_day, horizon.value)
    result = evaluate_effect(seg.before, horizon.window(seg), horizon, task.config, rng)
    return CampaignEffect(task.venue_id, seg.start_day, seg.end_day, result, task.group_id)


def _run_effect_tasks(
    windows: Sequence[tuple[str, Optional[int], SegmentedSeries]], config: RunConfig
) -> list[CampaignEffect]:
    """Test each ``(venue_id, group_id, segments)`` window at every configured horizon it has."""
    tasks = [
        _EffectTask(venue_id, group_id, seg, horizon, config)
        for venue_id, group_id, seg in windows
        for horizon in config.horizons
        if horizon.window(seg) is not None
    ]
    return fan_out(_effect_task, tasks, config.jobs)


def _segment_windows(
    corpus: LoadedCorpus,
    windows: Sequence[tuple[str, int, int, Optional[int]]],
    config: RunConfig,
) -> list[tuple[str, Optional[int], SegmentedSeries]]:
    """Segment each ``(venue_id, start_day, end_day, group_id)`` window.

    Windows that cannot be segmented are skipped and recorded in
    ``corpus.drops`` under their reason.
    """
    segmented = []
    for venue_id, start_day, end_day, group_id in windows:
        s = corpus.series.get(venue_id)
        try:
            if s is None:
                raise InsufficientData("venue has no usable daily series")
            seg = segment(s, start_day, end_day, k=config.k, w_max=config.w_max, min_duration=config.min_duration)
        except (IneligibleCampaign, InsufficientData) as exc:
            corpus.drops.setdefault(f"reference windows skipped: {exc}", []).append(
                f"{venue_id} days {start_day}-{end_day}")
            continue
        segmented.append((venue_id, group_id, seg))
    return segmented


def test_stage(
    corpus: LoadedCorpus, eligibility: EligibilityReport, config: RunConfig
) -> list[CampaignEffect]:
    """Bootstrap-test every eligible promotion campaign on the segments it carries."""
    return _run_effect_tasks([(c.period.venue_id, None, c.segments) for c in eligibility.eligible], config)


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
    promoted = {p.venue_id for p in corpus.periods}
    unpromoted = [p for p in corpus.profiles if p.venue_id not in promoted]
    pool = filter_zero_activity(unpromoted, corpus.series)

    matched, exhausted = cohort_mod.match_reference(
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
    for group in matched:
        assigned, dropped = cohort_mod.assign_pseudo_periods(
            group, empirical, corpus.series,
            rng=derive_rng(config.seed, "pseudo", group.group_id),
            min_history=config.k, min_duration=config.min_duration,
        )
        unfittable += dropped
        groups.append(assigned)
    return MatchStageResult(
        groups=groups,
        exhausted_count=exhausted,
        unfittable_count=unfittable,
        zero_removed=len(unpromoted) - len(pool),
    )


def reference_test_stage(
    corpus: LoadedCorpus, groups: Sequence[ReferenceGroup], config: RunConfig
) -> list[CampaignEffect]:
    """Bootstrap-test the pseudo-campaigns of every reference group."""
    windows = [(m.venue_id, m.pseudo_start, m.pseudo_end, g.group_id) for g in groups for m in g.members]
    return _run_effect_tasks(_segment_windows(corpus, windows, config), config)


def features_stage(
    corpus: LoadedCorpus,
    eligibility: EligibilityReport,
    effects: Sequence[CampaignEffect],
    config: RunConfig,
) -> list[FeatureVector]:
    """Extract feature vectors for every tested promotion campaign.

    Campaigns whose venue has no profile, and horizons a campaign has but
    ``effects`` holds no row for, are skipped and recorded in ``corpus.drops``.
    """
    by_key: dict[tuple[str, int, str], EffectResult] = {
        (e.venue_id, e.start_day, e.result.horizon.value): e.result for e in effects
    }
    profile_of = {p.venue_id: p for p in corpus.profiles}
    index = RadiusIndex(corpus.profiles, cell_deg=max(config.radius_miles / 60.0, 1e-4))
    rows: list[FeatureVector] = []
    no_profile = corpus.drops.setdefault("campaigns skipped: venue has no profile", [])
    no_row = corpus.drops.setdefault("campaign horizons skipped: no row in effects", [])
    for campaign in eligibility.eligible:
        period = campaign.period
        profile = profile_of.get(period.venue_id)
        if profile is None:
            no_profile.append(period.venue_id)
            continue
        seg = campaign.segments
        snapshots = corpus.snapshots[period.venue_id]
        neighbors = neighborhood(profile, index, config.radius_miles)
        t_eve = snapshots.ts[0] + (seg.start_day - 1) * DAY_SECONDS  # day 0 starts at the first reading
        values = {
            **extract_venue_features(seg, snapshots, profile),
            **extract_promo_features(period),
            **extract_geo_features(profile, neighbors, corpus.snapshots, t_eve),
        }
        for horizon in config.horizons:
            if horizon.window(seg) is None:
                continue  # no window to test, so no row is missing
            result = by_key.get((period.venue_id, seg.start_day, horizon.value))
            if result is None:
                no_row.append(f"{period.venue_id} days {seg.start_day}-{seg.end_day} {horizon.value}")
                continue
            rows.append(FeatureVector(
                venue_id=period.venue_id,
                start_day=seg.start_day,
                end_day=seg.end_day,
                horizon=horizon,
                values=dict(values),  # each row owns its values
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
                       e.venue_id, e.start_day, e.result.horizon.value),
    )
    return csv_text(EFFECTS_CSV_HEADER, (
        (e.group_id, e.venue_id, e.start_day, e.end_day, e.result.horizon,
         e.result.diff, e.result.cohens_d, e.result.p_value, e.result.power,
         e.result.ci_low, e.result.ci_high, e.result.label, e.result.degenerate)
        for e in ordered
    ))


def _effect_row(rec: dict) -> CampaignEffect:
    numbers = {name: finite_cell(rec, name) for name in ("diff", "p_value", "power", "ci_low", "ci_high")}
    for name in ("p_value", "power"):
        if not 0.0 <= numbers[name] <= 1.0:
            raise ValueError(f"{name} is {rec[name]!r}, not in [0, 1]")
    degenerate = int(rec["degenerate"])
    if degenerate not in (0, 1):
        raise ValueError(f"degenerate is {rec['degenerate']!r}, not 0 or 1")
    result = EffectResult(
        **numbers,
        cohens_d=finite_cell(rec, "cohens_d") if rec["cohens_d"] else None,
        horizon=Horizon(rec["horizon"]),
        label=EffectLabel(rec["label"]),
        degenerate=bool(degenerate),
    )
    return CampaignEffect(
        venue_id=rec["venue_id"],
        start_day=int(rec["start_day"]),
        end_day=int(rec["end_day"]),
        result=result,
        group_id=int(rec["group_id"]) if rec["group_id"] else None,
    )


def read_effects_csv(text: str) -> list[CampaignEffect]:
    row = first_by_id(_effect_row, "group_id", "venue_id", "start_day", "horizon",
                      key=lambda e: (e.group_id, e.venue_id, e.start_day, e.result.horizon))
    return read_csv_table(text, EFFECTS_CSV_HEADER, row)


GROUPS_CSV_HEADER = ["group_id", "venue_id", "pseudo_start", "pseudo_end"]


def write_groups_csv(groups: Sequence[ReferenceGroup]) -> str:
    return csv_text(GROUPS_CSV_HEADER, (
        (group.group_id, m.venue_id, m.pseudo_start, m.pseudo_end)
        for group in groups for m in sorted(group.members, key=lambda m: m.venue_id)
    ))


def _group_member(rec: dict) -> tuple[int, cohort_mod.ReferenceMember]:
    start, end = rec["pseudo_start"], rec["pseudo_end"]
    if not (start and end):
        raise ValueError("pseudo_start and pseudo_end must both be set")
    return int(rec["group_id"]), cohort_mod.ReferenceMember(
        venue_id=rec["venue_id"], counterpart_id="", pseudo_start=int(start), pseudo_end=int(end))


def read_groups_csv(text: str) -> list[ReferenceGroup]:
    groups: dict[int, ReferenceGroup] = {}
    row = first_by_id(_group_member, "group_id", "venue_id", key=lambda r: (r[0], r[1].venue_id))
    for gid, member in read_csv_table(text, GROUPS_CSV_HEADER, row):
        groups.setdefault(gid, ReferenceGroup(group_id=gid)).members.append(member)
    return [groups[g] for g in sorted(groups)]


CAMPAIGNS_CSV_HEADER = ["venue_id", "start_day", "end_day", "duration", "long_term_eligible"]


def write_campaigns_csv(eligibility: EligibilityReport) -> str:
    ordered = sorted(eligibility.eligible, key=lambda c: (c.period.venue_id, c.period.start_day))
    return csv_text(CAMPAIGNS_CSV_HEADER, (
        (c.period.venue_id, c.segments.start_day, c.segments.end_day,
         c.segments.end_day - c.segments.start_day + 1, Horizon.LONG_TERM.window(c.segments) is not None)
        for c in ordered
    ))


def write_skipped_csv(eligibility: EligibilityReport) -> str:
    return csv_text(["venue_id", "start_day", "end_day", "reason"], (
        (s.venue_id, s.start_day, s.end_day, s.reason)
        for s in sorted(eligibility.skipped, key=lambda s: (s.venue_id, s.start_day))
    ))
