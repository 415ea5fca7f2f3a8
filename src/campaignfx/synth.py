"""Seeded synthetic corpus with planted promotion effects.

Daily check-ins are Poisson with a per-venue base rate (log-normal across
venues), a weekly sinusoid, a geometric platform trend, and a multiplicative
lift of ``1 + delta`` inside each planted promotion window. Cumulative
counters are emitted as daily snapshot polls with jittered timestamps so the
interpolation path gets exercised. The planted windows, lifts, and expected
standardized effects form the ground truth that acceptance runs verify the
pipeline against.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Iterator, Optional, Sequence

import numpy as np

from .campaign import OFFER_KINDS, RawOffer
from .cohort import CATEGORIES, VenueProfile
from .errors import InvalidConfig
from .rng import derive_rng
from .series import DAY_SECONDS, VenueSnapshots, format_timestamp, format_timestamps, parse_timestamp

WEEK_DAYS = 7.0

# corpus-level category mix, aligned with CATEGORIES order
CATEGORY_WEIGHTS = np.array([0.10, 0.25, 0.20, 0.07, 0.05, 0.06, 0.08, 0.04, 0.15])
KIND_WEIGHTS = np.array([0.10, 0.12, 0.46, 0.06, 0.08, 0.10, 0.08])
_POLL_FIELDS = ("ts", "checkins", "users", "specials", "tips", "likes")  # a SnapshotReading after venue_id
# json.dumps(poll, sort_keys=True) of a poll's record, its venue_id given already JSON-encoded
_POLL_LINE = ('{"checkins": %d, "likes": %d, "specials": %d, "tips": %d, "ts": "%s", '
              '"users": %d, "venue_id": %s}')


@dataclass(frozen=True)
class SynthConfig:
    n_venues: int
    days: int
    base_rate_log_mean: float = 1.0
    base_rate_log_sd: float = 0.6
    weekly_seasonality_amp: float = 0.0
    platform_trend_per_day: float = 0.0
    promo_fraction: float = 0.1
    effect_multiplier: float = 0.0
    zero_venue_fraction: float = 0.0
    seed: int = 0
    poll_jitter_hours: float = 2.0
    duration_min: int = 7
    duration_max: int = 21
    bbox: tuple[float, float, float, float] = (40.0, -80.5, 41.0, -79.5)  # lat_lo, lon_lo, lat_hi, lon_hi
    start_date: str = "2012-10-22T00:00:00Z"
    venue_prefix: str = "v"  # lets multiple corpora coexist without id clashes

    def validate(self) -> None:
        if self.n_venues < 1:
            raise InvalidConfig("n_venues must be >= 1")
        if self.days < 63:
            raise InvalidConfig("days must be >= 63 (28 before + 7 during + 28 after)")
        if not 0.0 <= self.weekly_seasonality_amp < 1.0:
            raise InvalidConfig("weekly_seasonality_amp must be in [0, 1)")
        if not 0.0 <= self.promo_fraction <= 1.0:
            raise InvalidConfig("promo_fraction must be in [0, 1]")
        if self.effect_multiplier < 0.0:
            raise InvalidConfig("effect_multiplier must be >= 0")
        if not 0.0 <= self.zero_venue_fraction <= 1.0:
            raise InvalidConfig("zero_venue_fraction must be in [0, 1]")
        if self.base_rate_log_sd < 0.0:
            raise InvalidConfig("base_rate_log_sd must be >= 0")
        if self.platform_trend_per_day <= -1.0:
            raise InvalidConfig("platform_trend_per_day must be > -1")
        if self.poll_jitter_hours < 0.0 or self.poll_jitter_hours > 11.0:
            raise InvalidConfig("poll_jitter_hours must be in [0, 11]")
        if self.duration_min < 7 or self.duration_max < self.duration_min:
            raise InvalidConfig("need 7 <= duration_min <= duration_max")
        lat_lo, lon_lo, lat_hi, lon_hi = self.bbox
        if not (-90 <= lat_lo < lat_hi <= 90 and -180 <= lon_lo < lon_hi <= 180):
            raise InvalidConfig("bbox must be (lat_lo, lon_lo, lat_hi, lon_hi)")
        n_special = self._n_promoted() + self._n_zero()
        if n_special > self.n_venues:
            raise InvalidConfig("promo_fraction + zero_venue_fraction exceed the corpus")

    def _n_promoted(self) -> int:
        return int(round(self.promo_fraction * self.n_venues))

    def _n_zero(self) -> int:
        return int(round(self.zero_venue_fraction * self.n_venues))


@dataclass
class PlantedEffect:
    venue_id: str
    start_day: int
    end_day: int
    delta: float
    d_exp: float
    lam_base: float


@dataclass(frozen=True, slots=True)
class SnapshotReading:
    """One poll of a venue's cumulative counters as a row of ``SynthVenue.readings``."""

    venue_id: str
    ts: float  # seconds since epoch, UTC
    checkins: int
    users: int
    specials: int
    tips: int
    likes: int


@dataclass
class SynthVenue:
    profile: VenueProfile
    snapshots: VenueSnapshots
    specials: np.ndarray  # offers active at each poll
    daily: np.ndarray  # true daily counts, before snapshot quantization
    planted: Optional[PlantedEffect] = None
    offers: list[RawOffer] = field(default_factory=list)

    def _counters(self) -> list[list[int]]:
        """The counter columns of ``_POLL_FIELDS`` (all but ``ts``), as lists of Python ints."""
        s = self.snapshots
        return [c.astype(np.int64).tolist() for c in (s.checkins, s.users, self.specials, s.tips, s.likes)]

    def _polls(self) -> Iterator[tuple]:
        """The ``_POLL_FIELDS`` values of each poll, as Python numbers."""
        return zip(self.snapshots.ts.tolist(), *self._counters())

    @property
    def readings(self) -> list[SnapshotReading]:
        """The polls as rows, built on demand; rows assigned back (in time order) become the columns.

        A compatibility view for ``perfbench``, its only caller, which edits
        polls row by row.
        """
        return [SnapshotReading(self.profile.venue_id, *poll) for poll in self._polls()]

    @readings.setter
    def readings(self, rows: Sequence[SnapshotReading]) -> None:
        ts, checkins, users, specials, tips, likes = (
            np.array([getattr(r, name) for r in rows], dtype=float) for name in _POLL_FIELDS)
        self.snapshots = VenueSnapshots(self.profile.venue_id, ts, checkins, users, tips, likes)
        self.specials = specials.astype(np.int64)


@dataclass
class SynthCorpus:
    venues: list[SynthVenue]
    ground_truth: list[PlantedEffect]

    @property
    def snapshots(self) -> dict[str, VenueSnapshots]:
        return {v.profile.venue_id: v.snapshots for v in self.venues}

    @property
    def offers(self) -> list[RawOffer]:
        return [o for v in self.venues for o in v.offers]

    @property
    def profiles(self) -> list[VenueProfile]:
        return [v.profile for v in self.venues]

    def snapshot_lines(self) -> list[str]:
        """Each poll as ``json.dumps(record, sort_keys=True)`` writes it, built per venue from the columns."""
        lines: list[str] = []
        for venue in self.venues:
            checkins, users, specials, tips, likes = venue._counters()
            ts = format_timestamps(venue.snapshots.ts)
            ids = repeat(json.dumps(venue.profile.venue_id))
            lines += map(_POLL_LINE.__mod__, zip(checkins, likes, specials, tips, ts, users, ids))
        return lines

    def offer_lines(self) -> list[str]:
        lines = []
        for venue in self.venues:
            for o in venue.offers:
                lines.append(json.dumps({
                    "venue_id": o.venue_id,
                    "special_id": o.special_id,
                    "type": o.kind.value,
                    "start": format_timestamp(o.start_ts)[:10],
                    "end": format_timestamp(o.end_ts)[:10],
                }, sort_keys=True))
        return lines

    def venue_lines(self) -> list[str]:
        return [
            json.dumps({
                "venue_id": v.profile.venue_id,
                "lat": v.profile.lat,
                "lon": v.profile.lon,
                "category": v.profile.category.value,
            }, sort_keys=True)
            for v in self.venues
        ]

    def ground_truth_lines(self) -> list[str]:
        return [json.dumps(asdict(g), sort_keys=True) for g in self.ground_truth]


def day_intensity(
    lam: float,
    days: int,
    seasonality_amp: float,
    trend_per_day: float,
    phase: float = 0.0,
) -> np.ndarray:
    """Per-day Poisson intensity before any promotion lift."""
    t = np.arange(days, dtype=float)
    seasonal = 1.0 + seasonality_amp * np.sin(2.0 * math.pi * (t + phase) / WEEK_DAYS)
    trend = np.power(1.0 + trend_per_day, t)
    return lam * seasonal * trend


def expected_effect_size(
    intensity_before: np.ndarray, intensity_during: np.ndarray, delta: float
) -> float:
    """Promotion-attributable expected standardized effect.

    The numerator is the lift the promotion adds to the during window; the
    pooled deviation uses the expected sample variances of independent
    Poisson days (mean intensity plus between-day intensity spread). Zero
    lift always maps to zero, regardless of background trend.
    """
    n1, n2 = len(intensity_before), len(intensity_during)
    lifted = intensity_during * (1.0 + delta)
    numerator = delta * float(intensity_during.mean())
    var_b = float(intensity_before.mean()) + float(
        np.sum((intensity_before - intensity_before.mean()) ** 2)
    ) / max(1, n1 - 1)
    var_d = float(lifted.mean()) + float(np.sum((lifted - lifted.mean()) ** 2)) / max(1, n2 - 1)
    pooled = math.sqrt(((n1 - 1) * var_b + (n2 - 1) * var_d) / (n1 + n2 - 2))
    if pooled == 0.0:
        return 0.0
    return numerator / pooled


def delta_for_target_d(
    lam: float, d_target: float, n_before: int, n_during: int, iterations: int = 60
) -> float:
    """Lift needed for an expected effect of ``d_target`` on flat Poisson days."""
    if lam <= 0:
        raise InvalidConfig("lam must be positive")
    if d_target == 0.0:
        return 0.0
    delta = d_target / math.sqrt(lam)
    for _ in range(iterations):
        pooled_sq = ((n_before - 1) * lam + (n_during - 1) * lam * (1.0 + delta)) / (
            n_before + n_during - 2
        )
        delta = d_target * math.sqrt(pooled_sq) / lam
    return delta


def sample_segment_pair(
    lam: float,
    delta: float,
    n_before: int,
    n_during: int,
    rng: np.random.Generator,
    seasonality_amp: float = 0.0,
    trend_per_day: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """One synthetic (before, during) pair with the promotion lift applied."""
    intensity = day_intensity(lam, n_before + n_during, seasonality_amp, trend_per_day)
    before = rng.poisson(intensity[:n_before]).astype(float)
    during = rng.poisson(intensity[n_before:] * (1.0 + delta)).astype(float)
    return before, during


def _emit_offers(
    venue_id: str,
    start_day: int,
    end_day: int,
    origin_ts: float,
    rng: np.random.Generator,
) -> list[RawOffer]:
    """Offers tiling a planted period; any split keeps gaps at most 2 days."""
    kind = OFFER_KINDS[int(rng.choice(len(OFFER_KINDS), p=KIND_WEIGHTS))]
    spans: list[tuple[int, int]]
    duration = end_day - start_day + 1
    if duration >= 12 and rng.random() < 0.3:
        gap = int(rng.integers(1, 3))
        mid = start_day + duration // 2
        spans = [(start_day, mid - 1), (mid + gap, end_day)]
    else:
        spans = [(start_day, end_day)]
    if rng.random() < 0.2:
        spans.append((start_day, end_day))  # duplicate same-kind offer, raises n_s
    offers = []
    for i, (s, e) in enumerate(spans):
        offers.append(RawOffer(
            venue_id=venue_id,
            special_id=f"{venue_id}-s{i}",
            kind=kind,
            start_ts=origin_ts + s * DAY_SECONDS,
            end_ts=origin_ts + e * DAY_SECONDS,
        ))
    return offers


def generate_corpus_data(cfg: SynthConfig) -> SynthCorpus:
    """Structured corpus: venues with snapshots, offers, and ground truth."""
    cfg.validate()
    origin_ts = parse_timestamp(cfg.start_date)
    n = cfg.n_venues
    n_promo = cfg._n_promoted()
    n_zero = cfg._n_zero()

    roles = np.array(["promo"] * n_promo + ["zero"] * n_zero + ["normal"] * (n - n_promo - n_zero))
    derive_rng(cfg.seed, "roles").shuffle(roles)

    lat_lo, lon_lo, lat_hi, lon_hi = cfg.bbox
    venues: list[SynthVenue] = []
    ground_truth: list[PlantedEffect] = []
    max_duration = min(cfg.duration_max, cfg.days - 36)

    for i in range(n):
        rng = derive_rng(cfg.seed, "venue", i)
        venue_id = f"{cfg.venue_prefix}{i:06d}"
        lam = float(rng.lognormal(cfg.base_rate_log_mean, cfg.base_rate_log_sd))
        phase = float(rng.uniform(0.0, WEEK_DAYS))
        loyalty = 1.0 + float(rng.gamma(2.0, 0.5))
        tip_rate = float(rng.uniform(0.01, 0.10))
        like_rate = float(rng.uniform(0.02, 0.20))
        lat = float(rng.uniform(lat_lo, lat_hi))
        lon = float(rng.uniform(lon_lo, lon_hi))
        category = CATEGORIES[int(rng.choice(len(CATEGORIES), p=CATEGORY_WEIGHTS))]

        role = roles[i]
        planted = None
        offers: list[RawOffer] = []
        intensity = day_intensity(
            lam, cfg.days, cfg.weekly_seasonality_amp, cfg.platform_trend_per_day, phase
        )
        multiplier = np.ones(cfg.days)
        if role == "promo":
            duration = int(rng.integers(cfg.duration_min, max_duration + 1))
            start_max = cfg.days - duration - 8
            start_day = int(rng.integers(28, start_max + 1))
            end_day = start_day + duration - 1
            multiplier[start_day : end_day + 1] = 1.0 + cfg.effect_multiplier
            offers = _emit_offers(venue_id, start_day, end_day, origin_ts, rng)
            planted = PlantedEffect(
                venue_id=venue_id,
                start_day=start_day,
                end_day=end_day,
                delta=cfg.effect_multiplier,
                d_exp=expected_effect_size(
                    intensity[start_day - 28 : start_day],
                    intensity[start_day : end_day + 1],
                    cfg.effect_multiplier,
                ),
                lam_base=lam,
            )
            ground_truth.append(planted)

        if role == "zero":
            daily = np.zeros(cfg.days)
        else:
            daily = rng.poisson(intensity * multiplier).astype(float)

        cumulative = np.concatenate([[0.0], np.cumsum(daily)])
        poll_ts = origin_ts + DAY_SECONDS * np.arange(cfg.days + 1)
        if cfg.poll_jitter_hours > 0 and cfg.days > 1:
            # whole seconds, so the ISO-8601 serialization round-trips exactly
            jitter = np.round(rng.uniform(
                -cfg.poll_jitter_hours * 3600.0, cfg.poll_jitter_hours * 3600.0, size=cfg.days - 1
            ))
            poll_ts[1:-1] += jitter  # first and last polls stay on the grid

        # piecewise-linear accrual: day d's count arrives uniformly over [d, d+1)
        observed = np.interp(poll_ts, origin_ts + DAY_SECONDS * np.arange(cfg.days + 1), cumulative)
        checkins = np.floor(observed)  # whole counts, kept as float64 like parsed snapshots
        users = np.where(checkins > 0, np.maximum(1, np.floor(checkins / loyalty)), 0)
        tips = np.floor(checkins * tip_rate)
        likes = np.floor(checkins * like_rate)

        # an offer is active at a poll from its first day's start until its last day's end
        starts = np.sort([o.start_ts for o in offers])
        ends = np.sort([o.end_ts + DAY_SECONDS for o in offers])
        specials = np.searchsorted(starts, poll_ts, "right") - np.searchsorted(ends, poll_ts, "right")
        profile = VenueProfile(
            venue_id=venue_id, category=category, lat=lat, lon=lon,
        )
        venues.append(SynthVenue(
            profile=profile,
            snapshots=VenueSnapshots(venue_id, poll_ts, checkins, users, tips, likes),
            specials=specials, daily=daily, planted=planted, offers=offers,
        ))
    return SynthCorpus(venues=venues, ground_truth=ground_truth)

