"""Per-campaign feature extraction: venue, promotion, and geography.

Venue features describe the business itself at the eve of the campaign
(baseline traffic, accumulated counters, user return rate). Promotion
features describe the deal (duration, kind mix, offer density). Geographic
features summarize the 0.5-mile neighborhood: venue density, total nearby
check-ins, same-type competition, and type diversity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .campaign import OFFER_KINDS, OfferKind, PromotionPeriod
from .cohort import CATEGORIES, Category, VenueProfile
from .effect import EffectLabel, Horizon
from .errors import MissingCounter
from .geo import RadiusIndex
from .series import DAY_SECONDS, SegmentedSeries, VenueSnapshots, counter_at, csv_text, read_csv_table

NEIGHBORHOOD_RADIUS_MILES = 0.5
LOYALTY_IMPUTED = 1.0  # minimum achievable return rate


@dataclass
class VenueFeatures:
    m_b: float
    c_a: float
    loyalty: Optional[float]  # None when no users were ever recorded
    likes: float
    tips: float
    category: Category

    @property
    def loyalty_imputed(self) -> float:
        return LOYALTY_IMPUTED if self.loyalty is None else self.loyalty

    @property
    def loyalty_missing(self) -> float:
        return 1.0 if self.loyalty is None else 0.0


@dataclass
class PromoFeatures:
    duration: int
    kinds: frozenset[OfferKind]
    n_s: float


@dataclass
class GeoFeatures:
    density: int
    area_pop: float
    competitiveness: float
    entropy: float
    empty_neighborhood: bool = False


@dataclass
class FeatureVector:
    venue_id: str
    start_day: int
    end_day: int
    horizon: Horizon
    venue: VenueFeatures
    promo: PromoFeatures
    geo: GeoFeatures
    d_observed: Optional[float]
    label: Optional[EffectLabel]


def extract_venue_features(
    segments: SegmentedSeries,
    snapshots: VenueSnapshots,
    origin_ts: float,
    profile: VenueProfile,
) -> VenueFeatures:
    """Venue features evaluated at the day before the campaign starts."""
    t_eve = origin_ts + (segments.start_day - 1) * DAY_SECONDS
    if not snapshots or not snapshots.ts[0] <= t_eve <= snapshots.ts[-1]:
        raise MissingCounter(f"no counter coverage at campaign eve for {profile.venue_id}")
    checkins = counter_at(snapshots, "checkins", t_eve)
    users = counter_at(snapshots, "users", t_eve)
    return VenueFeatures(
        m_b=float(np.mean(segments.before)),
        c_a=checkins,
        loyalty=None if users == 0 else checkins / users,
        likes=counter_at(snapshots, "likes", t_eve),
        tips=counter_at(snapshots, "tips", t_eve),
        category=profile.category,
    )


def extract_promo_features(period: PromotionPeriod) -> PromoFeatures:
    """Duration, kind mix, and offers-per-day of a promotion period."""
    if not period.offers:
        raise ValueError("promotion period has no offers")
    return PromoFeatures(
        duration=period.duration,
        kinds=frozenset(o.kind for o in period.offers),
        n_s=len(period.offers) / period.duration,
    )


def neighborhood(
    venue: VenueProfile,
    index: RadiusIndex[VenueProfile],
    r_miles: float = NEIGHBORHOOD_RADIUS_MILES,
) -> list[VenueProfile]:
    """Venues within ``r_miles`` (closed ball), the venue itself excluded."""
    hits = index.within_radius(venue.lat, venue.lon, r_miles)
    return [h for h in hits if h.venue_id != venue.venue_id]


def extract_geo_features(
    venue: VenueProfile,
    neighbors: Sequence[VenueProfile],
    snapshots: Mapping[str, VenueSnapshots],
    t_eve_ts: float,
) -> GeoFeatures:
    """Neighborhood density, popularity, competition, and type entropy.

    ``area_pop`` totals each neighbor's cumulative check-ins interpolated at
    the focal campaign's eve (clamped to the neighbor's observation span;
    neighbors with no snapshots contribute zero). An isolated venue gets all
    zeros with the empty flag set.
    """
    density = len(neighbors)
    if density == 0:
        return GeoFeatures(density=0, area_pop=0.0, competitiveness=0.0, entropy=0.0,
                           empty_neighborhood=True)
    area_pop = 0.0
    type_counts = {c: 0 for c in CATEGORIES}
    for nb in sorted(neighbors, key=lambda p: p.venue_id):
        nb_snapshots = snapshots.get(nb.venue_id)
        if nb_snapshots:
            area_pop += counter_at(nb_snapshots, "checkins", t_eve_ts)
        type_counts[nb.category] += 1
    same_type = type_counts[venue.category]
    entropy = 0.0
    for cat in CATEGORIES:
        count = type_counts[cat]
        if count:
            f = count / density
            entropy -= f * math.log(f)
    return GeoFeatures(
        density=density,
        area_pop=area_pop,
        competitiveness=same_type / density,
        entropy=entropy,
    )


# Fixed design-matrix layout; the CSV export uses the same order.
VENUE_COLUMNS = (
    ["m_b", "c_a", "loyalty", "loyalty_missing", "likes", "tips"]
    + [f"cat_{c.value}" for c in CATEGORIES]
)
PROMO_COLUMNS = ["duration"] + [f"xi_{k.value}" for k in OFFER_KINDS] + ["n_s"]
GEO_COLUMNS = ["density", "area_pop", "competitiveness", "entropy"]

FEATURE_SET_COLUMNS = {
    "F_v": VENUE_COLUMNS,
    "F_p": PROMO_COLUMNS,
    "F_g": GEO_COLUMNS,
}
FEATURE_SET_NAMES = ("F_v", "F_p", "F_g")

CSV_HEADER = (
    ["venue_id", "start_day", "end_day", "horizon"]
    + VENUE_COLUMNS
    + PROMO_COLUMNS
    + GEO_COLUMNS
    + ["d_observed", "label"]
)


def feature_values(fv: FeatureVector) -> dict[str, float]:
    """Numeric value of every model feature for one campaign."""
    out = {
        "m_b": fv.venue.m_b,
        "c_a": fv.venue.c_a,
        "loyalty": fv.venue.loyalty_imputed,
        "loyalty_missing": fv.venue.loyalty_missing,
        "likes": fv.venue.likes,
        "tips": fv.venue.tips,
        "duration": float(fv.promo.duration),
        "n_s": fv.promo.n_s,
        "density": float(fv.geo.density),
        "area_pop": fv.geo.area_pop,
        "competitiveness": fv.geo.competitiveness,
        "entropy": fv.geo.entropy,
    }
    for cat in CATEGORIES:
        out[f"cat_{cat.value}"] = 1.0 if fv.venue.category is cat else 0.0
    for kind in OFFER_KINDS:
        out[f"xi_{kind.value}"] = 1.0 if kind in fv.promo.kinds else 0.0
    return out


def design_matrix(
    rows: Sequence[FeatureVector], feature_sets: Sequence[str]
) -> tuple[np.ndarray, list[str]]:
    """Stack the selected feature families into a design matrix."""
    for name in feature_sets:
        if name not in FEATURE_SET_COLUMNS:
            raise ValueError(f"unknown feature set {name!r}")
    columns = [c for name in FEATURE_SET_NAMES if name in feature_sets
               for c in FEATURE_SET_COLUMNS[name]]
    if not columns:
        raise ValueError("at least one feature set required")
    data = np.empty((len(rows), len(columns)), dtype=float)
    for i, fv in enumerate(rows):
        values = feature_values(fv)
        for j, col in enumerate(columns):
            data[i, j] = values[col]
    return data, columns


_column_values = operator.itemgetter(*VENUE_COLUMNS, *PROMO_COLUMNS, *GEO_COLUMNS)


def write_features_csv(rows: Sequence[FeatureVector]) -> str:
    return csv_text(CSV_HEADER, (
        (fv.venue_id, fv.start_day, fv.end_day, fv.horizon,
         *_column_values(feature_values(fv)), fv.d_observed, fv.label)
        for fv in sorted(rows, key=lambda r: (r.venue_id, r.start_day, r.horizon.value))
    ))


def _feature_row(record: dict) -> FeatureVector:
    categories = [c for c in CATEGORIES if float(record[f"cat_{c.value}"]) == 1.0]
    if len(categories) != 1:
        raise ValueError(f"{len(categories)} cat_* cells are 1, not exactly one")
    kinds = frozenset(k for k in OFFER_KINDS if float(record[f"xi_{k.value}"]) == 1.0)
    loyalty_missing = float(record["loyalty_missing"]) == 1.0
    venue = VenueFeatures(
        m_b=float(record["m_b"]),
        c_a=float(record["c_a"]),
        loyalty=None if loyalty_missing else float(record["loyalty"]),
        likes=float(record["likes"]),
        tips=float(record["tips"]),
        category=categories[0],
    )
    promo = PromoFeatures(
        duration=int(float(record["duration"])),
        kinds=kinds,
        n_s=float(record["n_s"]),
    )
    geo = GeoFeatures(
        density=int(float(record["density"])),
        area_pop=float(record["area_pop"]),
        competitiveness=float(record["competitiveness"]),
        entropy=float(record["entropy"]),
        empty_neighborhood=float(record["density"]) == 0.0,
    )
    return FeatureVector(
        venue_id=record["venue_id"],
        start_day=int(record["start_day"]),
        end_day=int(record["end_day"]),
        horizon=Horizon(record["horizon"]),
        venue=venue,
        promo=promo,
        geo=geo,
        d_observed=float(record["d_observed"]) if record["d_observed"] else None,
        label=EffectLabel(record["label"]) if record["label"] else None,
    )


def read_features_csv(text: str) -> list[FeatureVector]:
    return read_csv_table(text, CSV_HEADER, _feature_row)
