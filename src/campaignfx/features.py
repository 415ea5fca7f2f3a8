"""Per-campaign feature extraction: venue, promotion, and geography.

Venue features describe the business itself at the eve of the campaign
(baseline traffic, accumulated counters, user return rate). Promotion
features describe the deal (duration, kind mix, offer density). Geographic
features summarize the 0.5-mile neighborhood: venue density, total nearby
check-ins, same-type competition, and type diversity.

A feature row is stored as its design-column values: each extractor returns
its family's ``FEATURE_SET_COLUMNS`` as a dict of floats, with categories,
offer kinds and a missing loyalty already encoded as 0/1 flags, and
``design_matrix`` and the CSV read those values as they are.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .campaign import OFFER_KINDS, PromotionPeriod
from .cohort import CATEGORIES, VenueProfile
from .effect import EffectLabel, Horizon
from .errors import MissingCounter
from .geo import RadiusIndex
from .series import (DAY_SECONDS, SegmentedSeries, VenueSnapshots, counter_at, csv_text, finite_cell, first_by_id,
                     read_csv_table)

NEIGHBORHOOD_RADIUS_MILES = 0.5
LOYALTY_IMPUTED = 1.0  # minimum achievable return rate


@dataclass
class FeatureVector:
    venue_id: str
    start_day: int
    end_day: int
    horizon: Horizon
    values: dict[str, float]  # keyed by DESIGN_COLUMNS
    d_observed: Optional[float]
    label: Optional[EffectLabel]


def extract_venue_features(
    segments: SegmentedSeries,
    snapshots: VenueSnapshots,
    profile: VenueProfile,
) -> dict[str, float]:
    """Venue features evaluated at the day before the campaign starts.

    Day 0 starts at the venue's first reading. A venue that never recorded a
    user gets ``loyalty = LOYALTY_IMPUTED`` and ``loyalty_missing = 1``.
    """
    if not snapshots:
        raise MissingCounter(f"no snapshots for {profile.venue_id}")
    t_eve = snapshots.ts[0] + (segments.start_day - 1) * DAY_SECONDS
    if not snapshots.ts[0] <= t_eve <= snapshots.ts[-1]:
        raise MissingCounter(f"no counter coverage at campaign eve for {profile.venue_id}")
    checkins = counter_at(snapshots, "checkins", t_eve)
    users = counter_at(snapshots, "users", t_eve)
    return {
        "m_b": float(np.mean(segments.before)),
        "c_a": checkins,
        "loyalty": LOYALTY_IMPUTED if users == 0 else checkins / users,
        "loyalty_missing": 1.0 if users == 0 else 0.0,
        "likes": counter_at(snapshots, "likes", t_eve),
        "tips": counter_at(snapshots, "tips", t_eve),
        **{f"cat_{c.value}": 1.0 if profile.category is c else 0.0 for c in CATEGORIES},
    }


def extract_promo_features(period: PromotionPeriod) -> dict[str, float]:
    """Duration, kind mix, and offers-per-day of a promotion period."""
    if not period.offers:
        raise ValueError("promotion period has no offers")
    kinds = {o.kind for o in period.offers}
    return {
        "duration": float(period.duration),
        **{f"xi_{k.value}": 1.0 if k in kinds else 0.0 for k in OFFER_KINDS},
        "n_s": len(period.offers) / period.duration,
    }


def neighborhood(
    venue: VenueProfile,
    index: RadiusIndex,
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
) -> dict[str, float]:
    """Neighborhood density, popularity, competition, and type entropy.

    ``area_pop`` totals each neighbor's cumulative check-ins interpolated at
    the focal campaign's eve (clamped to the neighbor's observation span;
    neighbors with no snapshots contribute zero). An isolated venue gets all
    zeros.
    """
    density = len(neighbors)
    if density == 0:
        return {"density": 0.0, "area_pop": 0.0, "competitiveness": 0.0, "entropy": 0.0}
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
    return {
        "density": float(density),
        "area_pop": area_pop,
        "competitiveness": same_type / density,
        "entropy": entropy,
    }


# Column names of each feature family.
FEATURE_SET_COLUMNS = {
    "F_v": ["m_b", "c_a", "loyalty", "loyalty_missing", "likes", "tips"]
    + [f"cat_{c.value}" for c in CATEGORIES],
    "F_p": ["duration"] + [f"xi_{k.value}" for k in OFFER_KINDS] + ["n_s"],
    "F_g": ["density", "area_pop", "competitiveness", "entropy"],
}
FEATURE_SET_NAMES = ("F_v", "F_p", "F_g")

# Fixed design-matrix layout, the families in FEATURE_SET_NAMES order; the CSV
# export uses the same order.
DESIGN_COLUMNS = [c for name in FEATURE_SET_NAMES for c in FEATURE_SET_COLUMNS[name]]

CSV_HEADER = ["venue_id", "start_day", "end_day", "horizon"] + DESIGN_COLUMNS + ["d_observed", "label"]

_column_values = operator.itemgetter(*DESIGN_COLUMNS)

# Columns that hold a 0/1 flag rather than a measurement.
_FLAG_COLUMNS = [c for c in DESIGN_COLUMNS if c == "loyalty_missing" or c.startswith(("cat_", "xi_"))]


def select_columns(feature_sets: Sequence[str]) -> tuple[list[int], list[str]]:
    """Positions in ``DESIGN_COLUMNS`` and names of the selected families' columns.

    The layout order holds whatever order ``feature_sets`` names them in.
    """
    for name in feature_sets:
        if name not in FEATURE_SET_COLUMNS:
            raise ValueError(f"unknown feature set {name!r}")
    wanted = {c for name in feature_sets for c in FEATURE_SET_COLUMNS[name]}
    idx = [j for j, c in enumerate(DESIGN_COLUMNS) if c in wanted]
    if not idx:
        raise ValueError("at least one feature set required")
    return idx, [DESIGN_COLUMNS[j] for j in idx]


def design_matrix(
    rows: Sequence[FeatureVector], feature_sets: Sequence[str]
) -> tuple[np.ndarray, list[str]]:
    """Stack the selected feature families into a C-contiguous design matrix."""
    idx, columns = select_columns(feature_sets)
    full = np.array([_column_values(fv.values) for fv in rows], dtype=float)
    return np.take(full.reshape(len(rows), len(DESIGN_COLUMNS)), idx, axis=1), columns


def write_features_csv(rows: Sequence[FeatureVector]) -> str:
    return csv_text(CSV_HEADER, (
        (fv.venue_id, fv.start_day, fv.end_day, fv.horizon,
         *_column_values(fv.values), fv.d_observed, fv.label)
        for fv in sorted(rows, key=lambda r: (r.venue_id, r.start_day, r.horizon.value))
    ))


def _feature_row(record: dict) -> FeatureVector:
    values = {c: finite_cell(record, c) for c in DESIGN_COLUMNS}
    for c in _FLAG_COLUMNS:
        if values[c] not in (0.0, 1.0):
            raise ValueError(f"{c} is {record[c]!r}, not 0 or 1")
    n_categories = sum(values[f"cat_{c.value}"] for c in CATEGORIES)
    if n_categories != 1:
        raise ValueError(f"{n_categories:g} cat_* cells are 1, not exactly one")
    return FeatureVector(
        venue_id=record["venue_id"],
        start_day=int(record["start_day"]),
        end_day=int(record["end_day"]),
        horizon=Horizon(record["horizon"]),
        values=values,
        d_observed=float(record["d_observed"]) if record["d_observed"] else None,
        label=EffectLabel(record["label"]) if record["label"] else None,
    )


def read_features_csv(text: str) -> list[FeatureVector]:
    return read_csv_table(text, CSV_HEADER, first_by_id(_feature_row, "venue_id", "start_day", "horizon"))
