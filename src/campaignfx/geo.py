"""Haversine distance and a lat/lon grid index of venue profiles for radius queries.

Distances use scalar ``math`` arithmetic so a brute-force rescan of the same
formula reproduces the index results bit for bit; the grid only prunes
candidates, membership is always decided by the exact distance test.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .cohort import VenueProfile

EARTH_RADIUS_MILES = 3958.7613


def haversine_miles(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in miles on the mean-radius sphere."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(a)))


def grid_cell(lat: float, lon: float, cell_deg: float) -> tuple[int, int]:
    """(row, col) of the ``cell_deg``-sided degree square holding the point."""
    return (int(math.floor(lat / cell_deg)), int(math.floor(lon / cell_deg)))


class RadiusIndex:
    """Grid-bucketed venue profiles answering closed-ball radius queries.

    Cells are squares in degree space sized to the expected query radius.
    A query collects every cell that can intersect the ball (conservative
    latitude/longitude bounds) and filters candidates with the exact
    haversine distance, so results match an all-pairs scan exactly.
    """

    def __init__(self, items: Iterable[VenueProfile], cell_deg: float = 0.01):
        if cell_deg <= 0:
            raise ValueError("cell_deg must be positive")
        self.cell_deg = cell_deg
        self._cells: dict[tuple[int, int], list[VenueProfile]] = {}
        for item in items:
            self._cells.setdefault(grid_cell(item.lat, item.lon, cell_deg), []).append(item)

    def within_radius(self, lat: float, lon: float, r_miles: float) -> list[VenueProfile]:
        """All items at haversine distance <= ``r_miles`` from the point."""
        if not r_miles >= 0:
            raise ValueError("radius must be non-negative")
        # a ball of radius pi * R covers the sphere; bounding the cell search by
        # it keeps the bounds finite and sin_half >= 0 for any larger radius
        r_bound = min(r_miles, math.pi * EARTH_RADIUS_MILES)
        dlat_deg = math.degrees(r_bound / EARTH_RADIUS_MILES)
        rows = range(int(math.floor((lat - dlat_deg) / self.cell_deg)) - 1,
                     int(math.floor((lat + dlat_deg) / self.cell_deg)) + 2)
        cos_max = math.cos(math.radians(min(89.9999, abs(lat) + dlat_deg)))
        sin_half = math.sin(r_bound / (2.0 * EARTH_RADIUS_MILES))
        if cos_max <= sin_half:
            # near-polar or sphere-covering query: longitude bound degenerates, scan whole rows
            buckets = [bucket for (row, _), bucket in self._cells.items() if row in rows]
        else:
            dlon_deg = math.degrees(2.0 * math.asin(sin_half / cos_max))
            cols = range(int(math.floor((lon - dlon_deg) / self.cell_deg)) - 1,
                         int(math.floor((lon + dlon_deg) / self.cell_deg)) + 2)
            buckets = [self._cells.get((row, col), ()) for row in rows for col in cols]
        return [item for bucket in buckets for item in bucket
                if haversine_miles(lat, lon, item.lat, item.lon) <= r_miles]
