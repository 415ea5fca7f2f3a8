"""Haversine distance and a lat/lon grid index for radius queries.

Distances use scalar ``math`` arithmetic so a brute-force rescan of the same
formula reproduces the index results bit for bit; the grid only prunes
candidates, membership is always decided by the exact distance test.
"""

from __future__ import annotations

import math
from typing import Generic, Iterable, Protocol, TypeVar

EARTH_RADIUS_MILES = 3958.7613


class HasLocation(Protocol):
    lat: float
    lon: float


T = TypeVar("T", bound=HasLocation)


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


class RadiusIndex(Generic[T]):
    """Grid-bucketed point set answering closed-ball radius queries.

    Cells are squares in degree space sized to the expected query radius.
    A query collects every cell that can intersect the ball (conservative
    latitude/longitude bounds) and filters candidates with the exact
    haversine distance, so results match an all-pairs scan exactly.
    """

    def __init__(self, items: Iterable[T], cell_deg: float = 0.01):
        if cell_deg <= 0:
            raise ValueError("cell_deg must be positive")
        self.cell_deg = cell_deg
        self._cells: dict[tuple[int, int], list[T]] = {}
        for item in items:
            self._cells.setdefault(grid_cell(item.lat, item.lon, cell_deg), []).append(item)

    def within_radius(self, lat: float, lon: float, r_miles: float) -> list[T]:
        """All items at haversine distance <= ``r_miles`` from the point."""
        if not r_miles >= 0:
            raise ValueError("radius must be non-negative")
        # a ball of radius pi * R covers the sphere; bounding the cell search by
        # it keeps the bounds finite and sin_half >= 0 for any larger radius
        r_bound = min(r_miles, math.pi * EARTH_RADIUS_MILES)
        dlat_deg = math.degrees(r_bound / EARTH_RADIUS_MILES)
        row_lo = int(math.floor((lat - dlat_deg) / self.cell_deg)) - 1
        row_hi = int(math.floor((lat + dlat_deg) / self.cell_deg)) + 1

        phi_max = min(89.9999, abs(lat) + dlat_deg)
        cos_max = math.cos(math.radians(phi_max))
        sin_half = math.sin(r_bound / (2.0 * EARTH_RADIUS_MILES))
        if cos_max <= sin_half:
            # near-polar or sphere-covering query: longitude bound degenerates, scan whole rows
            col_range = None
        else:
            dlon_deg = math.degrees(2.0 * math.asin(sin_half / cos_max))
            col_lo = int(math.floor((lon - dlon_deg) / self.cell_deg)) - 1
            col_hi = int(math.floor((lon + dlon_deg) / self.cell_deg)) + 1
            col_range = (col_lo, col_hi)

        out: list[T] = []
        for (row, col), bucket in self._cells.items() if col_range is None else self._iter_cells(row_lo, row_hi, col_range):
            if col_range is None and not (row_lo <= row <= row_hi):
                continue
            for item in bucket:
                if haversine_miles(lat, lon, item.lat, item.lon) <= r_miles:
                    out.append(item)
        return out

    def _iter_cells(self, row_lo: int, row_hi: int, col_range: tuple[int, int]):
        col_lo, col_hi = col_range
        for row in range(row_lo, row_hi + 1):
            for col in range(col_lo, col_hi + 1):
                bucket = self._cells.get((row, col))
                if bucket:
                    yield (row, col), bucket
