import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from campaignfx.cohort import Category, VenueProfile
from campaignfx.geo import EARTH_RADIUS_MILES, RadiusIndex, haversine_miles
from campaignfx.rng import derive_rng


def haversine_oracle(lat1, lon1, lat2, lon2):
    """Independent reimplementation of the distance formula."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_MILES * math.asin(min(1.0, math.sqrt(a)))


def random_profiles(n, seed=0, lat0=40.0, lon0=-80.0, spread=0.2):
    rng = derive_rng(seed, "geo")
    cats = list(Category)
    out = []
    for i in range(n):
        out.append(VenueProfile(
            venue_id=f"v{i}",
            category=cats[int(rng.integers(len(cats)))],
            lat=lat0 + float(rng.uniform(-spread, spread)),
            lon=lon0 + float(rng.uniform(-spread, spread)),
        ))
    return out


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_miles(40.0, -80.0, 40.0, -80.0) == 0.0

    def test_one_degree_latitude(self):
        d = haversine_miles(40.0, -80.0, 41.0, -80.0)
        assert d == pytest.approx(math.pi * EARTH_RADIUS_MILES / 180.0, rel=1e-9)

    def test_symmetry(self):
        a = haversine_miles(40.1, -80.2, 40.5, -79.9)
        b = haversine_miles(40.5, -79.9, 40.1, -80.2)
        assert a == b

    @given(
        st.floats(min_value=-85, max_value=85),
        st.floats(min_value=-179, max_value=179),
        st.floats(min_value=-85, max_value=85),
        st.floats(min_value=-179, max_value=179),
    )
    def test_matches_oracle_bitwise(self, lat1, lon1, lat2, lon2):
        assert haversine_miles(lat1, lon1, lat2, lon2) == haversine_oracle(lat1, lon1, lat2, lon2)


class TestRadiusIndex:
    def brute_force(self, profiles, lat, lon, r):
        return {p.venue_id for p in profiles if haversine_oracle(lat, lon, p.lat, p.lon) <= r}

    def test_matches_brute_force_exactly(self):
        profiles = random_profiles(800, seed=3)
        # include exact duplicates (distance zero) and near-boundary points
        profiles.append(VenueProfile("dup", Category.FOOD, profiles[0].lat, profiles[0].lon))
        index = RadiusIndex(profiles, cell_deg=0.01)
        for probe in profiles[:60]:
            got = {p.venue_id for p in index.within_radius(probe.lat, probe.lon, 0.5)}
            assert got == self.brute_force(profiles, probe.lat, probe.lon, 0.5)

    def test_various_radii(self):
        profiles = random_profiles(400, seed=4)
        index = RadiusIndex(profiles, cell_deg=0.02)
        for r in (0.0, 0.1, 0.5, 2.0, 10.0):
            got = {p.venue_id for p in index.within_radius(40.0, -80.0, r)}
            assert got == self.brute_force(profiles, 40.0, -80.0, r)

    def test_radii_beyond_half_the_circumference(self):
        # spread over the whole sphere; half the circumference is pi * R ~ 12,437 miles
        profiles = random_profiles(300, seed=6, lat0=0.0, lon0=0.0, spread=89.0)
        profiles += [VenueProfile("antipode", Category.FOOD, -40.0, 100.0)]
        index = RadiusIndex(profiles, cell_deg=0.5)
        for r in (12_000.0, math.pi * EARTH_RADIUS_MILES, 13_000.0, 26_000.0, 30_000.0, 1e6, math.inf):
            got = {p.venue_id for p in index.within_radius(40.0, -80.0, r)}
            assert got == self.brute_force(profiles, 40.0, -80.0, r)
        assert len(got) == len(profiles)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RadiusIndex(random_profiles(5)).within_radius(40.0, -80.0, math.nan)

    def test_closed_ball_includes_boundary(self):
        center = VenueProfile("c", Category.FOOD, 40.0, -80.0)
        other = VenueProfile("o", Category.FOOD, 40.1, -80.0)
        d = haversine_miles(40.0, -80.0, 40.1, -80.0)
        index = RadiusIndex([center, other])
        got = {p.venue_id for p in index.within_radius(40.0, -80.0, d)}
        assert "o" in got

    def test_high_latitude_cluster(self):
        profiles = random_profiles(200, seed=5, lat0=78.0, lon0=12.0, spread=0.3)
        index = RadiusIndex(profiles, cell_deg=0.01)
        for probe in profiles[:20]:
            got = {p.venue_id for p in index.within_radius(probe.lat, probe.lon, 0.5)}
            assert got == self.brute_force(profiles, probe.lat, probe.lon, 0.5)

    def test_empty_index(self):
        index = RadiusIndex([])
        assert index.within_radius(40.0, -80.0, 1.0) == []
