import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from campaignfx.series import DailySeries, VenueSnapshots

settings.register_profile(
    "ci",
    max_examples=60,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


def make_series(values, venue_id="v0") -> DailySeries:
    return DailySeries(
        venue_id=venue_id,
        values=np.asarray(values, dtype=float),
    )


def make_snapshots(ts, checkins, users=None, tips=None, likes=None, venue_id="v1") -> VenueSnapshots:
    """Columnar snapshots of one venue; counters left out are all zero."""
    zeros = [0] * len(ts)
    columns = (ts, checkins, users or zeros, tips or zeros, likes or zeros)
    return VenueSnapshots(venue_id, *(np.asarray(c, dtype=float) for c in columns))


def logistic_coefficients(model) -> tuple[np.ndarray, float]:
    """A fitted ``LogisticModel``'s weights and intercept in unscaled feature units.

    Dropped (constant) columns get coefficient zero.
    """
    scaler = model.scaler
    coef = np.zeros(model.n_features)
    coef[scaler.kept] = model.weights / scaler.sds
    intercept = model.intercept - float(np.sum(model.weights * scaler.means / scaler.sds))
    return coef, intercept


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
