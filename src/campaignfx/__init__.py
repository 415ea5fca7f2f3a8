"""Quasi-experimental analysis of venue promotion campaigns.

Measures whether special-offer campaigns shift a venue's daily check-ins:
segmentation around campaign windows, block-bootstrap significance and power
testing, matched reference cohorts with pseudo-promotion periods, feature
extraction, and success classifiers, all validated against seeded synthetic
corpora with planted ground-truth effects.
"""

from .campaign import (
    OfferKind,
    PromotionPeriod,
    SpecialOffer,
    build_promotion_periods,
    eligible_campaigns,
    offer_stats,
)
from .cohort import (
    Category,
    FractionMode,
    ReferenceGroup,
    VenueProfile,
    assign_pseudo_periods,
    effect_ecdf,
    filter_zero_activity,
    increase_fraction,
    match_reference,
)
from .config import RunConfig, build_run_config
from .effect import (
    EffectLabel,
    EffectResult,
    Horizon,
    TestConfig,
    bootstrap_power,
    bootstrap_test,
    classify_effect,
    cohens_d,
    evaluate_effect,
)
from .features import (
    FeatureVector,
    design_matrix,
    extract_geo_features,
    extract_promo_features,
    extract_venue_features,
    neighborhood,
)
from .geo import RadiusIndex, haversine_miles
from .learn import (
    Dataset,
    Metrics,
    cross_validate,
    feature_auc,
    mann_whitney,
)
from .models import train_forest, train_logistic
from .rng import derive_rng
from .series import (
    DailyCumulative,
    DailySeries,
    SegmentedSeries,
    VenueSnapshots,
    daily_checkins,
    interpolate_daily,
    parse_snapshots,
    segment,
)
from .synth import SnapshotReading, SynthConfig, generate_corpus_data

__version__ = "0.1.0"
