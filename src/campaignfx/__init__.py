"""Quasi-experimental analysis of venue promotion campaigns.

Measures whether special-offer campaigns shift a venue's daily check-ins:
segmentation around campaign windows, block-bootstrap significance and power
testing, matched reference cohorts with pseudo-promotion periods, feature
extraction, and success classifiers, all validated against seeded synthetic
corpora with planted ground-truth effects.

The root exports the names of the README's library example; import
everything else from its module.
"""

from .effect import Horizon, TestConfig, evaluate_effect
from .rng import derive_rng
from .series import DailySeries, segment

__version__ = "0.1.0"
