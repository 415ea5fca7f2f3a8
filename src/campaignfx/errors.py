"""Exception types shared across the pipeline."""


class CampaignFxError(Exception):
    """Base class for all library errors."""


class InsufficientData(CampaignFxError):
    """A time series is too short for the requested operation."""


class SpanTooLong(CampaignFxError):
    """A venue's readings span more days than a daily grid may hold."""


class IneligibleCampaign(CampaignFxError):
    """A campaign window fails the segmentation preconditions.

    Its message is the reason: ``"ShortHistory"`` or ``"ShortCampaign"``.
    """


class InsufficientSample(CampaignFxError):
    """A statistical routine needs more observations per sample."""


class MissingCounter(CampaignFxError):
    """A cumulative counter cannot be evaluated at the requested day."""


class EmptyDenominator(CampaignFxError):
    """No results qualify for the requested fraction."""


class DegenerateSample(CampaignFxError):
    """A rank statistic was asked for an empty class sample."""


class SingularFit(CampaignFxError):
    """Model fitting failed on degenerate input."""


class TooFewRows(CampaignFxError):
    """Not enough rows for the requested cross-validation layout."""


class EmptyEvalSet(CampaignFxError):
    """An evaluation set has no usable rows."""


class InvalidConfig(CampaignFxError):
    """A configuration value is outside its documented range."""
