"""Effect sizes and the block-bootstrap mean test with power estimation.

The test compares daily check-ins before a campaign against those during
(or after) it. Both samples are centered to mean zero to make the null
hypothesis true, then resampled with a moving-block bootstrap so short-range
day-to-day dependence survives resampling. The empirical p-value counts
resampled mean differences at least as extreme as the observed one, with
add-one smoothing so it is never zero. Power and the confidence interval come
only from those null draws, shifted by the observed difference: under the same
block starts a resample mean of the raw sample is the centered one plus the
sample mean (Künsch, 1989), so the shifted draws are the uncentered
(alternative-hypothesis) distribution. Power is the share of them outside the
null critical interval; the interval is the critical interval shifted. One
pass of ``bootstrap_test`` returns all three; ``evaluate_effect`` reads its
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import InsufficientSample
from .series import SegmentedSeries

DEFAULT_BOOTSTRAPS = 4999
DEFAULT_ALPHA = 0.05
DEFAULT_BLOCK_LEN = 2
DEFAULT_POWER_MIN = 0.8
# _row_sums adds gathered columns below this many blocks (every window up to 31 days at block length 2);
# from here on numpy's row sum of gathered chunks measured faster
COLUMN_SUM_WIDTH = 16
# rows gathered per numpy row sum from COLUMN_SUM_WIDTH blocks: 128 KB of block sums at 16, 256 KB at 32
RESAMPLE_CHUNK_ROWS = 1024


class Horizon(Enum):
    SHORT_TERM = "ShortTerm"
    LONG_TERM = "LongTerm"

    @property
    def flag(self) -> str:
        """``short`` or ``long``: the ``horizon`` setting that selects this horizon alone."""
        return "short" if self is Horizon.SHORT_TERM else "long"

    def window(self, segments: SegmentedSeries) -> Optional[np.ndarray]:
        """The days compared against ``segments.before``; ``None`` when too few days after were observed."""
        return segments.during if self is Horizon.SHORT_TERM else segments.after


class EffectLabel(Enum):
    SIGNIFICANT_INCREASE = "SignificantIncrease"
    SIGNIFICANT_DECREASE = "SignificantDecrease"
    POWERED_NULL = "PoweredNull"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class TestConfig:
    __test__ = False  # not a pytest class

    alpha: float = DEFAULT_ALPHA
    bootstraps: int = DEFAULT_BOOTSTRAPS
    block_len: int = DEFAULT_BLOCK_LEN
    power_min: float = DEFAULT_POWER_MIN
    seed: int = 0


@dataclass
class EffectResult:
    """Outcome of one campaign-window comparison."""

    diff: float
    cohens_d: Optional[float]
    p_value: float
    power: float
    ci_low: float
    ci_high: float
    horizon: Horizon
    label: EffectLabel
    degenerate: bool = False


def cohens_d(before: Sequence[float], other: Sequence[float]) -> Optional[float]:
    """Standardized mean difference using the pooled standard deviation.

    Returns ``None`` (undefined) when the pooled deviation is zero but the
    means differ; a flat pair with equal means yields 0 by convention.
    """
    if len(before) < 2 or len(other) < 2:
        raise InsufficientSample("cohens_d needs at least 2 values per sample")
    a, b = np.asarray(before, dtype=float), np.asarray(other, dtype=float)
    return _cohens_d(a, b, a.mean(), b.mean())


def _cohens_d(a: np.ndarray, b: np.ndarray, m1: float, m2: float) -> Optional[float]:
    """:func:`cohens_d` of two float arrays with their means ``m1`` and ``m2`` already taken."""
    n1, n2 = len(a), len(b)
    v1 = np.sum((a - m1) ** 2) / (n1 - 1)
    v2 = np.sum((b - m2) ** 2) / (n2 - 1)
    pooled = np.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    if pooled == 0.0:
        return 0.0 if m1 == m2 else None
    return float((m2 - m1) / pooled)


def _pairwise_columns(sums: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.add.reduce(sums[starts], axis=1)`` for 1 to 15 columns, bit for bit, one gathered column at a time.

    Makes, across all rows at once, the adds numpy's ``pairwise_sum`` makes
    for one short row (``numpy/_core/src/umath/loops_utils.h.src``): below 8
    columns, in order; from 8, ``((c0+c1)+(c2+c3))+((c4+c5)+(c6+c7))``, then
    the remaining columns in order. At most three sums are live.
    """
    width = starts.shape[1]

    def column(j: int) -> np.ndarray:
        return sums[starts[:, j]]

    total = column(0)
    if width < 8:
        rest = range(1, width)
    else:
        total += column(1)
        pair = column(2)
        pair += column(3)
        total += pair
        pair = column(4)
        pair += column(5)
        last = column(6)
        last += column(7)
        pair += last
        total += pair
        rest = range(8, width)
    for j in rest:
        total += column(j)
    total += 0.0  # the reduce's initial +0.0 comes last: a row of -0.0 sums to +0.0
    return total


def _row_sums(sums: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``np.add.reduce(sums[starts], axis=1)`` bit for bit, without gathering ``sums[starts]`` whole.

    Below ``COLUMN_SUM_WIDTH`` columns :func:`_pairwise_columns` adds
    gathered columns over all rows at once; wider, numpy sums the gathered
    rows ``RESAMPLE_CHUNK_ROWS`` at a time.
    """
    if starts.shape[1] < COLUMN_SUM_WIDTH:
        return _pairwise_columns(sums, starts)
    totals = np.empty(len(starts))
    for lo in range(0, len(starts), RESAMPLE_CHUNK_ROWS):
        sums[starts[lo : lo + RESAMPLE_CHUNK_ROWS]].sum(axis=1, out=totals[lo : lo + RESAMPLE_CHUNK_ROWS])
    return totals


def _resample_means(
    values: np.ndarray, block_len: int, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Means of moving-block resamples, via precomputed sliding block sums.

    Draws the same start indices as materializing each resample would, in one
    ``rng.integers`` call, then adds the block sums of each draw's full blocks
    with :func:`_row_sums` and its tail block's partial sum: the same bits as
    the one-shot ``block_sums[starts].sum(axis=1)``, with no temporary as
    large as the start matrix.
    """
    n = len(values)
    length = min(block_len, n)
    n_starts = n - length + 1
    full, tail = divmod(n, length)
    cum = np.concatenate([[0.0], np.cumsum(values)])
    block_sums = cum[length:] - cum[:-length]
    starts = rng.integers(0, n_starts, size=(n_draws, full + (1 if tail else 0)))
    totals = _row_sums(block_sums, starts[:, :full])
    if tail:
        totals += (cum[tail : n_starts + tail] - cum[:n_starts])[starts[:, full]]
    totals /= n
    return totals


def linear_quantiles(values: np.ndarray, qs: Sequence[float]) -> list[float]:
    """``np.quantile(values, qs)`` of finite ``values`` (its default linear method), bit for bit.

    Partitions a copy of ``values`` at the positions numpy's ``_quantile``
    does (0, -1 and each quantile's two neighbours, sorted and unique), so
    the order statistics match even in the sign of a zero, then applies
    numpy's two-sided lerp. ``np.quantile`` gets that kth array from
    ``np.unique``, whose first call imports ``numpy.ma`` (~15 ms of a fresh
    process), and adds ~0.25 ms of Python overhead per call.
    """
    last = len(values) - 1
    # each virtual index g = last * q between its two neighbours; at or past the end both are the last value
    spots = [(g, -1, -1) if g >= last else (g, int(g), int(g) + 1) for g in (last * q for q in qs)]
    ordered = np.partition(values, sorted({0, -1, *(i for _, lo, hi in spots for i in (lo, hi))}))
    out = []
    for g, lo, hi in spots:
        a, b, t = float(ordered[lo]), float(ordered[hi]), g - lo
        out.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)  # numpy's two-sided lerp
    return out


@dataclass
class BootstrapTest:
    """One bootstrap pass: p-value, null critical interval and power, and the two sample means it centered on."""

    diff: float
    p_value: float
    crit_low: float
    crit_high: float
    power: float
    mean_before: float
    mean_other: float


def bootstrap_test(
    before: Sequence[float],
    other: Sequence[float],
    *,
    bootstraps: int = DEFAULT_BOOTSTRAPS,
    alpha: float = DEFAULT_ALPHA,
    block_len: int = DEFAULT_BLOCK_LEN,
    rng: np.random.Generator,
) -> BootstrapTest:
    """Two-sided block-bootstrap test of equal means, with its power, from one set of draws.

    The centered resample means of ``other``, then of ``before``, give
    ``bootstraps`` null mean differences. The p-value is
    ``(1 + #{|diff*| >= |diff_obs|}) / (bootstraps + 1)``; the critical
    interval holds their alpha/2 and 1-alpha/2 quantiles. Shifted by
    ``diff_obs`` they are the uncentered differences under the same block
    starts; power is their share outside the critical interval.
    """
    a, b = np.asarray(before, dtype=float), np.asarray(other, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise InsufficientSample("the bootstrap test needs at least 2 values per sample")
    mean_a, mean_b = a.mean(), b.mean()
    diff_obs = float(mean_b - mean_a)
    deltas = (_resample_means(b - mean_b, block_len, bootstraps, rng)
              - _resample_means(a - mean_a, block_len, bootstraps, rng))
    exceed = int(np.count_nonzero(np.abs(deltas) >= abs(diff_obs)))
    crit_low, crit_high = linear_quantiles(deltas, (alpha / 2.0, 1.0 - alpha / 2.0))
    alt = deltas + diff_obs
    power = float(np.count_nonzero((alt < crit_low) | (alt > crit_high)) / bootstraps)
    return BootstrapTest(diff_obs, (1 + exceed) / (bootstraps + 1), crit_low, crit_high, power, mean_a, mean_b)


def classify_effect(
    p: float,
    power: float,
    diff: float,
    alpha: float = DEFAULT_ALPHA,
    power_min: float = DEFAULT_POWER_MIN,
) -> EffectLabel:
    """Label a test outcome.

    Significant shifts are split by the sign of the observed difference; a
    non-significant result with power >= ``power_min`` is a trustworthy null,
    anything else is inconclusive.
    """
    if p < alpha:
        if diff > 0:
            return EffectLabel.SIGNIFICANT_INCREASE
        if diff < 0:
            return EffectLabel.SIGNIFICANT_DECREASE
        # |diff| = 0 cannot be significant with add-one smoothing; guard anyway
        return EffectLabel.INCONCLUSIVE
    if power >= power_min:
        return EffectLabel.POWERED_NULL
    return EffectLabel.INCONCLUSIVE


def evaluate_effect(
    before: Sequence[float],
    other: Sequence[float],
    horizon: Horizon,
    config: TestConfig,
    rng: np.random.Generator,
) -> EffectResult:
    """One :func:`bootstrap_test`, Cohen's d and the label of one test window; the
    confidence interval is the test's critical interval shifted by the observed difference.
    """
    a, b = np.asarray(before, dtype=float), np.asarray(other, dtype=float)
    test = bootstrap_test(a, b, bootstraps=config.bootstraps, alpha=config.alpha,
                          block_len=config.block_len, rng=rng)
    return EffectResult(
        diff=test.diff,
        cohens_d=_cohens_d(a, b, test.mean_before, test.mean_other),
        p_value=test.p_value,
        power=test.power,
        ci_low=test.crit_low + test.diff,
        ci_high=test.crit_high + test.diff,
        horizon=horizon,
        label=classify_effect(test.p_value, test.power, test.diff, config.alpha, config.power_min),
        degenerate=bool(np.all(a == a[0]) and np.all(b == b[0])),
    )
