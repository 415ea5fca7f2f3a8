"""Per-feature discrimination and supervised evaluation.

A single feature's predictive power is judged by the two-sided Mann-Whitney
U test between classes and by the equivalent threshold-free ROC area
(AUC = U / (n_pos * n_neg)). Supervised models are scored with stratified
10-fold cross-validation, then re-checked out of sample on the campaigns
whose own tests stayed inconclusive, labelled by the sign of their observed
effect size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .effect import EffectLabel
from .errors import DegenerateSample, EmptyEvalSet, TooFewRows
from .features import FeatureVector, design_matrix
from .models import ForestConfig, LogisticConfig, train_forest, train_logistic
from .rng import derive_rng

EXACT_ENUMERATION_LIMIT = 400  # max n_pos * n_neg for the exact null distribution

POSITIVE_LABEL = EffectLabel.SIGNIFICANT_INCREASE
NEGATIVE_LABELS = (EffectLabel.SIGNIFICANT_DECREASE, EffectLabel.POWERED_NULL)


@dataclass
class Dataset:
    """Training rows: significant outcomes only, positives vs negatives."""

    rows: list[FeatureVector]
    y: np.ndarray

    @classmethod
    def from_rows(cls, rows: Sequence[FeatureVector]) -> "Dataset":
        usable = [r for r in rows if r.label is POSITIVE_LABEL or r.label in NEGATIVE_LABELS]
        y = np.array([1.0 if r.label is POSITIVE_LABEL else 0.0 for r in usable])
        return cls(rows=list(usable), y=y)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())

    @property
    def n_negative(self) -> int:
        return len(self.rows) - self.n_positive


def _average_ranks(values: np.ndarray) -> np.ndarray:
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    avg = cum - (counts - 1) / 2.0
    return avg[inverse]


def _exact_two_sided_p(u: float, n1: int, n2: int) -> float:
    """Exact p for tie-free samples from the U-count recurrence.

    ``counts[u]`` is the number of rank arrangements with statistic ``u``:
    ``f(u; m, n) = f(u - n; m - 1, n) + f(u; m, n - 1)``, i.e. partitions of
    ``u`` into at most ``n1`` parts, each at most ``n2``.
    """
    max_u = n1 * n2
    prev_row = [np.zeros(max_u + 1) for _ in range(n2 + 1)]
    for arr in prev_row:
        arr[0] = 1.0  # m = 0: only u = 0 is achievable
    for _m in range(1, n1 + 1):
        cur_row = [np.zeros(max_u + 1) for _ in range(n2 + 1)]
        cur_row[0][0] = 1.0
        for nn in range(1, n2 + 1):
            arr = cur_row[nn - 1].copy()
            arr[nn:] += prev_row[nn][: max_u + 1 - nn]
            cur_row[nn] = arr
        prev_row = cur_row
    counts = prev_row[n2]
    total = counts.sum()
    u_small = min(u, max_u - u)
    tail = counts[: int(math.floor(u_small)) + 1].sum()
    return min(1.0, 2.0 * tail / total)


@dataclass
class MannWhitneyResult:
    u: float
    p_value: float


def mann_whitney(pos: Sequence[float], neg: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test with average ranks for ties.

    The statistic counts positive-class wins over negative-class values
    (ties count half). Tie-free samples small enough get an exact p-value by
    enumerating the null distribution; otherwise a normal approximation with
    tie-corrected variance and continuity correction is used.
    """
    if len(pos) == 0 or len(neg) == 0:
        raise DegenerateSample("both classes need at least one value")
    a = np.asarray(pos, dtype=float)
    b = np.asarray(neg, dtype=float)
    n1, n2 = len(a), len(b)
    combined = np.concatenate([a, b])
    ranks = _average_ranks(combined)
    u = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)

    _, counts = np.unique(combined, return_counts=True)
    has_ties = bool(np.any(counts > 1))
    if not has_ties and n1 * n2 <= EXACT_ENUMERATION_LIMIT:
        return MannWhitneyResult(u=u, p_value=_exact_two_sided_p(u, n1, n2))

    n = n1 + n2
    tie_term = float(np.sum(counts**3 - counts)) / (n * (n - 1)) if n > 1 else 0.0
    var = (n1 * n2 / 12.0) * ((n + 1) - tie_term)
    if var <= 0:
        return MannWhitneyResult(u=u, p_value=1.0)
    mean = n1 * n2 / 2.0
    diff = u - mean
    cc = 0.5 if diff > 0 else (-0.5 if diff < 0 else 0.0)
    z = (diff - cc) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return MannWhitneyResult(u=u, p_value=min(1.0, p))


def feature_auc(pos: Sequence[float], neg: Sequence[float]) -> float:
    """ROC area of the single-feature threshold classifier.

    Identical to U / (n_pos * n_neg), i.e. the probability a random positive
    outranks a random negative with ties counted half.
    """
    if len(pos) == 0 or len(neg) == 0:
        raise DegenerateSample("both classes need at least one value")
    result = mann_whitney(pos, neg)
    return result.u / (len(pos) * len(neg))


@dataclass
class Metrics:
    accuracy: float
    f_measure: float
    auc: float

    def as_dict(self) -> dict[str, float]:
        return {"accuracy": self.accuracy, "f_measure": self.f_measure, "auc": self.auc}


def _metrics_from_scores(y: np.ndarray, scores: np.ndarray) -> Metrics:
    pred = scores >= 0.5
    actual = y >= 0.5
    accuracy = float(np.mean(pred == actual))
    tp = int(np.sum(pred & actual))
    fp = int(np.sum(pred & ~actual))
    fn = int(np.sum(~pred & actual))
    if tp == 0:
        f_measure = 0.0
    else:
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f_measure = 2.0 * precision * recall / (precision + recall)
    pos_scores = scores[actual]
    neg_scores = scores[~actual]
    auc = feature_auc(pos_scores, neg_scores) if len(pos_scores) and len(neg_scores) else 0.5
    return Metrics(accuracy=accuracy, f_measure=f_measure, auc=auc)


@dataclass
class FittedModel:
    kind: str  # "logistic" | "forest"
    feature_sets: tuple[str, ...]
    inner: object

    def score_rows(self, rows: Sequence[FeatureVector]) -> np.ndarray:
        X, _ = design_matrix(rows, self.feature_sets)
        return self.inner.predict_proba(X)


def _fit(
    X: np.ndarray,
    y: np.ndarray,
    kind: str,
    feature_sets: Sequence[str],
    seed: int,
    logistic_config: LogisticConfig,
    forest_config: ForestConfig,
) -> object:
    if kind == "logistic":
        return train_logistic(X, y, logistic_config)
    if kind == "forest":
        return train_forest(X, y, derive_rng(seed, "forest", *feature_sets), forest_config)
    raise ValueError(f"unknown model kind {kind!r}")


def train_model(
    rows: Sequence[FeatureVector],
    y: np.ndarray,
    kind: str,
    feature_sets: Sequence[str],
    seed: int,
    logistic_config: LogisticConfig = LogisticConfig(),
    forest_config: ForestConfig = ForestConfig(),
) -> FittedModel:
    X, _ = design_matrix(rows, feature_sets)
    inner = _fit(X, y, kind, feature_sets, seed, logistic_config, forest_config)
    return FittedModel(kind=kind, feature_sets=tuple(feature_sets), inner=inner)


@dataclass
class CvResult:
    metrics: Metrics
    scores: np.ndarray  # pooled out-of-fold scores aligned with ds.rows
    fold_of: np.ndarray


def stratified_folds(y: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Fold id per row; class ratios preserved within one row per fold."""
    fold_of = np.empty(len(y), dtype=np.int64)
    for cls in (1.0, 0.0):
        idx = np.flatnonzero(y == cls)
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % k
    return fold_of


def cross_validate(
    ds: Dataset,
    kind: str,
    feature_sets: Sequence[str],
    k: int = 10,
    seed: int = 0,
    logistic_config: LogisticConfig = LogisticConfig(),
    forest_config: ForestConfig = ForestConfig(),
) -> CvResult:
    """Stratified k-fold evaluation with metrics pooled over folds.

    Standardization (inside the logistic fit) happens per training fold, so
    no test-fold information leaks into scaling. Accuracy and F are computed
    on pooled predictions at the 0.5 threshold; AUC is rank-based on pooled
    scores.
    """
    if len(ds) < k:
        raise TooFewRows(f"{len(ds)} rows < {k} folds")
    fold_of = stratified_folds(ds.y, k, derive_rng(seed, "folds", kind, *feature_sets))
    X, _ = design_matrix(ds.rows, feature_sets)
    scores = np.empty(len(ds))
    for fold in range(k):
        test_idx = np.flatnonzero(fold_of == fold)
        train_idx = np.flatnonzero(fold_of != fold)
        if len(test_idx) == 0:
            continue
        model = _fit(
            X[train_idx], ds.y[train_idx], kind, feature_sets,
            derive_rng(seed, "fold-seed", fold).integers(2**32),
            logistic_config, forest_config,
        )
        scores[test_idx] = model.predict_proba(X[test_idx])
    return CvResult(metrics=_metrics_from_scores(ds.y, scores), scores=scores, fold_of=fold_of)


def out_of_sample_eval(model: FittedModel, rows: Sequence[FeatureVector]) -> Metrics:
    """Score inconclusive campaigns, labelled by the sign of observed d.

    Rows with undefined or exactly zero effect size are excluded; an empty
    remainder raises ``EmptyEvalSet``.
    """
    usable = [r for r in rows if r.d_observed is not None and r.d_observed != 0.0]
    if not usable:
        raise EmptyEvalSet("no rows with a signed effect size")
    y = np.array([1.0 if r.d_observed > 0 else 0.0 for r in usable])
    scores = model.score_rows(usable)
    return _metrics_from_scores(y, scores)


def rms_gap(scores_a: np.ndarray, scores_b: np.ndarray) -> float:
    if len(scores_a) == 0:
        raise EmptyEvalSet("no scores to compare")
    diff = np.asarray(scores_a, dtype=float) - np.asarray(scores_b, dtype=float)
    return float(np.sqrt(np.mean(diff**2)))


def rms_probability_gap(
    model_a: FittedModel, model_b: FittedModel, rows: Sequence[FeatureVector]
) -> float:
    """Root-mean-square distance between two models' probability outputs."""
    if not rows:
        raise EmptyEvalSet("no rows to compare")
    return rms_gap(model_a.score_rows(rows), model_b.score_rows(rows))
