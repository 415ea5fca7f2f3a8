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
from .features import DESIGN_COLUMNS, FEATURE_SET_NAMES, FeatureVector, design_matrix, select_columns
from .models import train_forest, train_logistic
from .rng import derive_rng

EXACT_ENUMERATION_LIMIT = 400  # max n_pos * n_neg for the exact null distribution
CV_FOLDS = 10

POSITIVE_LABEL = EffectLabel.SIGNIFICANT_INCREASE
NEGATIVE_LABELS = (EffectLabel.SIGNIFICANT_DECREASE, EffectLabel.POWERED_NULL)


@dataclass
class Dataset:
    """Labelled rows and their full design matrix, built once (``DESIGN_COLUMNS`` layout)."""

    rows: list[FeatureVector]
    y: np.ndarray
    X: np.ndarray

    @classmethod
    def _labelled(cls, rows: list[FeatureVector], labels: list[bool]) -> "Dataset":
        X, _ = design_matrix(rows, FEATURE_SET_NAMES)
        return cls(rows=rows, y=np.array(labels, dtype=float), X=X)

    @classmethod
    def from_rows(cls, rows: Sequence[FeatureVector]) -> "Dataset":
        """Training rows: significant outcomes only, positives vs negatives."""
        usable = [r for r in rows if r.label is POSITIVE_LABEL or r.label in NEGATIVE_LABELS]
        return cls._labelled(usable, [r.label is POSITIVE_LABEL for r in usable])

    @classmethod
    def out_of_sample(cls, rows: Sequence[FeatureVector]) -> "Dataset":
        """Inconclusive rows labelled by the sign of their observed effect size.

        Rows with undefined or exactly zero effect size are excluded; an empty
        remainder raises ``EmptyEvalSet``.
        """
        usable = [r for r in rows if r.label is EffectLabel.INCONCLUSIVE
                  and r.d_observed is not None and r.d_observed != 0.0]
        if not usable:
            raise EmptyEvalSet("no inconclusive rows with a signed effect size")
        return cls._labelled(usable, [r.d_observed > 0 for r in usable])

    def matrix(self, feature_sets: Sequence[str]) -> tuple[np.ndarray, list[str]]:
        """``design_matrix(self.rows, feature_sets)``, taken column-wise from ``X``."""
        idx, columns = select_columns(feature_sets)
        # np.take returns a C-contiguous copy; X[:, idx] would be F-ordered,
        # and the fits' floating-point results depend on the layout
        return np.take(self.X, idx, axis=1), columns

    def column(self, name: str) -> np.ndarray:
        return self.X[:, DESIGN_COLUMNS.index(name)]

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def n_positive(self) -> int:
        return int(self.y.sum())

    @property
    def n_negative(self) -> int:
        return len(self.rows) - self.n_positive


def _null_counts(n1: int, n2: int) -> np.ndarray:
    """``counts[u]``, the number of rank arrangements of tie-free samples with statistic ``u``.

    They are the coefficients of the Gaussian binomial ``[n1 + n2 choose n1]_q``, the product over
    ``i = 1 .. n1`` of ``(1 - q**(n2 + i)) / (1 - q**i)``: whole numbers below 2**53, so exact in float.
    A coefficient never depends on higher ones, so the padding past ``n1 * n2`` cannot reach them.
    """
    n1, n2 = sorted((n1, n2))  # the product is symmetric in n1 and n2: take the fewer factors
    length = n1 * n2 + 1
    counts = np.zeros(length + n1)  # room to round ``length`` up to a multiple of each i
    counts[0] = 1.0
    for i in range(1, n1 + 1):
        counts[n2 + i:] -= counts[: -(n2 + i)]  # times 1 - q**(n2 + i)
        block = counts[: -(-length // i) * i].reshape(-1, i)  # divided by 1 - q**i: a running sum
        np.cumsum(block, axis=0, out=block)  # within each residue class mod i
    return counts[:length]


def _exact_two_sided_p(u: float, n1: int, n2: int) -> float:
    """Exact p for tie-free samples from the null counts of U."""
    counts = _null_counts(n1, n2)
    tail = counts[: int(math.floor(min(u, n1 * n2 - u))) + 1].sum()
    return float(min(1.0, 2.0 * tail / counts.sum()))


@dataclass
class MannWhitneyResult:
    u: float
    p_value: float


def _u_statistic(pos: Sequence[float], neg: Sequence[float]) -> tuple[float, np.ndarray]:
    """U, the positive-class wins over negative-class values (ties count half), and the pooled tie counts."""
    if len(pos) == 0 or len(neg) == 0:
        raise DegenerateSample("both classes need at least one value")
    n1 = len(pos)
    combined = np.concatenate([np.asarray(pos, dtype=float), np.asarray(neg, dtype=float)])
    _, inverse, counts = np.unique(combined, return_inverse=True, return_counts=True)
    average_ranks = np.cumsum(counts) - (counts - 1) / 2.0
    return float(average_ranks[inverse[:n1]].sum() - n1 * (n1 + 1) / 2.0), counts


def mann_whitney(pos: Sequence[float], neg: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test with average ranks for ties.

    The statistic counts positive-class wins over negative-class values
    (ties count half). Tie-free samples small enough get an exact p-value from
    the null distribution of U; otherwise a normal approximation with
    tie-corrected variance and continuity correction is used.
    """
    u, counts = _u_statistic(pos, neg)
    n1, n2 = len(pos), len(neg)
    if counts.max() == 1 and n1 * n2 <= EXACT_ENUMERATION_LIMIT:  # tie-free and small
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
    return _u_statistic(pos, neg)[0] / (len(pos) * len(neg))


@dataclass
class Metrics:
    accuracy: float
    f_measure: float
    auc: float


def metrics_from_scores(y: np.ndarray, scores: np.ndarray) -> Metrics:
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


def train_model(X: np.ndarray, y: np.ndarray, kind: str, feature_sets: Sequence[str], seed: int):
    """Fit a ``"logistic"`` or ``"forest"`` model on the ``feature_sets`` columns ``X``."""
    if kind == "logistic":
        return train_logistic(X, y)
    if kind == "forest":
        return train_forest(X, y, derive_rng(seed, "forest", *feature_sets))
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass
class CvResult:
    metrics: Metrics
    scores: np.ndarray  # pooled out-of-fold scores aligned with ds.rows
    columns: list[str]  # design-matrix column names
    models: list  # the model fitted for each fold that has test rows


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
    k: int = CV_FOLDS,
    seed: int = 0,
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
    X, columns = ds.matrix(feature_sets)
    scores = np.empty(len(ds))
    models = []
    for fold in range(k):
        test_idx = np.flatnonzero(fold_of == fold)
        train_idx = np.flatnonzero(fold_of != fold)
        if len(test_idx) == 0:
            continue
        model = train_model(
            X[train_idx], ds.y[train_idx], kind, feature_sets,
            derive_rng(seed, "fold-seed", fold).integers(2**32),
        )
        scores[test_idx] = model.predict_proba(X[test_idx])
        models.append(model)
    return CvResult(metrics=metrics_from_scores(ds.y, scores), scores=scores, columns=columns, models=models)


def rms_gap(scores_a: np.ndarray, scores_b: np.ndarray) -> float:
    """Root-mean-square distance between two models' probability outputs."""
    if len(scores_a) == 0:
        raise EmptyEvalSet("no scores to compare")
    diff = np.asarray(scores_a, dtype=float) - np.asarray(scores_b, dtype=float)
    return float(np.sqrt(np.mean(diff**2)))
