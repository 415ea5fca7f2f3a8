"""Binary classifiers: regularized logistic regression and a random forest.

Both are deliberately dependency-free so that fits are bit-reproducible from
the derived RNG streams. The logistic model is a Newton solver on the
L2-penalized log-likelihood over standardized features; the forest grows
CART trees on bootstrapped rows with a random feature subset per split.

Trees grow depth first. Each splittable node draws its ``sqrt(p)`` candidate
features and scores them in one vectorized pass over a ``(candidates x
rows)`` block: one stable sort along rows, one cumulative sum of the labels,
the Gini impurity of every threshold, and one flat ``argmin``, which breaks
ties towards the first candidate drawn and then the lowest threshold. That
is the tie-break of a search that scores one feature at a time, and the
nodes draw from the RNG in the same order, so tree shapes and the RNG draw
order are those of the per-feature search. Prediction routes all trees
together, one depth level per step, and adds the tree probabilities in
tree order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularFit


@dataclass(frozen=True)
class LogisticConfig:
    l2: float = 1e-6
    tol: float = 1e-8
    max_iter: int = 1000


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    min_leaf: int = 2


@dataclass
class Scaler:
    """Column standardization fitted on training data only."""

    means: np.ndarray
    sds: np.ndarray
    kept: np.ndarray  # indices of non-constant columns

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        means = X.mean(axis=0)
        sds = X.std(axis=0, ddof=0)
        kept = np.flatnonzero(sds > 0)
        return cls(means=means[kept], sds=sds[kept], kept=kept)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (X[:, self.kept] - self.means) / self.sds


def _require_two_per_class(y: np.ndarray) -> None:
    positives = int(np.sum(y == 1.0))
    if positives < 2 or len(y) - positives < 2:
        raise SingularFit("training needs at least 2 rows per class")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass
class LogisticModel:
    weights: np.ndarray  # over scaled kept columns
    intercept: float
    scaler: Scaler
    n_features: int
    converged: bool = True

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        Xs = self.scaler.transform(np.asarray(X, dtype=float))
        return _sigmoid(Xs @ self.weights + self.intercept)

    def coefficients_original_scale(self) -> tuple[np.ndarray, float]:
        """Weights and intercept mapped back to unscaled feature units.

        Dropped (constant) columns get coefficient zero.
        """
        coef = np.zeros(self.n_features)
        coef[self.scaler.kept] = self.weights / self.scaler.sds
        intercept = self.intercept - float(np.sum(self.weights * self.scaler.means / self.scaler.sds))
        return coef, intercept


def _penalized_nll(Xs, y, w, b, l2):
    z = Xs @ w + b
    # log(1 + exp(-|z|)) formulation avoids overflow
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * l2 * float(w @ w)


def train_logistic(
    X: np.ndarray, y: np.ndarray, config: LogisticConfig = LogisticConfig()
) -> LogisticModel:
    """Newton fit of the L2-penalized logistic likelihood.

    Constant feature columns are dropped with a warning before fitting;
    training fails only when no informative column remains. Convergence is
    declared when every gradient component is below ``config.tol``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D and aligned with y")
    _require_two_per_class(y)
    scaler = Scaler.fit(X)
    if len(scaler.kept) == 0:
        raise SingularFit("all feature columns are constant")
    if len(scaler.kept) < X.shape[1]:
        dropped = sorted(set(range(X.shape[1])) - set(scaler.kept.tolist()))
        warnings.warn(f"dropping constant feature columns {dropped}", stacklevel=2)
    Xs = scaler.transform(X)
    n, p = Xs.shape

    w = np.zeros(p)
    b = 0.0
    converged = False
    loss = _penalized_nll(Xs, y, w, b, config.l2)
    for _ in range(config.max_iter):
        prob = _sigmoid(Xs @ w + b)
        grad_w = Xs.T @ (prob - y) + config.l2 * w
        grad_b = float(np.sum(prob - y))
        if max(np.max(np.abs(grad_w)), abs(grad_b)) < config.tol:
            converged = True
            break
        weight = prob * (1.0 - prob)
        Xw = Xs * weight[:, None]
        H = np.empty((p + 1, p + 1))
        H[:p, :p] = Xs.T @ Xw + config.l2 * np.eye(p)
        H[:p, p] = Xw.sum(axis=0)
        H[p, :p] = H[:p, p]
        H[p, p] = float(weight.sum()) + config.l2
        grad = np.concatenate([grad_w, [grad_b]])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(50):
            w_new = w - scale * step[:p]
            b_new = b - scale * step[p]
            loss_new = _penalized_nll(Xs, y, w_new, b_new, config.l2)
            if loss_new <= loss + 1e-12:
                break
            scale *= 0.5
        w, b, loss = w_new, b_new, loss_new
    return LogisticModel(weights=w, intercept=float(b), scaler=scaler,
                         n_features=X.shape[1], converged=converged)


@dataclass
class _Tree:
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray


def _grow_tree(X: np.ndarray, y: np.ndarray, rng: np.random.Generator, config: ForestConfig) -> _Tree:
    """Depth-first CART growth; each node scores its candidates as one block.

    Among equal best impurities, the flat ``argmin`` takes the first
    candidate in draw order, then the lowest threshold.
    """
    p = X.shape[1]
    n_candidates = max(1, int(math.sqrt(p)))
    min_leaf = config.min_leaf
    feature: list[int] = [-1]
    threshold: list[float] = [0.0]
    left: list[int] = [-1]
    right: list[int] = [-1]
    prob: list[float] = [0.0]
    block_rows = np.arange(n_candidates)[:, None]
    # (node, its rows of X.T, its labels): children carry copies, not indices
    stack = [(0, np.ascontiguousarray(X.T), y)]
    while stack:
        node, Xt, ys = stack.pop()
        m = len(ys)
        pos = float(ys.sum())
        prob[node] = pos / m
        if pos == 0 or pos == m or m < 2 * min_leaf:
            continue
        parent_gini = 2.0 * prob[node] * (1.0 - prob[node])
        candidates = rng.choice(p, size=n_candidates, replace=False)
        block = Xt[candidates]
        order = np.argsort(block, axis=1, kind="mergesort")
        xs = block[block_rows, order]
        cum = np.cumsum(ys[order], axis=1)
        pos_left = cum[:, :-1]
        pos_right = cum[:, -1:] - pos_left
        n_left = np.arange(1, m)
        n_right = m - n_left
        gini_left = 2.0 * pos_left * (n_left - pos_left) / n_left
        gini_right = 2.0 * pos_right * (n_right - pos_right) / n_right
        valid = (xs[:, 1:] != xs[:, :-1]) & (n_left >= min_leaf) & (n_right >= min_leaf)
        impurity = np.where(valid, (gini_left + gini_right) / m, np.inf)
        best = int(np.argmin(impurity))
        c, t = divmod(best, m - 1)
        # a block with no valid threshold is inf throughout
        if not impurity[c, t] < parent_gini - 1e-15:
            continue
        thr = 0.5 * (xs[c, t] + xs[c, t + 1])
        f = int(candidates[c])
        mask = Xt[f] <= thr
        # adjacent float values can collapse the midpoint onto one side
        if np.count_nonzero(mask) in (0, m):
            continue
        feature[node] = f
        threshold[node] = thr
        left[node] = len(feature)
        right[node] = len(feature) + 1
        feature += [-1, -1]
        threshold += [0.0, 0.0]
        left += [-1, -1]
        right += [-1, -1]
        prob += [0.0, 0.0]
        stack.append((left[node], Xt[:, mask], ys[mask]))
        stack.append((right[node], Xt[:, ~mask], ys[~mask]))
    return _Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        prob=np.array(prob, dtype=float),
    )


@dataclass
class ForestModel:
    trees: list[_Tree] = field(default_factory=list)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf probability over trees, routing every tree at once.

        The node arrays of all trees are laid end to end, and each pass
        moves every (tree, row) pair that sits on an inner node one level
        down. Tree probabilities are added in tree order.
        """
        X = np.asarray(X, dtype=float)
        n = len(X)
        sizes = [len(tree.feature) for tree in self.trees]
        offsets = np.cumsum([0] + sizes[:-1])
        feature = np.concatenate([tree.feature for tree in self.trees])
        threshold = np.concatenate([tree.threshold for tree in self.trees])
        left = np.concatenate([tree.left + off for tree, off in zip(self.trees, offsets)])
        right = np.concatenate([tree.right + off for tree, off in zip(self.trees, offsets)])
        prob = np.concatenate([tree.prob for tree in self.trees])
        node = np.repeat(offsets, n)
        row = np.tile(np.arange(n), len(self.trees))
        inner = np.flatnonzero(feature[node] >= 0)
        while len(inner):
            at = node[inner]
            goes_left = X[row[inner], feature[at]] <= threshold[at]
            node[inner] = np.where(goes_left, left[at], right[at])
            inner = inner[feature[node[inner]] >= 0]
        leaf_prob = prob[node].reshape(len(self.trees), n)
        total = np.zeros(n)
        for tree_prob in leaf_prob:
            total += tree_prob
        return total / len(self.trees)


def train_forest(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    config: ForestConfig = ForestConfig(),
) -> ForestModel:
    """Random forest of Gini CART trees on bootstrapped rows.

    Each tree draws a row bootstrap and examines sqrt(p) features per split;
    nodes split until pure or below twice the minimum leaf size.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_two_per_class(y)
    n = len(X)
    model = ForestModel()
    for _ in range(config.n_trees):
        rows = rng.integers(0, n, size=n)
        model.trees.append(_grow_tree(X[rows], y[rows], rng, config))
    return model
