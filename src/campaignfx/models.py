"""Binary classifiers: regularized logistic regression and a random forest.

Both are deliberately dependency-free so that fits are bit-reproducible from
the derived RNG streams. The logistic model is a Newton solver on the
L2-penalized log-likelihood over standardized features; the forest grows
CART trees on bootstrapped rows with a random feature subset per split.

All trees of a forest grow together, breadth first, one depth level per
pass. The generator first draws every tree's bootstrap rows as one
``(n_trees, n)`` block. At each depth the frontier nodes are ordered by tree,
then breadth first with children in (left, right) order; the splittable
ones (not pure, at least ``2 * min_leaf`` rows) get one ``(nodes, p)`` block
of uniforms, and a node's ``sqrt(p)`` candidate features are the first
columns of its row's stable argsort. Scoring takes one candidate slot at a
time for every node: one sort of the entries by (node, rank of the value in
its column), a cumulative label sum with per-node offsets, the Gini
impurity of every threshold and a per-node first minimum. Of the slots, the
first with the lowest impurity wins, so ties go to the first candidate
drawn, then the lowest threshold. Prediction routes all trees together, one
depth level per step, and adds the tree probabilities in tree order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularFit


LOGISTIC_L2 = 1e-6        # L2 penalty on the scaled weights
LOGISTIC_TOL = 1e-8       # converged once every gradient component is below this
LOGISTIC_MAX_ITER = 1000  # Newton steps before giving up with converged=False


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

    @property
    def dropped(self) -> list[int]:
        """Indices of the constant columns the fit left out."""
        return sorted(set(range(self.n_features)) - set(self.scaler.kept.tolist()))


def _penalized_nll(Xs, y, w, b, l2):
    z = Xs @ w + b
    # log(1 + exp(-|z|)) formulation avoids overflow
    nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
    return nll + 0.5 * l2 * float(w @ w)


def train_logistic(X: np.ndarray, y: np.ndarray) -> LogisticModel:
    """Newton fit of the L2-penalized logistic likelihood.

    Constant feature columns are dropped before fitting (``dropped`` lists
    them); training fails only when no informative column remains.
    Convergence is declared when every gradient component is below
    ``LOGISTIC_TOL``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D and aligned with y")
    _require_two_per_class(y)
    scaler = Scaler.fit(X)
    if len(scaler.kept) == 0:
        raise SingularFit("all feature columns are constant")
    Xs = scaler.transform(X)
    n, p = Xs.shape

    w = np.zeros(p)
    b = 0.0
    converged = False
    loss = _penalized_nll(Xs, y, w, b, LOGISTIC_L2)
    for _ in range(LOGISTIC_MAX_ITER):
        prob = _sigmoid(Xs @ w + b)
        grad_w = Xs.T @ (prob - y) + LOGISTIC_L2 * w
        grad_b = float(np.sum(prob - y))
        if max(np.max(np.abs(grad_w)), abs(grad_b)) < LOGISTIC_TOL:
            converged = True
            break
        weight = prob * (1.0 - prob)
        Xw = Xs * weight[:, None]
        H = np.empty((p + 1, p + 1))
        H[:p, :p] = Xs.T @ Xw + LOGISTIC_L2 * np.eye(p)
        H[:p, p] = Xw.sum(axis=0)
        H[p, :p] = H[:p, p]
        H[p, p] = float(weight.sum()) + LOGISTIC_L2
        grad = np.concatenate([grad_w, [grad_b]])
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        scale = 1.0
        for _ in range(50):
            w_new = w - scale * step[:p]
            b_new = b - scale * step[p]
            loss_new = _penalized_nll(Xs, y, w_new, b_new, LOGISTIC_L2)
            if loss_new <= loss + 1e-12:
                break
            scale *= 0.5
        w, b, loss = w_new, b_new, loss_new
    return LogisticModel(weights=w, intercept=float(b), scaler=scaler,
                         n_features=X.shape[1], converged=converged)


@dataclass
class ForestModel:
    """All trees of a forest as one set of node arrays.

    Nodes ``0 .. n_trees - 1`` are the roots, and each depth level's
    children follow the level before them. A leaf has ``feature`` -1; an
    inner node sends a row to ``left`` when its ``feature`` value is at most
    ``threshold``, else to ``right``. ``prob`` is the positive share of the
    node's bootstrap rows.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray
    n_trees: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf probability over trees, routing every tree at once.

        Each pass moves every (tree, row) pair that sits on an inner node one
        level down. Tree probabilities are added in tree order.
        """
        X = np.asarray(X, dtype=float)
        n = len(X)
        node = np.repeat(np.arange(self.n_trees), n)
        row = np.tile(np.arange(n), self.n_trees)
        inner = np.flatnonzero(self.feature[node] >= 0)
        while len(inner):
            at = node[inner]
            goes_left = X[row[inner], self.feature[at]] <= self.threshold[at]
            node[inner] = np.where(goes_left, self.left[at], self.right[at])
            inner = inner[self.feature[node[inner]] >= 0]
        total = np.zeros(n)
        for tree_prob in self.prob[node].reshape(self.n_trees, n):
            total += tree_prob
        return total / self.n_trees


def _column_ranks(X: np.ndarray) -> np.ndarray:
    """Dense rank of every value within its column, from 0.

    Equal values share a rank, so sorting by (node, rank) orders each node's
    rows as their values would. The order among equal values is then left
    to the sort, and the split search does not depend on it: it scores only
    thresholds between distinct values.
    """
    by_value = np.argsort(X, axis=0)
    steps = np.zeros(X.shape, dtype=np.int64)
    steps[1:] = np.diff(np.take_along_axis(X, by_value, axis=0), axis=0) != 0
    rank = np.empty(X.shape, dtype=np.int64)
    np.put_along_axis(rank, by_value, np.cumsum(steps, axis=0), axis=0)
    return rank


def train_forest(
    X: np.ndarray,
    y: np.ndarray,
    rng: np.random.Generator,
    config: ForestConfig = ForestConfig(),
) -> ForestModel:
    """Random forest of Gini CART trees on bootstrapped rows.

    Each tree draws a row bootstrap and examines sqrt(p) features per split;
    nodes split until pure or below twice the minimum leaf size. All trees
    grow together, one depth level per pass (see the module docstring for
    the split search and the order of the RNG draws).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _require_two_per_class(y)
    n, p = X.shape
    # a leaf holds at least one row, whatever min_leaf says
    n_trees, min_leaf = config.n_trees, max(1, config.min_leaf)
    n_candidates = max(1, int(math.sqrt(p)))
    rank = _column_ranks(X).T.ravel()  # rank of X[i, j] at j * n + i
    # frontier entries, grouped by node: the node each sits in and its row of X
    node = np.repeat(np.arange(n_trees), n)
    row = rng.integers(0, n, size=(n_trees, n)).ravel()
    levels = []  # (feature, threshold, left, right, prob) of each level's nodes
    first, width = 0, n_trees  # the frontier is nodes first .. first + width - 1
    while width:
        local = node - first
        labels = y[row]
        size = np.bincount(local, minlength=width)
        pos = np.bincount(local, weights=labels, minlength=width)
        prob = pos / size
        feature = np.full(width, -1)
        threshold = np.zeros(width)
        left = np.full(width, -1)
        right = np.full(width, -1)
        levels.append((feature, threshold, left, right, prob))
        can_split = (pos > 0) & (pos < size) & (size >= 2 * min_leaf)
        splittable = np.flatnonzero(can_split)
        n_split = len(splittable)
        if not n_split:
            break
        candidates = np.argsort(rng.random((n_split, p)), axis=1, kind="stable")[:, :n_candidates]
        # entries of splittable nodes only; ``of`` numbers their nodes 0 .. n_split - 1
        keep = can_split[local]
        of = (np.cumsum(can_split) - 1)[local[keep]]
        row, labels = row[keep], labels[keep]
        m = size[splittable]
        start = np.cumsum(m) - m
        entries = len(row)
        m_e = np.repeat(m, m)
        n_left = np.arange(1, entries + 1) - np.repeat(start, m)
        n_right = m_e - n_left
        pos_e = np.repeat(pos[splittable], m)
        # positive labels in the nodes before each entry's node
        before_e = np.repeat(np.cumsum(pos[splittable]) - pos[splittable], m)
        sizes_ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        # n_right is 0 only at a node's last entry, which sizes_ok excludes
        n_right_div = np.maximum(n_right, 1)
        index = np.arange(entries)
        node_key = of * n
        # per slot and node: the lowest impurity, and the rows on either side
        # of its first threshold
        low = np.empty((n_candidates, n_split))
        below = np.empty((n_candidates, n_split), dtype=np.int64)
        above = np.empty((n_candidates, n_split), dtype=np.int64)
        for k, slot in enumerate(candidates.T):
            key = node_key + rank[slot[of] * n + row]
            order = np.argsort(key)
            key = key[order]
            pos_left = np.cumsum(labels[order]) - before_e
            pos_right = pos_e - pos_left
            gini_left = 2.0 * pos_left * (n_left - pos_left) / n_left
            gini_right = 2.0 * pos_right * (n_right - pos_right) / n_right_div
            valid = sizes_ok.copy()
            valid[:-1] &= key[1:] != key[:-1]
            impurity = np.where(valid, (gini_left + gini_right) / m_e, np.inf)
            low[k] = np.minimum.reduceat(impurity, start)
            at = np.minimum.reduceat(np.where(impurity == np.repeat(low[k], m), index, entries), start)
            below[k], above[k] = row[order[at]], row[order[at + 1]]
        # argmin takes the first slot among equal impurities
        best = np.argmin(low, axis=0)
        nodes = np.arange(n_split)
        best_impurity = low[best, nodes]
        best_feature = candidates[nodes, best]
        best_threshold = 0.5 * (X[below[best, nodes], best_feature] + X[above[best, nodes], best_feature])
        goes_left = X[row, best_feature[of]] <= best_threshold[of]
        n_goes_left = np.bincount(of[goes_left], minlength=n_split)
        gini = 2.0 * prob[splittable] * (1.0 - prob[splittable])
        # adjacent float values can collapse the midpoint onto one side
        splits = (best_impurity < gini - 1e-15) & (n_goes_left > 0) & (n_goes_left < m)
        parents = splittable[splits]
        child = first + width + 2 * np.arange(len(parents))
        feature[parents] = best_feature[splits]
        threshold[parents] = best_threshold[splits]
        left[parents] = child
        right[parents] = child + 1
        left_of = np.full(n_split, -1)
        left_of[splits] = child
        moves = splits[of]
        child_node = (left_of[of] + ~goes_left)[moves]
        order = np.argsort(child_node, kind="stable")
        node, row = child_node[order], row[moves][order]
        first, width = first + width, 2 * len(parents)
    feature, threshold, left, right, prob = (np.concatenate(parts) for parts in zip(*levels))
    return ForestModel(feature=feature, threshold=threshold, left=left, right=right,
                       prob=prob, n_trees=n_trees)
