"""The vectorized forest against the per-feature loop it replaced.

``_reference_best_split`` and ``_reference_grow_tree`` are the split search
and tree growth as they were before the split search scored each node's
candidate features in one block. They draw from the RNG in the same order,
so trees grown from equal generator states must match array for array, and
forest probabilities bit for bit.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from campaignfx.models import ForestConfig, ForestModel, _grow_tree, _Tree, train_forest
from campaignfx.rng import derive_rng


def _reference_best_split(Xf: np.ndarray, y: np.ndarray, min_leaf: int) -> Optional[tuple[float, float]]:
    order = np.argsort(Xf, kind="mergesort")
    xs = Xf[order]
    ys = y[order]
    m = len(ys)
    pos_left = np.cumsum(ys)[:-1]
    n_left = np.arange(1, m)
    valid = (xs[1:] != xs[:-1]) & (n_left >= min_leaf) & (m - n_left >= min_leaf)
    if not np.any(valid):
        return None
    n_right = m - n_left
    pos_right = pos_left[-1] + ys[-1] - pos_left
    with np.errstate(invalid="ignore"):
        gini_left = 2.0 * pos_left * (n_left - pos_left) / n_left
        gini_right = 2.0 * pos_right * (n_right - pos_right) / n_right
    impurity = (gini_left + gini_right) / m
    impurity[~valid] = np.inf
    best = int(np.argmin(impurity))
    if not np.isfinite(impurity[best]):
        return None
    threshold = 0.5 * (xs[best] + xs[best + 1])
    return float(impurity[best]), threshold


def _reference_grow_tree(X, y, rng, config) -> _Tree:
    n, p = X.shape
    n_candidates = max(1, int(math.sqrt(p)))
    feature, threshold, left, right, prob = [], [], [], [], []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        prob.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(n))]
    while stack:
        node, idx = stack.pop()
        ys = y[idx]
        pos = float(ys.sum())
        prob[node] = pos / len(ys)
        if pos == 0 or pos == len(ys) or len(ys) < 2 * config.min_leaf:
            continue
        parent_gini = 2.0 * prob[node] * (1.0 - prob[node])
        candidates = rng.choice(p, size=n_candidates, replace=False)
        best = None
        for f in candidates:
            split = _reference_best_split(X[idx, f], ys, config.min_leaf)
            if split is None:
                continue
            if best is None or split[0] < best[1]:
                best = (int(f), split[0], split[1])
        if best is None or best[1] >= parent_gini - 1e-15:
            continue
        f, _, thr = best
        mask = X[idx, f] <= thr
        if not mask.any() or mask.all():
            continue
        feature[node] = f
        threshold[node] = thr
        left[node] = new_node()
        right[node] = new_node()
        stack.append((left[node], idx[mask]))
        stack.append((right[node], idx[~mask]))
    return _Tree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        prob=np.array(prob, dtype=float),
    )


def _reference_tree_proba(tree: _Tree, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(0, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        f = tree.feature[node]
        if f < 0:
            out[idx] = tree.prob[node]
            continue
        mask = X[idx, f] <= tree.threshold[node]
        stack.append((tree.left[node], idx[mask]))
        stack.append((tree.right[node], idx[~mask]))
    return out


def _reference_forest_proba(trees: list[_Tree], X: np.ndarray) -> np.ndarray:
    total = np.zeros(len(X))
    for tree in trees:
        total += _reference_tree_proba(tree, X)
    return total / len(trees)


def _assert_same_tree(got: _Tree, want: _Tree) -> None:
    for name in ("feature", "threshold", "left", "right", "prob"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


@st.composite
def _forest_inputs(draw):
    n = draw(st.integers(4, 80))
    p = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    columns = []
    for _ in range(p):
        kind = draw(st.sampled_from(("real", "integer", "constant")))
        if kind == "real":
            columns.append(gen.normal(size=n))
        elif kind == "integer":
            # few distinct values, so thresholds fall between ties
            columns.append(gen.integers(0, draw(st.integers(2, 5)), size=n).astype(float))
        else:
            columns.append(np.full(n, draw(st.sampled_from((0.0, -1.5, 3.0)))))
    X = np.column_stack(columns)
    labels = draw(st.sampled_from(("mixed", "all-zero", "all-one")))
    if labels == "mixed":
        y = (gen.random(n) < draw(st.sampled_from((0.1, 0.5, 0.9)))).astype(float)
    else:
        y = np.full(n, 1.0 if labels == "all-one" else 0.0)
    min_leaf = draw(st.integers(1, 3))
    return X, y, seed, min_leaf


@settings(max_examples=150, deadline=None)
@given(_forest_inputs())
def test_grow_tree_matches_per_feature_loop(inputs):
    X, y, seed, min_leaf = inputs
    config = ForestConfig(n_trees=1, min_leaf=min_leaf)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _grow_tree(X, y, rng_new, config)
    want = _reference_grow_tree(X, y, rng_ref, config)
    _assert_same_tree(got, want)
    # both consumed exactly the same draws
    assert rng_new.integers(2**62) == rng_ref.integers(2**62)


@settings(max_examples=60, deadline=None)
@given(_forest_inputs(), st.integers(0, 12))
def test_forest_proba_matches_per_tree_sum(inputs, n_query):
    X, y, seed, min_leaf = inputs
    config = ForestConfig(n_trees=7, min_leaf=min_leaf)
    gen = np.random.default_rng(seed)
    trees = []
    for _ in range(config.n_trees):
        rows = gen.integers(0, len(X), size=len(X))
        trees.append(_reference_grow_tree(X[rows], y[rows], gen, config))
    model = ForestModel(trees=trees)
    # training rows, rows between and beyond them, and exact thresholds
    query = np.concatenate([X, gen.normal(scale=2.0, size=(n_query, X.shape[1]))])
    for tree in trees:
        inner = tree.feature >= 0
        if inner.any():
            probe = X[:1].copy()
            probe[0, tree.feature[inner][0]] = tree.threshold[inner][0]
            query = np.concatenate([query, probe])
    got = model.predict_proba(query)
    want = _reference_forest_proba(trees, query)
    assert got.tobytes() == want.tobytes()


def test_forest_proba_on_zero_rows():
    gen = np.random.default_rng(5)
    X = gen.normal(size=(40, 6))
    y = (X[:, 0] > 0).astype(float)
    model = train_forest(X, y, derive_rng(5, "zero-rows"), ForestConfig(n_trees=5))
    out = model.predict_proba(np.empty((0, 6)))
    assert out.shape == (0,)
    assert out.dtype == np.float64


def test_train_forest_matches_reference_forest():
    gen = np.random.default_rng(11)
    X = np.column_stack([gen.normal(size=60), gen.integers(0, 3, size=60), np.ones(60)])
    y = ((X[:, 0] + X[:, 1] + gen.normal(scale=0.5, size=60)) > 1.0).astype(float)
    config = ForestConfig(n_trees=10)
    model = train_forest(X, y, derive_rng(11, "oracle"), config)
    rng = derive_rng(11, "oracle")
    for tree in model.trees:
        rows = rng.integers(0, len(X), size=len(X))
        _assert_same_tree(tree, _reference_grow_tree(X[rows], y[rows], rng, config))
    assert model.predict_proba(X).tobytes() == _reference_forest_proba(model.trees, X).tobytes()
