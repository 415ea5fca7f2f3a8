"""The level-synchronous forest against a plain per-node, per-feature search.

``_reference_forest`` grows the same trees the slow way: level by level
across all trees, scoring one node and one candidate feature at a time with
``_reference_best_split``. It consumes the same draws as ``train_forest``
(the bootstrap block, then one uniform block per level for the splittable
nodes), so the node arrays must match array for array, forest probabilities
bit for bit, and both leave the generator in the same state.
"""

from __future__ import annotations

import math
import tracemalloc
from typing import Optional

import numpy as np
from hypothesis import given, settings, strategies as st

from campaignfx.models import ForestConfig, ForestModel, train_forest
from campaignfx.rng import derive_rng

NODE_ARRAYS = ("feature", "threshold", "left", "right", "prob")


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


def _reference_forest(X, y, rng, config) -> ForestModel:
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

    bootstrap = rng.integers(0, n, size=(config.n_trees, n))
    frontier = [(new_node(), rows) for rows in bootstrap]
    while frontier:
        splittable = []
        for node, rows in frontier:
            ys = y[rows]
            pos = float(ys.sum())
            prob[node] = pos / len(ys)
            if 0 < pos < len(ys) and len(ys) >= 2 * config.min_leaf:
                splittable.append((node, rows))
        if not splittable:
            break
        draws = rng.random((len(splittable), p))
        frontier = []
        for (node, rows), draw in zip(splittable, draws):
            parent_gini = 2.0 * prob[node] * (1.0 - prob[node])
            best = None
            for f in np.argsort(draw, kind="stable")[:n_candidates]:
                split = _reference_best_split(X[rows, f], y[rows], config.min_leaf)
                if split is None:
                    continue
                if best is None or split[0] < best[1]:
                    best = (int(f), split[0], split[1])
            if best is None or best[1] >= parent_gini - 1e-15:
                continue
            f, _, thr = best
            mask = X[rows, f] <= thr
            if not mask.any() or mask.all():
                continue
            feature[node] = f
            threshold[node] = thr
            left[node] = new_node()
            right[node] = new_node()
            frontier += [(left[node], rows[mask]), (right[node], rows[~mask])]
    return ForestModel(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        prob=np.array(prob, dtype=float),
        n_trees=config.n_trees,
    )


def _reference_tree_proba(model: ForestModel, root: int, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        f = model.feature[node]
        if f < 0:
            out[idx] = model.prob[node]
            continue
        mask = X[idx, f] <= model.threshold[node]
        stack.append((model.left[node], idx[mask]))
        stack.append((model.right[node], idx[~mask]))
    return out


def _reference_forest_proba(model: ForestModel, X: np.ndarray) -> np.ndarray:
    total = np.zeros(len(X))
    for root in range(model.n_trees):
        total += _reference_tree_proba(model, root, X)
    return total / model.n_trees


def _assert_same_forest(got: ForestModel, want: ForestModel) -> None:
    assert got.n_trees == want.n_trees
    for name in NODE_ARRAYS:
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
    # two rows of each class at least, as training requires; with two rare
    # rows, many small bootstraps hold one class only
    labels = draw(st.sampled_from(("mixed", "two-positive", "two-negative")))
    if labels == "mixed":
        y = (gen.random(n) < draw(st.sampled_from((0.1, 0.5, 0.9)))).astype(float)
        y[:4] = (0.0, 0.0, 1.0, 1.0)
    else:
        y = np.full(n, 0.0 if labels == "two-positive" else 1.0)
        y[:2] = 1.0 - y[0]
    min_leaf = draw(st.integers(0, 3))
    return X, y, seed, min_leaf


@settings(max_examples=150, deadline=None)
@given(_forest_inputs(), st.integers(1, 8))
def test_train_forest_matches_level_reference(inputs, n_trees):
    X, y, seed, min_leaf = inputs
    config = ForestConfig(n_trees=n_trees, min_leaf=min_leaf)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = train_forest(X, y, rng_new, config)
    want = _reference_forest(X, y, rng_ref, config)
    _assert_same_forest(got, want)
    # both consumed exactly the same draws
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(_forest_inputs(), st.integers(1, 8), st.integers(0, 12))
def test_forest_proba_matches_per_tree_sum(inputs, n_trees, n_query):
    X, y, seed, min_leaf = inputs
    gen = np.random.default_rng(seed)
    model = _reference_forest(X, y, gen, ForestConfig(n_trees=n_trees, min_leaf=min_leaf))
    # training rows, rows between and beyond them, and exact thresholds
    query = np.concatenate([X, gen.normal(scale=2.0, size=(n_query, X.shape[1]))])
    for node in np.flatnonzero(model.feature >= 0)[:8]:
        probe = X[:1].copy()
        probe[0, model.feature[node]] = model.threshold[node]
        query = np.concatenate([query, probe])
    assert model.predict_proba(query).tobytes() == _reference_forest_proba(model, query).tobytes()


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
    _assert_same_forest(model, _reference_forest(X, y, derive_rng(11, "oracle"), config))
    assert model.predict_proba(X).tobytes() == _reference_forest_proba(model, X).tobytes()


def test_single_class_bootstraps_become_leaf_roots():
    X = np.arange(8.0)[:, None]
    y = np.array([0.0, 0, 0, 0, 0, 0, 1, 1])
    config = ForestConfig(n_trees=40, min_leaf=1)
    model = train_forest(X, y, derive_rng(3, "single-class"), config)
    roots = slice(0, config.n_trees)
    # some bootstraps drew no positive row: their roots are leaves at prob 0
    assert np.any((model.feature[roots] < 0) & (model.prob[roots] == 0.0))
    assert np.any(model.feature[roots] >= 0)
    _assert_same_forest(model, _reference_forest(X, y, derive_rng(3, "single-class"), config))


def test_no_split_that_only_rounding_improves():
    # with two values, some bootstraps can only split into children holding
    # the parent's positive share, whose Gini rounds just below the parent's
    X = np.array([[1.0], [1], [0], [1], [0], [1], [0], [0], [1]])
    y = np.array([0.0, 0, 1, 1, 1, 1, 0, 1, 0])
    config = ForestConfig(n_trees=20, min_leaf=1)
    model = train_forest(X, y, np.random.default_rng(6), config)
    inner = np.flatnonzero(model.feature >= 0)
    same_share = ((model.prob[model.left[inner]] == model.prob[inner])
                  & (model.prob[model.right[inner]] == model.prob[inner]))
    assert not same_share.any()
    _assert_same_forest(model, _reference_forest(X, y, np.random.default_rng(6), config))


def test_fit_memory_peak_stays_small():
    # per-slot scoring keeps about 1 MiB live; an entries x sqrt(p) block
    # would take about 5 MiB on this shape
    gen = np.random.default_rng(17)
    X = gen.normal(size=(60, 28))
    y = (X[:, 0] + gen.normal(scale=0.5, size=60) > 0).astype(float)
    tracemalloc.start()
    try:
        train_forest(X, y, derive_rng(17, "memory"), ForestConfig(n_trees=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
