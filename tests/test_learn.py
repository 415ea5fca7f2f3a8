import csv
import io

import numpy as np
import pytest

from campaignfx.errors import DegenerateSample, EmptyEvalSet, SingularFit, TooFewRows
from campaignfx.learn import (
    Dataset,
    cross_validate,
    feature_auc,
    mann_whitney,
    metrics_from_scores,
    rms_gap,
    stratified_folds,
    train_model,
)
from campaignfx.rng import derive_rng

from conftest import logistic_coefficients


def auc_brute_force(pos, neg):
    """Pairwise win counting: wins plus half ties over all pairs."""
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


class TestMannWhitney:
    def test_all_pairs_won(self):
        result = mann_whitney([3, 4, 5], [1, 2])
        assert result.u == 6.0

    def test_single_tie_half_win(self):
        result = mann_whitney([1], [1])
        assert result.u == 0.5

    def test_identical_multisets_p_near_one(self):
        result = mann_whitney([1, 2, 3, 4], [1, 2, 3, 4])
        assert result.p_value > 0.9

    def test_empty_raises(self):
        with pytest.raises(DegenerateSample):
            mann_whitney([], [1.0])

    @pytest.mark.parametrize("n1,n2", [(2, 1), (3, 2), (4, 3), (5, 4), (4, 6), (7, 3)])
    def test_exact_p_matches_enumeration(self, n1, n2):
        # tie-free small samples: the exact p must match a full enumeration
        # of the null distribution of U over all rank arrangements
        from itertools import combinations

        max_u = n1 * n2
        null_counts = {}
        for chosen in combinations(range(n1 + n2), n1):
            chosen_set = set(chosen)
            u = sum(1 for i in chosen for j in range(n1 + n2)
                    if j not in chosen_set and i > j)
            null_counts[u] = null_counts.get(u, 0) + 1
        total = sum(null_counts.values())

        rng = derive_rng(15, n1, n2)
        for _ in range(8):
            # distinct values, so U is the number of pos-over-neg wins
            values = rng.permutation(np.arange(n1 + n2, dtype=float) * 1.7 + 0.3)
            pos, neg = values[:n1], values[n1:]
            u_obs = sum(1 for p in pos for n in neg if p > n)
            u_small = min(u_obs, max_u - u_obs)
            expected = min(1.0, 2.0 * sum(
                c for u, c in null_counts.items() if u <= u_small
            ) / total)
            result = mann_whitney(pos, neg)
            assert result.u == u_obs
            assert result.p_value == pytest.approx(expected, abs=1e-12)

    def test_normal_approximation_reasonable(self, rng):
        pos = rng.normal(0.8, 1.0, 60)
        neg = rng.normal(0.0, 1.0, 55)
        result = mann_whitney(pos, neg)
        assert result.p_value < 0.01

    def test_p_value_is_a_python_float_on_both_paths(self):
        exact = mann_whitney([3.0, 4.0, 5.0], [1.0, 2.0])  # small and tie-free: exact p
        normal = mann_whitney([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])  # ties: normal approximation
        assert type(exact.p_value) is float
        assert type(normal.p_value) is float

    def test_null_p_roughly_uniform(self):
        small = 0
        trials = 200
        for i in range(trials):
            r = derive_rng(21, i)
            pos = r.normal(0, 1, 25)
            neg = r.normal(0, 1, 25)
            small += mann_whitney(pos, neg).p_value < 0.1
        assert small / trials == pytest.approx(0.1, abs=0.06)


class TestFeatureAuc:
    def test_perfect_separation(self):
        assert feature_auc([3, 4, 5], [1, 2]) == 1.0

    def test_no_discrimination_on_identical(self):
        assert feature_auc([1, 2, 3], [1, 2, 3]) == 0.5

    def test_brute_force_equality_with_ties(self):
        for i in range(200):
            r = derive_rng(17, i)
            n_p = int(r.integers(1, 30))
            n_n = int(r.integers(1, 30))
            pos = r.integers(0, 8, n_p).astype(float)
            neg = r.integers(0, 8, n_n).astype(float)
            assert feature_auc(pos, neg) == auc_brute_force(pos.tolist(), neg.tolist())

    def test_u_identity(self):
        for i in range(50):
            r = derive_rng(19, i)
            pos = r.normal(0.3, 1, int(r.integers(2, 50)))
            neg = r.normal(0.0, 1, int(r.integers(2, 50)))
            result = mann_whitney(pos, neg)
            assert feature_auc(pos, neg) == result.u / (len(pos) * len(neg))

    def test_no_p_value_computed(self, monkeypatch):
        import campaignfx.learn

        def refuse(*args):
            raise AssertionError("feature_auc enumerated the exact null distribution")

        monkeypatch.setattr(campaignfx.learn, "_exact_two_sided_p", refuse)
        assert feature_auc([0.9, 0.8, 0.3], [0.1, 0.4]) == 5 / 6  # tie-free and small: the exact-p case

    def test_monotone_transform_invariance(self):
        r = derive_rng(23)
        pos = r.normal(1.0, 1.0, 40)
        neg = r.normal(0.0, 1.0, 35)
        base = feature_auc(pos, neg)
        assert feature_auc(np.exp(pos), np.exp(neg)) == pytest.approx(base, abs=1e-12)
        assert feature_auc(pos * 3 + 7, neg * 3 + 7) == pytest.approx(base, abs=1e-12)


from campaignfx.models import train_forest, train_logistic


class TestLogistic:
    def test_separable_toy_perfect_accuracy(self):
        X = np.array([[x] for x in (-3.0, -2.0, -1.5, -1.0, 1.0, 1.5, 2.0, 3.0)])
        y = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
        model = train_logistic(X, y)
        pred = model.predict_proba(X) >= 0.5
        assert np.array_equal(pred, y == 1)

    def test_recovers_known_coefficients(self):
        rng = derive_rng(31)
        n = 10_000
        x = rng.normal(0.0, 1.0, n)
        logit = 0.8 * x - 0.3
        y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(float)
        model = train_logistic(x.reshape(-1, 1), y)
        coef, intercept = logistic_coefficients(model)
        assert coef[0] == pytest.approx(0.8, abs=0.05)
        assert intercept == pytest.approx(-0.3, abs=0.05)
        assert model.converged

    def test_constant_column_dropped(self):
        rng = derive_rng(33)
        X = np.column_stack([rng.normal(size=200), np.full(200, 3.0)])
        y = (X[:, 0] > 0).astype(float)
        model = train_logistic(X, y)
        assert model.dropped == [1]
        assert model.predict_proba(X).shape == (200,)
        coef, _ = logistic_coefficients(model)
        assert coef[1] == 0.0

    def test_all_constant_raises(self):
        X = np.ones((20, 2))
        y = np.array([0.0, 1.0] * 10)
        with pytest.raises(SingularFit):
            train_logistic(X, y)

    def test_single_class_raises(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(SingularFit):
            train_logistic(X, np.ones(10))

    def test_deterministic(self):
        rng = derive_rng(35)
        X = rng.normal(size=(300, 4))
        y = (X @ np.array([1.0, -0.5, 0.2, 0.0]) > 0).astype(float)
        m1 = train_logistic(X, y)
        m2 = train_logistic(X, y)
        assert np.array_equal(m1.weights, m2.weights)
        assert m1.intercept == m2.intercept


class TestForest:
    def xor_data(self, n, seed):
        rng = derive_rng(seed)
        X = rng.uniform(-1, 1, size=(n, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(float)
        return X, y

    def test_xor_pattern(self):
        X, y = self.xor_data(400, 37)
        Xt, yt = self.xor_data(200, 38)
        model = train_forest(X, y, derive_rng(39))
        accuracy = np.mean((model.predict_proba(Xt) >= 0.5) == (yt == 1))
        assert accuracy >= 0.9

    def test_separable_toy(self):
        X = np.array([[x, 0.5 * x] for x in (-3.0, -2.0, -1.5, -1.0, 1.0, 1.5, 2.0, 3.0)])
        y = np.array([0.0, 0, 0, 0, 1, 1, 1, 1])
        model = train_forest(X, y, derive_rng(41))
        assert np.array_equal(model.predict_proba(X) >= 0.5, y == 1)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(SingularFit):
            train_forest(X, np.zeros(10), derive_rng(0))

    def test_deterministic_given_stream(self):
        X, y = self.xor_data(150, 43)
        p1 = train_forest(X, y, derive_rng(44)).predict_proba(X)
        p2 = train_forest(X, y, derive_rng(44)).predict_proba(X)
        assert np.array_equal(p1, p2)

    def test_hundred_trees(self):
        X, y = self.xor_data(100, 45)
        model = train_forest(X, y, derive_rng(46))
        assert model.n_trees == 100


def _row(m_b, label, d=None):
    from campaignfx.campaign import OfferKind
    from campaignfx.cohort import Category
    from campaignfx.effect import Horizon
    from campaignfx.features import FeatureVector

    values = {
        "m_b": m_b, "c_a": 10 * m_b, "loyalty": 1.5, "loyalty_missing": 0.0, "likes": 3.0, "tips": 1.0,
        **{f"cat_{c.value}": 1.0 if c is Category.FOOD else 0.0 for c in Category},
        "duration": 11.0,
        **{f"xi_{k.value}": 1.0 if k is OfferKind.FREQUENCY else 0.0 for k in OfferKind},
        "n_s": 0.1,
        "density": 2.0, "area_pop": 50.0, "competitiveness": 0.5, "entropy": 0.3,
    }
    return FeatureVector(
        venue_id=f"v{id(object()) % 100000}",
        start_day=30,
        end_day=40,
        horizon=Horizon.SHORT_TERM,
        values=values,
        d_observed=d,
        label=label,
    )


def make_rows(n, seed, signal=2.0):
    """Rows whose m_b separates the classes by `signal` standard deviations."""
    from campaignfx.effect import EffectLabel

    rng = derive_rng(seed)
    rows = []
    for i in range(n):
        positive = i % 2 == 0
        m_b = rng.normal(signal if positive else 0.0, 1.0)
        label = EffectLabel.SIGNIFICANT_INCREASE if positive else (
            EffectLabel.SIGNIFICANT_DECREASE if i % 4 == 1 else EffectLabel.POWERED_NULL
        )
        rows.append(_row(m_b, label))
    return rows


class TestFeatureAucCsv:
    def test_numeric_cells_parse_as_floats(self):
        from campaignfx.report import feature_auc_csv, feature_auc_table

        # m_b and c_a are tie-free across 6 + 6 rows, so their p-values take the exact path
        text = feature_auc_csv(feature_auc_table(make_rows(12, 61)))
        header, *records = list(csv.reader(io.StringIO(text)))
        assert header == ["feature", "auc_short", "p_short", "auc_long", "p_long"]
        cells = [cell for record in records for cell in record[1:] if cell]
        assert len(cells) == 2 * len(records)  # short horizon filled, long horizon empty
        for cell in cells:
            float(cell)


class TestDatasetMatrix:
    @pytest.mark.parametrize("horizon", ["SHORT_TERM", "LONG_TERM"])
    def test_every_combo_slice_is_the_design_matrix(self, horizon):
        """Columns taken from the full matrix are the bytes, and the layout, of a fresh build."""
        from test_cli import crafted_features

        from campaignfx.effect import Horizon
        from campaignfx.features import design_matrix
        from campaignfx.report import FEATURE_SET_COMBOS

        rows = [r for r in crafted_features() if r.horizon is Horizon[horizon]]
        for ds in (Dataset.from_rows(rows), Dataset.out_of_sample(rows)):
            assert len(ds) > 0
            for combo in FEATURE_SET_COMBOS:
                X, columns = ds.matrix(combo)
                expected, expected_columns = design_matrix(ds.rows, combo)
                assert columns == expected_columns
                assert X.flags.c_contiguous and expected.flags.c_contiguous
                assert X.shape == expected.shape and X.tobytes() == expected.tobytes()

    def test_column_by_name(self):
        rows = make_rows(12, 71)
        ds = Dataset.from_rows(rows)
        assert ds.column("m_b").tolist() == [r.values["m_b"] for r in rows]
        assert ds.column("entropy").tolist() == [r.values["entropy"] for r in rows]


class TestCrossValidate:
    def test_leaked_label_reaches_ceiling(self):
        from campaignfx.effect import EffectLabel

        rng = derive_rng(47)
        rows = []
        for i in range(60):
            positive = i % 2 == 0
            # m_b IS the label: a perfect single feature
            rows.append(_row(1.0 if positive else 0.0,
                             EffectLabel.SIGNIFICANT_INCREASE if positive else EffectLabel.POWERED_NULL))
        ds = Dataset.from_rows(rows)
        cv = cross_validate(ds, "logistic", ("F_v",), k=10, seed=1)
        assert cv.metrics.accuracy == 1.0
        assert cv.metrics.auc == 1.0

    def test_random_labels_auc_near_half(self):
        from campaignfx.effect import EffectLabel

        rng = derive_rng(49)
        rows = []
        for i in range(600):
            label = EffectLabel.SIGNIFICANT_INCREASE if rng.random() < 0.5 else EffectLabel.POWERED_NULL
            rows.append(_row(float(rng.normal()), label))
        ds = Dataset.from_rows(rows)
        cv = cross_validate(ds, "logistic", ("F_v",), k=10, seed=2)
        assert 0.45 <= cv.metrics.auc <= 0.55

    def test_too_few_rows(self):
        ds = Dataset.from_rows(make_rows(5, 51))
        with pytest.raises(TooFewRows):
            cross_validate(ds, "logistic", ("F_v",), k=10, seed=0)

    def test_stratified_fold_balance(self):
        y = np.array([1.0] * 33 + [0.0] * 67)
        fold_of = stratified_folds(y, 10, derive_rng(53))
        for fold in range(10):
            pos = int(np.sum((fold_of == fold) & (y == 1)))
            neg = int(np.sum((fold_of == fold) & (y == 0)))
            assert abs(pos - 3.3) <= 1
            assert abs(neg - 6.7) <= 1

    def test_inconclusive_rows_excluded_from_training(self):
        from campaignfx.effect import EffectLabel

        rows = make_rows(40, 55) + [_row(1.0, EffectLabel.INCONCLUSIVE)] * 10
        ds = Dataset.from_rows(rows)
        assert len(ds) == 40

    def test_forest_cv_runs(self):
        ds = Dataset.from_rows(make_rows(60, 57))
        cv = cross_validate(ds, "forest", ("F_v",), k=5, seed=3)
        assert cv.metrics.auc > 0.8  # strong signal planted

    def test_leaked_feature_never_hurts_auc(self):
        from campaignfx.effect import EffectLabel

        rng = derive_rng(58)
        rows = []
        for i in range(100):
            positive = i % 2 == 0
            row = _row(float(rng.normal()),  # m_b carries no signal
                       EffectLabel.SIGNIFICANT_INCREASE if positive else EffectLabel.POWERED_NULL)
            row.values["density"] = 1.0 if positive else 0.0  # leaked label in the geo block
            row.values["area_pop"] = float(rng.uniform(0, 10))
            rows.append(row)
        ds = Dataset.from_rows(rows)
        base = cross_validate(ds, "logistic", ("F_v",), k=5, seed=4).metrics.auc
        with_leak = cross_validate(ds, "logistic", ("F_v", "F_g"), k=5, seed=4).metrics.auc
        assert with_leak >= base
        assert with_leak == 1.0


def fit_on(ds, feature_sets=("F_v",), kind="logistic"):
    X, _ = ds.matrix(feature_sets)
    return train_model(X, ds.y, kind, feature_sets, seed=0)


def eval_metrics(model, evals, feature_sets=("F_v",)):
    X, _ = evals.matrix(feature_sets)
    return metrics_from_scores(evals.y, model.predict_proba(X))


class TestOutOfSample:
    def test_labels_from_sign_of_d(self):
        from campaignfx.effect import EffectLabel

        model = fit_on(Dataset.from_rows(make_rows(60, 59, signal=3.0)))
        rng = derive_rng(61)
        evals = Dataset.out_of_sample([
            _row(float(rng.normal(3.0 if i % 2 == 0 else 0.0)), EffectLabel.INCONCLUSIVE,
                 d=(0.4 if i % 2 == 0 else -0.4))
            for i in range(40)
        ])
        assert evals.y.tolist() == [1.0, 0.0] * 20
        assert eval_metrics(model, evals).accuracy > 0.8

    def test_zero_d_rows_excluded(self):
        from campaignfx.effect import EffectLabel

        with pytest.raises(EmptyEvalSet):
            Dataset.out_of_sample([_row(1.0, EffectLabel.INCONCLUSIVE, d=0.0)])
        kept = _row(3.0, EffectLabel.INCONCLUSIVE, d=-0.2)
        evals = Dataset.out_of_sample([
            _row(1.0, EffectLabel.INCONCLUSIVE, d=0.0),
            _row(2.0, EffectLabel.INCONCLUSIVE, d=None),
            kept,
            _row(4.0, EffectLabel.SIGNIFICANT_INCREASE, d=0.9),  # conclusive: a training row
        ])
        assert evals.rows == [kept] and evals.y.tolist() == [0.0]

    def test_majority_baseline(self):
        from campaignfx.effect import EffectLabel

        model = fit_on(Dataset.from_rows(make_rows(60, 65)))
        evals = Dataset.out_of_sample([
            _row(100.0, EffectLabel.INCONCLUSIVE, d=(1.0 if i < 30 else -1.0)) for i in range(40)])
        # constant prediction hits exactly the majority fraction
        assert eval_metrics(model, evals).accuracy in (pytest.approx(0.75), pytest.approx(0.25))


class TestRmsGap:
    def test_identical_models(self):
        from campaignfx.effect import EffectLabel

        model = fit_on(Dataset.from_rows(make_rows(60, 67)))
        evals = Dataset.out_of_sample([_row(float(i), EffectLabel.INCONCLUSIVE, d=0.5) for i in range(10)])
        X, _ = evals.matrix(("F_v",))
        assert rms_gap(model.predict_proba(X), model.predict_proba(X)) == 0.0

    def test_constant_gap(self):
        assert rms_gap(np.full(10, 0.6), np.full(10, 0.5)) == pytest.approx(0.1)

    def test_empty_raises(self):
        with pytest.raises(EmptyEvalSet):
            Dataset.out_of_sample([])
        with pytest.raises(EmptyEvalSet):
            rms_gap(np.empty(0), np.empty(0))
