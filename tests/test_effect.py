import math
import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from campaignfx.effect import (
    RESAMPLE_CHUNK_ROWS,
    EffectLabel,
    Horizon,
    TestConfig,
    _resample_means,
    _row_sums,
    bootstrap_test,
    classify_effect,
    cohens_d,
    evaluate_effect,
)
from campaignfx.errors import InsufficientSample
from campaignfx.rng import derive_rng


def cohens_d_oracle(before, other):
    """Direct formula recomputation with fsum arithmetic, independent of numpy."""
    n1, n2 = len(before), len(other)
    m1 = math.fsum(before) / n1
    m2 = math.fsum(other) / n2
    v1 = math.fsum((x - m1) ** 2 for x in before) / (n1 - 1)
    v2 = math.fsum((x - m2) ** 2 for x in other) / (n2 - 1)
    pooled = math.sqrt(((n1 - 1) * v1 + (n2 - 1) * v2) / (n1 + n2 - 2))
    if pooled == 0.0:
        return 0.0 if m1 == m2 else None
    return (m2 - m1) / pooled


class TestCohensD:
    def test_hand_example(self):
        # means 2 and 3, both variances 1, pooled sd 1
        assert cohens_d([1, 2, 3], [2, 3, 4]) == pytest.approx(1.0)

    def test_identical_samples(self):
        assert cohens_d([1, 2, 5], [1, 2, 5]) == pytest.approx(0.0)

    def test_flat_equal_means(self):
        assert cohens_d([2, 2], [2, 2]) == 0.0

    def test_flat_unequal_means_undefined(self):
        assert cohens_d([2, 2], [3, 3]) is None

    def test_insufficient_sample(self):
        with pytest.raises(InsufficientSample):
            cohens_d([1], [2, 3])

    def test_matches_oracle_on_random_pairs(self, rng):
        for _ in range(300):
            n1 = int(rng.integers(2, 40))
            n2 = int(rng.integers(2, 40))
            a = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), n1)
            b = rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), n2)
            expected = cohens_d_oracle(a.tolist(), b.tolist())
            assert cohens_d(a, b) == pytest.approx(expected, abs=1e-12, rel=1e-12)

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=20),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=2, max_size=20),
        st.integers(min_value=-30, max_value=30),
    )
    def test_location_invariance(self, a, b, c):
        base = cohens_d(a, b)
        shifted = cohens_d([x + c for x in a], [x + c for x in b])
        if base is None:
            assert shifted is None
        else:
            assert shifted == pytest.approx(base, abs=1e-9)


def _resample_indices(
    n: int, block_len: int, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Index matrix (n_draws, n) of moving-block resamples: the materialized reference for ``_resample_means``."""
    length = min(block_len, n)
    n_starts = n - length + 1
    blocks_per_draw = -(-n // length)  # ceil
    starts = rng.integers(0, n_starts, size=(n_draws, blocks_per_draw))
    idx = starts[:, :, None] + np.arange(length)
    return idx.reshape(n_draws, blocks_per_draw * length)[:, :n]


def block_resample(
    sample: Sequence[float], block_len: int, rng: np.random.Generator
) -> np.ndarray:
    """One moving-block bootstrap resample of ``sample``.

    Overlapping blocks of ``block_len`` observations are drawn uniformly with
    replacement, concatenated, and truncated to the original length. A sample
    shorter than the block length falls back to its own length.
    """
    values = np.asarray(sample, dtype=float)
    if len(values) == 0:
        raise InsufficientSample("cannot resample an empty sample")
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    idx = _resample_indices(len(values), block_len, 1, rng)
    return values[idx[0]]


class TestBlockResample:
    def test_singleton(self, rng):
        assert block_resample([7.0], 2, rng).tolist() == [7.0]

    def test_length_and_adjacency_contract(self, rng):
        sample = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        for _ in range(50):
            out = block_resample(sample, 2, rng)
            assert len(out) == 5
            # within-block pairs must be adjacent in the source
            for k in range(0, 4, 2):
                i = np.flatnonzero(sample == out[k])[0]
                assert out[k + 1] == sample[i + 1]

    def test_constant_invariance(self, rng):
        out = block_resample([3.0, 3.0, 3.0, 3.0], 2, rng)
        assert out.tolist() == [3.0, 3.0, 3.0, 3.0]

    def test_values_come_from_sample(self, rng):
        sample = np.arange(11, dtype=float)
        out = block_resample(sample, 3, rng)
        assert len(out) == 11
        assert set(out.tolist()) <= set(sample.tolist())


ENTRY_POINTS = {
    "bootstrap_test": lambda a, b: bootstrap_test(a, b, rng=derive_rng(0)),
    "evaluate_effect": lambda a, b: evaluate_effect(a, b, Horizon.SHORT_TERM, TestConfig(), derive_rng(0)),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
@pytest.mark.parametrize("before, other", [([1.0], [2.0, 3.0]), ([1.0, 2.0], [3.0]), ([], [])])
def test_entry_points_need_two_values_per_sample(entry, before, other):
    with pytest.raises(InsufficientSample):
        ENTRY_POINTS[entry](before, other)


class TestBootstrapTest:
    def test_identical_samples_p_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        result = bootstrap_test(x, x, rng=derive_rng(0, "id"))
        assert result.p_value == 1.0
        assert result.diff == 0.0

    def test_extreme_shift_minimal_p(self):
        before = np.zeros(28)
        other = derive_rng(7).normal(100.0, 1.0, 28)
        result = bootstrap_test(before, other, rng=derive_rng(0, "ex"))
        assert result.p_value == pytest.approx(1 / 5000)

    def test_p_never_zero(self):
        result = bootstrap_test(
            np.zeros(28), np.full(28, 1000.0), bootstraps=99, rng=derive_rng(0)
        )
        assert result.p_value >= 1 / 100

    def test_type_i_error_calibrated_iid(self):
        # block length 1 on iid nulls: empirical size within 0.02 of alpha
        trials, rejections = 1000, 0
        for i in range(trials):
            r = derive_rng(5, "null", i)
            a = r.poisson(3.0, 28).astype(float)
            b = r.poisson(3.0, 28).astype(float)
            res = bootstrap_test(a, b, bootstraps=999, block_len=1, rng=derive_rng(5, "bt", i))
            rejections += res.p_value < 0.05
        assert 0.03 <= rejections / trials <= 0.07

    def test_exchange_symmetry(self):
        r = derive_rng(9)
        a = r.poisson(4.0, 28).astype(float)
        b = r.poisson(5.0, 24).astype(float)
        res_ab = bootstrap_test(a, b, rng=derive_rng(1, "ab"))
        res_ba = bootstrap_test(b, a, rng=derive_rng(1, "ba"))
        assert res_ab.diff == pytest.approx(-res_ba.diff)
        # same |diff| against mirrored null distributions: p agrees up to MC noise
        se = 4 * math.sqrt(0.25 / 4999)
        assert abs(res_ab.p_value - res_ba.p_value) < se


class TestBootstrapPower:
    def test_huge_shift_full_power(self):
        before = derive_rng(3).normal(0.0, 1.0, 28)
        other = derive_rng(4).normal(100.0, 1.0, 28)
        power = bootstrap_test(before, other, rng=derive_rng(0, "pw")).power
        assert power >= 0.99

    def test_same_data_power_near_alpha(self):
        total = 0.0
        runs = 40
        for i in range(runs):
            x = derive_rng(6, i).poisson(5.0, 28).astype(float)
            total += bootstrap_test(x, x.copy(), bootstraps=999, rng=derive_rng(6, "pw", i)).power
        assert total / runs == pytest.approx(0.05, abs=0.03)

    def test_degenerate_all_zero(self):
        zeros = np.zeros(28)
        power = bootstrap_test(zeros, zeros.copy(), rng=derive_rng(0, "z")).power
        assert power == 0.0


class TestClassifyEffect:
    def test_significant_increase(self):
        assert classify_effect(0.01, 0.9, 2.0) is EffectLabel.SIGNIFICANT_INCREASE

    def test_significant_decrease(self):
        assert classify_effect(0.01, 0.2, -2.0) is EffectLabel.SIGNIFICANT_DECREASE

    def test_powered_null(self):
        assert classify_effect(0.2, 0.85, 1.0) is EffectLabel.POWERED_NULL

    def test_inconclusive(self):
        assert classify_effect(0.2, 0.3, -1.0) is EffectLabel.INCONCLUSIVE

    def test_power_boundary_inclusive(self):
        assert classify_effect(0.5, 0.8, 0.0) is EffectLabel.POWERED_NULL

    def test_alpha_boundary_not_significant(self):
        assert classify_effect(0.05, 0.1, 1.0) is EffectLabel.INCONCLUSIVE


def _evaluate(before, other, key):
    return evaluate_effect(
        np.asarray(before, dtype=float),
        np.asarray(other, dtype=float),
        Horizon.SHORT_TERM,
        TestConfig(),
        derive_rng(0, "inv", key),
    )


class TestExactInvariances:
    """Power-of-two sample sizes and shifts keep every fp step exact."""

    def integer_samples(self):
        r = derive_rng(42)
        before = r.integers(0, 12, size=32).astype(float)
        other = r.integers(2, 16, size=32).astype(float)
        return before, other

    def test_location_invariance_exact(self):
        before, other = self.integer_samples()
        base = _evaluate(before, other, "base")
        shifted = _evaluate(before + 64.0, other + 64.0, "base")
        assert shifted.p_value == base.p_value
        assert shifted.power == base.power
        assert shifted.cohens_d == base.cohens_d
        assert shifted.label == base.label

    def test_scale_equivariance_exact(self):
        before, other = self.integer_samples()
        base = _evaluate(before, other, "scale")
        scaled = _evaluate(before * 8.0, other * 8.0, "scale")
        assert scaled.p_value == base.p_value
        assert scaled.cohens_d == base.cohens_d
        assert scaled.power == base.power
        assert scaled.diff == base.diff * 8.0
        assert scaled.label == base.label

    def test_bit_reproducible_given_seed(self):
        before, other = self.integer_samples()
        a = _evaluate(before, other, "repro")
        b = _evaluate(before, other, "repro")
        assert (a.p_value, a.power, a.ci_low, a.ci_high) == (b.p_value, b.power, b.ci_low, b.ci_high)


class TestEvaluateEffect:
    def test_degenerate_flagged_and_inconclusive(self):
        zeros = np.zeros(28)
        res = evaluate_effect(zeros, zeros.copy(), Horizon.SHORT_TERM, TestConfig(), derive_rng(0))
        assert res.degenerate
        assert res.p_value == 1.0
        assert res.power == 0.0
        assert res.label is EffectLabel.INCONCLUSIVE

    def test_ci_is_percentile_interval_of_alternative(self):
        before = derive_rng(8).poisson(3.0, 28).astype(float)
        other = derive_rng(9).poisson(6.0, 28).astype(float)
        res = evaluate_effect(before, other, Horizon.SHORT_TERM, TestConfig(), derive_rng(0, "ci"))
        assert res.ci_low <= res.diff <= res.ci_high
        assert res.ci_low < res.ci_high

    def test_power_monotone_in_effect(self):
        from campaignfx.synth import delta_for_target_d, sample_segment_pair

        powers = []
        for d_target in (0.0, 0.2, 0.5, 0.8, 1.2):
            delta = delta_for_target_d(3.0, d_target, 28, 28)
            mean_power = 0.0
            runs = 60
            for i in range(runs):
                b, o = sample_segment_pair(3.0, delta, 28, 28, derive_rng(13, d_target, i))
                res = evaluate_effect(b, o, Horizon.SHORT_TERM,
                                      TestConfig(bootstraps=999), derive_rng(13, "e", d_target, i))
                mean_power += res.power
            powers.append(mean_power / runs)
        for lo, hi in zip(powers, powers[1:]):
            assert hi >= lo - 0.03


samples = st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=2, max_size=60)


def _uneven(n: int) -> list[float]:
    """``n`` values whose sums round differently in different orders."""
    return list(derive_rng(n, "uneven").uniform(-1e3, 1e3, n))


class TestBootstrapKernel:
    """Power and CI come from the null draws shifted by the observed difference."""

    @given(samples, samples, st.integers(1, 4), st.integers(0, 2**32))
    def test_p_value_and_critical_interval_shared(self, before, other, block_len, seed):
        config = TestConfig(bootstraps=199, block_len=block_len)
        res = evaluate_effect(before, other, Horizon.SHORT_TERM, config, derive_rng(seed))
        null = bootstrap_test(before, other, bootstraps=199, block_len=block_len, rng=derive_rng(seed))
        assert res.p_value == null.p_value
        assert res.diff == null.diff
        assert (res.ci_low, res.ci_high) == (null.crit_low + null.diff, null.crit_high + null.diff)
        assert res.power == null.power

    @given(
        st.sampled_from([4, 8, 16, 32, 64]),
        st.sampled_from([4, 8, 16, 32, 64]),
        st.integers(1, 3),
        st.sampled_from([(33, 1 / 16), (65, 1 / 8), (129, 1 / 16)]),
        st.integers(0, 2**32),
    )
    def test_exact_on_integer_data(self, n_a, n_b, block_len, draws, seed):
        # integer data, power-of-two sizes and quantile positions on whole
        # indices: every floating-point step is exact, so equality is bitwise
        bootstraps, alpha = draws
        r = derive_rng(seed, "data")
        a = r.integers(0, 50, n_a).astype(float)
        b = r.integers(0, 50, n_b).astype(float)
        config = TestConfig(bootstraps=bootstraps, alpha=alpha, block_len=block_len)
        res = evaluate_effect(a, b, Horizon.SHORT_TERM, config, derive_rng(seed))
        null = bootstrap_test(a, b, bootstraps=bootstraps, alpha=alpha, block_len=block_len,
                              rng=derive_rng(seed))
        rng = derive_rng(seed)  # same starts as the kernel's centered draws
        alt = _resample_means(b, block_len, bootstraps, rng) - _resample_means(a, block_len, bootstraps, rng)
        outside = (alt < null.crit_low) | (alt > null.crit_high)
        assert res.power == np.count_nonzero(outside) / bootstraps
        ci_low, ci_high = np.quantile(alt, [alpha / 2.0, 1.0 - alpha / 2.0])
        assert (res.ci_low, res.ci_high) == (ci_low, ci_high)

    @given(samples, st.integers(1, 4), st.integers(0, 2**32))
    def test_uncentered_means_are_shifted_null_means(self, values, block_len, seed):
        x = np.asarray(values)
        raw = _resample_means(x, block_len, 99, derive_rng(seed))
        shifted = _resample_means(x - x.mean(), block_len, 99, derive_rng(seed)) + x.mean()
        assert np.max(np.abs(raw - shifted)) <= 1e-12

    @given(samples, st.integers(1, 8), st.integers(1, 40), st.integers(0, 2**32))
    def test_means_match_materialized_resamples(self, values, block_len, n_draws, seed):
        # the block-sum kernel against its reference: gather every resample, take row means
        x = np.asarray(values)
        means = _resample_means(x, block_len, n_draws, derive_rng(seed))
        reference = x[_resample_indices(len(x), block_len, n_draws, derive_rng(seed))].mean(axis=1)
        assert np.max(np.abs(means - reference)) <= 1e-12

    @settings(max_examples=40)
    @given(
        st.integers(1, 300).flatmap(lambda n: st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)),
        st.integers(1, 5),
        st.sampled_from([1, RESAMPLE_CHUNK_ROWS - 1, RESAMPLE_CHUNK_ROWS, RESAMPLE_CHUNK_ROWS + 1, 4999]),
        st.integers(0, 2**32),
    )
    @example([3.0], 2, RESAMPLE_CHUNK_ROWS + 1, 0)  # block_len > n: one start
    @example([1.0, -2.0, 4.0], 3, RESAMPLE_CHUNK_ROWS, 1)  # block_len == n: one start
    @example([float(i) for i in range(79)], 5, 4999, 2)  # odd n with a tail block
    @example([float(i) for i in range(80)], 3, RESAMPLE_CHUNK_ROWS - 1, 3)  # even n with a tail block
    # at block length 2: the widest windows of in-order column adds, of paired ones, and of numpy's row sum
    @example(_uneven(15), 2, 4999, 4)  # 7 blocks and a tail
    @example(_uneven(16), 2, 4999, 5)  # 8 blocks
    @example(_uneven(31), 2, 4999, 6)  # 15 blocks and a tail
    @example(_uneven(32), 2, 4999, 7)  # 16 blocks
    @example(_uneven(254), 2, RESAMPLE_CHUNK_ROWS + 1, 8)  # 127 blocks
    @example(_uneven(256), 2, RESAMPLE_CHUNK_ROWS + 1, 9)  # 128 blocks
    def test_chunked_means_equal_one_shot_bitwise(self, values, block_len, n_draws, seed):
        # the previous one-shot formulation: one gather and row sum over the whole start matrix
        x = np.asarray(values)
        n = len(x)
        length = min(block_len, n)
        n_starts = n - length + 1
        full, tail = divmod(n, length)
        cum = np.concatenate([[0.0], np.cumsum(x)])
        block_sums = cum[length:] - cum[:-length]
        starts = derive_rng(seed).integers(0, n_starts, size=(n_draws, full + (1 if tail else 0)))
        totals = block_sums[starts[:, :full]].sum(axis=1)
        if tail:
            totals += (cum[tail : n_starts + tail] - cum[:n_starts])[starts[:, full]]
        expected = totals / n
        assert _resample_means(x, block_len, n_draws, derive_rng(seed)).tobytes() == expected.tobytes()


def _window_peak(before_days: int, other_days: int) -> int:
    """Peak traced bytes of one warm ``evaluate_effect`` call at the default 4999 draws."""
    data = derive_rng(0, "peak").poisson(6.0, size=before_days + other_days).astype(float)
    before, other = data[:before_days], data[before_days:]
    evaluate_effect(before, other, Horizon.LONG_TERM, TestConfig(), derive_rng(1))
    tracemalloc.start()
    try:
        evaluate_effect(before, other, Horizon.LONG_TERM, TestConfig(), derive_rng(2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# what a window holds besides its start matrix and its block sums: the 900 KB bound
# of a 28x14 window less its 0.56 MB start matrix and one 1,024-row chunk of 14 blocks
PER_DRAW_ALLOWANCE = 900_000 - 4999 * 14 * 8 - RESAMPLE_CHUNK_ROWS * 14 * 8


def test_warm_window_peak_memory():
    """One 28x14 window at the default 4999 draws allocates nothing as large as its start matrix but the matrix."""
    # the 0.56 MB start matrix and four 40 KB columns; gathering all draws at once peaked at 1.2 MB
    assert _window_peak(28, 14) < 900_000


def test_wide_window_peak_memory():
    """A 64x64 window (32 blocks a sample) gathers its block sums one chunk of rows at a time."""
    # the 1.28 MB start matrix plus one 262 KB chunk, and the allowance; gathering all draws at once adds 1.28 MB
    assert _window_peak(64, 64) < 4999 * 32 * 8 + RESAMPLE_CHUNK_ROWS * 32 * 8 + PER_DRAW_ALLOWANCE


def test_row_sums_follow_numpy_reduce():
    """``_row_sums`` adds in ``np.add.reduce``'s order at every width from 1 to 300 blocks.

    The p-values' bits rest on that order, so a numpy that sums rows
    differently fails here, by its version.
    """
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1.0, -1.0, 0.1])
    differ = []
    for width in range(1, 301):
        r = derive_rng(width, "row-sums")
        rows = np.vstack([
            r.uniform(-1e3, 1e3, (RESAMPLE_CHUNK_ROWS, width)),
            r.choice(special, (RESAMPLE_CHUNK_ROWS, width)),  # signed zeros, subnormals, cancelling 1e16s
            np.full((1, width), -0.0),
            np.resize([1e16, 1.0, -1e16, 1.0], (1, width)),
        ])
        starts = np.arange(rows.size).reshape(rows.shape)
        if _row_sums(rows.ravel(), starts).tobytes() != np.add.reduce(rows, axis=1).tobytes():
            differ.append(width)
    assert not differ, f"numpy {np.__version__} sums rows of these widths in another order: {differ}"
