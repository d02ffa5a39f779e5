"""Unit tests for the statistical kernel.

Expected values come from the independent oracles in oracles.py (mpmath
arbitrary precision, exact rational binomial sums, bisection) or from closed
forms; frozen literals are noted inline.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from marlcert import stats
from marlcert.stats import (
    BhOutcome,
    bh_procedure,
    binom_lower_bound,
    binom_pvalue_one_sided,
    binom_pvalue_two_sided,
    chi2_quantile,
    goodman_bounds,
    std_normal_cdf,
    std_normal_quantile,
    std_normal_quantile_vec,
)


class TestStdNormalCdf:
    def test_symmetry_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_symmetry_pairs(self):
        for x in [0.1, 0.5, 1.0, 2.3, 4.0, 7.5]:
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(
                1.0, abs=1e-15
            )

    def test_quantile_anchor(self):
        assert std_normal_cdf(1.959963985) == pytest.approx(0.975, abs=1e-9)

    def test_against_oracle_grid(self):
        for x in np.linspace(-8.0, 8.0, 101):
            assert std_normal_cdf(float(x)) == pytest.approx(
                oracles.normal_cdf(float(x)), abs=1e-12
            )

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            std_normal_cdf(float("nan"))
        with pytest.raises(ValueError):
            std_normal_cdf(float("inf"))


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_anchor(self):
        assert std_normal_quantile(0.975) == pytest.approx(
            1.959963984540054, abs=1e-8
        )

    def test_round_trip(self):
        # Above ~5.7 the float64 spacing of Phi(x) near 1 (~1.1e-16) alone
        # maps back to >1e-9 in x, so the tail is asserted in p-space instead.
        for x in np.linspace(-6.0, 6.0, 61):
            x = float(x)
            rt = std_normal_quantile(std_normal_cdf(x))
            if x <= 5.7:
                assert rt == pytest.approx(x, abs=1e-9)
            else:
                assert std_normal_cdf(rt) == pytest.approx(
                    std_normal_cdf(x), abs=5e-16
                )

    def test_residual_tolerance(self):
        # post-condition |Phi(x) - p| <= 1e-12
        for p in np.linspace(1e-6, 1.0 - 1e-6, 97):
            x = std_normal_quantile(float(p))
            assert abs(std_normal_cdf(x) - float(p)) <= 1e-12

    def test_domain_errors(self):
        for p in [0.0, 1.0, -0.1, 1.1]:
            with pytest.raises(ValueError):
                std_normal_quantile(p)

    def test_vectorized_matches_scalar(self):
        ps = np.linspace(0.001, 0.999, 57)
        xs = std_normal_quantile_vec(ps)
        for p, x in zip(ps, xs):
            assert x == pytest.approx(std_normal_quantile(float(p)), abs=1e-11)

    def test_vectorized_bit_identical_to_all_lanes_formula(self):
        rng = np.random.default_rng(4)
        block = np.maximum(rng.random((10000, 48)), 2.0**-54)
        assert np.array_equal(
            std_normal_quantile_vec(block), _all_lanes_quantile(block)
        )
        edges = np.array(
            [2.0**-54, 1e-300, 1e-310, 0.075, 0.5, 0.925, 1.0 - 2.0**-53, 1e-20]
        )
        assert np.sqrt(-np.log(edges[-1])) > 5.0
        assert np.array_equal(
            std_normal_quantile_vec(edges), _all_lanes_quantile(edges)
        )


C = stats._QUANTILE_CHUNK
QUANTILE_EDGES = (
    2.0**-54, 1e-310, 0.075, 0.5, 0.925, 1.0 - 2.0**-53, 1e-20,
)


def _assert_chunked_quantile_exact(p):
    before = np.array(p, copy=True)
    x = std_normal_quantile_vec(p)
    assert x.shape == np.shape(p)
    assert np.array_equal(x, _all_lanes_quantile(p))
    assert np.array_equal(p, before)


class TestQuantileChunks:
    """`std_normal_quantile_vec` walks its input in chunks of
    ``_QUANTILE_CHUNK`` lanes; none of that may show in its output."""

    @pytest.mark.parametrize("n", [0, 1, C - 1, C, C + 1, 3 * C + 5])
    def test_sizes_around_the_chunk(self, n):
        rng = np.random.default_rng(n)
        _assert_chunked_quantile_exact(np.maximum(rng.random(n), 2.0**-54))

    @pytest.mark.parametrize("shape", [(), (7, C // 3), (3, 5, C // 7)])
    def test_shapes(self, shape):
        rng = np.random.default_rng(len(shape))
        p = np.asarray(np.maximum(rng.random(shape), 2.0**-54))
        assert p.shape == shape
        _assert_chunked_quantile_exact(p)

    def test_strided_view(self):
        u = np.maximum(np.random.default_rng(5).random((400, 48)), 2.0**-54)
        view = u[:, :47]
        assert not view.flags.c_contiguous
        _assert_chunked_quantile_exact(view)

    @pytest.mark.parametrize("value", QUANTILE_EDGES)
    @pytest.mark.parametrize("lane", [0, C - 1, C, 2 * C - 1, 2 * C, 2 * C + 4])
    def test_edge_value_at_chunk_boundary(self, value, lane):
        # lanes 2C..2C+4 are the final partial chunk
        p = np.maximum(np.random.default_rng(lane).random(2 * C + 5), 2.0**-54)
        p[lane] = value
        _assert_chunked_quantile_exact(p)

    @pytest.mark.parametrize("lane", [0, C + 17, 3 * C + 4])
    def test_nan_is_rejected(self, lane):
        p = np.full(3 * C + 5, 0.3)
        p[lane] = np.nan
        with pytest.raises(ValueError):
            std_normal_quantile_vec(p)

    def test_nan_rejected_like_the_scalar(self):
        with pytest.raises(ValueError):
            std_normal_quantile_vec([0.3, np.nan])
        with pytest.raises(ValueError):
            std_normal_quantile(np.nan)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 3 * C + 5),
        seed=st.integers(0, 2**32 - 1),
        mixed=st.lists(
            st.tuples(
                st.floats(0.0, 1.0, exclude_max=True),
                st.sampled_from(QUANTILE_EDGES)
                | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            ),
            max_size=12,
        ),
    )
    def test_equals_all_lanes_reference(self, n, seed, mixed):
        p = np.maximum(np.random.default_rng(seed).random(n), 2.0**-54)
        for where, value in mixed:
            if n:
                p[int(where * n)] = value
        want = _all_lanes_quantile(p)
        assert np.array_equal(std_normal_quantile_vec(p), want)
        # the central rational on clipped tail lanes raises no FP error
        with np.errstate(all="raise"):
            assert np.array_equal(std_normal_quantile_vec(p), want)


def _all_lanes_quantile(p):
    """The quantile as first written: every branch on every lane, then a
    per-lane pick.  Reference for the branch-per-lane version."""
    q = p - 0.5
    central = np.abs(q) <= 0.425
    r_c = 0.180625 - q * q
    x_central = q * _horner(stats._PPND_A, r_c) / _horner(stats._PPND_B, r_c)
    p_tail = np.where(q < 0.0, p, 1.0 - p)
    r_t = np.sqrt(-np.log(np.clip(p_tail, 1e-300, 0.5)))
    near = r_t <= 5.0
    r_near = r_t - 1.6
    r_far = np.where(near, 0.0, r_t - 5.0)
    x_near = _horner(stats._PPND_C, r_near) / _horner(stats._PPND_D, r_near)
    x_far = _horner(stats._PPND_E, r_far) / _horner(stats._PPND_F, r_far)
    x_tail = np.where(near, x_near, x_far)
    x_tail = np.where(q < 0.0, -x_tail, x_tail)
    return np.where(central, x_central, x_tail)


def _horner(coeffs, r):
    acc = np.full_like(r, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * r + c
    return acc


class TestChi2Quantile:
    def test_df2_closed_form(self):
        # closed form for df=2 is -2 ln(1-p)
        assert chi2_quantile(2, 0.95) == pytest.approx(
            -2.0 * math.log(0.05), rel=1e-10
        )
        assert chi2_quantile(2, 0.95) == pytest.approx(5.991464547, abs=1e-8)

    def test_df1_is_squared_normal_quantile(self):
        assert chi2_quantile(1, 0.95) == pytest.approx(
            1.959963984540054**2, rel=1e-9
        )

    def test_small_p_limit(self):
        assert chi2_quantile(1, 1e-12) < 1e-10

    def test_against_oracle_grid(self):
        for df in (1, 2, 5):
            for p in (0.01, 0.2, 0.5, 0.9, 0.975, 0.999):
                assert chi2_quantile(df, p) == pytest.approx(
                    oracles.chi2_quantile(df, p), abs=1e-8, rel=1e-10
                )

    def test_errors(self):
        with pytest.raises(ValueError):
            chi2_quantile(0, 0.5)
        with pytest.raises(ValueError):
            chi2_quantile(1, 0.0)
        with pytest.raises(ValueError):
            chi2_quantile(1, 1.0)


class TestBinomPValues:
    def test_k_zero_is_one(self):
        assert binom_pvalue_one_sided(0, 50, 0.5) == 1.0

    def test_all_heads_closed_form(self):
        assert binom_pvalue_one_sided(10, 10, 0.5) == pytest.approx(
            2.0**-10, rel=1e-12
        )

    def test_60_of_100(self):
        # exact rational tail sum, frozen: 4507126451608311512292345325 / 2^97
        assert binom_pvalue_one_sided(60, 100, 0.5) == pytest.approx(
            0.028443966820490395, rel=1e-12
        )

    def test_against_exact_oracle_grid(self):
        for M in (7, 24, 61):
            for k in range(0, M + 1, max(1, M // 6)):
                exact = float(oracles.binom_tail_exact(k, M))
                assert binom_pvalue_one_sided(k, M, 0.5) == pytest.approx(
                    exact, rel=1e-11, abs=1e-300
                )

    def test_nonhalf_p0_against_oracle(self):
        for p0 in (0.1, 0.37, 0.93):
            for k in (0, 3, 11, 20):
                assert binom_pvalue_one_sided(k, 20, p0) == pytest.approx(
                    oracles.binom_tail_float(k, 20, p0), rel=1e-10, abs=1e-300
                )

    def test_large_M_no_underflow(self):
        pv = binom_pvalue_one_sided(9000, 10000, 0.5)
        assert 0.0 <= pv <= 1.0

    def test_two_sided_tie_caps_at_one(self):
        assert binom_pvalue_two_sided(50, 100, 0.5) == 1.0

    def test_two_sided_boundary(self):
        assert binom_pvalue_two_sided(100, 100, 0.5) == pytest.approx(
            2.0 * 2.0**-100, rel=1e-10
        )

    def test_two_sided_doubles_one_sided(self):
        assert binom_pvalue_two_sided(60, 100, 0.5) == pytest.approx(
            2.0 * 0.028443966820490395, rel=1e-11
        )

    def test_two_sided_rejects_other_p0(self):
        with pytest.raises(ValueError):
            binom_pvalue_two_sided(10, 20, 0.4)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            binom_pvalue_one_sided(11, 10, 0.5)
        with pytest.raises(ValueError):
            binom_pvalue_one_sided(-1, 10, 0.5)


class TestBinomLowerBound:
    def test_k_zero(self):
        assert binom_lower_bound(0, 100, 0.05) == 0.0

    def test_all_successes_closed_form(self):
        assert binom_lower_bound(100, 100, 0.05) == pytest.approx(
            0.05 ** (1.0 / 100.0), abs=1e-10
        )

    def test_monotone_in_k(self):
        prev = -1.0
        for k in range(0, 51, 5):
            cur = binom_lower_bound(k, 50, 0.01)
            assert cur >= prev
            prev = cur

    def test_strictly_below_mle(self):
        for k in range(1, 41, 3):
            assert binom_lower_bound(k, 40, 0.05) < k / 40.0

    def test_against_bisection_oracle(self):
        for M, k in [(30, 17), (30, 29), (55, 40), (80, 41)]:
            for alpha in (0.01, 0.05, 0.2):
                assert binom_lower_bound(k, M, alpha) == pytest.approx(
                    oracles.clopper_pearson_lower(k, M, alpha), abs=1e-9
                )

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            binom_lower_bound(5, 10, 0.0)
        with pytest.raises(ValueError):
            binom_lower_bound(5, 10, 1.0)


class TestLowerBoundMemo:
    def test_memo_matches_uncached_bisection(self):
        uncached = stats._clopper_pearson_lower.__wrapped__
        stats._clopper_pearson_lower.cache_clear()
        grid = [
            (k, M, alpha)
            for M in (2, 17, 100, 1000)
            for k in sorted({1, 2, max(1, M // 3), M // 2, M - 1, M})
            for alpha in (0.001, 0.05, 0.3)
        ]
        for _ in range(2):  # the second round reads every bound from the memo
            for k, M, alpha in grid:
                assert binom_lower_bound(k, M, alpha) == uncached(k, M, alpha)
        info = stats._clopper_pearson_lower.cache_info()
        assert info.misses == len(grid) and info.hits == len(grid)

    def test_equal_inputs_share_an_entry(self):
        stats._clopper_pearson_lower.cache_clear()
        first = binom_lower_bound(5, 10, 0.05)
        assert binom_lower_bound(np.int64(5), 10.0, np.float64(0.05)) == first
        assert stats._clopper_pearson_lower.cache_info().hits == 1

    def test_bad_inputs_raise_before_the_memo(self):
        stats._clopper_pearson_lower.cache_clear()
        for k, M, alpha in [
            (-1, 10, 0.05),
            (11, 10, 0.05),
            (2.5, 10, 0.05),
            (1, 0, 0.05),
            (1, 2.5, 0.05),
            (5, 10, 0.0),
            (5, 10, 1.0),
            (5, 10, float("nan")),
        ]:
            with pytest.raises(ValueError):
                binom_lower_bound(k, M, alpha)
        binom_lower_bound(0, 10, 0.05)  # k = 0 needs no bisection
        info = stats._clopper_pearson_lower.cache_info()
        assert info.hits == info.misses == info.currsize == 0


class TestGoodmanBounds:
    def test_degenerate_counts_closed_form(self):
        # counts [M, 0]: radical collapses to A, lower_1 = M/(M+A)
        M = 100
        box = goodman_bounds([M, 0], 0.05)
        A = chi2_quantile(1, 1.0 - 0.05 / 2.0)
        assert box.lower[0] == pytest.approx(M / (M + A), rel=1e-12)
        assert box.lower[1] == 0.0
        assert box.upper[1] == pytest.approx(A / (M + A), rel=1e-12)

    def test_equal_counts_identical_boxes(self):
        box = goodman_bounds([40, 40, 40], 0.1)
        assert box.lower[0] == box.lower[1] == box.lower[2]
        assert box.upper[0] == box.upper[1] == box.upper[2]

    def test_contains_point_estimates(self):
        counts = [17, 3, 80, 0, 12]
        M = sum(counts)
        box = goodman_bounds(counts, 0.05)
        for n, lo, hi in zip(counts, box.lower, box.upper):
            assert lo <= n / M <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_widths_shrink_with_M(self):
        narrow = goodman_bounds([600, 400], 0.05)
        wide = goodman_bounds([60, 40], 0.05)
        for i in range(2):
            assert (narrow.upper[i] - narrow.lower[i]) < (
                wide.upper[i] - wide.lower[i]
            )

    def test_coverage_monte_carlo(self):
        # simultaneous coverage at 1-alpha, small-scale version of the
        # acceptance run
        rng = np.random.default_rng(7)
        probs = np.array([0.45, 0.3, 0.15, 0.07, 0.03])
        hits = 0
        trials = 400
        for _ in range(trials):
            counts = rng.multinomial(500, probs)
            box = goodman_bounds([int(c) for c in counts], 0.05)
            if all(
                box.lower[i] <= probs[i] <= box.upper[i] for i in range(5)
            ):
                hits += 1
        assert hits / trials >= 0.93

    def test_errors(self):
        with pytest.raises(ValueError):
            goodman_bounds([], 0.05)
        with pytest.raises(ValueError):
            goodman_bounds([10], 0.05)
        with pytest.raises(ValueError):
            goodman_bounds([0, 0], 0.05)


class TestBhProcedure:
    def test_spec_example(self):
        out = bh_procedure([0.001, 0.008, 0.039, 0.041], 0.05)
        assert out.reject == (True, True, True, True)
        assert out.cutoff_index == 4

    def test_all_ones_reject_none(self):
        out = bh_procedure([1.0, 1.0, 1.0], 0.05)
        assert out.reject == (False, False, False)
        assert out.cutoff_index == 0

    def test_single_test_plain_threshold(self):
        assert bh_procedure([0.04], 0.05).reject == (True,)
        assert bh_procedure([0.06], 0.05).reject == (False,)

    def test_empty(self):
        out = bh_procedure([], 0.05)
        assert out == BhOutcome((), 0)

    def test_ties_all_rejected(self):
        out = bh_procedure([0.02, 0.02, 0.9], 0.05)
        assert out.reject[0] and out.reject[1]

    def test_matches_reference_on_grid(self):
        grid = [0.001, 0.004, 0.01, 0.02, 0.05, 0.1, 0.3, 0.5]
        rng = np.random.default_rng(3)
        for _ in range(300):
            size = rng.integers(1, 6)
            ps = [float(grid[i]) for i in rng.integers(0, len(grid), size)]
            ref_reject, ref_k = oracles.bh_reference(ps, 0.05)
            out = bh_procedure(ps, 0.05)
            assert list(out.reject) == ref_reject
            assert out.cutoff_index == ref_k

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
        st.floats(min_value=0.01, max_value=0.2),
    )
    @settings(max_examples=200, deadline=None)
    def test_rejects_superset_of_bonferroni(self, ps, alpha):
        out = bh_procedure(ps, alpha)
        H = len(ps)
        for i, p in enumerate(ps):
            if p <= alpha / H:
                assert out.reject[i]

    def test_rejects_out_of_range_pvalues(self):
        with pytest.raises(ValueError):
            bh_procedure([0.5, 1.2], 0.05)
