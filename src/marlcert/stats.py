"""Statistical primitives for smoothing certificates.

Exact-style kernels used throughout the certification pipeline: standard
normal CDF/quantile, chi-square quantiles, binomial tail tests, one-sided
Clopper-Pearson lower bounds, Goodman simultaneous multinomial intervals, and
the Benjamini-Hochberg step-up selection.

Conventions
-----------
* p-values and probabilities are plain floats in [0, 1].
* All functions are pure and deterministic: same inputs, bit-identical
  outputs.  Three process-wide ``lru_cache``s memoize pure helpers.
* 64-bit arithmetic everywhere; tail sums run in log space so sample sizes of
  10,000 and beyond cannot underflow.
* `std_normal_quantile_vec` is the bulk noise kernel.  The central
  rational runs on every lane with ``p - 0.5`` clamped to the central
  zone, and only the tail lanes, found by index, are overwritten.  Every
  step is elementwise, so the output is bit-identical to evaluating each
  lane's own branch alone, however a caller chunks its input.  It can
  write into a caller's array, the input itself included, and works in
  one fresh pair of input-sized vectors per call, so a noise draw passes
  chunks of at most ``smoothing._CHUNK_ROWS`` rows.  Its tail lanes take
  numpy's log, so their bits follow numpy's SIMD dispatch.
* `std_normal_quantile` evaluates the same three-zone rational on a
  Python float, its tail through numpy's log as well, so before its
  Newton step it has the one-lane kernel's bits without the kernel's
  array calls.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "ConfidenceBox",
    "BhOutcome",
    "std_normal_cdf",
    "std_normal_quantile",
    "std_normal_quantile_vec",
    "chi2_quantile",
    "binom_pvalue_one_sided",
    "binom_pvalue_two_sided",
    "binom_lower_bound",
    "goodman_bounds",
    "bh_procedure",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Clopper-Pearson bounds kept: a search's (k, M, alpha) inputs number in
# the hundreds, and an entry is a few hundred bytes
_BOUND_CACHE_SIZE = 4096


@dataclass(frozen=True)
class ConfidenceBox:
    """Simultaneous per-category confidence bounds for multinomial proportions.

    ``lower[i] <= true_p[i] <= upper[i]`` holds jointly for all categories
    with the construction's confidence. Bounds are clipped to [0, 1].
    """

    lower: tuple
    upper: tuple


@dataclass(frozen=True)
class BhOutcome:
    """Result of the Benjamini-Hochberg step-up procedure.

    ``cutoff_index`` is the largest rank k with p_(k) <= k*alpha/H (0 when no
    rank qualifies); ``reject[i]`` is True iff test i's p-value is at most the
    cutoff p-value, so ties at the cutoff are all rejected.
    """

    reject: tuple
    cutoff_index: int


def std_normal_cdf(x):
    """Standard normal CDF Phi(x).

    Parameters
    ----------
    x : float
        Finite real argument.

    Returns
    -------
    float
        Phi(x) with absolute error <= 1e-12 (erfc is correctly rounded to a
        few ulp, far inside the budget).
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"std_normal_cdf requires finite x, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT2)


# Rational minimax coefficients for the inverse normal CDF (the classic
# double-precision three-zone approximation), central zone |p - 0.5| <= 0.425.
_PPND_A = (
    3.3871328727963666080e0,
    1.3314166789178437745e2,
    1.9715909503065514427e3,
    1.3731693765509461125e4,
    4.5921953931549871457e4,
    6.7265770927008700853e4,
    3.3430575583588128105e4,
    2.5090809287301226727e3,
)
_PPND_B = (
    1.0,
    4.2313330701600911252e1,
    6.8718700749205790830e2,
    5.3941960214247511077e3,
    2.1213794301586595867e4,
    3.9307895800092710610e4,
    2.8729085735721942674e4,
    5.2264952788528545610e3,
)
_PPND_C = (
    1.42343711074968357734e0,
    4.63033784615654529590e0,
    5.76949722146069140550e0,
    3.64784832476320460504e0,
    1.27045825245236838258e0,
    2.41780725177450611770e-1,
    2.27238449892691845833e-2,
    7.74545014278341407640e-4,
)
_PPND_D = (
    1.0,
    2.05319162663775882187e0,
    1.67638483018380384940e0,
    6.89767334985100004550e-1,
    1.48103976427480074590e-1,
    1.51986665636164571966e-2,
    5.47593808499534494600e-4,
    1.05075007164441684324e-9,
)
_PPND_E = (
    6.65790464350110377720e0,
    5.46378491116411436990e0,
    1.78482653991729133580e0,
    2.96560571828504891230e-1,
    2.65321895265761230930e-2,
    1.24266094738807843860e-3,
    2.71155556874348757815e-5,
    2.01033439929228813265e-7,
)
_PPND_F = (
    1.0,
    5.99832206555887937690e-1,
    1.36929880922735805310e-1,
    1.48753612908506148525e-2,
    7.86869131145613259100e-4,
    1.84631831751005468180e-5,
    1.42151175831644588870e-7,
    2.04426310338993978564e-15,
)


# the tail pairs stacked (8, 2, 1), numerator then denominator, for one
# Horner pass over a (2, lanes) accumulator
_PPND_CD = np.array([_PPND_C, _PPND_D]).T[..., None]
_PPND_EF = np.array([_PPND_E, _PPND_F]).T[..., None]


def _poly(coeffs, r, out=None):
    # Horner from the highest-order coefficient: on a Python float, a new
    # array, or in place into ``out``
    acc = r * coeffs[-1] if out is None else np.multiply(r, coeffs[-1], out=out)
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc *= r
        acc += c
    return acc


def std_normal_quantile_vec(p, out=None):
    """Vectorized inverse normal CDF (rational approximation, no polish).

    Absolute error in x is a few 1e-16 relative; used for bulk noise
    generation where that is far more accuracy than Monte Carlo needs. The
    scalar :func:`std_normal_quantile` adds a Newton step to meet its tighter
    residual contract.

    The central rational runs on every lane with ``q = p - 0.5`` clamped
    to [-0.425, 0.425], which leaves central lanes unchanged and keeps tail
    lanes finite; the tail lanes, found by index, are then overwritten with
    the near or far tail formula. Every operation is elementwise, so a
    caller may split its input into chunks without changing a bit, and the
    input is read before the output is written, so the output may be the
    input itself. The tail lanes take numpy's log, so their bits follow its
    SIMD path. Besides the output, which accumulates ``q * A(r)``, the
    kernel works in one pair of input-sized vectors, q then ``B(r)``, and
    r, allocated together per call: a noise draw's chunk, at most 1024 rows
    of 47 lanes, allocates a pair of 752 KiB at most and its tail lanes.

    Parameters
    ----------
    p : array_like of float in (0, 1)
    out : numpy.ndarray, optional
        C-contiguous float64 array of ``p``'s shape to write the result
        into; it may be ``p`` itself.

    Returns
    -------
    numpy.ndarray
        ``out``, or a new array of ``p``'s shape.

    Raises
    ------
    ValueError
        If any element lies outside (0, 1) or is NaN, or if ``out`` is not
        a C-contiguous float64 array of ``p``'s shape.
    """
    p = np.asarray(p, dtype=np.float64)
    if out is None:
        out = np.empty(p.shape)
    elif (
        out.shape != p.shape
        or out.dtype != np.float64
        or not out.flags.c_contiguous
    ):
        raise ValueError(
            f"out must be a C-contiguous float64 array of shape {p.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    p, x = p.ravel(), out.reshape(-1)
    # NaN fails both comparisons, so it is rejected too
    if p.size and not (p.min() > 0.0 and p.max() < 1.0):
        raise ValueError("quantile arguments must lie strictly inside (0, 1)")
    q, r = np.empty((2, p.size))
    np.subtract(p, 0.5, out=q)
    tail = np.flatnonzero(np.abs(q, out=r) > 0.425)
    p_t = p[tail]  # read before x is written: x may be p
    np.maximum(q, -0.425, out=q)
    np.minimum(q, 0.425, out=q)
    np.multiply(q, q, out=r)
    np.subtract(0.180625, r, out=r)
    _poly(_PPND_A, r, x)
    x *= q
    x /= _poly(_PPND_B, r, q)
    # min(p, 1 - p) is the lower tail's p or the upper tail's 1 - p; below
    # 1e-300, subnormals included, it gets the quantile of 1e-300
    s = np.minimum(p_t, 1.0 - p_t)
    r_t = np.sqrt(-np.log(np.maximum(s, 1e-300, out=s)))
    # the near tail's formula stays finite on far lanes
    num, den = _poly(_PPND_CD, r_t - 1.6)
    x_t = np.divide(num, den, out=num)
    far = np.flatnonzero(r_t > 5.0)
    if far.size:
        num, den = _poly(_PPND_EF, r_t[far] - 5.0)
        x_t[far] = num / den
    # both tail rationals are positive, so the sign is the side's
    x[tail] = np.copysign(x_t, p_t - 0.5, out=x_t)
    return out


def std_normal_quantile(p):
    """Inverse standard normal CDF.

    Parameters
    ----------
    p : float in (0, 1)

    Returns
    -------
    float
        x with |Phi(x) - p| <= 1e-12. One Newton polish step on top of the
        rational approximation pins the residual well below the budget.

    The rational is `std_normal_quantile_vec`'s operation for operation,
    on a Python float, and its tail takes numpy's log of a float64
    scalar, so before the Newton step x has the one-lane kernel's bits,
    on any SIMD dispatch.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"std_normal_quantile requires 0 < p < 1, got {p!r}")
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        x = _poly(_PPND_A, r) * q / _poly(_PPND_B, r)
    else:
        # numpy's log, as the kernel's tail lanes take it
        r = math.sqrt(-float(np.log(np.float64(max(min(p, 1.0 - p), 1e-300)))))
        if r <= 5.0:
            x = _poly(_PPND_C, r - 1.6) / _poly(_PPND_D, r - 1.6)
        else:
            x = _poly(_PPND_E, r - 5.0) / _poly(_PPND_F, r - 5.0)
        x = math.copysign(x, q)
    pdf = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
    if pdf > 1e-300:
        x -= (std_normal_cdf(x) - p) / pdf
    return x


def _reg_lower_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0.

    Series expansion below a+1, Lentz continued fraction above; both accurate
    to ~1e-15 relative, plenty for the 1e-10 quantile contract.
    """
    if x <= 0.0:
        return 0.0
    log_prefix = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        # lower series
        term = 1.0 / a
        total = term
        denom = a
        for _ in range(500):
            denom += 1.0
            term *= x / denom
            total += term
            if abs(term) < abs(total) * 1e-16:
                break
        return min(1.0, total * math.exp(log_prefix))
    # upper continued fraction, complemented
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 500):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return max(0.0, 1.0 - math.exp(log_prefix) * h)


def chi2_quantile(df, p):
    """Chi-square quantile by bisection on the regularized lower gamma.

    Parameters
    ----------
    df : int >= 1
        Degrees of freedom.
    p : float in (0, 1)

    Returns
    -------
    float
        q with RegularizedLowerGamma(df/2, q/2) = p to within 1e-10.
    """
    if int(df) != df or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    p = float(p)
    if not (0.0 < p < 1.0):
        raise ValueError(f"chi2_quantile requires 0 < p < 1, got {p!r}")
    return _chi2_quantile(int(df), p)


@lru_cache(maxsize=64)
def _chi2_quantile(df, p):
    """The bisection behind `chi2_quantile`, cached per (df, p)."""
    a = df / 2.0
    hi = max(4.0, 4.0 * df)
    while _reg_lower_gamma(a, hi / 2.0) < p:
        hi *= 2.0
        if hi > 1e12:  # p < 1 guarantees termination long before this
            break
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _reg_lower_gamma(a, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@lru_cache(maxsize=64)
def _log_binom_coeffs(M):
    """log C(M, i) for i = 0..M, cached per sample size."""
    lg = math.lgamma
    lg_m1 = lg(M + 1)
    out = np.empty(M + 1, dtype=np.float64)
    for i in range(M + 1):
        out[i] = lg_m1 - lg(i + 1) - lg(M - i + 1)
    return out


def _validate_k_M(k, M):
    if int(M) != M or M < 1:
        raise ValueError(f"M must be a positive integer, got {M!r}")
    if int(k) != k or not (0 <= k <= M):
        raise ValueError(f"k must satisfy 0 <= k <= M={M}, got {k!r}")
    return int(k), int(M)


def binom_tail(k, M, p0):
    """Upper tail P(X >= k) for X ~ Binomial(M, p0), exact log-space sum.

    The workhorse behind the p-values and the Clopper-Pearson bisection.
    """
    k, M = _validate_k_M(k, M)
    p0 = float(p0)
    if not (0.0 <= p0 <= 1.0):
        raise ValueError(f"p0 must lie in [0, 1], got {p0!r}")
    if k == 0:
        return 1.0
    if p0 == 0.0:
        return 0.0
    if p0 == 1.0:
        return 1.0
    return _tail_sum(*_tail_terms(k, M), p0)


def _tail_terms(k, M):
    """log C(M, i), i and M - i for i = k..M: the p0-free parts of a tail."""
    idx = np.arange(k, M + 1, dtype=np.float64)
    return _log_binom_coeffs(M)[k:], idx, M - idx


def _tail_sum(log_coeffs, idx, rest, p0):
    """P(X >= k) from `_tail_terms`, for 0 < p0 < 1."""
    log_terms = log_coeffs + idx * math.log(p0) + rest * math.log1p(-p0)
    peak = float(log_terms.max())
    log_sum = peak + math.log(float(np.exp(log_terms - peak).sum()))
    if log_sum >= 0.0:
        return 1.0
    return math.exp(log_sum)


def binom_pvalue_one_sided(k, M):
    """One-sided binomial p-value P(X >= k) under X ~ Binomial(M, 0.5).

    This is the evidence against "success probability < 0.5" given k
    observed successes in M trials.
    """
    return binom_tail(k, M, 0.5)


def binom_pvalue_two_sided(k, M):
    """Two-sided binomial p-value at p = 0.5 (symmetric doubling rule):
    min(1, 2*min(P(X>=k), P(X<=k))), using P(X<=k; 0.5) = P(X>=M-k; 0.5).
    """
    k, M = _validate_k_M(k, M)
    upper = binom_tail(k, M, 0.5)
    lower = binom_tail(M - k, M, 0.5)
    return min(1.0, 2.0 * min(upper, lower))


def binom_lower_bound(k, M, alpha):
    """One-sided Clopper-Pearson lower confidence bound.

    Returns the p solving P(X >= k; M, p) = alpha (the largest success
    probability that would still be rejected upward at level alpha), found by
    bisection to 1e-12; 0.0 when k = 0. The true success probability exceeds
    the bound with probability at least 1 - alpha.
    """
    k, M = _validate_k_M(k, M)
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if k == 0:
        return 0.0
    return _clopper_pearson_lower(k, M, alpha)


@lru_cache(maxsize=_BOUND_CACHE_SIZE)
def _clopper_pearson_lower(k, M, alpha):
    """`binom_lower_bound`'s bisection for validated 0 < k <= M.

    Memoized: a tree search decides many nodes from the same few counts.
    """
    terms = _tail_terms(k, M)  # shared by every bisection step
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _tail_sum(*terms, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def goodman_bounds(counts, alpha):
    """Goodman simultaneous confidence intervals for multinomial proportions.

    Per category i with count n_i out of M total:

        [A + 2 n_i -/+ sqrt(A (A + 4 n_i (M - n_i) / M))] / (2 (M + A))

    with A the chi-square(1) quantile at 1 - alpha/k_cat (Bonferroni across
    the k_cat categories), clipped to [0, 1].

    Parameters
    ----------
    counts : sequence of int
        Per-category counts, at least two categories, total >= 1.
    alpha : float in (0, 1)

    Returns
    -------
    ConfidenceBox
    """
    counts = [int(c) for c in counts]
    if len(counts) < 2:
        raise ValueError("goodman_bounds needs at least two categories")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    M = sum(counts)
    if M < 1:
        raise ValueError("counts must sum to at least 1")
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    A = chi2_quantile(1, 1.0 - alpha / len(counts))
    denom = 2.0 * (M + A)
    lower = []
    upper = []
    for n in counts:
        radical = math.sqrt(A * (A + 4.0 * n * (M - n) / M))
        lower.append(min(1.0, max(0.0, (A + 2.0 * n - radical) / denom)))
        upper.append(min(1.0, max(0.0, (A + 2.0 * n + radical) / denom)))
    return ConfidenceBox(tuple(lower), tuple(upper))


def bh_procedure(pvalues, alpha):
    """Benjamini-Hochberg step-up selection at level alpha.

    Sorts the p-values ascending, finds the largest rank k with
    p_(k) <= k * alpha / H, and rejects every test whose p-value is at most
    p_(k) (so ties at the cutoff are all rejected).

    Parameters
    ----------
    pvalues : sequence of float in [0, 1]
    alpha : float in (0, 1)

    Returns
    -------
    BhOutcome
    """
    ps = [float(p) for p in pvalues]
    if any(not (0.0 <= p <= 1.0) for p in ps):
        raise ValueError("p-values must lie in [0, 1]; cap corrected values first")
    alpha = float(alpha)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    H = len(ps)
    if H == 0:
        return BhOutcome((), 0)
    order = sorted(range(H), key=lambda i: ps[i])
    cutoff = 0
    for rank, idx in enumerate(order, start=1):
        if ps[idx] <= alpha * rank / H:
            cutoff = rank
    if cutoff == 0:
        return BhOutcome((False,) * H, 0)
    threshold = ps[order[cutoff - 1]]
    return BhOutcome(tuple(p <= threshold for p in ps), cutoff)
