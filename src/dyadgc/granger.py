"""Bivariate Granger-causality testing over concatenated signal segments.

For signals x and y, two autoregressions are fitted per direction: an
*enriched* model predicting one signal from the past of both, and a
*restricted* model using only its own past. Writing sigma' and sigma for the
restricted and enriched residual variances and T for the number of regression
targets, the test statistic is

    F = (sigma' - sigma) * (T - 2M - 1) / (sigma' * M)

which under the no-causality null follows an F distribution with
(M, T - 2M - 1) degrees of freedom.

Segments are treated as hard boundaries: no regression row may take lags that
straddle two segments, so concatenating selected intervals never fabricates
spurious transitions.

Series are assumed zero-mean (standardize them first); the regressions carry
no intercept.

Naming ties the x/y arguments to the dyadic roles: x is the sender, y the
receiver, so "x causes y" is reported as ``sender_causes_receiver``.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    EmptyInput,
    InsufficientData,
    ShapeError,
    SingularDesign,
)


class Direction(enum.Enum):
    """Four possible outcomes of the two directional tests."""

    SENDER_CAUSES_RECEIVER = "sender_causes_receiver"
    RECEIVER_CAUSES_SENDER = "receiver_causes_sender"
    BIDIRECTIONAL = "bidirectional"
    NONE = "none"


@dataclass(frozen=True)
class GCTestResult:
    """Directional F statistics, p-values, and the resulting classification."""

    f_y_causes_x: float
    p_y_causes_x: float
    f_x_causes_y: float
    p_x_causes_y: float
    alpha: float
    order: int
    n_effective: int
    outcome: Direction


def build_design(x_segments, y_segments, order: int) -> np.ndarray:
    """Regression rows for every target whose full lag window fits in one segment.

    Returns one C-ordered (T, 2M + 2) array, M = ``order``, with the columns
    ``[x_1, y_1, ..., x_M, y_M, x_t, y_t]``: lag j of each signal, then the
    two targets. Rows are stacked segment by segment; a segment of length
    n <= M yields none.
    """
    if order < 1:
        raise ConfigError(f"model order must be >= 1, got {order}")
    xs_list = [np.asarray(seg, dtype=float) for seg in x_segments]
    ys_list = [np.asarray(seg, dtype=float) for seg in y_segments]
    if len(xs_list) != len(ys_list):
        raise ShapeError("x and y segment lists differ in length")
    for k, (xs, ys) in enumerate(zip(xs_list, ys_list)):
        if xs.ndim != 1 or ys.ndim != 1:
            raise ShapeError("segments must be one-dimensional")
        if len(xs) != len(ys):
            raise ShapeError(f"segment {k}: x and y lengths differ")
    t_eff = sum(max(len(xs) - order, 0) for xs in xs_list)
    if t_eff == 0:
        raise InsufficientData(f"no segment exceeds the model order {order}")
    design = np.empty((t_eff, 2 * order + 2))
    row = 0
    for xs, ys in zip(xs_list, ys_list):
        n = len(xs)
        if n > order:
            # column pair k holds lag k + 1 of x and y; the last pair, lag 0
            for k, lag in enumerate((*range(1, order + 1), 0)):
                design[row : row + n - order, 2 * k] = xs[order - lag : n - lag]
                design[row : row + n - order, 2 * k + 1] = ys[order - lag : n - lag]
            row += n - order
    return design


_QR_BLOCK = 512  #: rows per block of :func:`_block_r`; 512 x 26 doubles stay in cache


def _block_r(a: np.ndarray) -> np.ndarray:
    """Householder R of a tall matrix by row blocks, R = qr([R; next block]).

    Equal to one QR's R up to row signs; square when rows >= columns.
    """
    r = np.linalg.qr(a[:_QR_BLOCK], mode="r")
    for start in range(_QR_BLOCK, len(a), _QR_BLOCK):
        r = np.linalg.qr(np.vstack((r, a[start : start + _QR_BLOCK])), mode="r")
    return r


def cap_order(lengths, m_max: int) -> int:
    """Largest order in [1, m_max] that segments of these lengths can test.

    Order M leaves ``n - M`` regression rows in a segment of length n, and the
    F test needs more than ``2M + 1`` rows in total. Raises InsufficientData
    when not even order 1 fits.
    """
    for m in range(m_max, 0, -1):
        if sum(max(n - m, 0) for n in lengths) > 2 * m + 1:
            return m
    raise InsufficientData(
        f"{sum(lengths)} frames in {len(lengths)} segments cannot support order 1"
    )


def select_order(x_segments, y_segments, m_max: int, criterion: str = "bic") -> int:
    """Model order in [1, m_max] minimizing AIC or BIC of the bivariate system.

    All candidate orders are scored on the same regression rows (those
    available at ``m_max``) so the criteria are comparable; ties go to the
    smaller order.

    One factorization scores every order: the design of
    :func:`build_design` at M = ``m_max``, ``[x_1, y_1, ..., x_M, y_M, x_t,
    y_t]``, is reduced to R by :func:`_block_r`. The order-m model regresses on
    the first 2m columns, so the residual cross-products of the two targets
    are sums over rows 2m, 2m + 1, ... (counting from 0) of R's last two
    columns; nothing is subtracted from the targets' norms. The residual
    covariance determinant is clamped at 1e-300.
    """
    if criterion not in ("aic", "bic"):
        raise ConfigError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    if m_max < 1:
        raise ConfigError(f"m_max must be >= 1, got {m_max}")
    a = build_design(x_segments, y_segments, m_max)
    t_eff = len(a)
    if t_eff <= 2 * m_max + 1:
        raise InsufficientData(
            f"{t_eff} effective samples cannot support m_max={m_max}"
        )
    r = _block_r(a)
    rx, ry = r[:, -2], r[:, -1]
    # tail[k] = sum over rows k.. of R; t_eff > 2 * m_max + 1 makes R square
    sxx_tail = np.cumsum((rx * rx)[::-1])[::-1] / t_eff
    syy_tail = np.cumsum((ry * ry)[::-1])[::-1] / t_eff
    sxy_tail = np.cumsum((rx * ry)[::-1])[::-1] / t_eff
    best_m, best_ic = 1, np.inf
    for m in range(1, m_max + 1):
        sxx, syy, sxy = sxx_tail[2 * m], syy_tail[2 * m], sxy_tail[2 * m]
        det = max(sxx * syy - sxy * sxy, 1e-300)
        n_params = 4 * m
        if criterion == "aic":
            ic = np.log(det) + 2.0 * n_params / t_eff
        else:
            ic = np.log(det) + np.log(t_eff) * n_params / t_eff
        if ic < best_ic:
            best_ic, best_m = ic, m
    return best_m


def _require_rows(t_eff: int, order: int) -> None:
    """The F test needs more than 2M + 1 regression rows."""
    if t_eff <= 2 * order + 1:
        raise InsufficientData(
            f"need T > 2M + 1 for the F test, got T={t_eff}, M={order}"
        )


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
#: Bernoulli coefficients B_2k / (2k (2k - 1)) of Stirling's series, k = 1..7
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
#: iterations allowed to the incomplete-beta fraction; equal degrees of
#: freedom of 10**7 take under 1,000, and d1 <= 12 takes under 60 at any d2
_FRACTION_MAX_ITER = 10_000
_LENTZ_TINY = 1e-300  # stands in for a zero denominator in modified Lentz


def _stirling_rest(z: float) -> float:
    """lgamma(z) minus (z - 1/2) log z - z + log(2 pi) / 2."""
    if z < 10.0:
        return math.lgamma(z) - ((z - 0.5) * math.log(z) - z + _HALF_LOG_2PI)
    r = 1.0 / (z * z)
    series = 0.0
    for c in reversed(_STIRLING):
        series = c + r * series
    return series / z


def _log_beta(a: float, b: float) -> float:
    """log B(a, b), with the (z - 1/2) log z - z parts of the three log-gammas
    combined by hand, so that no large values cancel."""
    return (
        _HALF_LOG_2PI
        - (a - 0.5) * math.log1p(b / a)
        - (b - 0.5) * math.log1p(a / b)
        - 0.5 * math.log(a + b)
        + _stirling_rest(a)
        + _stirling_rest(b)
        - _stirling_rest(a + b)
    )


def _beta_fraction(a: float, b: float, x: float, y: float) -> float:
    """Continued fraction K with I_x(a, b) = x^a y^b / (B(a, b) K), y = 1 - x.

    K = b0 + a1 / (b1 + a2 / (b2 + ...)) is the even contraction of the
    classic incomplete-beta fraction (DiDonato & Morris, ACM TOMS 18, 1992,
    BFRAC), evaluated by modified Lentz. Its terms use a y - b x rather than
    1 - (a + b) x / (a + 1), which cancels when a is large and x is near the
    mean. Raises ArithmeticError if it has not converged after
    _FRACTION_MAX_ITER terms.
    """
    lam1 = a * y - b * x + 1.0
    f = a * lam1 / (a + 1.0) or _LENTZ_TINY
    c, d = f, 0.0
    for m in range(1, _FRACTION_MAX_ITER + 1):
        den = a + 2 * m - 1.0
        an = (a + m - 1.0) * (a + b + m - 1.0) * m * (b - m) * x * x / (den * den)
        bn = m + m * (b - m) * x / den + (a + m) * (lam1 + m * (1.0 + y)) / (den + 2.0)
        d = 1.0 / (bn + an * d or _LENTZ_TINY)
        c = bn + an / c or _LENTZ_TINY
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= sys.float_info.epsilon:
            return f
    raise ArithmeticError(
        f"incomplete beta fraction at a={a}, b={b}, x={x} did not converge "
        f"in {_FRACTION_MAX_ITER} terms"
    )


def f_sf(f: float, d1: int, d2: int) -> float:
    """Survival function P(F > f) of the F(d1, d2) distribution.

    p is the regularized incomplete beta I_x(a, b) at a = d2/2, b = d1/2 and
    x = d2 / (d2 + d1 f), computed as x^a y^b / B(a, b) (y = 1 - x) over the
    continued fraction of :func:`_beta_fraction`. Where x >= (a + 1) / (a +
    b + 2) the fraction is taken the other way round, p = 1 - I_y(b, a).
    Both log x = -log1p(d1 f / d2) and log y come from f itself, never from
    a rounded x, and log B from Stirling's series, so d2 in the thousands
    cancels no large log-gammas. Against SciPy's betainc at d1 <= 12,
    d2 <= 20,000 and f in [e^-8, e^6], the absolute error is below 2e-14
    and the relative error below 3e-12 where p >= 1e-300; against 40-digit
    mpmath the relative error was below 2e-13.
    """
    if d1 < 1 or d2 < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if not f >= 0:
        raise ConfigError(f"F statistic must be >= 0, got {f}")
    r = d1 * f / d2  # odds y / x
    if r == 0.0:
        return 1.0
    if math.isinf(r):
        return 0.0
    a, b = d2 / 2.0, d1 / 2.0
    log_x = -math.log1p(r)
    x, y = 1.0 / (1.0 + r), r / (1.0 + r)
    power = math.exp(a * log_x + b * (math.log(r) + log_x) - _log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return power / _beta_fraction(a, b, x, y)
    return 1.0 - power / _beta_fraction(b, a, y, x)


def classify(p_y_causes_x: float, p_x_causes_y: float, alpha: float) -> Direction:
    """Map the two directional p-values to the four-way outcome at level alpha."""
    yx = p_y_causes_x <= alpha
    xy = p_x_causes_y <= alpha
    if yx and xy:
        return Direction.BIDIRECTIONAL
    if xy:
        return Direction.SENDER_CAUSES_RECEIVER
    if yx:
        return Direction.RECEIVER_CAUSES_SENDER
    return Direction.NONE


def _result(f_yx: float, f_xy: float, order: int, t_eff: int, alpha: float) -> GCTestResult:
    """Both F statistics referred to F(order, t_eff - 2 order - 1), and the outcome."""
    _require_rows(t_eff, order)
    d2 = t_eff - 2 * order - 1
    p_yx = f_sf(f_yx, order, d2)
    p_xy = f_sf(f_xy, order, d2)
    return GCTestResult(
        f_y_causes_x=f_yx,
        p_y_causes_x=p_yx,
        f_x_causes_y=f_xy,
        p_x_causes_y=p_xy,
        alpha=alpha,
        order=order,
        n_effective=t_eff,
        outcome=classify(p_yx, p_xy, alpha),
    )


def gc_test(x_segments, y_segments, order: int, alpha: float = 0.05) -> GCTestResult:
    """Run both directional Granger tests over the given aligned segments.

    The rows of :func:`build_design`, columns reordered as ``[x lags, y lags,
    x_t, y_t]``, are reduced to R by :func:`_block_r`. Regressing x_t on both
    lag blocks leaves RSS R[2M, 2M]^2; on its own lags, that plus the F
    numerator, the sum of R[i, 2M]^2 over i = M .. 2M - 1. A QR of R's
    columns ``[y lags, x lags, y_t]`` (2M + 2 rows) gives y_t's sums alike.

    Raises InsufficientData unless there are more than 2M + 1 rows, and
    SingularDesign for a constant target or rank-deficient lags: min |R_kk|
    over the 2M lag columns <= max(T, 2M + 2) * eps * max |R_kk|, in the
    style of numpy's default least-squares rank cutoff.
    """
    design = build_design(x_segments, y_segments, order)
    t_eff = len(design)
    _require_rows(t_eff, order)
    if np.ptp(design[:, -2]) == 0.0 or np.ptp(design[:, -1]) == 0.0:
        raise SingularDesign("constant segment: no variation to regress on")
    n_lags = 2 * order
    r = _block_r(design[:, [*range(0, n_lags, 2), *range(1, n_lags, 2), n_lags, n_lags + 1]])
    diag = np.abs(np.diagonal(r)[:n_lags])
    tol = max(t_eff, n_lags + 2) * np.finfo(float).eps * diag.max()
    if diag.min() <= tol:
        raise SingularDesign(
            f"rank-deficient design: rank {int(np.sum(diag > tol))} < {n_lags}"
        )
    r_y = np.linalg.qr(r[:, [*range(order, n_lags), *range(order), n_lags + 1]], mode="r")

    def f_of(col: np.ndarray) -> float:
        gain = float(col[order:n_lags] @ col[order:n_lags])
        rss_r = gain + float(col[n_lags] * col[n_lags])
        return gain * (t_eff - n_lags - 1) / (rss_r * order) if rss_r > 0.0 else 0.0

    return _result(f_of(r[:, n_lags]), f_of(r_y[:, n_lags]), order, t_eff, alpha)


def average_gc(per_interval_results, weights) -> GCTestResult:
    """Length-weighted average of per-interval F statistics.

    The p-values are recomputed from the pooled effective sample count. This
    is the alternative aggregation mode; the default is a single pooled fit
    over all segments (see :func:`gc_test`).
    """
    results = list(per_interval_results)
    weights = [float(w) for w in weights]
    if not results:
        raise EmptyInput("average_gc needs at least one interval result")
    if len(results) != len(weights):
        raise ShapeError("results and weights differ in length")
    if sum(weights) <= 0:
        raise ConfigError("weights must have positive total")
    order = results[0].order
    alpha = results[0].alpha
    if any(r.order != order for r in results):
        raise ConfigError("cannot average results with mixed model orders")
    if any(r.alpha != alpha for r in results):
        raise ConfigError("cannot average results with mixed alpha levels")
    wsum = sum(weights)
    f_yx = sum(w * r.f_y_causes_x for w, r in zip(weights, results)) / wsum
    f_xy = sum(w * r.f_x_causes_y for w, r in zip(weights, results)) / wsum
    return _result(f_yx, f_xy, order, sum(r.n_effective for r in results), alpha)
