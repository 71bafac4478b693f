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
from dataclasses import dataclass

import numpy as np
from scipy import special

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
class VarModel:
    """Least-squares fits of the four autoregressions at one model order."""

    order: int
    resid_var_enriched_x: float
    resid_var_restricted_x: float
    resid_var_enriched_y: float
    resid_var_restricted_y: float
    n_effective: int


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


@dataclass(frozen=True)
class Design:
    """Lagged regression rows, stacked segment by segment."""

    x_targets: np.ndarray
    y_targets: np.ndarray
    x_lags: np.ndarray  # column j holds the series at lag j+1
    y_lags: np.ndarray


def _as_segments(segments) -> list[np.ndarray]:
    out = []
    for seg in segments:
        arr = np.asarray(seg, dtype=float)
        if arr.ndim != 1:
            raise ShapeError("segments must be one-dimensional")
        out.append(arr)
    return out


def build_design(x_segments, y_segments, order: int) -> Design:
    """Build regression rows for every target whose full lag window fits in one segment."""
    if order < 1:
        raise ConfigError(f"model order must be >= 1, got {order}")
    xs_list = _as_segments(x_segments)
    ys_list = _as_segments(y_segments)
    if len(xs_list) != len(ys_list):
        raise ShapeError("x and y segment lists differ in length")
    xt, yt, lx, ly = [], [], [], []
    for k, (xs, ys) in enumerate(zip(xs_list, ys_list)):
        if len(xs) != len(ys):
            raise ShapeError(f"segment {k}: x and y lengths differ")
        n = len(xs)
        if n <= order:
            continue  # segment too short to yield a single row
        idx = np.arange(order, n)
        xt.append(xs[idx])
        yt.append(ys[idx])
        lx.append(np.column_stack([xs[idx - j] for j in range(1, order + 1)]))
        ly.append(np.column_stack([ys[idx - j] for j in range(1, order + 1)]))
    if not xt:
        raise InsufficientData(f"no segment exceeds the model order {order}")
    return Design(np.concatenate(xt), np.concatenate(yt), np.vstack(lx), np.vstack(ly))


def _ols(design: np.ndarray, targets: np.ndarray) -> tuple[float, int]:
    coeffs, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    resid = targets - design @ coeffs
    return float(resid @ resid), int(rank)


def fit_var(x_segments, y_segments, order: int) -> VarModel:
    """Fit enriched and restricted autoregressions in both directions.

    Raises SingularDesign for degenerate data (constant targets, or a
    rank-deficient enriched design despite enough rows). An underdetermined
    system (fewer rows than coefficients) falls back to the minimum-norm
    least-squares solution, which interpolates exactly.
    """
    d = build_design(x_segments, y_segments, order)
    t_eff = len(d.x_targets)
    if t_eff >= 2 and (np.ptp(d.x_targets) == 0.0 or np.ptp(d.y_targets) == 0.0):
        raise SingularDesign("constant segment: no variation to regress on")
    enriched = np.column_stack([d.x_lags, d.y_lags])
    rss_e_x, rank_x = _ols(enriched, d.x_targets)
    rss_e_y, rank_y = _ols(enriched, d.y_targets)
    if t_eff >= 2 * order and min(rank_x, rank_y) < 2 * order:
        raise SingularDesign(
            f"rank-deficient design: rank {min(rank_x, rank_y)} < {2 * order}"
        )
    rss_r_x, _ = _ols(d.x_lags, d.x_targets)
    rss_r_y, _ = _ols(d.y_lags, d.y_targets)
    # Nested least squares guarantees rss_restricted >= rss_enriched; clamp
    # the tiny floating-point violations.
    rss_r_x = max(rss_r_x, rss_e_x)
    rss_r_y = max(rss_r_y, rss_e_y)
    return VarModel(
        order=order,
        resid_var_enriched_x=rss_e_x / t_eff,
        resid_var_restricted_x=rss_r_x / t_eff,
        resid_var_enriched_y=rss_e_y / t_eff,
        resid_var_restricted_y=rss_r_y / t_eff,
        n_effective=t_eff,
    )


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

    One factorization scores every order. The columns
    ``[x_1, y_1, ..., x_M, y_M, x_t, y_t]`` (lag j of each signal, M =
    ``m_max``, then the two targets) are reduced to R by a single QR. The
    order-m model regresses on the first 2m columns, so the residual
    cross-products of the two targets are sums over rows 2m, 2m + 1, ...
    (counting from 0) of R's last two columns; nothing is subtracted from
    the targets' norms. The residual covariance determinant is clamped at
    1e-300.
    """
    if criterion not in ("aic", "bic"):
        raise ConfigError(f"criterion must be 'aic' or 'bic', got {criterion!r}")
    if m_max < 1:
        raise ConfigError(f"m_max must be >= 1, got {m_max}")
    d = build_design(x_segments, y_segments, m_max)
    t_eff = len(d.x_targets)
    if t_eff <= 2 * m_max + 1:
        raise InsufficientData(
            f"{t_eff} effective samples cannot support m_max={m_max}"
        )
    a = np.empty((t_eff, 2 * m_max + 2))
    a[:, 0:-2:2] = d.x_lags
    a[:, 1:-2:2] = d.y_lags
    a[:, -2] = d.x_targets
    a[:, -1] = d.y_targets
    del d  # qr copies a: freeing the design first keeps the peak memory down
    r = np.linalg.qr(a, mode="r")
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


def f_statistic(resid_var_restricted: float, resid_var_enriched: float, t_eff: int, order: int) -> float:
    """Nested-model F statistic; 0 when the enriched model brings no improvement."""
    if t_eff <= 2 * order + 1:
        raise InsufficientData(
            f"need T > 2M + 1 for the F test, got T={t_eff}, M={order}"
        )
    if resid_var_restricted <= 0.0:
        return 0.0  # both models interpolate exactly: no improvement to test
    f = (
        (resid_var_restricted - resid_var_enriched)
        * (t_eff - 2 * order - 1)
        / (resid_var_restricted * order)
    )
    return max(float(f), 0.0)


def f_sf(f: float, d1: int, d2: int) -> float:
    """Survival function of the F distribution via the regularized incomplete beta."""
    if d1 < 1 or d2 < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if f < 0:
        raise ConfigError(f"F statistic must be >= 0, got {f}")
    if f == 0.0:
        return 1.0
    x = d2 / (d2 + d1 * f)
    return float(special.betainc(d2 / 2.0, d1 / 2.0, x))


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


def gc_test(x_segments, y_segments, order: int, alpha: float = 0.05) -> GCTestResult:
    """Run both directional Granger tests over the given aligned segments."""
    model = fit_var(x_segments, y_segments, order)
    t_eff = model.n_effective
    f_yx = f_statistic(model.resid_var_restricted_x, model.resid_var_enriched_x, t_eff, order)
    f_xy = f_statistic(model.resid_var_restricted_y, model.resid_var_enriched_y, t_eff, order)
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
    t_pool = sum(r.n_effective for r in results)
    if t_pool <= 2 * order + 1:
        raise InsufficientData("pooled effective samples too small for the F test")
    d2 = t_pool - 2 * order - 1
    p_yx = f_sf(f_yx, order, d2)
    p_xy = f_sf(f_xy, order, d2)
    return GCTestResult(
        f_y_causes_x=f_yx,
        p_y_causes_x=p_yx,
        f_x_causes_y=f_xy,
        p_x_causes_y=p_xy,
        alpha=alpha,
        order=order,
        n_effective=t_pool,
        outcome=classify(p_yx, p_xy, alpha),
    )
