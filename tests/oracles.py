"""Independent brute-force oracles.

Everything here recomputes results from definitions, along different routes
than the library (direct per-window centered sums instead of prefix sums,
subinterval counting instead of the bottom-up recurrence, exhaustive subset
search instead of scheduling DP, sign-pattern enumeration instead of the
counting polynomial, one least-squares solve per candidate VAR order instead
of one QR for all orders), so agreement is meaningful.

The one exception is :func:`oracle_level_walk`: the miner's own prefix-sum
walk without its certificate. It pins the certificate to the walk's float
decisions exactly, where a route with other rounding could not.
"""

from itertools import combinations, product

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.stats import rankdata

from dyadgc.errors import ConfigError, InsufficientData
from dyadgc.granger import build_design
from dyadgc.intervals import _prefix_sums
from dyadgc.timeseries import runs as mask_runs


def window_corr(xv, yv, a, b) -> float:
    """Pearson r of the closed window [a, b] computed directly."""
    xs, ys = xv[a : b + 1], yv[a : b + 1]
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        return 0.0
    return float(np.clip(np.corrcoef(xs, ys)[0, 1], -1.0, 1.0))


def windows_corr(xv, yv, length):
    """Pearson r of every window of ``length``, two-pass: center each window, then sum.

    Same definition as :func:`window_corr` (a flat window gives r = 0), one
    window length at a time instead of one ``corrcoef`` call per window.
    """
    xw = sliding_window_view(xv, length)
    yw = sliding_window_view(yv, length)
    xd = xw - xw.mean(axis=1, keepdims=True)
    yd = yw - yw.mean(axis=1, keepdims=True)
    flat = (np.ptp(xw, axis=1) == 0) | (np.ptp(yw, axis=1) == 0)
    denom = np.sqrt(np.sum(xd * xd, axis=1) * np.sum(yd * yd, axis=1))
    r = np.sum(xd * yd, axis=1) / np.where(flat, 1.0, denom)
    return np.where(flat, 0.0, np.clip(r, -1.0, 1.0))


def oracle_maximal_intervals(xv, yv, beta, l_min):
    """All maximal correlated intervals straight from the definition.

    Scores every window directly (:func:`windows_corr`), counts each
    interval's bad subintervals (length >= l_min, r < beta) via 2-d cumulative
    sums of the bad table, and keeps intervals with zero bad subintervals that
    cannot be extended by one frame.
    """
    xv = np.asarray(xv, dtype=float)
    yv = np.asarray(yv, dtype=float)
    n = len(xv)
    bad = np.zeros((n, n), dtype=np.int64)
    for length in range(l_min, n + 1):
        starts = np.arange(n - length + 1)
        bad[starts, starts + length - 1] = windows_corr(xv, yv, length) < beta
    # right[c, b] = number of bad (c, d) with d <= b
    right = np.cumsum(bad, axis=1)
    # badcount[a, b] = sum over c >= a of right[c, b]
    badcount = np.cumsum(right[::-1, :], axis=0)[::-1, :]

    def correlated(a, b):
        return 0 <= a and b < n and b - a + 1 >= l_min and badcount[a, b] == 0

    out = []
    for a in range(n):
        for b in range(a + l_min - 1, n):
            if correlated(a, b) and not correlated(a - 1, b) and not correlated(a, b + 1):
                out.append((a, b))
    return out


def _walk_valid_starts(csum, length: int, beta: float, a: int, b: int) -> np.ndarray:
    cx, cy, cxx, cyy, cxy, tol = csum
    l = length
    sx = cx[a + l : b + l] - cx[a:b]
    sy = cy[a + l : b + l] - cy[a:b]
    sxx = cxx[a + l : b + l] - cxx[a:b]
    syy = cyy[a + l : b + l] - cyy[a:b]
    sxy = cxy[a + l : b + l] - cxy[a:b]
    vx = sxx - sx * sx / l
    vy = syy - sy * sy / l
    cov = sxy - sx * sy / l
    ok = (vx > tol * l) & (vy > tol * l)
    return ok & (cov / np.sqrt(np.where(ok, vx * vy, 1.0)) >= beta)


def oracle_level_walk(xv, yv, beta, l_min):
    """The miner's level walk with no certificate, as (start, end) pairs.

    The same prefix sums and float decisions as ``correlated_intervals``, but
    every run is walked one length at a time until it is emitted, so any run
    the certificate settles at once must come out equal to this.
    """
    csum = _prefix_sums(np.asarray(xv, dtype=float), np.asarray(yv, dtype=float))
    n = len(xv)
    out = []
    l = l_min
    runs = mask_runs(_walk_valid_starts(csum, l, beta, 0, n - l + 1))
    while runs:
        nxt_runs = []
        for a, b in runs:
            nxt = _walk_valid_starts(csum, l + 1, beta, a, b)
            if b > a and nxt.all():
                nxt_runs.append((a, b - 1))
                continue
            grown = np.concatenate(([False], nxt)) | np.concatenate((nxt, [False]))
            for s in np.flatnonzero(~grown):
                out.append((a + int(s), a + int(s) + l - 1))
            nxt_runs += mask_runs(nxt, a)
        runs = nxt_runs
        l += 1
    out.sort()
    return out


def oracle_maximal_intervals_tiny(xv, yv, beta, l_min):
    """Same result by literal nested loops over all subintervals (small n only)."""
    n = len(xv)

    def correlated(a, b):
        if a < 0 or b >= n or b - a + 1 < l_min:
            return False
        for c in range(a, b + 1):
            for d in range(c + l_min - 1, b + 1):
                if window_corr(xv, yv, c, d) < beta:
                    return False
        return True

    return [
        (a, b)
        for a in range(n)
        for b in range(a + l_min - 1, n)
        if correlated(a, b) and not correlated(a - 1, b) and not correlated(a, b + 1)
    ]


def _solution_better(cand, best):
    """(total, count, starts): larger total, then fewer, then earliest starts."""
    if best is None:
        return True
    if cand[0] != best[0]:
        return cand[0] > best[0]
    if cand[1] != best[1]:
        return cand[1] < best[1]
    return cand[2] < best[2]


def oracle_longest_set(pairs):
    """Exhaustive search over all subsets of candidate (start, end) intervals."""
    items = sorted(set(pairs))
    best = None
    best_combo = ()
    for k in range(len(items) + 1):
        for combo in combinations(items, k):
            if any(p[1] >= q[0] for p, q in zip(combo, combo[1:])):
                continue
            cand = (
                sum(b - a + 1 for a, b in combo),
                len(combo),
                tuple(a for a, _ in combo),
            )
            if _solution_better(cand, best):
                best = cand
                best_combo = combo
    return list(best_combo)


def oracle_majority_filter(bits, kernel):
    """Windowed strict majority with truncated edge windows."""
    n = len(bits)
    half = kernel // 2
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        lo, hi = max(0, i - half), min(n - 1, i + half)
        window = bits[lo : hi + 1]
        out[i] = int(window.sum()) * 2 > len(window)
    return out


def oracle_wilcoxon_p(diffs) -> float:
    """Exact two-sided signed-rank p by enumerating all 2^n sign patterns."""
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0.0]
    n = len(d)
    if n == 0:
        return 1.0
    ranks = rankdata(np.abs(d))
    r2 = [int(round(2 * r)) for r in ranks]
    w2_obs = int(round(2 * min(ranks[d > 0].sum(), ranks[d < 0].sum())))
    count = 0
    for signs in product((0, 1), repeat=n):
        w2 = sum(r for r, s in zip(r2, signs) if s)
        if w2 <= w2_obs:
            count += 1
    return min(1.0, 2 * count / 2**n)


def oracle_pearson(xv, yv) -> float:
    """Textbook Pearson formula, no shortcuts."""
    xd = np.asarray(xv) - np.mean(xv)
    yd = np.asarray(yv) - np.mean(yv)
    denom = np.sqrt(np.sum(xd**2) * np.sum(yd**2))
    if denom == 0:
        return 0.0
    return float(np.sum(xd * yd) / denom)


def oracle_select_order(x_segments, y_segments, m_max: int, criterion: str = "bic") -> int:
    """VAR order by AIC/BIC with one ``lstsq`` per order and target, on the rows of ``m_max``."""
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
    best_m, best_ic = 1, np.inf
    for m in range(1, m_max + 1):
        design = np.column_stack([d.x_lags[:, :m], d.y_lags[:, :m]])
        coef_x, _, _, _ = np.linalg.lstsq(design, d.x_targets, rcond=None)
        coef_y, _, _, _ = np.linalg.lstsq(design, d.y_targets, rcond=None)
        ex = d.x_targets - design @ coef_x
        ey = d.y_targets - design @ coef_y
        sxx = ex @ ex / t_eff
        syy = ey @ ey / t_eff
        sxy = ex @ ey / t_eff
        det = max(sxx * syy - sxy * sxy, 1e-300)
        n_params = 4 * m
        if criterion == "aic":
            ic = np.log(det) + 2.0 * n_params / t_eff
        else:
            ic = np.log(det) + np.log(t_eff) * n_params / t_eff
        if ic < best_ic:
            best_ic, best_m = ic, m
    return best_m
