"""Group-level nonparametric comparisons of expression occurrence counts.

Wilcoxon signed-rank tests compare, per expression, how often the expression
occurred under two conditions across the same participants; the whole family
of expression x condition-pair tests is then corrected with the
Benjamini-Hochberg step-up procedure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .errors import ConfigError, ShapeError

#: largest n for which the exact signed-rank null distribution is enumerated.
EXACT_LIMIT = 25


@dataclass(frozen=True)
class WilcoxonResult:
    """Signed-rank test outcome.

    ``w_statistic`` is min(w_plus, w_minus); both one-sided rank sums are kept
    so either reporting convention can be audited. ``degenerate`` marks the
    all-zero-differences case, reported as p = 1.
    """

    w_statistic: float
    w_plus: float
    w_minus: float
    p_value: float
    n_effective: int
    degenerate: bool = False


def _average_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    srt = values[order]
    while i < len(values):
        j = i
        while j + 1 < len(values) and srt[j + 1] == srt[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _exact_two_sided_p(doubled_ranks: list[int], w2_obs: int, n: int) -> float:
    """Two-sided p by enumerating the null distribution of the rank sum.

    Ranks arrive doubled so tie-averaged halves become integers; the counting
    polynomial then lives on an integer grid and is exact.
    """
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    below = sum(counts[: w2_obs + 1])
    return min(1.0, 2 * below / 2**n)


def _normal_cdf(z: float) -> float:
    """Standard normal CDF, accurate in relative terms far into the lower tail."""
    return 0.5 * math.erfc(-z / math.sqrt(2))


def wilcoxon_signed_rank(values_a, values_b) -> WilcoxonResult:
    """Two-sided Wilcoxon signed-rank test on paired values.

    ``values_a[i]`` and ``values_b[i]`` are one participant's values under the
    two conditions; unpaired, empty or non-finite samples raise ShapeError.
    Zero differences are dropped (classical convention, audit via
    ``n_effective``); ties get average ranks. Exact enumeration is used up to
    ``EXACT_LIMIT`` effective pairs, the tie-corrected normal approximation
    above that.
    """
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or len(a) == 0:
        raise ShapeError(f"need two non-empty paired samples, got shapes {a.shape} and {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ShapeError("paired samples contain NaN/Inf")
    diffs = a - b
    nonzero = diffs[diffs != 0.0]
    n = len(nonzero)
    if n == 0:
        return WilcoxonResult(0.0, 0.0, 0.0, 1.0, 0, degenerate=True)
    ranks = _average_ranks(np.abs(nonzero))
    w_plus = float(ranks[nonzero > 0].sum())
    w_minus = float(ranks[nonzero < 0].sum())
    w = min(w_plus, w_minus)
    if n <= EXACT_LIMIT:
        doubled = [int(round(2 * r)) for r in ranks]
        p = _exact_two_sided_p(doubled, int(round(2 * w)), n)
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        z = (w - mu) / np.sqrt(var)
        p = min(1.0, 2.0 * _normal_cdf(z))
    return WilcoxonResult(w, w_plus, w_minus, p, n)


def benjamini_hochberg(p_values, q: float = 0.05) -> np.ndarray:
    """Step-up false-discovery-rate decisions, in the input order.

    Rejects hypotheses 1..k (in ascending p order) for the largest k with
    p_(k) <= k * q / m.
    """
    p = np.asarray(list(p_values), dtype=float)
    if p.size and (p.min() < 0.0 or p.max() > 1.0):
        raise ConfigError("p-values must lie in [0, 1]")
    if not 0.0 < q <= 1.0:
        raise ConfigError(f"false discovery rate must be in (0, 1], got {q}")
    m = p.size
    reject = np.zeros(m, dtype=bool)
    if m == 0:
        return reject
    order = np.argsort(p, kind="stable")
    thresholds = (np.arange(1, m + 1) * q) / m
    passing = np.flatnonzero(p[order] <= thresholds)
    if passing.size:
        reject[order[: passing[-1] + 1]] = True
    return reject


@dataclass(frozen=True)
class ComparisonRow:
    """One expression x condition-pair test in the occurrence table."""

    expression: str
    condition_a: str
    condition_b: str
    p_value: float
    w_statistic: float
    w_plus: float
    w_minus: float
    n_effective: int
    significant_after_bh: bool
    degenerate: bool


def condition_comparison(
    counts: Mapping[str, Mapping[str, Mapping[str, float]]],
    q: float = 0.05,
) -> list[ComparisonRow]:
    """Wilcoxon + BH over every expression and unordered condition pair.

    ``counts`` maps participant -> condition -> expression -> normalized
    count. Participants missing either condition of a pair are dropped from
    that test. Returns every test with its BH decision; filter on
    ``significant_after_bh`` for the table of surviving rows.
    """
    participants = sorted(counts)
    if len(participants) < 2:
        raise ShapeError("condition comparison needs at least 2 participants")
    conditions = sorted({c for per in counts.values() for c in per})
    expressions = sorted(
        {e for per in counts.values() for cond in per.values() for e in cond}
    )
    tests: list[tuple[str, str, str, WilcoxonResult]] = []
    for expr in expressions:
        for cond_a, cond_b in combinations(conditions, 2):
            va, vb = [], []
            for pid in participants:
                per = counts[pid]
                if cond_a in per and cond_b in per and expr in per[cond_a] and expr in per[cond_b]:
                    va.append(per[cond_a][expr])
                    vb.append(per[cond_b][expr])
            if not va:
                continue
            tests.append((expr, cond_a, cond_b, wilcoxon_signed_rank(va, vb)))
    reject = benjamini_hochberg([t[3].p_value for t in tests], q=q)
    return [
        ComparisonRow(
            expression=expr,
            condition_a=ca,
            condition_b=cb,
            significant_after_bh=bool(rej),
            **asdict(res),
        )
        for (expr, ca, cb, res), rej in zip(tests, reject)
    ]
