"""Mining of correlated, maximal, non-overlapping intervals between two signals.

An interval is *correlated* at threshold ``beta`` when it and every one of its
subintervals of length at least ``l_min`` have Pearson correlation at least
``beta``. A correlated interval is *maximal* when growing it by one frame on
either side breaks that property. From all maximal intervals (which may
overlap each other) the *longest set* is the non-overlapping subset with the
largest total coverage.

The miner builds correlated intervals bottom-up: an interval of length
``l + 1`` is correlated iff both of its length-``l`` subintervals are
correlated and its own correlation clears the threshold. By induction this is
exactly the all-subintervals definition. Length ``l + 1`` is evaluated only
inside the runs of starts valid at length ``l``, so a level costs vectorized
work in proportion to the starts still valid, not to the series length.

A correlated stretch of W frames would still take about W levels, each over
the whole run. So every 16th level ``l``, a run at least 32 starts wide is
offered to a certificate (:func:`_certified`) that settles it in a few
vector ops. It fits one least-squares line to the run's whole span and
checks it window by window: at every start, the line's residual over the
next ``2l + 1`` frames must be small against the receiver variance of the
``l + 1`` frames starting there. Then every window of the span clears
``beta``, so the walk would shrink the run level by level and emit exactly
that span. The test keeps a margin on r² that covers float error in its own
sums and in the walk's, and applies the walk's flatness floor at the span's
full width, so it is exact: a certificate that fails leaves the run to the
walk.

:func:`correlated_intervals` mines all shifts at once: one stacked array of
prefix sums, one first level for every shift, and a walk only for the shifts
with a valid start. It reports sample indices into ``x``, tagged with the
shift; from :func:`mine_shifted` on, intervals are closed absolute frame
ranges, so results from different shifts, runs, and action units pool directly.
:func:`segment_series` is the one place where frame intervals become samples.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyInput, ShapeError
from .timeseries import TimeSeries, median_filter, runs

#: relative variance floor below which a window is treated as constant (r = 0).
_FLAT_REL = 1e-10
#: a run at least this many starts wide is offered to the certificate ...
_CERT_MIN_WIDTH = 32
#: ... at every this many levels above ``l_min``; trying every run at every
#: level costs more than the walks it saves on short stretches
_CERT_EVERY = 16


@dataclass(frozen=True)
class IntervalParams:
    """Tuning knobs for relevant-interval selection.

    Defaults follow the standard recipe for 25 fps facial recordings: 3 s
    minimum window, correlation threshold 0.8, reaction shifts up to ~0.5 s in
    steps of 4 frames, 2 s median filter, and 12-frame dilation.
    """

    beta: float = 0.8
    l_min: int = 75
    shifts: tuple[int, ...] = (-12, -8, -4, 0, 4, 8, 12)
    median_kernel: int = 51
    extension: int = 12

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ConfigError(f"beta must be in (0, 1], got {self.beta}")
        if self.l_min < 2:
            raise ConfigError(f"l_min must be >= 2, got {self.l_min}")
        if self.median_kernel < 1 or self.median_kernel % 2 == 0:
            raise ConfigError(f"median_kernel must be odd, got {self.median_kernel}")
        if self.extension < 0:
            raise ConfigError(f"extension must be >= 0, got {self.extension}")
        object.__setattr__(self, "shifts", tuple(int(s) for s in self.shifts))
        if not self.shifts:
            raise ConfigError("shifts must name at least one shift")


@dataclass(frozen=True, order=True)
class Interval:
    """Closed frame interval ``[start, end]``, optionally tagged with the shift it was mined at."""

    start: int
    end: int
    shift: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.start > self.end:
            raise ShapeError(f"interval start {self.start} > end {self.end}")

    @property
    def length(self) -> int:
        return self.end - self.start + 1


@dataclass(frozen=True)
class IntervalSet:
    """Sorted, pairwise-disjoint intervals."""

    intervals: tuple[Interval, ...] = ()

    def __post_init__(self):
        ivs = tuple(self.intervals)
        for prev, cur in zip(ivs, ivs[1:]):
            if cur.start <= prev.end:
                raise ShapeError(f"intervals overlap or are unsorted: {prev} vs {cur}")
        object.__setattr__(self, "intervals", ivs)

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def total_length(self) -> int:
        return sum(iv.length for iv in self.intervals)

    def coverage_mask(self, length: int, start_frame: int = 0) -> np.ndarray:
        """Coverage as a bool array over frames ``[start_frame, start_frame + length - 1]``."""
        bits = np.zeros(length, dtype=bool)
        last = start_frame + length - 1
        for iv in self.intervals:
            if iv.start < start_frame or iv.end > last:
                raise ShapeError(f"{iv} outside span [{start_frame}, {last}]")
            bits[iv.start - start_frame : iv.end - start_frame + 1] = True
        return bits

    def to_tsv(self) -> str:
        """One ``start<TAB>end<TAB>shift`` line per interval (shift may be empty)."""
        lines = [
            f"{iv.start}\t{iv.end}\t{'' if iv.shift is None else iv.shift}"
            for iv in self.intervals
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_tsv(cls, text: str) -> "IntervalSet":
        out = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            if not raw.strip():
                continue
            parts = raw.split("\t")
            if len(parts) != 3:
                raise ShapeError(f"line {ln}: expected 3 tab-separated fields")
            try:
                shift = int(parts[2]) if parts[2].strip() else None
                out.append(Interval(int(parts[0]), int(parts[1]), shift))
            except ValueError as exc:
                raise ShapeError(f"line {ln}: {exc}") from exc
        return cls(tuple(out))


def _window_stats(c, length: int, a: int, b: int):
    """Centered (Sxx, Syy, Sxy) of each window of ``length`` starting at ``a .. b - 1``.

    ``c`` holds the prefix sums of x, y, x², y² and xy along its first axis
    and runs along its last; any axes between are kept.
    """
    l = length
    sx, sy, sxx, syy, sxy = c[..., a + l : b + l] - c[..., a:b]
    return sxx - sx * sx / l, syy - sy * sy / l, sxy - sx * sy / l


def _valid_starts(stats, length: int, beta: float, tol) -> np.ndarray:
    """Whether each window of ``length`` with centered sums ``stats`` has r >= ``beta``.

    A window whose variance falls under the flatness tolerance ``tol`` per
    frame has r = 0, so it never clears a threshold in (0, 1].
    """
    vx, vy, cov = stats
    l = length
    ok = (vx > tol * l) & (vy > tol * l)
    return ok & (cov / np.sqrt(np.where(ok, vx * vy, 1.0)) >= beta)


def _mean(a: np.ndarray) -> float:
    """np.mean's own pairwise sum and division, without its per-call overhead."""
    return float(np.add.reduce(a)) / len(a)


def _overlap(x: np.ndarray, y: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the samples pairing ``x[t]`` with ``y[t + s]``."""
    n = len(x)
    return x[max(-s, 0) : n - max(s, 0)], y[max(s, 0) : n - max(-s, 0)]


def _prefix_sums(x: np.ndarray, y: np.ndarray, shifts) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of centered x, y, x², y² and xy over each shift's overlap, and its flatness tolerance.

    Row i pairs ``x[t]`` with ``y[t + shifts[i]]``; in the (5, k, L + 1)
    array each row starts at 0 and holds its total past its own length.
    """
    n = len(x)
    c = np.zeros((5, len(shifts), n - min(abs(s) for s in shifts) + 1))
    for i, s in enumerate(shifts):
        xs, ys = _overlap(x, y, s)
        # Center on the row's own means first: keeps the cancellation in
        # sum(x^2) - sum(x)^2/l benign for offset-heavy signals.
        np.subtract(xs, _mean(xs), out=c[0, i, 1 : len(xs) + 1])
        np.subtract(ys, _mean(ys), out=c[1, i, 1 : len(xs) + 1])
    np.multiply(c[:2], c[:2], out=c[2:4])
    np.multiply(c[0], c[1], out=c[4])
    rows = [c[2:4, i, 1 : n - abs(s) + 1] for i, s in enumerate(shifts)]
    tol = [max(_mean(r[0]), _mean(r[1]), 1e-300) * _FLAT_REL for r in rows]
    return np.cumsum(c, axis=-1, out=c), np.array(tol)


def _certified(c, l: int, a: int, b: int, beta: float, tol: float, vx: np.ndarray, vy: np.ndarray, row) -> bool:
    """Whether the walk would keep run ``[a, b]`` at level ``l`` whole up to one start.

    Every start of the run is valid at length ``l``; ``vx`` and ``vy`` are
    the centered Sxx and Syy of its length-``(l + 1)`` windows, and ``row``
    holds the row's raw ``(x, y)`` samples and their means, from which the
    prefix sums ``c`` were built. True means every window of
    ``U = [a, b + l - 1]`` of length ``l + 1`` or more passes the walk's own
    float test, so the walk would emit exactly ``U``.

    Why: let U's least-squares line have slope g > 0, residuals e and
    running residual sums E, counted from a. A window w starting u frames
    into U with length l + 1 to 2l + 1 leaves at most
    E[min(u + 2l + 1, W)] - E[u] =: R_u on that line (W = |U|), and its
    centered Syy is at least vy[u], since a window's Syy only grows with the
    window. Any longer window splits into such pieces,
    whose residuals add while their Syy sum to at most the window's. So if
    R_u <= (1 - beta^2) vy[u] for every start u, every window w of U has a
    line of slope g leaving at most (1 - beta^2) Syy(w), and expanding that
    residual with one AM-GM step gives r_w >= beta.
    """
    cx, cy, cxx, cyy, cxy = c
    n = len(cx) - 1
    e = b + l
    w = e - a
    sx, sy = cx[e] - cx[a], cy[e] - cy[a]
    sxx = cxx[e] - cxx[a] - sx * sx / w
    syy = cyy[e] - cyy[a] - sy * sy / w
    sxy = cxy[e] - cxy[a] - sx * sy / w
    if not (sxx > 0.0 and sxy > 0.0):
        return False
    m_x, m_y = float(vx.min()), float(vy.min())
    # Absolute float error of any centered window sum taken from the
    # sequential prefix sums: (2n + 3) eps per prefix total, times
    # 1 + 2 sqrt(n / k) from subtracting s^2 / k for windows k >= l + 1.
    eps = np.finfo(float).eps
    unit = (2 * n + 3) * eps * (1.0 + 2.0 * np.sqrt(n / (l + 1)))
    err_x, err_y = unit * cxx[n], unit * cyy[n]
    # The walk's flatness floor grows with the window (vx > tol * k), so the
    # smallest variance must clear it at U's full width, net of float error.
    if m_x - 2 * err_x <= tol * w or m_y - 2 * err_y <= tol * w:
        return False
    # The margin on r^2 covers the float error of this test and of the walk's
    # r on every window of U (a few multiples of err / m each).
    margin = max(1e-6, 16.0 * (err_x / m_x + err_y / m_y))
    # Residuals of U's line on the very centered values the prefix sums
    # added (xs - mx bit for bit), recomputed so no centered copy is kept.
    xs, ys, mx, my = row
    res = ys[a:e] - my - sy / w
    res -= sxy / sxx * (xs[a:e] - mx - sx / w)
    E = np.zeros(w + 1)
    np.cumsum(res * res, out=E[1:])
    # E's float error: its running sum, (2W + 2) eps of E[W] <= Syy(U), and
    # the residuals' own rounding, under 9 eps Syy(U) by Cauchy-Schwarz.
    err_e = (2 * w + 11) * eps * (syy + 2 * err_y)
    u = np.arange(b - a)
    cover = E[np.minimum(u + 2 * l + 1, w)] - E[u]
    return bool((cover + err_e <= (1.0 - beta * beta - margin) * vy).all())


def correlated_intervals(x: np.ndarray, y: np.ndarray, p: IntervalParams) -> list[Interval]:
    """All maximal correlated intervals between ``x[t]`` and ``y[t + s]``, for each shift s of ``p.shifts``.

    Coordinates are sample indices into ``x``, each interval tagged with its
    shift; the result is sorted by start, and intervals may overlap each
    other. A shift whose overlap is shorter than ``p.l_min`` contributes
    nothing. A non-finite value raises :class:`ShapeError`.
    """
    if x.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"need two 1-D signals of equal length, got {x.shape} and {y.shape}")
    n = len(x)
    if n < p.l_min:
        raise ShapeError(f"series length {n} below minimum interval length {p.l_min}")
    shifts = [s for s in dict.fromkeys(p.shifts) if n - abs(s) >= p.l_min]
    if not shifts:
        return []
    c, tols = _prefix_sums(x, y, shifts)
    # a NaN or Inf anywhere in a row (or an overflowing square) leaves that row's totals non-finite
    if not np.isfinite(c[..., -1]).all():
        raise ShapeError("correlated_intervals needs finite signals")
    lengths = n - np.abs(shifts)
    # valid length-l_min starts of every row; starts past a row's own n - l_min are masked out
    w = c.shape[2] - p.l_min
    first = _valid_starts(_window_stats(c, p.l_min, 0, w), p.l_min, p.beta, tols[:, None])
    first &= np.arange(w) <= (lengths - p.l_min)[:, None]

    out: list[Interval] = []
    for i in np.flatnonzero(first.any(axis=1)):
        s, cs, tol = shifts[i], c[:, i, : lengths[i] + 1], tols[i]
        xs, ys = _overlap(x, y, s)
        row = (xs, ys, _mean(xs), _mean(ys))
        off = max(-s, 0)
        l, live = p.l_min, runs(first[i])  # valid length-l starts, as closed runs [a, b]
        while live:
            nxt_runs = []
            certify = (l - p.l_min) % _CERT_EVERY == 0
            for a, b in live:
                # start t is valid at length l + 1 iff t and t + 1 are valid at
                # length l (so a <= t < b) and its own r clears the threshold
                stats = _window_stats(cs, l + 1, a, b)
                wide = certify and b - a + 1 >= _CERT_MIN_WIDTH
                if wide and _certified(cs, l, a, b, p.beta, tol, *stats[:2], row):
                    out.append(Interval(off + a, off + b + l - 1, s))
                    continue
                nxt = _valid_starts(stats, l + 1, p.beta, tol)
                if b > a and nxt.all():
                    nxt_runs.append((a, b - 1))
                    continue
                # maximal: neither [t - 1, t + l - 1] nor [t, t + l] is valid
                grown = np.concatenate(([False], nxt)) | np.concatenate((nxt, [False]))
                for t in np.flatnonzero(~grown):
                    out.append(Interval(off + a + int(t), off + a + int(t) + l - 1, s))
                nxt_runs += runs(nxt, a)
            live = nxt_runs
            l += 1
    out.sort()
    return out


_Solution = tuple[int, int, tuple[int, ...], tuple[Interval, ...]]


def _better(a: _Solution, b: _Solution) -> bool:
    """Larger total length, then fewer intervals, then earliest starts."""
    if a[0] != b[0]:
        return a[0] > b[0]
    if a[1] != b[1]:
        return a[1] < b[1]
    return a[2] < b[2]


def _shift_order(iv: Interval) -> tuple:
    s = iv.shift
    return (s is None, abs(s) if s is not None else 0, s if s is not None else 0)


def longest_set(candidates) -> IntervalSet:
    """Non-overlapping subset of candidate intervals maximizing total length.

    Weighted-interval-scheduling dynamic program with deterministic
    tie-breaking: among equal coverage, prefer fewer intervals, then the
    lexicographically earliest start frames. Duplicate (start, end) candidates
    are collapsed, keeping the smallest-magnitude shift tag.
    """
    items: list[Interval] = []
    seen: set[tuple[int, int]] = set()
    for iv in sorted(candidates, key=lambda iv: (iv.start, iv.end, _shift_order(iv))):
        key = (iv.start, iv.end)
        if key not in seen:
            seen.add(key)
            items.append(iv)
    n = len(items)
    if n == 0:
        return IntervalSet()
    starts = [iv.start for iv in items]
    empty: _Solution = (0, 0, (), ())
    sol: list[_Solution] = [empty] * (n + 1)
    for i in range(n - 1, -1, -1):
        skip = sol[i + 1]
        j = bisect.bisect_right(starts, items[i].end, lo=i + 1)
        rest = sol[j]
        take: _Solution = (
            rest[0] + items[i].length,
            rest[1] + 1,
            (items[i].start,) + rest[2],
            (items[i],) + rest[3],
        )
        sol[i] = take if _better(take, skip) else skip
    return IntervalSet(sol[0][3])


def mine_shifted(x: TimeSeries, y: TimeSeries, p: IntervalParams) -> IntervalSet:
    """Longest set of maximal correlated intervals pooled over the shift grid.

    Shift ``s`` pairs ``x[t]`` with ``y[t + s]``, i.e. positive shifts test
    the second signal reacting *after* the first. Intervals are always
    reported in unshifted ``x`` frame coordinates; shifts whose overlap with
    the partner is shorter than ``l_min`` contribute nothing.
    """
    if len(x) != len(y) or x.start_frame != y.start_frame:
        raise ShapeError(
            f"mine_shifted needs frame-aligned series of equal length: "
            f"{len(x)} frames from {x.start_frame} vs {len(y)} from {y.start_frame}"
        )
    ivs = correlated_intervals(x.values, y.values, p)
    return longest_set(Interval(x.start_frame + iv.start, x.start_frame + iv.end, iv.shift) for iv in ivs)


def intersect_sets(sets) -> IntervalSet:
    """Frame-wise intersection of interval sets, re-segmented into intervals."""
    sets = list(sets)
    if not sets:
        raise EmptyInput("intersect_sets needs at least one interval set")
    result = list(sets[0])
    for other in sets[1:]:
        merged = []
        i = j = 0
        a, b = result, list(other)
        while i < len(a) and j < len(b):
            lo = max(a[i].start, b[j].start)
            hi = min(a[i].end, b[j].end)
            if lo <= hi:
                merged.append(Interval(lo, hi))
            if a[i].end < b[j].end:
                i += 1
            else:
                j += 1
        result = merged
    return IntervalSet(tuple(result))


def postprocess(s: IntervalSet, p: IntervalParams, series_len: int, start_frame: int = 0) -> IntervalSet:
    """Median-filter the coverage mask, then dilate surviving intervals.

    Short blips are removed by a majority filter of ``p.median_kernel``
    frames; each surviving interval then grows by ``p.extension`` frames per
    side, clipped to the series span. Overlaps created by the dilation are
    merged. Only frames within half a kernel of a covered one can survive,
    so each cluster of intervals (split at gaps over a kernel) is filtered
    on its own window, padded by a kernel and clipped to the span: exact, and
    no array spans the frame range.
    """
    if series_len <= 0:
        return IntervalSet()
    k, last = p.median_kernel, start_frame + series_len - 1
    if len(s) and not start_frame <= s.intervals[0].start <= s.intervals[-1].end <= last:
        raise ShapeError(f"{s.intervals[0]} .. {s.intervals[-1]} outside span [{start_frame}, {last}]")
    clusters: list[list[Interval]] = []
    for iv in s:
        if clusters and iv.start - clusters[-1][-1].end <= k:
            clusters[-1].append(iv)
        else:
            clusters.append([iv])
    merged: list[list[int]] = []
    for cluster in clusters:
        lo, hi = max(cluster[0].start - k, start_frame), min(cluster[-1].end + k, last)
        covered = IntervalSet(tuple(cluster)).coverage_mask(hi - lo + 1, lo)
        for a, b in runs(median_filter(covered, k), lo):
            a = max(a - p.extension, start_frame)
            b = min(b + p.extension, last)
            if merged and a <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
    return IntervalSet(tuple(Interval(a, b) for a, b in merged))


def segment_series(frames, x: np.ndarray, y: np.ndarray, s: IntervalSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """The aligned ``(x, y)`` samples of every interval, as views of ``x`` and ``y``.

    ``x`` and ``y`` are sampled at the strictly increasing frame index
    ``frames``; each interval's slice is found by binary search. Interval
    boundaries stay explicit (one pair per interval) so downstream
    regressions can refuse to straddle them. Arrays of different lengths, or
    an interval covering a frame that ``frames`` lacks, raise :class:`ShapeError`.
    """
    if not len(frames) == len(x) == len(y):
        raise ShapeError(f"segment_series needs aligned arrays, got {len(frames)}, {len(x)} and {len(y)}")
    lo = np.searchsorted(frames, [iv.start for iv in s])
    hi = np.searchsorted(frames, [iv.end for iv in s], side="right")
    out = []
    for iv, a, b in zip(s, lo, hi):
        if b - a != iv.length:  # a strictly increasing index holds all of [start, end] only then
            raise ShapeError(f"{iv} covers frames the frame index lacks")
        out.append((x[a:b], y[a:b]))
    return out
