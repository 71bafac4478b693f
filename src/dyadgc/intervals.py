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
the whole run. So every 16th level, a run at least 32 starts wide is offered
to a certificate (:func:`_certified`) that settles it in one vector op: if
the least-squares line of the run's whole span leaves a residual small
against the least receiver variance of any window, every window of the span
clears ``beta``, so the walk would shrink the run level by level and emit
exactly that span. The test keeps a margin on r² that covers float error in
its own sums and in the walk's, and applies the walk's flatness floor at the
span's full width, so it is exact: a certificate that fails leaves the run
to the walk.

:func:`correlated_intervals` reports sample indices into its two arrays; from
:func:`mine_shifted` on, intervals are closed absolute frame ranges, so results
from different shifts, runs, and action units can be pooled directly.
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

    def overlaps(self, other: "Interval") -> bool:
        return self.start <= other.end and other.start <= self.end


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


def _require_aligned(x: TimeSeries, y: TimeSeries, caller: str) -> None:
    if len(x) != len(y) or x.start_frame != y.start_frame:
        raise ShapeError(
            f"{caller} needs frame-aligned series of equal length: "
            f"{len(x)} frames from {x.start_frame} vs {len(y)} from {y.start_frame}"
        )


def _window_stats(csum, length: int, a: int, b: int):
    """Centered (Sxx, Syy, Sxy) of each window of ``length`` starting at ``a .. b - 1``.

    ``csum`` is the tuple (cx, cy, cxx, cyy, cxy, flat_tol) with prefix arrays
    of size n + 1.
    """
    cx, cy, cxx, cyy, cxy, _ = csum
    l = length
    sx = cx[a + l : b + l] - cx[a:b]
    sy = cy[a + l : b + l] - cy[a:b]
    sxx = cxx[a + l : b + l] - cxx[a:b]
    syy = cyy[a + l : b + l] - cyy[a:b]
    sxy = cxy[a + l : b + l] - cxy[a:b]
    return sxx - sx * sx / l, syy - sy * sy / l, sxy - sx * sy / l


def _valid_starts(stats, length: int, beta: float, tol: float) -> np.ndarray:
    """Whether each window of ``length`` with centered sums ``stats`` has r >= ``beta``.

    A window whose variance falls under the flatness tolerance ``tol`` per
    frame has r = 0, so it never clears a threshold in (0, 1].
    """
    vx, vy, cov = stats
    l = length
    ok = (vx > tol * l) & (vy > tol * l)
    return ok & (cov / np.sqrt(np.where(ok, vx * vy, 1.0)) >= beta)


def _prefix_sums(xv: np.ndarray, yv: np.ndarray):
    # Center on the global means first: keeps the cancellation in
    # sum(x^2) - sum(x)^2/l benign for offset-heavy signals.
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    scale = max(float(np.mean(xc * xc)), float(np.mean(yc * yc)), 1e-300)
    pad = lambda a: np.concatenate(([0.0], np.cumsum(a)))
    return (pad(xc), pad(yc), pad(xc * xc), pad(yc * yc), pad(xc * yc), scale * _FLAT_REL)


def _certified(csum, l: int, a: int, b: int, beta: float, vx: np.ndarray, vy: np.ndarray) -> bool:
    """Whether the walk would keep run ``[a, b]`` at level ``l`` whole up to one start.

    Every start of the run is valid at length ``l``; ``vx`` and ``vy`` are
    the centered Sxx and Syy of its length-``(l + 1)`` windows. True means
    every window of ``U = [a, b + l - 1]`` of length ``l + 1`` or more passes
    the walk's own float test, so the walk would emit exactly ``U``.

    Why: let U's least-squares line have slope g > 0 and residual res_U. On
    any window w of U the same line leaves at most res_U, and a window's
    centered Syy only grows with the window, so Syy(w) >= m_y = min(vy).
    Expanding that residual and one AM-GM step give
    r_w >= sqrt(1 - res_U / m_y).
    """
    cx, cy, cxx, cyy, cxy, tol = csum
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
    unit = (2 * n + 3) * np.finfo(float).eps * (1.0 + 2.0 * np.sqrt(n / (l + 1)))
    err_x, err_y = unit * cxx[n], unit * cyy[n]
    # The walk's flatness floor grows with the window (vx > tol * k), so the
    # smallest variance must clear it at U's full width, net of float error.
    if m_x - 2 * err_x <= tol * w or m_y - 2 * err_y <= tol * w:
        return False
    # The margin on r^2 covers the float error of this test and of the walk's
    # r on every window of U (a few multiples of err / m each).
    margin = max(1e-6, 16.0 * (err_x / m_x + err_y / m_y))
    return 1.0 - (syy - sxy * sxy / sxx) / m_y >= beta * beta + margin


def correlated_intervals(x: np.ndarray, y: np.ndarray, p: IntervalParams) -> list[Interval]:
    """All maximal correlated intervals between two 1-D signals of equal length.

    The result is sorted by start; intervals may overlap each other.
    Coordinates are sample indices into ``x`` and ``y``. A non-finite value
    raises :class:`ShapeError`.
    """
    if x.ndim != 1 or x.shape != y.shape:
        raise ShapeError(f"need two 1-D signals of equal length, got {x.shape} and {y.shape}")
    n = len(x)
    if n < p.l_min:
        raise ShapeError(f"series length {n} below minimum interval length {p.l_min}")
    csum = _prefix_sums(x, y)
    # a NaN or Inf anywhere (or an overflowing square) leaves every later prefix total non-finite
    if not np.isfinite([c[-1] for c in csum[:5]]).all():
        raise ShapeError("correlated_intervals needs finite signals")
    tol = csum[5]

    out: list[Interval] = []
    l = p.l_min
    # valid length-l starts, as closed runs [a, b]
    live = runs(_valid_starts(_window_stats(csum, l, 0, n - l + 1), l, p.beta, tol))
    while live:
        nxt_runs = []
        certify = (l - p.l_min) % _CERT_EVERY == 0
        for a, b in live:
            # start s is valid at length l + 1 iff s and s + 1 are valid at
            # length l (so a <= s < b) and its own r clears the threshold
            stats = _window_stats(csum, l + 1, a, b)
            if certify and b - a + 1 >= _CERT_MIN_WIDTH and _certified(csum, l, a, b, p.beta, *stats[:2]):
                out.append(Interval(a, b + l - 1))
                continue
            nxt = _valid_starts(stats, l + 1, p.beta, tol)
            if b > a and nxt.all():
                nxt_runs.append((a, b - 1))
                continue
            # maximal: neither [s - 1, s + l - 1] nor [s, s + l] is valid
            grown = np.concatenate(([False], nxt)) | np.concatenate((nxt, [False]))
            for s in np.flatnonzero(~grown):
                out.append(Interval(a + int(s), a + int(s) + l - 1))
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
    _require_aligned(x, y, "mine_shifted")
    n = len(x)
    if n < p.l_min:
        raise ShapeError(f"series length {n} below minimum interval length {p.l_min}")
    candidates: list[Interval] = []
    for s in dict.fromkeys(p.shifts):
        if n - abs(s) < p.l_min:
            continue
        if s >= 0:
            xa, ya, off = x.values[: n - s], y.values[s:], 0
        else:
            xa, ya, off = x.values[-s:], y.values[: n + s], -s
        off += x.start_frame
        for iv in correlated_intervals(xa, ya, p):
            candidates.append(Interval(off + iv.start, off + iv.end, shift=s))
    return longest_set(candidates)


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
    merged.
    """
    if series_len <= 0:
        return IntervalSet()
    filtered = median_filter(s.coverage_mask(series_len, start_frame), p.median_kernel)
    last = start_frame + series_len - 1
    merged: list[list[int]] = []
    for a, b in runs(filtered, start_frame):
        a = max(a - p.extension, start_frame)
        b = min(b + p.extension, last)
        if merged and a <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return IntervalSet(tuple(Interval(a, b) for a, b in merged))


def segment_series(x: TimeSeries, y: TimeSeries, s: IntervalSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """The aligned ``(x, y)`` samples of every interval, as read-only views.

    Interval boundaries stay explicit (one pair per interval) so downstream
    regressions can refuse to straddle them. An interval outside the series
    span raises :class:`ShapeError`.
    """
    _require_aligned(x, y, "segment_series")
    first, last = x.start_frame, x.start_frame + len(x) - 1
    out = []
    for iv in s:
        if iv.start < first or iv.end > last:
            raise ShapeError(f"{iv} outside series span [{first}, {last}]")
        lo, hi = iv.start - first, iv.end - first + 1
        out.append((x.values[lo:hi], y.values[lo:hi]))
    return out
