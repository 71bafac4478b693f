"""Frame-aligned signal containers, standardization and the mask filter.

Conventions used package-wide:

* signals are uniformly sampled (25 fps recordings; the rate itself is not
  stored) and anchored to an absolute frame index via ``start_frame``;
* descriptive statistics use the sample convention (``ddof=1``, see
  :data:`STD_DDOF`); :func:`standardize` is the documented exception and
  divides by the population standard deviation, so a standardized series has
  zero mean and unit mean square;
* a constant signal carries no co-movement evidence: its Pearson correlation
  against anything is defined as 0.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads or worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSeries, ShapeError

#: ddof for every descriptive standard deviation in the package.
STD_DDOF = 1

#: standard deviations below this are clamped to 1 before division.
STD_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Uniformly sampled scalar signal starting at an absolute frame index."""

    values: np.ndarray
    start_frame: int = 0

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.ndim != 1:
            raise ShapeError("time series values must be one-dimensional")
        if vals.size and not np.all(np.isfinite(vals)):
            raise ShapeError("time series contains NaN or Inf")
        if int(self.start_frame) < 0:
            raise ShapeError("start_frame must be >= 0")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "start_frame", int(self.start_frame))

    def __len__(self) -> int:
        return self.values.size

    @property
    def end_frame(self) -> int:
        """Frame index of the last sample (inclusive)."""
        if not len(self):
            raise ShapeError("empty series has no end frame")
        return self.start_frame + len(self) - 1

    def slice_frames(self, first: int, last: int) -> "TimeSeries":
        """Sub-series covering the closed frame range ``[first, last]``."""
        if first > last:
            raise ShapeError(f"bad frame range [{first}, {last}]")
        if first < self.start_frame or last > self.end_frame:
            raise ShapeError(
                f"frames [{first}, {last}] outside series span "
                f"[{self.start_frame}, {self.end_frame}]"
            )
        lo = first - self.start_frame
        return TimeSeries(self.values[lo : lo + (last - first + 1)], first)


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """Per-frame boolean mask with the same frame alignment rules as TimeSeries."""

    bits: np.ndarray
    start_frame: int = 0

    def __post_init__(self):
        bits = np.array(self.bits, dtype=bool, copy=True)
        if bits.ndim != 1:
            raise ShapeError("mask bits must be one-dimensional")
        if int(self.start_frame) < 0:
            raise ShapeError("start_frame must be >= 0")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "start_frame", int(self.start_frame))

    def __len__(self) -> int:
        return self.bits.size

    @property
    def end_frame(self) -> int:
        if not len(self):
            raise ShapeError("empty mask has no end frame")
        return self.start_frame + len(self) - 1

    def runs(self) -> list[tuple[int, int]]:
        """Closed intervals (absolute frames) of consecutive active bits."""
        if not len(self):
            return []
        padded = np.concatenate(([False], self.bits, [False]))
        flips = np.flatnonzero(padded[1:] != padded[:-1])
        starts, ends = flips[0::2], flips[1::2] - 1
        off = self.start_frame
        return [(int(a) + off, int(b) + off) for a, b in zip(starts, ends)]


def standardize(x: TimeSeries) -> TimeSeries:
    """Center to zero mean and scale to unit (population) standard deviation.

    Near-constant input (std below :data:`STD_FLOOR`) is returned as all
    zeros instead of blowing up the division.
    """
    if len(x) < 2:
        raise DegenerateSeries("standardize needs at least 2 samples")
    mean = float(np.mean(x.values))
    std = float(np.std(x.values))  # population convention, see module docstring
    if std < STD_FLOOR:
        std = 1.0
    return TimeSeries((x.values - mean) / std, x.start_frame)


def median_filter(m: BinaryMask, kernel: int) -> BinaryMask:
    """Majority-vote filter over a centered window of ``kernel`` frames.

    Edges use the available truncated window. Output bit is true iff strictly
    more than half of the window is true (a tie over an even truncated window
    counts as inactive).
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"median filter kernel must be odd and >= 1, got {kernel}")
    n = len(m)
    if n == 0 or kernel == 1:
        return m
    half = kernel // 2
    csum = np.concatenate(([0], np.cumsum(m.bits.astype(np.int64))))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    ones = csum[hi + 1] - csum[lo]
    width = hi - lo + 1
    return BinaryMask(2 * ones > width, m.start_frame)
