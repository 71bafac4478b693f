"""The miner's frame-anchored run, standardization, run finding and the mask filter.

Conventions used package-wide:

* signals are uniformly sampled (25 fps; the rate is not stored) plain 1-D
  arrays aligned with a frame index, and masks plain bool arrays;
  :func:`dyadgc.intervals.segment_series` is the one place where frame
  intervals become samples, and a :class:`TimeSeries`, anchored to an
  absolute frame via ``start_frame``, is only the input of
  :func:`dyadgc.intervals.mine_shifted`;
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


def runs(bits: np.ndarray, start_frame: int = 0) -> list[tuple[int, int]]:
    """Closed intervals of consecutive true bits, offset by ``start_frame``."""
    padded = np.concatenate(([False], bits, [False]))
    flips = np.flatnonzero(padded[1:] != padded[:-1])
    starts, ends = flips[0::2], flips[1::2] - 1
    return [(int(a) + start_frame, int(b) + start_frame) for a, b in zip(starts, ends)]


def standardize(values: np.ndarray) -> np.ndarray:
    """Center to zero mean and scale to unit (population) standard deviation.

    Near-constant input (std below :data:`STD_FLOOR`) is returned as all
    zeros instead of blowing up the division.
    """
    if len(values) < 2:
        raise DegenerateSeries("standardize needs at least 2 samples")
    mean = float(np.mean(values))
    std = float(np.std(values))  # population convention, see module docstring
    if std < STD_FLOOR:
        std = 1.0
    return (values - mean) / std


def median_filter(bits: np.ndarray, kernel: int) -> np.ndarray:
    """Majority-vote filter over a centered window of ``kernel`` frames.

    Edges use the available truncated window. Output bit is true iff strictly
    more than half of the window is true (a tie over an even truncated window
    counts as inactive).
    """
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"median filter kernel must be odd and >= 1, got {kernel}")
    n = len(bits)
    if n == 0 or kernel == 1:
        return bits
    half = kernel // 2
    csum = np.concatenate(([0], np.cumsum(bits.astype(np.int64))))
    idx = np.arange(n)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half, n - 1)
    ones = csum[hi + 1] - csum[lo]
    width = hi - lo + 1
    return 2 * ones > width
