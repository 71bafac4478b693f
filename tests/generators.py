"""Signal-pair generators the tests use, beyond the package's own :mod:`dyadgc.synth`.

Each is deterministic for a given seed, with a fixed RNG draw order, so the
acceptance criteria and property tests that use them see the same data on
every run.
"""

import numpy as np

from dyadgc.errors import ConfigError
from dyadgc.intervals import Interval, IntervalSet
from dyadgc.timeseries import TimeSeries


def active_everywhere(length: int) -> IntervalSet:
    """Interval set covering the whole span."""
    return IntervalSet((Interval(0, length - 1),))


def gen_window_pair(
    length: int,
    windows: list[tuple[int, int, float]],
    seed: int = 0,
    outside_std: float = 6.0,
) -> tuple[TimeSeries, TimeSeries]:
    """Pair with planted high-correlation windows inside a low-correlation span.

    Each window is (start, end, r) with target in-window correlation r; the y
    side outside all windows is independent noise of ``outside_std``, which
    keeps the windows from bleeding outward when mining.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=length)
    y = rng.normal(scale=outside_std, size=length)
    for start, end, r in windows:
        if not 0 <= start <= end < length:
            raise ConfigError(f"window [{start}, {end}] outside [0, {length})")
        if not 0 < r <= 1:
            raise ConfigError(f"window correlation must be in (0, 1], got {r}")
        m = end - start + 1
        noise = rng.normal(size=m)
        y[start : end + 1] = r * x[start : end + 1] + np.sqrt(1 - r * r) * noise
    return TimeSeries(x), TimeSeries(y)


def gen_masked_transient_pair(
    length: int = 6000,
    seed: int = 0,
    signal_coverage: float = 0.2,
    distractor_coverage: float = 0.1,
    strength: float = 4.0,
    ar_coeff: float = 0.3,
    lag: int = 4,
) -> tuple[TimeSeries, TimeSeries, IntervalSet]:
    """Transient x->y coupling masked, on the full span, by anti-mimicry bursts.

    The driver x feeds y (positive coupling) inside two *signal* windows
    covering ``signal_coverage`` of the span. A third *distractor* window
    carries compensatory coupling the other way with a negative sign, the way
    brief anti-mimicry episodes do. A whole-span analysis sees both couplings
    at once and reports feedback; correlation-gated interval selection keeps
    only the positively co-moving signal windows, so the true transient
    direction stays visible. Returns (x, y, planted signal windows).
    """
    rng = np.random.default_rng(seed)
    slot = length // 3
    sig_len = max(2, int(length * signal_coverage / 2))
    dis_len = max(2, int(length * distractor_coverage))
    if slot <= max(sig_len, dis_len) + 160:
        raise ConfigError("span too short for the requested window coverages")
    order = rng.permutation(3)
    sig_slots, dis_slot = set(order[:2].tolist()), int(order[2])
    signal = np.zeros(length, dtype=bool)
    distract = np.zeros(length, dtype=bool)
    planted = []
    for s in range(3):
        w_len = sig_len if s in sig_slots else dis_len
        a = int(rng.integers(s * slot + 80, (s + 1) * slot - w_len - 80))
        if s in sig_slots:
            signal[a : a + w_len] = True
            planted.append(Interval(a, a + w_len - 1))
        else:
            distract[a : a + w_len] = True
    wx = rng.normal(size=length)
    wy = rng.normal(size=length)
    x = np.zeros(length)
    y = np.zeros(length)
    for t in range(length):
        x[t] = wx[t]
        y[t] = wy[t]
        if t >= 1:
            x[t] += ar_coeff * x[t - 1]
            y[t] += ar_coeff * y[t - 1]
        if t >= lag:
            if signal[t]:
                y[t] += strength * x[t - lag]
            if distract[t]:
                x[t] -= strength * y[t - lag]
    return TimeSeries(x), TimeSeries(y), IntervalSet(tuple(sorted(planted)))
