"""Synthetic dyads with known ground-truth coupling.

Two families of generators:

* coupled autoregressive pairs, where a driver signal feeds into the driven
  signal at a fixed lag, but only inside chosen *active intervals* (influence
  in real dialogue is transient, so the validation data must be too);
* full fake AU recordings in OpenFace CSV layout, where chosen expressions
  carry such coupled signals and everything else is idle noise.

All generators are deterministic for a given seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .au_features import (
    AU_IDS,
    AU_ROW,
    AURecording,
    CONDITIONS,
    EXPRESSIONS_BY_NAME,
    INTENSITY_MAX,
    write_au_csv,
)
from .errors import ConfigError
from .intervals import Interval, IntervalSet
from .timeseries import TimeSeries

DIRECTIONS = ("x_to_y", "y_to_x", "bidirectional", "none")


@dataclass(frozen=True)
class CouplingSpec:
    """Ground truth for one synthetic pair.

    Both series follow AR(``ar_coeff``) dynamics driven by independent
    Gaussian noise of ``noise_std``. Inside ``active_intervals`` the driven
    series additionally receives ``strength`` times the driver at ``lag``
    frames; outside there is no coupling.
    """

    direction: str = "x_to_y"
    lag: int = 1
    strength: float = 0.8
    active_intervals: IntervalSet = field(default_factory=IntervalSet)
    noise_std: float = 1.0
    ar_coeff: float = 0.5
    length: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ConfigError(f"unknown direction {self.direction!r}")
        if self.lag < 1:
            raise ConfigError(f"lag must be >= 1, got {self.lag}")
        if not abs(self.ar_coeff) < 1.0:
            raise ConfigError(f"|ar_coeff| must be < 1, got {self.ar_coeff}")
        if self.noise_std <= 0:
            raise ConfigError(f"noise_std must be positive, got {self.noise_std}")
        if self.length < 2:
            raise ConfigError(f"length must be >= 2, got {self.length}")
        for iv in self.active_intervals:
            if iv.start < 0 or iv.end >= self.length:
                raise ConfigError(f"active interval {iv} outside [0, {self.length})")


def gen_coupled_pair(spec: CouplingSpec) -> tuple[TimeSeries, TimeSeries, CouplingSpec]:
    """Generate one (x, y) pair plus the spec that produced it."""
    rng = np.random.default_rng(spec.seed)
    n = spec.length
    wx = rng.normal(0.0, spec.noise_std, n)
    wy = rng.normal(0.0, spec.noise_std, n)
    active = spec.active_intervals.coverage_mask(n)
    x = np.zeros(n)
    y = np.zeros(n)
    a, c, lag = spec.ar_coeff, spec.strength, spec.lag
    x_drives = spec.direction in ("x_to_y", "bidirectional")
    y_drives = spec.direction in ("y_to_x", "bidirectional")
    for t in range(n):
        x[t] = wx[t]
        y[t] = wy[t]
        if t >= 1:
            x[t] += a * x[t - 1]
            y[t] += a * y[t - 1]
        if t >= lag and active[t]:
            if x_drives:
                y[t] += c * x[t - lag]
            if y_drives:
                x[t] += c * y[t - lag]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ConfigError("unstable coupling spec: generated series diverged")
    return TimeSeries(x), TimeSeries(y), spec


def _clip_intensity(values: np.ndarray, label: str = "") -> np.ndarray:
    """Clip into the [0, 5] intensity range, warning if more than 1% of samples clip."""
    clipped = np.mean((values < 0.0) | (values > INTENSITY_MAX))
    if clipped > 0.01:
        warnings.warn(
            f"{label or 'AU signal'}: {clipped:.1%} of samples clip at the intensity bounds",
            stacklevel=2,
        )
    return np.clip(values, 0.0, INTENSITY_MAX)


@dataclass(frozen=True)
class FixtureTruth:
    """What was planted into a generated recording pair."""

    expression: str
    spec: CouplingSpec
    low_confidence_frames: tuple[int, ...]


def gen_au_fixture(
    expr_specs: dict[str, CouplingSpec],
    out_dir,
    pair_id: str,
    condition: str,
    seed: int = 0,
    low_conf_frames: tuple[int, ...] = (),
    idle_noise_std: float = 0.05,
    base: float = 1.2,
    bump: float = 1.6,
    swing: float = 0.45,
    jitter: float = 0.01,
    onset: int = 20,
    length: int | None = None,
) -> tuple[Path, Path, list[FixtureTruth]]:
    """Write one sender/receiver CSV pair with planted expression couplings.

    For every entry of ``expr_specs`` the member AUs of that expression carry
    an affine map of the coupled pair (standardized, scaled by ``swing``)
    raised by ``bump`` above ``base`` inside the active windows; all other
    AUs stay idle noise. Three details keep the fixture statistically honest:

    * the map is affine and the per-AU measurement ``jitter`` is small, so
      the traces stay inside the vector-autoregressive model class and the
      planted causal direction is exactly what a Granger test should find;
    * idle stretches of the member AUs carry noise of the same scale as the
      coupled signal, otherwise a few loud frames would dominate every
      window's variance and correlated intervals would bleed far into the
      idle region;
    * window edges rise and fall over ``onset`` frames (raised cosine), the
      way real expressions do; a hard step shared by both sides would add a
      deterministic transient that pollutes the causality tests.

    With ``swing=0`` and ``onset=0`` the fixture is *clean*: the activation
    threshold (baseline mean + 0.5 std) separates active from idle frames
    with a wide margin and the planted activation mask survives the round
    trip exactly (window coverage up to roughly a third of the span).

    ``low_conf_frames`` lists frame indices (0-based) whose confidence drops
    to 0.5 on the receiver side, for synchronization tests.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    lengths = {spec.length for spec in expr_specs.values()}
    if length is not None:
        lengths.add(length)
    if len(lengths) > 1:
        raise ConfigError("all expression specs in one fixture must share a length")
    n = lengths.pop() if lengths else 3000

    idle = lambda: np.abs(rng.normal(0.3, idle_noise_std, n))
    sender_intens = np.array([idle() for _ in AU_IDS])
    receiver_intens = np.array([idle() for _ in AU_IDS])

    truths = []
    for name, spec in expr_specs.items():
        expr = EXPRESSIONS_BY_NAME.get(name)
        if expr is None:
            raise ConfigError(f"unknown expression {name!r}")
        if not expr.available_in(AU_IDS):
            raise ConfigError(f"{name}: member AUs are not all recordable")
        x, y, spec = gen_coupled_pair(spec)
        active = spec.active_intervals.coverage_mask(n)
        env = active.astype(float)
        if onset > 0:
            win = np.hanning(2 * onset + 1)
            env = np.convolve(env, win / win.sum(), mode="same")
        lift = bump * env
        # scale by the in-window spread: coupling inflates the driven side's
        # variance inside the windows, and that is where the signal lands
        xs = x.values / max(float(np.std(x.values[active])), 1e-9) if active.any() else x.values
        ys = y.values / max(float(np.std(y.values[active])), 1e-9) if active.any() else y.values
        fade = np.sqrt(np.clip(1.0 - env**2, 0.0, 1.0))  # variance-preserving crossfade
        for a in sorted(expr.au_ids):
            s_trace = (
                base + lift
                + swing * (xs * env + rng.normal(size=n) * fade)
                + rng.normal(0.0, jitter, n)
            )
            r_trace = (
                base + lift
                + swing * (ys * env + rng.normal(size=n) * fade)
                + rng.normal(0.0, jitter, n)
            )
            sender_intens[AU_ROW[a]] = _clip_intensity(s_trace, f"AU{a:02d}")
            receiver_intens[AU_ROW[a]] = _clip_intensity(r_trace, f"AU{a:02d}")
        truths.append(FixtureTruth(name, spec, tuple(low_conf_frames)))

    frames = np.arange(1, n + 1, dtype=np.int64)
    conf_s = np.ones(n)
    conf_r = np.ones(n)
    for f in low_conf_frames:
        conf_r[f] = 0.5
    s_path = out_dir / f"{pair_id}_{condition}_sender.csv"
    r_path = out_dir / f"{pair_id}_{condition}_receiver.csv"
    write_au_csv(s_path, AURecording(frames, conf_s, sender_intens))
    write_au_csv(r_path, AURecording(frames, conf_r, receiver_intens))
    return s_path, r_path, truths


def spaced_windows(
    length: int, coverage: float, n_windows: int, rng: np.random.Generator, margin: int = 60
) -> IntervalSet:
    """Randomly placed non-overlapping windows covering ~``coverage`` of the span."""
    if not 0 < coverage < 1:
        raise ConfigError("coverage must be in (0, 1)")
    win_len = max(2, int(length * coverage / n_windows))
    slots = length // n_windows
    ivs = []
    for k in range(n_windows):
        lo = k * slots + margin
        hi = (k + 1) * slots - win_len - margin
        if hi <= lo:
            raise ConfigError("span too short for the requested windows")
        a = int(rng.integers(lo, hi))
        ivs.append(Interval(a, a + win_len - 1))
    return IntervalSet(tuple(ivs))


#: per-condition coupling planted by the demo cohort.
COHORT_SCENARIO = {
    "respectful": ("happiness_lower", "x_to_y"),
    "contempt": ("sadness_lower", "y_to_x"),
    "objective": (None, None),
}


def make_demo_cohort(
    out_dir,
    n_pairs: int = 4,
    length: int = 3000,
    seed: int = 20240501,
) -> Path:
    """Write a small synthetic cohort plus its manifest; returns the manifest path.

    Each condition plants a different ground truth (sender-driven
    happiness_lower when respectful, receiver-driven sadness_lower under
    contempt, nothing in the objective condition), so a pipeline run shows the
    expected contrast between conditions. Fully deterministic per seed.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["pair_id,role,condition,path"]
    for i in range(n_pairs):
        pair_id = f"pair{i + 1:02d}"
        for ci, condition in enumerate(CONDITIONS):
            cell_seed = seed + 1009 * i + 101 * ci
            rng = np.random.default_rng(cell_seed)
            expr, direction = COHORT_SCENARIO[condition]
            specs = {}
            if expr is not None:
                windows = spaced_windows(length, coverage=0.25, n_windows=2, rng=rng)
                specs[expr] = CouplingSpec(
                    direction=direction,
                    lag=4,
                    strength=4.0,
                    ar_coeff=0.3,
                    noise_std=1.0,
                    active_intervals=windows,
                    length=length,
                    seed=cell_seed + 7,
                )
            low_conf = tuple(int(f) for f in rng.integers(0, length, size=3))
            # small lift and hard edges keep the shared activation envelope
            # from polluting the causality tests (see gen_au_fixture notes)
            s_path, r_path, _ = gen_au_fixture(
                specs, out_dir, pair_id, condition, seed=cell_seed + 13,
                low_conf_frames=low_conf, length=length, base=1.2, bump=0.4,
                onset=0, swing=0.5,
            )
            rows.append(f"{pair_id},sender,{condition},{s_path.name}")
            rows.append(f"{pair_id},receiver,{condition},{r_path.name}")
    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    return manifest
