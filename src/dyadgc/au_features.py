"""Action-unit recordings: CSV ingestion, synchronization, and expression features.

Recordings are per-frame AU intensity traces (0-5 scale) with a per-frame
tracker confidence, one file per participant per condition, in the column
layout produced by OpenFace 2.0 (``frame``, ``confidence``, ``AUxx_r``).

From a recording we derive:

* per-participant AU baselines pooled over all of that participant's
  conditions,
* binary activation masks (intensity >= mean + factor * std per AU, AND-ed
  over an expression's member AUs),
* continuous expression signals (mean of member AU intensities) for the
  causal analysis.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, DegenerateSeries, EmptyOverlap, FormatError, ShapeError
from .intervals import Interval, IntervalSet
from .timeseries import STD_DDOF, BinaryMask

#: the 17 AUs with intensity regression in OpenFace 2.0 output.
AU_IDS: tuple[int, ...] = (1, 2, 4, 5, 6, 7, 9, 10, 12, 14, 15, 17, 20, 23, 25, 26, 45)

CONDITIONS: tuple[str, ...] = ("respectful", "contempt", "objective")
ROLES: tuple[str, ...] = ("sender", "receiver")

INTENSITY_MAX = 5.0


def au_column(au_id: int) -> str:
    """OpenFace intensity column name for an AU id, e.g. 6 -> ``AU06_r``."""
    return f"AU{au_id:02d}_r"


@dataclass(frozen=True, eq=False)
class AURecording:
    """Per-frame AU intensities and confidence for one participant in one condition.

    Stored columnar: ``frame_indices`` (strictly increasing), ``confidence``
    and one intensity array per AU, all of equal length.
    """

    participant_id: str
    condition: str
    role: str
    frame_indices: np.ndarray
    confidence: np.ndarray
    intensities: Mapping[int, np.ndarray]

    def __post_init__(self):
        frames = np.array(self.frame_indices, dtype=np.int64, copy=True)
        conf = np.clip(np.array(self.confidence, dtype=float, copy=True), 0.0, 1.0)
        if frames.ndim != 1 or conf.shape != frames.shape:
            raise ShapeError("frame index and confidence arrays must align")
        if len(frames) and np.any(np.diff(frames) <= 0):
            raise ShapeError("frame indices must be strictly increasing")
        if self.condition and self.condition not in CONDITIONS:
            raise ConfigError(f"unknown condition {self.condition!r}")
        if self.role and self.role not in ROLES:
            raise ConfigError(f"unknown role {self.role!r}")
        clean: dict[int, np.ndarray] = {}
        for au_id, vals in self.intensities.items():
            arr = np.clip(np.array(vals, dtype=float, copy=True), 0.0, INTENSITY_MAX)
            if arr.shape != frames.shape:
                raise ShapeError(f"AU{au_id:02d} intensity array misaligned")
            arr.setflags(write=False)
            clean[int(au_id)] = arr
        frames.setflags(write=False)
        conf.setflags(write=False)
        object.__setattr__(self, "frame_indices", frames)
        object.__setattr__(self, "confidence", conf)
        object.__setattr__(self, "intensities", clean)

    @property
    def n_frames(self) -> int:
        return len(self.frame_indices)

    @property
    def au_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.intensities))

    def is_contiguous(self) -> bool:
        if self.n_frames <= 1:
            return True
        return bool(np.all(np.diff(self.frame_indices) == 1))

    def restrict(self, keep: np.ndarray) -> "AURecording":
        """Recording limited to the rows selected by a boolean or index array."""
        return AURecording(
            self.participant_id,
            self.condition,
            self.role,
            self.frame_indices[keep],
            self.confidence[keep],
            {au: vals[keep] for au, vals in self.intensities.items()},
        )


@dataclass(frozen=True)
class AUBaseline:
    """Per-AU mean/std for one participant, pooled over the provided conditions."""

    participant_id: str
    mean: Mapping[int, float]
    std: Mapping[int, float]
    n_conditions: int

    @property
    def complete(self) -> bool:
        """True when all three conditions contributed."""
        return self.n_conditions >= len(CONDITIONS)


@dataclass(frozen=True)
class ExpressionDef:
    """Named facial expression defined by the set of AUs that must co-activate."""

    name: str
    au_ids: frozenset[int]

    def __post_init__(self):
        ids = frozenset(int(a) for a in self.au_ids)
        if not ids:
            raise ConfigError(f"expression {self.name!r} has no AUs")
        object.__setattr__(self, "au_ids", ids)

    def available_in(self, au_ids: Iterable[int]) -> bool:
        return self.au_ids <= set(au_ids)


#: default expression registry: upper (eye region) and lower (mouth region)
#: splits of the six basic emotions. Note anger_lower includes AU24, which has
#: no intensity regression in OpenFace output, so it cannot be computed from
#: standard recordings and is skipped by the batch driver.
EXPRESSIONS: tuple[ExpressionDef, ...] = (
    ExpressionDef("happiness_upper", frozenset({6})),
    ExpressionDef("happiness_lower", frozenset({12, 25})),
    ExpressionDef("surprise_upper", frozenset({1, 2, 5})),
    ExpressionDef("surprise_lower", frozenset({26})),
    ExpressionDef("disgust_lower", frozenset({9, 10, 25})),
    ExpressionDef("fear_upper", frozenset({1, 2, 4, 5})),
    ExpressionDef("fear_lower", frozenset({20, 25})),
    ExpressionDef("sadness_upper", frozenset({1, 4})),
    ExpressionDef("sadness_lower", frozenset({15, 17})),
    ExpressionDef("anger_upper", frozenset({4, 5, 7})),
    ExpressionDef("anger_lower", frozenset({17, 23, 24})),
)

EXPRESSIONS_BY_NAME: Mapping[str, ExpressionDef] = {e.name: e for e in EXPRESSIONS}


@dataclass(frozen=True)
class SyncedPair:
    """Sender and receiver recordings restricted to their shared usable frames."""

    sender: AURecording
    receiver: AURecording
    kept_frames: IntervalSet

    def __post_init__(self):
        if not np.array_equal(self.sender.frame_indices, self.receiver.frame_indices):
            raise ShapeError("synced recordings must share identical frame sets")


def parse_au_csv(
    path,
    participant_id: str = "",
    condition: str = "",
    role: str = "",
) -> AURecording:
    """Parse one OpenFace-style CSV into a recording.

    Required columns (whitespace around header names is tolerated): ``frame``,
    ``confidence``, and ``AUxx_r`` for each of the 17 regression AUs. Extra
    columns are ignored.
    """
    path = Path(path)
    try:
        with path.open(newline="") as fh:
            return _parse_au_stream(fh, str(path), participant_id, condition, role)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def parse_au_text(
    text: str,
    participant_id: str = "",
    condition: str = "",
    role: str = "",
) -> AURecording:
    """Like :func:`parse_au_csv` but from an in-memory CSV string."""
    return _parse_au_stream(io.StringIO(text), "<string>", participant_id, condition, role)


def _parse_au_stream(fh, source: str, participant_id, condition, role) -> AURecording:
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{source}: empty file") from None
    names = [h.strip() for h in header]
    required = ["frame", "confidence"] + [au_column(a) for a in AU_IDS]
    col_of: dict[str, int] = {}
    for name in required:
        if name not in names:
            raise FormatError(f"{source}: missing required column {name!r}")
        col_of[name] = names.index(name)

    frames, conf = [], []
    aus: dict[int, list[float]] = {a: [] for a in AU_IDS}
    for row_no, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            frames.append(int(float(row[col_of["frame"]])))
            conf.append(float(row[col_of["confidence"]]))
            for a in AU_IDS:
                aus[a].append(float(row[col_of[au_column(a)]]))
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{source}: bad value in row {row_no}: {exc}") from exc
    try:
        return AURecording(
            participant_id,
            condition,
            role,
            np.asarray(frames, dtype=np.int64),
            np.asarray(conf, dtype=float),
            {a: np.asarray(v, dtype=float) for a, v in aus.items()},
        )
    except ShapeError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def write_au_csv(path, rec: AURecording) -> None:
    """Write a recording in the CSV layout accepted by :func:`parse_au_csv`."""
    path = Path(path)
    cols = [au_column(a) for a in AU_IDS]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "confidence", *cols])
        for i in range(rec.n_frames):
            writer.writerow(
                [
                    int(rec.frame_indices[i]),
                    repr(float(rec.confidence[i])),
                    *(repr(float(rec.intensities[a][i])) for a in AU_IDS),
                ]
            )


def confidence_sync(s: AURecording, r: AURecording, threshold: float = 0.89) -> SyncedPair:
    """Drop every frame where either participant's confidence falls below threshold.

    Both recordings are restricted to the identical surviving frame set;
    ``kept_frames`` records the surviving runs, whose gaps act as hard
    boundaries for all downstream windowed analysis.
    """
    common, si, ri = np.intersect1d(
        s.frame_indices, r.frame_indices, assume_unique=True, return_indices=True
    )
    if common.size == 0:
        raise EmptyOverlap(
            f"{s.participant_id} and {r.participant_id} share no common frames"
        )
    keep = (s.confidence[si] >= threshold) & (r.confidence[ri] >= threshold)
    if not keep.any():
        raise EmptyOverlap("no frame passes the confidence threshold on both sides")
    s_kept = s.restrict(si[keep])
    r_kept = r.restrict(ri[keep])
    kept = common[keep]
    breaks = np.flatnonzero(np.diff(kept) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [kept.size - 1]))
    runs = IntervalSet(
        tuple(Interval(int(kept[a]), int(kept[b])) for a, b in zip(starts, ends))
    )
    return SyncedPair(s_kept, r_kept, runs)


def baseline_stats(recordings: Iterable[AURecording]) -> AUBaseline:
    """Per-AU mean and std pooled over all frames of all provided conditions.

    Meant to receive all three conditions of one participant; fewer are
    accepted (flagged via ``n_conditions``) so a missing file degrades
    gracefully.
    """
    recs = list(recordings)
    if not recs or sum(r.n_frames for r in recs) == 0:
        raise DegenerateSeries("baseline needs at least one frame")
    pid = recs[0].participant_id
    au_ids = recs[0].au_ids
    for rec in recs[1:]:
        if rec.participant_id != pid:
            raise ConfigError("baseline must pool conditions of a single participant")
        if rec.au_ids != au_ids:
            raise ConfigError("recordings carry different AU sets")
    mean: dict[int, float] = {}
    std: dict[int, float] = {}
    for a in au_ids:
        pooled = np.concatenate([rec.intensities[a] for rec in recs])
        mean[a] = float(pooled.mean())
        std[a] = float(pooled.std(ddof=STD_DDOF)) if pooled.size > 1 else 0.0
    return AUBaseline(pid, mean, std, n_conditions=len({r.condition for r in recs}))


def au_activation(
    rec: AURecording, base: AUBaseline, factor: float = 0.5
) -> dict[int, BinaryMask]:
    """Per-AU activation masks: frame k is active iff intensity >= mean + factor * std."""
    missing = set(rec.au_ids) - set(base.mean)
    if missing:
        raise ConfigError(f"baseline lacks AUs {sorted(missing)}")
    if not rec.is_contiguous():
        raise ShapeError("activation masks need a gap-free recording")
    start = int(rec.frame_indices[0]) if rec.n_frames else 0
    out = {}
    for a in rec.au_ids:
        threshold = base.mean[a] + factor * base.std[a]
        out[a] = BinaryMask(rec.intensities[a] >= threshold, start)
    return out


def expression_activation(act: Mapping[int, BinaryMask], expr: ExpressionDef) -> BinaryMask:
    """Frame-wise AND over the expression's member AU masks."""
    missing = expr.au_ids - set(act)
    if missing:
        raise ConfigError(f"{expr.name}: no activation mask for AUs {sorted(missing)}")
    masks = [act[a] for a in sorted(expr.au_ids)]
    first = masks[0]
    bits = first.bits.copy()
    for m in masks[1:]:
        if len(m) != len(first) or m.start_frame != first.start_frame:
            raise ShapeError(f"{expr.name}: AU masks are not frame-aligned")
        bits &= m.bits
    return BinaryMask(bits, first.start_frame)


def expression_signal(rec: AURecording, expr: ExpressionDef) -> np.ndarray:
    """Continuous expression trace: per-frame mean of the member AU intensities.

    The values align with ``rec.frame_indices``, so a synced recording's
    confidence gaps carry over unchanged.
    """
    missing = expr.au_ids - set(rec.au_ids)
    if missing:
        raise ConfigError(f"{expr.name}: recording lacks AUs {sorted(missing)}")
    return np.vstack([rec.intensities[a] for a in sorted(expr.au_ids)]).mean(axis=0)


def count_activations(mask: BinaryMask, video_len: int) -> float:
    """Active-frame count normalized by video length.

    The second normalization stage (dividing by the per-expression maximum
    across the cohort) happens at report time, where the whole cohort is
    known.
    """
    if video_len <= 0:
        raise ConfigError(f"video length must be positive, got {video_len}")
    return mask.count() / video_len
