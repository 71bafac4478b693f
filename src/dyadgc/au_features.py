"""Action-unit recordings: CSV ingestion, synchronization, and expression features.

Recordings are per-frame AU intensity traces (0-5 scale) with a per-frame
tracker confidence, one file per participant per condition, in the column
layout produced by OpenFace 2.0 (``frame``, ``confidence``, ``AUxx_r``).

From a recording we derive:

* per-participant AU baselines pooled over all of that participant's
  conditions,
* binary activation (intensity >= mean + factor * std per AU, AND-ed over
  an expression's member AUs),
* continuous expression signals (mean of member AU intensities) for the
  causal analysis.
"""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError, DegenerateSeries, EmptyOverlap, FormatError, ShapeError
from .intervals import Interval, IntervalSet
from .timeseries import STD_DDOF, runs

#: the 17 AUs with intensity regression in OpenFace 2.0 output.
AU_IDS: tuple[int, ...] = (1, 2, 4, 5, 6, 7, 9, 10, 12, 14, 15, 17, 20, 23, 25, 26, 45)

#: AU id -> its row in :attr:`AURecording.intensities` and :class:`AUBaseline`.
AU_ROW: Mapping[int, int] = {a: i for i, a in enumerate(AU_IDS)}

CONDITIONS: tuple[str, ...] = ("respectful", "contempt", "objective")
ROLES: tuple[str, ...] = ("sender", "receiver")

INTENSITY_MAX = 5.0


def au_column(au_id: int) -> str:
    """OpenFace intensity column name for an AU id, e.g. 6 -> ``AU06_r``."""
    return f"AU{au_id:02d}_r"


#: the CSV columns ingest reads, in the order of a parsed row.
_COLUMNS: tuple[str, ...] = ("frame", "confidence", *(au_column(a) for a in AU_IDS))


@dataclass(frozen=True, eq=False)
class AURecording:
    """Per-frame AU intensities and confidence for one participant in one condition.

    ``frame_indices`` (strictly increasing) and ``confidence`` have one entry
    per frame; ``intensities`` is a (17, n_frames) matrix whose row i holds
    AU ``AU_IDS[i]`` (see :data:`AU_ROW`).
    """

    participant_id: str
    condition: str
    role: str
    frame_indices: np.ndarray
    confidence: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        frames = np.array(self.frame_indices, dtype=np.int64, copy=True)
        conf = np.array(self.confidence, dtype=float, copy=True)
        # C order keeps every AU row contiguous, so row-wise reductions match 1-D ones
        intens = np.array(self.intensities, dtype=float, order="C", copy=True)
        if frames.ndim != 1 or conf.shape != frames.shape:
            raise ShapeError("frame index and confidence arrays must align")
        if intens.shape != (len(AU_IDS), len(frames)):
            raise ShapeError(f"intensities must be a {len(AU_IDS)} x n_frames matrix")
        if len(frames) and np.any(np.diff(frames) <= 0):
            raise ShapeError("frame indices must be strictly increasing")
        if self.condition and self.condition not in CONDITIONS:
            raise ConfigError(f"unknown condition {self.condition!r}")
        if self.role and self.role not in ROLES:
            raise ConfigError(f"unknown role {self.role!r}")
        # clipping would keep a NaN and turn an Inf into a bound, so refuse both first
        if not (np.isfinite(conf).all() and np.isfinite(intens).all()):
            raise ShapeError("confidence and intensities must be finite")
        np.clip(conf, 0.0, 1.0, out=conf)
        np.clip(intens, 0.0, INTENSITY_MAX, out=intens)
        for arr in (frames, conf, intens):
            arr.setflags(write=False)
        object.__setattr__(self, "frame_indices", frames)
        object.__setattr__(self, "confidence", conf)
        object.__setattr__(self, "intensities", intens)

    @property
    def n_frames(self) -> int:
        return len(self.frame_indices)

    def restrict(self, keep: np.ndarray) -> "AURecording":
        """Recording limited to the frames selected by a boolean or index array."""
        return AURecording(
            self.participant_id,
            self.condition,
            self.role,
            self.frame_indices[keep],
            self.confidence[keep],
            self.intensities[:, keep],
        )


@dataclass(frozen=True, eq=False)
class AUBaseline:
    """Per-AU mean/std (in :data:`AU_IDS` order) for one participant, pooled over conditions."""

    participant_id: str
    mean: np.ndarray
    std: np.ndarray
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
    columns are ignored. A value that does not parse, is NaN or infinite, or
    a frame outside int64 raises :class:`FormatError` naming the CSV row; a
    file that is not UTF-8 raises it naming the file.

    numpy's C reader parses the numbers. A file it refuses (a quoted cell, a
    whitespace-only or all-comma row, a spelling only ``float()`` accepts
    such as ``1_0``, an unusable value) is read again by the row-by-row
    parser, which gives the same recording or the error naming the row: the
    input decides the path, and the path never changes the result.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            table = _load_table(fh, str(path))
            if table is None:
                fh.seek(0)
                return _parse_au_stream(fh, str(path), participant_id, condition, role)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return _recording(table, str(path), participant_id, condition, role)


def _column_indices(reader, source: str) -> list[int]:
    """Read the header row; the position of each of :data:`_COLUMNS` in a row."""
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{source}: empty file") from None
    names = [h.strip() for h in header]
    for name in _COLUMNS:
        if name not in names:
            raise FormatError(f"{source}: missing required column {name!r}")
    return [names.index(name) for name in _COLUMNS]


def _unquoted(lines):
    # with a quote character about, only the csv module splits a row into the right cells
    for line in lines:
        if '"' in line:
            raise ValueError("quoted cell")
        yield line


def _load_table(fh, source: str) -> np.ndarray | None:
    """The (rows, 19) table of the :data:`_COLUMNS` values from numpy's C reader, or None.

    The header goes through ``csv.reader`` as in :func:`_parse_au_stream`, so
    the header errors are the same; the data rows stream from the same handle.
    None stands for any input only the row-by-row parser reads right or
    reports: a file without data rows (numpy warns on it), a quoted cell, a
    row numpy cannot read, or an unusable value.
    """
    usecols = _column_indices(csv.reader(fh), source)
    lines = _unquoted(fh)
    try:
        first = next((line for line in lines if line.strip("\r\n")), None)
        if first is None:
            return None
        table = np.loadtxt(
            itertools.chain((first,), lines),
            delimiter=",",
            comments=None,
            usecols=usecols,
            ndmin=2,
        )
    except ValueError:
        return None
    if table.shape[1] != len(_COLUMNS) or _unusable(table).any():
        return None
    return table


def _unusable(table: np.ndarray) -> np.ndarray:
    """Mask of the values ingest rejects: NaN or infinite, or a frame outside int64."""
    bad = ~np.isfinite(table)
    bad[:, 0] |= np.abs(table[:, 0]) >= 2.0**63
    return bad


def _parse_au_stream(fh, source: str, participant_id, condition, role) -> AURecording:
    """Row-by-row parser: the reference for :func:`parse_au_csv` and the owner of its errors."""
    reader = csv.reader(fh)
    pick = operator.itemgetter(*_column_indices(reader, source))

    # one flat list of floats: a list per row would hold a list object per frame
    values: list[float] = []
    blanks: list[int] = []  # number of rows read when each blank line was skipped
    for row_no, row in enumerate(reader, start=2):
        if not any(map(str.strip, row)):
            blanks.append(len(values) // len(_COLUMNS))
            continue
        try:
            values.extend(map(float, pick(row)))
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{source}: bad value in row {row_no}: {exc}") from exc
    table = np.array(values, dtype=float).reshape(-1, len(_COLUMNS))
    del values

    bad = _unusable(table)
    if bad.any():
        k, col = (int(i) for i in np.argwhere(bad)[0])
        row_no = k + 2 + sum(b <= k for b in blanks)
        raise FormatError(
            f"{source}: bad value in row {row_no}: {_COLUMNS[col]} is {float(table[k, col])}"
        )
    return _recording(table, source, participant_id, condition, role)


def _recording(table: np.ndarray, source: str, participant_id, condition, role) -> AURecording:
    try:
        return AURecording(
            participant_id,
            condition,
            role,
            table[:, 0].astype(np.int64),
            table[:, 1],
            table[:, 2:].T,
        )
    except ShapeError as exc:
        raise FormatError(f"{source}: {exc}") from exc


def write_au_csv(path, rec: AURecording) -> None:
    """Write a recording in the CSV layout accepted by :func:`parse_au_csv`."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for frame, conf, values in zip(
            rec.frame_indices.tolist(), rec.confidence.tolist(), rec.intensities.T.tolist()
        ):
            writer.writerow([frame, conf, *values])


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
    bits = np.zeros(kept[-1] - kept[0] + 1, dtype=bool)
    bits[kept - kept[0]] = True
    kept_runs = IntervalSet(tuple(Interval(a, b) for a, b in runs(bits, int(kept[0]))))
    return SyncedPair(s_kept, r_kept, kept_runs)


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
    if any(rec.participant_id != pid for rec in recs[1:]):
        raise ConfigError("baseline must pool conditions of a single participant")
    pooled = np.concatenate([rec.intensities for rec in recs], axis=1)
    if pooled.shape[1] > 1:
        std = pooled.std(axis=1, ddof=STD_DDOF)
    else:
        std = np.zeros(len(AU_IDS))
    return AUBaseline(
        pid, pooled.mean(axis=1), std, n_conditions=len({r.condition for r in recs})
    )


def au_activation(rec: AURecording, base: AUBaseline, factor: float = 0.5) -> np.ndarray:
    """Per-AU activation: frame k is active iff intensity >= mean + factor * std.

    A (17, span) bool matrix in :data:`AU_ROW` order whose columns run from
    the recording's first to last frame; missing frames are inactive.
    """
    frames = rec.frame_indices
    start = int(frames[0]) if rec.n_frames else 0
    active = np.zeros((len(AU_IDS), int(frames[-1]) + 1 - start if rec.n_frames else 0), bool)
    active[:, frames - start] = rec.intensities >= (base.mean + factor * base.std)[:, None]
    return active


def expression_activation(active: np.ndarray, expr: ExpressionDef) -> np.ndarray:
    """Frame-wise AND over the expression's member AU rows of :func:`au_activation`."""
    missing = expr.au_ids - set(AU_IDS)
    if missing:
        raise ConfigError(f"{expr.name}: no activation for AUs {sorted(missing)}")
    return active[[AU_ROW[a] for a in sorted(expr.au_ids)]].all(axis=0)


def expression_signal(rec: AURecording, expr: ExpressionDef) -> np.ndarray:
    """Continuous expression trace: per-frame mean of the member AU intensities.

    The values align with ``rec.frame_indices``, so a synced recording's
    confidence gaps carry over unchanged.
    """
    missing = expr.au_ids - set(AU_IDS)
    if missing:
        raise ConfigError(f"{expr.name}: OpenFace records no intensity for AUs {sorted(missing)}")
    return rec.intensities[[AU_ROW[a] for a in sorted(expr.au_ids)]].mean(axis=0)


def count_activations(active: np.ndarray, video_len: int) -> float:
    """Active-frame count normalized by video length (the frames present).

    The second normalization stage (dividing by the per-expression maximum
    across the cohort) happens at report time, where the whole cohort is
    known.
    """
    if video_len <= 0:
        raise ConfigError(f"video length must be positive, got {video_len}")
    return int(np.count_nonzero(active)) / video_len
