"""Manifest-driven batch analysis and report assembly.

The pair is the unit of work: one task per ``pair_id``, in sorted pair order,
on ``config.workers`` processes, so no process holds more than one pair's
recordings. Each command runs only the stages it needs; within a task:

1. :func:`read_recording` parses each of the pair's OpenFace CSVs;
2. ``_raw_counts`` counts expression activations against each participant's
   baseline (``pipeline`` only; the parent then normalizes the counts by the
   cohort maximum and compares conditions, Wilcoxon + BH);
3. per condition, both recordings are synchronized by tracker confidence
   (the surviving runs bound all windowed computation), then relevant
   intervals are mined per member AU over the shift grid, median filtered,
   extended and intersected across the expression's AUs (each AU once per
   pair and condition; ``_mine_task`` stops here);
4. :func:`analyze_pair_condition` runs the Granger tests on the selected
   segments and over the full kept span, on the signals as synced, each
   selection mined or written by an earlier run (the full span is the
   selection of all kept runs); in ``per_au`` mode each AU's two tests run
   in its mine pass and the expression votes over them;
5. the parent counts the outcomes into per-condition tables.

Cells that fail (degenerate fits, not enough samples) are recorded and
excluded from the table counts instead of aborting the batch; cells where no
correlated interval exists count as "none" (no co-activity means no causal
evidence).
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .au_features import (
    AU_IDS,
    AU_ROW,
    AURecording,
    CONDITIONS,
    EXPRESSIONS,
    EXPRESSIONS_BY_NAME,
    ROLES,
    SyncedPair,
    au_activation,
    baseline_stats,
    confidence_sync,
    count_activations,
    expression_activation,
    expression_signal,
    parse_au_csv,
)
from .config import AnalysisConfig
from .errors import (
    AnalysisError,
    ConfigError,
    EmptyOverlap,
    FormatError,
    InsufficientData,
    SingularDesign,
)
from .granger import Direction, GCTestResult, average_gc, cap_order, gc_test, select_order
from .intervals import (
    Interval,
    IntervalSet,
    intersect_sets,
    longest_set,
    mine_shifted,
    postprocess,
    segment_series,
)
from .stats import ComparisonRow, condition_comparison
from .timeseries import TimeSeries

log = logging.getLogger(__name__)

OUTCOME_KEYS = ("s_gc_r", "r_gc_s", "bidirectional", "none")

#: a written selection holds one set per expression, not the set of each member AU
_NO_GIVEN_PER_AU = "per_au mode tests each AU on its own mined selection; it takes no written one"

_OUTCOME_OF = {
    Direction.SENDER_CAUSES_RECEIVER: "s_gc_r",
    Direction.RECEIVER_CAUSES_SENDER: "r_gc_s",
    Direction.BIDIRECTIONAL: "bidirectional",
    Direction.NONE: "none",
}


@dataclass(frozen=True)
class ManifestRow:
    pair_id: str
    role: str
    condition: str
    path: Path


@dataclass(frozen=True)
class Manifest:
    """Index of recording files: one row per (pair, role, condition)."""

    rows: tuple[ManifestRow, ...]

    def __post_init__(self):
        roles: dict[tuple[str, str], set[str]] = {}  # in manifest order, so errors are too
        for row in self.rows:
            if row.role not in ROLES:
                raise FormatError(f"manifest: unknown role {row.role!r}")
            if row.condition not in CONDITIONS:
                raise FormatError(f"manifest: unknown condition {row.condition!r}")
            present = roles.setdefault((row.pair_id, row.condition), set())
            if row.role in present:
                raise FormatError(f"manifest: duplicate entry {(row.pair_id, row.role, row.condition)}")
            present.add(row.role)
        for (pair_id, condition), present in roles.items():
            if present != set(ROLES):
                raise FormatError(
                    f"manifest: pair {pair_id!r} condition {condition!r} needs both roles"
                )

    @classmethod
    def load(cls, path) -> "Manifest":
        """Read a UTF-8 manifest CSV; a leading byte-order mark is skipped."""
        path = Path(path)
        rows = []
        try:
            with path.open(newline="", encoding="utf-8-sig") as fh:
                reader = csv.DictReader(fh)
                required = ("pair_id", "role", "condition", "path")
                if reader.fieldnames is None or not set(required) <= set(reader.fieldnames):
                    raise FormatError(f"{path}: manifest needs columns {sorted(required)}")
                for rec in reader:
                    blank = [k for k in required if not (rec[k] or "").strip()]
                    if blank:
                        raise FormatError(
                            f"{path}: row {reader.line_num}: missing or blank {', '.join(blank)}"
                        )
                    csv_path = Path(rec["path"])
                    if not csv_path.is_absolute():
                        csv_path = path.parent / csv_path
                    ids = (rec[k].strip() for k in ("pair_id", "role", "condition"))
                    rows.append(ManifestRow(*ids, csv_path))
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        return cls(tuple(rows))

    def pair_ids(self) -> list[str]:
        return sorted({r.pair_id for r in self.rows})

    def rows_of(self, pair_id: str) -> tuple[ManifestRow, ...]:
        return tuple(r for r in self.rows if r.pair_id == pair_id)

    def conditions_of(self, pair_id: str) -> list[str]:
        return sorted({r.condition for r in self.rows_of(pair_id)})

    def pair_conditions(self) -> list[tuple[str, str]]:
        """Every listed (pair_id, condition), in the order the batch runs them."""
        return [(p, c) for p in self.pair_ids() for c in self.conditions_of(p)]


@dataclass(frozen=True)
class MethodCounts:
    """Pair counts per outcome for one analysis method."""

    s_gc_r: int = 0
    r_gc_s: int = 0
    bidirectional: int = 0
    none: int = 0

    def total(self) -> int:
        return self.s_gc_r + self.r_gc_s + self.bidirectional + self.none

    def dominant(self) -> str:
        """Which unidirectional count leads; empty string on a tie."""
        return _dominant(self.s_gc_r, self.r_gc_s)


def _dominant(s_gc_r: float, r_gc_s: float) -> str:
    """The dominant-direction rule, for counts and for average counts alike."""
    if s_gc_r > r_gc_s:
        return "s_gc_r"
    if r_gc_s > s_gc_r:
        return "r_gc_s"
    return ""


@dataclass(frozen=True)
class ExpressionRow:
    expression: str
    full_span: MethodCounts
    interval_selected: MethodCounts


@dataclass(frozen=True)
class ConditionReport:
    """Per-expression outcome counts for one condition, both methods side by side."""

    condition: str
    rows: tuple[ExpressionRow, ...]

    def averages(self) -> dict[str, dict[str, float]]:
        """Average count per outcome across expressions, per method."""
        out: dict[str, dict[str, float]] = {}
        n = max(len(self.rows), 1)
        for method in ("full_span", "interval_selected"):
            agg = {k: 0 for k in OUTCOME_KEYS}
            for row in self.rows:
                counts = getattr(row, method)
                for k in OUTCOME_KEYS:
                    agg[k] += getattr(counts, k)
            out[method] = {k: agg[k] / n for k in OUTCOME_KEYS}
        return out


@dataclass(frozen=True)
class CellRecord:
    """Everything computed for one (pair, condition, expression) cell."""

    pair_id: str
    condition: str
    expression: str
    full_status: str  # ok | degenerate | insufficient | skipped
    sel_status: str  # ok | no_intervals | degenerate | insufficient | skipped
    full_result: GCTestResult | None  # None for per_au cells, which vote
    sel_result: GCTestResult | None
    full_outcome: Direction | None  # set exactly when the status is ok
    sel_outcome: Direction | None
    intervals: IntervalSet
    selected_frames: int
    kept_frames: int
    note: str = ""


@dataclass(frozen=True)
class PipelineResult:
    reports: tuple[ConditionReport, ...]
    cells: tuple[CellRecord, ...]
    occurrence: tuple[ComparisonRow, ...]
    config: AnalysisConfig


# ---------------------------------------------------------------------------
# per-cell analysis


def _mine_au(pair: SyncedPair, s: np.ndarray, r: np.ndarray, params) -> IntervalSet:
    """One AU's selection: mine every kept run over the shift grid, then postprocess."""
    frames = pair.frames
    candidates: list[Interval] = []
    for iv, (xs, ys) in zip(pair.kept_frames, segment_series(frames, s, r, pair.kept_frames)):
        if len(xs) >= params.l_min:
            candidates.extend(mine_shifted(TimeSeries(xs, iv.start), TimeSeries(ys, iv.start), params))
    mined = longest_set(candidates)  # runs are disjoint; this just re-sorts
    return postprocess(mined, params, int(frames[-1] - frames[0]) + 1, int(frames[0]))


def _run_gc(segments, config: AnalysisConfig) -> tuple[str, GCTestResult | None]:
    """One Granger analysis over aligned (x, y) array segments; returns (status, result).

    Each segment is demeaned first: the autoregressions carry no intercept,
    and a selected interval sits on an elevated activation level, so leaving
    the segment mean in would let cross-lags soak up the constant and fake
    bidirectional causality.
    """
    segs_x = [x - x.mean() for x, _ in segments]
    segs_y = [y - y.mean() for _, y in segments]
    lengths = [len(x) for x, _ in segments]
    try:
        m_max = cap_order(lengths, config.m_max)
        order = select_order(segs_x, segs_y, m_max, config.order_criterion)
        if config.gc_mode == "averaged":
            per, weights = [], []
            for sx, sy, ln in zip(segs_x, segs_y, lengths):
                try:  # a segment too short for its own F test is left out
                    per.append(gc_test([sx], [sy], order, config.alpha))
                    weights.append(ln)
                except (SingularDesign, InsufficientData):
                    continue
            if not per:
                return "insufficient", None
            return "ok", average_gc(per, weights)
        return "ok", gc_test(segs_x, segs_y, order, config.alpha)
    except SingularDesign as exc:
        log.debug("degenerate fit: %s", exc)
        return "degenerate", None
    except InsufficientData as exc:
        log.debug("insufficient data: %s", exc)
        return "insufficient", None


def _test_selected(pair: SyncedPair, s, r, selection: IntervalSet, config: AnalysisConfig):
    """Interval-selected (status, result) for one sender/receiver signal, as synced.

    The selection is clipped to the kept runs, so a confidence gap always
    splits a selected interval. With ``pair.kept_frames`` as the selection
    this is the full-span test. Nothing is rescaled: the F tests and the
    order choice are unchanged by a positive affine map of either signal,
    and :func:`_run_gc` demeans each segment.
    """
    if len(selection) == 0:
        return "no_intervals", None
    cut = intersect_sets([selection, pair.kept_frames])
    return _run_gc(segment_series(pair.frames, s, r, cut), config)


def _majority(outcomes: list[Direction]) -> Direction:
    counts = {d: 0 for d in Direction}
    for o in outcomes:
        counts[o] += 1
    best = max(counts.values())
    leaders = [d for d in Direction if counts[d] == best]
    return leaders[0] if len(leaders) == 1 else Direction.NONE


def _vote(tests) -> tuple[str, Direction | None, int]:
    """Majority outcome over member-AU (status, result) pairs, and the vote count.

    An AU without intervals votes "none", unless no AU has any: then the cell
    has ``no_intervals``. With no vote the cell is ``insufficient`` when every
    AU test was, else ``degenerate``.
    """
    if all(status == "no_intervals" for status, _ in tests):
        return "no_intervals", None, 0
    votes = [
        result.outcome if status == "ok" else Direction.NONE
        for status, result in tests
        if status in ("ok", "no_intervals")
    ]
    if not votes:
        failed = all(status == "insufficient" for status, _ in tests)
        return ("insufficient" if failed else "degenerate"), None, 0
    return "ok", _majority(votes), len(votes)


def _expressions(config: AnalysisConfig):
    return [EXPRESSIONS_BY_NAME[name] for name in config.expressions]


def _mine(pair: SyncedPair, config: AnalysisConfig, with_tests: bool):
    """Mine stage: each computable expression's selection, the intersection of its AUs'.

    Each distinct member AU is mined once, from its own runs. ``with_tests``
    (``per_au`` mode) also runs the AU's full-span test and its test on its
    own selection there, on the same runs. Returns the selections by
    expression name and the AU tests by AU id.
    """
    exprs = [e for e in _expressions(config) if e.available_in(AU_IDS)]
    params = config.interval_params()
    mined: dict[int, IntervalSet] = {}
    au_tests: dict[int, tuple] = {}
    for au in sorted({au for e in exprs for au in e.au_ids}):
        s, r = pair.sender[AU_ROW[au]], pair.receiver[AU_ROW[au]]
        mined[au] = _mine_au(pair, s, r, params)
        if with_tests:
            au_tests[au] = (
                _test_selected(pair, s, r, pair.kept_frames, config),
                _test_selected(pair, s, r, mined[au], config),
            )
    selections = {e.name: intersect_sets([mined[au] for au in sorted(e.au_ids)]) for e in exprs}
    return selections, au_tests


def _skipped(pair_id, condition, expression, kept, note) -> CellRecord:
    return CellRecord(
        pair_id, condition, expression, "skipped", "skipped", None, None, None, None,
        IntervalSet(), 0, kept, note=note,
    )


def analyze_pair_condition(
    pair_id: str,
    condition: str,
    sender: AURecording,
    receiver: AURecording,
    config: AnalysisConfig,
    selections: dict[str, IntervalSet] | None = None,
) -> list[CellRecord]:
    """All expression cells of ``pair_id`` in ``condition``, from its two recordings.

    Each expression's selection is mined here, unless ``selections`` gives
    every one of them (as :func:`read_selections` reads them back). In
    ``per_au`` signal mode each member AU is tested on its own intervals and
    the cell reports the majority outcome; a given selection holds one set
    per expression, not one per AU, so ``per_au`` refuses it.
    """
    per_au_mode = config.signal_mode == "per_au"
    if per_au_mode and selections is not None:
        raise ConfigError(_NO_GIVEN_PER_AU)
    try:
        pair = confidence_sync(sender, receiver, config.confidence)
    except EmptyOverlap as exc:
        return [_skipped(pair_id, condition, name, 0, str(exc)) for name in config.expressions]
    kept = pair.kept_frames.total_length()
    if selections is None:
        selections, au_tests = _mine(pair, config, with_tests=per_au_mode)

    # test stage: each expression on its selection, by vote or on its mean signal
    cells = []
    for expr in _expressions(config):
        if not expr.available_in(AU_IDS):
            note = "member AUs not present in recording"
            cells.append(_skipped(pair_id, condition, expr.name, kept, note))
            continue
        selection = selections[expr.name]
        note = ""
        if per_au_mode:
            aus = sorted(expr.au_ids)
            full_status, full_outcome, n_full = _vote([au_tests[au][0] for au in aus])
            sel_status, sel_outcome, n_sel = _vote([au_tests[au][1] for au in aus])
            full_result = sel_result = None
            note = f"per_au majority over {n_full} full / {n_sel} selected AU tests"
        else:
            s, r = expression_signal(pair.sender, expr), expression_signal(pair.receiver, expr)
            full_status, full_result = _test_selected(pair, s, r, pair.kept_frames, config)
            sel_status, sel_result = _test_selected(pair, s, r, selection, config)
            full_outcome = None if full_result is None else full_result.outcome
            sel_outcome = None if sel_result is None else sel_result.outcome
        cells.append(
            CellRecord(
                pair_id, condition, expr.name, full_status, sel_status, full_result, sel_result,
                full_outcome, sel_outcome, selection, selection.total_length(), kept,
                note=note,
            )
        )
    return cells


# ---------------------------------------------------------------------------
# batch stages: one task per pair, which reads that pair's files itself


def read_recording(path) -> AURecording:
    """One recording file as :func:`parse_au_csv` reads it; a file with no
    frames raises :class:`FormatError` naming it."""
    rec = parse_au_csv(path)
    if rec.n_frames == 0:
        raise FormatError(f"{path}: no frames")
    return rec


def _read_pair(rows) -> dict[tuple[str, str], AURecording]:
    """One pair's recordings by (role, condition), read in manifest order."""
    return {(row.role, row.condition): read_recording(row.path) for row in rows}


def _conditions(recordings) -> list[str]:
    return sorted({condition for _, condition in recordings})


def _per_pair(task, manifest: Manifest, config: AnalysisConfig, extra=lambda pair_id: ()) -> list:
    """``task`` on each (pair_id, its manifest rows, config, *extra(pair_id)),
    in pair order, on ``config.workers`` processes.

    A task reads its own pair's files, so no process holds more than one
    pair's recordings, and a bad file raises from the first pair, in pair
    order, that has one; after it fails, no further pair starts.
    """
    pair_ids = manifest.pair_ids()
    if not pair_ids:
        log.warning("empty manifest: nothing to analyze")
    args = [(p, manifest.rows_of(p), config, *extra(p)) for p in pair_ids]
    if config.workers > 1 and len(args) > 1:
        # imported here, so a one-process run does not pay for the pool
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        workers = min(config.workers, len(args))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # One task per worker at a time: the pool starts whatever it has
            # queued, so after a failure only unsent pairs can be spared.
            futures, running = [], set()
            for a in args:
                if len(running) == workers:
                    done, running = wait(running, return_when=FIRST_COMPLETED)
                    if any(f.exception() for f in done):
                        break
                futures.append(pool.submit(task, a))
                running.add(futures[-1])
            return [f.result() for f in futures]
    return [task(a) for a in args]


def _mine_condition(sender, receiver, config) -> dict[str, IntervalSet]:
    """One condition's selection per expression, empty for a skipped one; no test."""
    selections = {name: IntervalSet() for name in config.expressions}
    try:
        pair = confidence_sync(sender, receiver, config.confidence)
    except EmptyOverlap:
        return selections
    return {**selections, **_mine(pair, config, with_tests=False)[0]}


def _mine_task(args) -> dict[str, dict[str, IntervalSet]]:
    """Mine-only task: one pair's selections, by condition and then expression."""
    _, rows, config = args
    recs = _read_pair(rows)
    return {
        c: _mine_condition(recs["sender", c], recs["receiver", c], config)
        for c in _conditions(recs)
    }


def _cell_task(args) -> tuple[list[CellRecord], dict]:
    """One pair's cells, condition by condition, and, when ``occurrence`` is
    set, its participants' raw activation counts (else an empty dict)."""
    pair_id, rows, config, selections, occurrence = args
    recs = _read_pair(rows)
    raw = _raw_counts(pair_id, recs, config) if occurrence else {}
    cells = [
        cell
        for c in _conditions(recs)
        for cell in analyze_pair_condition(
            pair_id, c, recs["sender", c], recs["receiver", c], config,
            None if selections is None else selections[c],
        )
    ]
    return cells, raw


def mine_selections(manifest, config) -> dict[str, dict[str, dict[str, IntervalSet]]]:
    """Every cell's selection, by pair_id, condition and then expression."""
    return dict(zip(manifest.pair_ids(), _per_pair(_mine_task, manifest, config)))


def _analyze(manifest, config, selections, occurrence: bool):
    """Every cell, and with ``occurrence`` every participant's raw counts."""
    if selections is not None and config.signal_mode == "per_au":
        raise ConfigError(_NO_GIVEN_PER_AU)  # before any file is read
    per_task = _per_pair(
        _cell_task, manifest, config,
        lambda p: (None if selections is None else selections[p], occurrence),
    )
    cells = tuple(cell for group, _ in per_task for cell in group)
    return cells, {k: v for _, raw in per_task for k, v in raw.items()}


def analyze_cells(manifest, config, selections=None) -> tuple[CellRecord, ...]:
    """Every cell, tested on its mined selection or on its entry of ``selections``."""
    return _analyze(manifest, config, selections, occurrence=False)[0]


def run_pipeline(manifest: Manifest, config: AnalysisConfig) -> PipelineResult:
    """Execute the full batch and assemble the report."""
    cells, raw = _analyze(manifest, config, None, occurrence=True)
    return PipelineResult(_assemble_reports(cells), cells, _occurrence_rows(raw, config), config)


def selection_path(directory, pair_id: str, condition: str, expression: str) -> Path:
    """The TSV a cell's selection is written to and read back from."""
    return Path(directory) / f"{pair_id}_{condition}_{expression}.tsv"


def read_selections(directory, manifest, config) -> dict[str, dict[str, dict[str, IntervalSet]]]:
    """Every cell's written selection, in :func:`mine_selections`' shape.

    Each cell needs its own UTF-8 file (a leading byte-order mark is
    skipped); a missing, malformed or undecodable one is a
    :class:`FormatError` naming it. Other files are never read.
    """
    out: dict[str, dict[str, dict[str, IntervalSet]]] = {}
    for pair_id, condition in manifest.pair_conditions():
        per_expr = out.setdefault(pair_id, {})[condition] = {}
        for name in config.expressions:
            path = selection_path(directory, pair_id, condition, name)
            try:
                per_expr[name] = IntervalSet.from_tsv(path.read_text(encoding="utf-8-sig"))
            except OSError as exc:
                raise FormatError(f"{path}: cannot read interval selection: {exc.strerror}") from exc
            except (AnalysisError, UnicodeDecodeError) as exc:
                raise FormatError(f"{path}: {exc}") from exc
    return out


def _raw_counts(pair_id, recs, config) -> dict[str, dict[str, dict[str, float]]]:
    """Activation counts per participant, condition and expression, before
    the cohort normalization. Each participant's baseline pools the
    conditions the manifest lists for it."""
    conditions = _conditions(recs)
    computable = [e for e in EXPRESSIONS if e.available_in(AU_IDS)]
    raw = {}
    for role in sorted(ROLES):
        own = [recs[role, c] for c in conditions]
        base = baseline_stats(own)
        if not base.complete:
            log.warning(
                "%s-%s: baseline pooled over %d condition(s) only",
                pair_id, role, base.n_conditions,
            )
        per = raw[f"{pair_id}-{role}"] = {}
        for cond, rec in zip(conditions, own):
            active = au_activation(rec, base, config.activation_factor)
            per[cond] = {
                expr.name: count_activations(expression_activation(active, expr), rec.n_frames)
                for expr in computable
            }
    return raw


def _occurrence_rows(raw, config) -> tuple[ComparisonRow, ...]:
    """Each expression's raw counts normalized by its cohort maximum, then Wilcoxon + BH."""
    counts = [cond for per in raw.values() for cond in per.values()]
    for name in {name for cond in counts for name in cond}:
        top = max(cond[name] for cond in counts)
        if top > 0:
            for cond in counts:
                cond[name] = cond[name] / top
    if len(raw) < 2:
        return ()
    return tuple(condition_comparison(raw, q=config.fdr_q))


def _assemble_reports(cells) -> tuple[ConditionReport, ...]:
    conditions = sorted({c.condition for c in cells})
    reports = []
    for condition in conditions:
        expressions = sorted({c.expression for c in cells if c.condition == condition})
        rows = []
        for expression in expressions:
            sub = [c for c in cells if (c.condition, c.expression) == (condition, expression)]
            full = {k: 0 for k in OUTCOME_KEYS}
            sel = {k: 0 for k in OUTCOME_KEYS}
            for c in sub:
                if c.full_status == "ok":
                    full[_OUTCOME_OF[c.full_outcome]] += 1
                if c.sel_status == "ok":
                    sel[_OUTCOME_OF[c.sel_outcome]] += 1
                elif c.sel_status == "no_intervals":
                    sel["none"] += 1
            rows.append(ExpressionRow(expression, MethodCounts(**full), MethodCounts(**sel)))
        reports.append(ConditionReport(condition, tuple(rows)))
    return tuple(reports)


# ---------------------------------------------------------------------------
# serialization


def _gc_dict(r: GCTestResult | None, outcome: Direction | None):
    """A cell's test record; a per_au cell, which only votes, records just its outcome."""
    if r is None:
        return None if outcome is None else {"outcome": outcome.value}
    return dict(asdict(r), outcome=r.outcome.value)


def report_to_dict(result: PipelineResult) -> dict:
    return {
        "config": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(result.config).items()
        },
        "conditions": [
            {
                "condition": rep.condition,
                "rows": [
                    {
                        "expression": row.expression,
                        "full_span": asdict(row.full_span),
                        "interval_selected": asdict(row.interval_selected),
                    }
                    for row in rep.rows
                ],
                "average": rep.averages(),
            }
            for rep in result.reports
        ],
        "occurrence": [asdict(r) for r in result.occurrence],
    }


def report_from_dict(data: dict) -> PipelineResult:
    """The result :func:`report_to_dict` encoded, without its per-cell records."""
    reports = tuple(
        ConditionReport(
            entry["condition"],
            tuple(
                ExpressionRow(
                    row["expression"],
                    MethodCounts(**row["full_span"]),
                    MethodCounts(**row["interval_selected"]),
                )
                for row in entry["rows"]
            ),
        )
        for entry in data["conditions"]
    )
    occurrence = tuple(ComparisonRow(**r) for r in data["occurrence"])
    config = AnalysisConfig(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in data["config"].items()}
    )
    return PipelineResult(reports, (), occurrence, config)


def emit_tables(result: PipelineResult, out_dir) -> list[Path]:
    """Write ``report.json``, ``report.csv`` and ``occurrence.csv``; returns their paths.

    ``report.json`` round-trips the report and its config; ``report.csv``
    mirrors the per-condition tables with a dominant-direction flag per
    method; ``occurrence.csv`` is the Wilcoxon/BH table. Per-cell files are
    left alone, so a saved report can be re-emitted into its own run directory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / name for name in ("report.json", "report.csv", "occurrence.csv")]
    json_path, csv_path, occ_path = written
    json_path.write_text(json.dumps(report_to_dict(result), indent=2, sort_keys=True) + "\n")

    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["condition", "expression"]
        for method in ("full_span", "interval_selected"):
            header += [f"{method}_{k}" for k in OUTCOME_KEYS] + [f"{method}_dominant"]
        writer.writerow(header)
        for rep in result.reports:
            for row in rep.rows:
                record = [rep.condition, row.expression]
                for counts in (row.full_span, row.interval_selected):
                    record += [getattr(counts, k) for k in OUTCOME_KEYS]
                    record.append(counts.dominant())
                writer.writerow(record)
            avg = rep.averages()
            record = [rep.condition, "average"]
            for method in ("full_span", "interval_selected"):
                vals = avg[method]
                record += [repr(vals[k]) for k in OUTCOME_KEYS]
                record.append(_dominant(vals["s_gc_r"], vals["r_gc_s"]))
            writer.writerow(record)

    with occ_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["expression", "condition_a", "condition_b", "p_value", "w_statistic",
             "significant_after_bh"]
        )
        for row in result.occurrence:
            writer.writerow(
                [row.expression, row.condition_a, row.condition_b,
                 repr(row.p_value), repr(row.w_statistic), row.significant_after_bh]
            )
    return written


def write_results(cells, out_dir) -> Path:
    """Write ``results.jsonl``, one record per cell with both its tests; returns its path.

    Each record carries the full-span and the interval-selected test side by
    side (``full_status``/``full_result``, ``sel_status``/``sel_result``) and
    the cell's selected intervals.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "results.jsonl"
    with path.open("w") as fh:
        for c in cells:
            record = {
                "pair_id": c.pair_id, "condition": c.condition, "expression": c.expression,
                "full_status": c.full_status, "sel_status": c.sel_status,
                "full_result": _gc_dict(c.full_result, c.full_outcome),
                "sel_result": _gc_dict(c.sel_result, c.sel_outcome),
                "selected_frames": c.selected_frames, "kept_frames": c.kept_frames,
                "intervals": [[iv.start, iv.end, iv.shift] for iv in c.intervals],
                "note": c.note,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def emit_report(result: PipelineResult, out_dir) -> list[Path]:
    """Write the report tables and the per-cell files; returns the paths written.

    Besides :func:`emit_tables`' files, it writes :func:`write_results`'
    ``results.jsonl`` and, in ``intervals/``, each cell's selected intervals.
    """
    out_dir = Path(out_dir)
    written = emit_tables(result, out_dir)
    written.append(write_results(result.cells, out_dir))

    ivdir = out_dir / "intervals"
    ivdir.mkdir(exist_ok=True)
    for c in result.cells:
        p = selection_path(ivdir, c.pair_id, c.condition, c.expression)
        p.write_text(c.intervals.to_tsv())
        written.append(p)
    return written
