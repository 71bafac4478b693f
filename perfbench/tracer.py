"""Per-layer spans and counters, recorded from outside the program.

The traced child process calls :func:`install` before running the pipeline.
It replaces public names with timing wrappers at the place where each caller
looks them up at call time: ``dyadgc.pipeline`` imports by name, so its
module attributes are wrapped, and the miner's per-shift call goes through
``dyadgc.intervals.correlated_intervals``. Nothing inside ``src/`` changes.

A span's self time is its duration minus the time covered by its child spans.
Every span belongs to the layer named before the dot, so the layers' self
times partition the root span exactly.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field

#: (module, attribute, span name). A layer is the part of the span name before the dot.
WRAPPED = (
    ("dyadgc.pipeline", "parse_au_csv", "au_features.parse"),
    ("dyadgc.pipeline", "confidence_sync", "au_features.sync"),
    ("dyadgc.pipeline", "baseline_stats", "au_features.occurrence"),
    ("dyadgc.pipeline", "au_activation", "au_features.occurrence"),
    ("dyadgc.pipeline", "expression_activation", "au_features.occurrence"),
    ("dyadgc.pipeline", "count_activations", "au_features.occurrence"),
    ("dyadgc.pipeline", "mine_shifted", "intervals.mine"),
    ("dyadgc.intervals", "correlated_intervals", "intervals.correlated"),
    ("dyadgc.pipeline", "postprocess", "intervals.postprocess"),
    ("dyadgc.pipeline", "intersect_sets", "intervals.postprocess"),
    ("dyadgc.pipeline", "longest_set", "intervals.postprocess"),
    ("dyadgc.pipeline", "select_order", "granger.select_order"),
    ("dyadgc.pipeline", "gc_test", "granger.gc_test"),
    ("dyadgc.pipeline", "average_gc", "granger.average"),
    ("dyadgc.pipeline", "condition_comparison", "stats.comparison"),
    ("dyadgc.pipeline", "_cell_task", "pipeline.task"),
    ("dyadgc.pipeline", "run_pipeline", "pipeline.run"),
    ("dyadgc.pipeline", "emit_report", "pipeline.emit"),
)

LAYERS = ("au_features", "intervals", "granger", "stats", "pipeline")


@dataclass
class _Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_time: float = 0.0


@dataclass
class Tracer:
    """Spans and counters of one traced pipeline run, kept in memory."""

    spans: list[_Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _mine_keys: set[bytes] = field(default_factory=set)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(_Span(name, time.perf_counter(), parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.end - span.start

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def observe(self, name: str, args, result) -> None:
        """Counters derived from a wrapped call's inputs and result."""
        if name == "au_features.parse":
            self.count("au_features.rows", result.n_frames)
        elif name == "intervals.mine":
            x, y, params = args
            key = hashlib.sha256()
            for arr in (x.values, y.values):
                key.update(arr.tobytes())
            key.update(repr((x.start_frame, y.start_frame, params)).encode())
            digest = key.digest()
            if digest in self._mine_keys:
                self.count("intervals.duplicate_mine_calls")
            self._mine_keys.add(digest)
        elif name == "intervals.correlated":
            l_min = args[2].l_min
            longest = max((iv.length for iv in result), default=None)
            self.count("intervals.levels_walked", 1 if longest is None else longest - l_min + 2)
        elif name == "granger.gc_test":
            self.count("granger.rows_fitted", result.n_effective)
        elif name == "stats.comparison":
            self.count("stats.tests", len(result))

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                self.count(name + ".calls")
            self.observe(name, args, result)
            return result

        return traced

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Self time summed per layer over every closed span."""
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            out[layer] += (s.end - s.start) - s.child_time
        return out


def install() -> Tracer:
    """Wrap every name in :data:`WRAPPED` and count TimeSeries constructions."""
    import importlib

    from dyadgc.timeseries import TimeSeries

    tracer = Tracer()
    for module_name, attr, span in WRAPPED:
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(getattr(module, attr), span))

    post_init = TimeSeries.__post_init__

    def counted_post_init(self):
        tracer.count("timeseries.series_built")
        post_init(self)

    TimeSeries.__post_init__ = counted_post_init
    return tracer


def layer_metrics(tracer: Tracer, root: str, result) -> dict[str, float]:
    """Per-layer metrics of one traced run; ``result`` is its PipelineResult."""
    c = tracer.counts
    total = lambda name: sum(tracer.durations(name))
    wall = total(root)
    parse_s = total("au_features.parse")
    tasks = tracer.durations("pipeline.task")
    mine_calls = c.get("intervals.mine.calls", 0)
    cells = result.cells
    gc_statuses = [
        status
        for cell in cells
        for status in (cell.full_status, cell.sel_status)
        if status not in ("skipped", "no_intervals")
    ]
    kept = sum(cell.kept_frames for cell in cells)
    metrics = {
        "au_features.parse_s": parse_s,
        "au_features.parse_rows_per_s": c.get("au_features.rows", 0) / parse_s,
        "au_features.sync_s": total("au_features.sync"),
        "au_features.occurrence_s": total("au_features.occurrence"),
        "intervals.mine_s": total("intervals.mine"),
        "intervals.correlated_s": total("intervals.correlated"),
        "intervals.correlated_calls": c.get("intervals.correlated.calls", 0),
        "intervals.levels_walked": c.get("intervals.levels_walked", 0),
        "intervals.duplicate_mine_ratio": (
            c.get("intervals.duplicate_mine_calls", 0) / mine_calls if mine_calls else 0.0
        ),
        "intervals.postprocess_s": total("intervals.postprocess"),
        "intervals.selected_ratio": (
            sum(cell.selected_frames for cell in cells) / kept if kept else 0.0
        ),
        "granger.select_order_s": total("granger.select_order"),
        "granger.select_order_calls": c.get("granger.select_order.calls", 0),
        "granger.gc_test_s": total("granger.gc_test"),
        "granger.gc_test_calls": c.get("granger.gc_test.calls", 0),
        "granger.rows_fitted": c.get("granger.rows_fitted", 0),
        "granger.failed_ratio": (
            sum(s in ("degenerate", "insufficient") for s in gc_statuses) / len(gc_statuses)
            if gc_statuses else 0.0
        ),
        "stats.comparison_s": total("stats.comparison"),
        "stats.tests": c.get("stats.tests", 0),
        "pipeline.task_s": sum(tasks),
        "pipeline.task_max_s": max(tasks, default=0.0),
        "pipeline.emit_s": total("pipeline.emit"),
        "pipeline.cells": len(cells),
        "timeseries.series_built": c.get("timeseries.series_built", 0),
        "trace.wall_s": wall,
        "trace.self_sum_s": sum(tracer.self_times().values()),
    }
    for layer, self_s in tracer.self_times().items():
        metrics[f"{layer}.self_share"] = self_s / wall
    return metrics


#: per-layer metrics that are counts; they must repeat exactly between runs.
COUNT_METRICS = (
    "intervals.correlated_calls",
    "intervals.levels_walked",
    "intervals.duplicate_mine_ratio",
    "intervals.selected_ratio",
    "granger.select_order_calls",
    "granger.gc_test_calls",
    "granger.rows_fitted",
    "granger.failed_ratio",
    "stats.tests",
    "pipeline.cells",
    "timeseries.series_built",
)
