"""dyadgc benchmark: time the ``dyadgc pipeline`` path on a generated cohort.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload golden --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload long --seed 1 --seconds 30 --trace 1
    python3 perfbench/smoke.py          # seconds-long self-check at tiny sizes

The run builds the workload's cohort from ``--seed`` (see ``workloads.py``),
then starts one fresh interpreter per iteration (``child.py``), the way a user
starts ``dyadgc pipeline``: each measures set-up (import + manifest load),
then ``run_pipeline`` + ``emit_report`` with workers=1 and BLAS pinned to one
thread, and its own peak RSS. Iterations repeat until ``--seconds`` is spent,
with at least :data:`MIN_ITERATIONS`. ``pipeline_s`` is the fastest iteration
(other tenants of a shared host only ever slow a run down; see README.md),
set-up and memory are medians.

Every iteration's output is checked: the reported cells are the expected
ones, ``report.json`` and ``results.jsonl`` equal the first iteration's, and
on ``golden`` the published recipe (seed 20240501) reproduces
``tests/data/golden_report.{json,csv}`` byte for byte. Direction recall is
scored against the planted truth.

``--trace 1`` alternates untraced iterations with traced ones, which wrap the
public functions of each layer from this directory's ``tracer.py``, and
prints the per-layer metrics instead, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Every generated file
lives under ``.bench_build/`` in the checkout and is removed at exit.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child process: OpenBLAS's
# default of one thread per core makes select_order slower and noisier.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DATA = ROOT / "tests" / "data"
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

#: at least this many iterations per run, and this many traced ones in a traced run
MIN_ITERATIONS = 2
#: set-up is cheap and noisy, so it gets extra set-up-only interpreters.
MIN_SETUP_SAMPLES = 9
#: every child is stopped so that the whole run ends within this many seconds
RUN_BUDGET_S = 170.0
_STARTED = time.monotonic()

END_TO_END_UNITS = {
    "pipeline_s": "s",
    "frames_per_s": "frames/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "direction_accuracy": "ratio",
}


class CheckFailed(Exception):
    """An output check failed for one iteration."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="cohort size; 'smoke' is the tiny self-check size")
    return p.parse_args(argv)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(manifest: Path, spec: dict, work: Path, tag: str) -> dict:
    """Run one child interpreter; returns its measurements or raises CheckFailed."""
    spec = dict(spec, result=str(work / f"{tag}.result.json"))
    spec_path = work / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), str(manifest), str(spec_path)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, RUN_BUDGET_S - (time.monotonic() - _STARTED)),
    )
    if proc.returncode != 0:
        raise CheckFailed(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(Path(spec["result"]).read_text())


def read_cells(out_dir: Path) -> dict[tuple[str, str, str], dict]:
    cells = {}
    for line in (out_dir / "results.jsonl").read_text().splitlines():
        rec = json.loads(line)
        cells[(rec["pair_id"], rec["condition"], rec["expression"])] = rec
    return cells


def selected_outcome(rec: dict) -> str | None:
    """Interval-selected outcome of one cell; no intervals counts as 'none'."""
    if rec["sel_status"] == "no_intervals":
        return "none"
    if rec["sel_status"] == "ok":
        return rec["sel_result"]["outcome"]
    return None


def score(cells: dict, planted_outcome) -> dict[str, int]:
    """Interval-selected outcomes against the planted truth.

    ``correct`` counts every cell that reports its truth: the planted
    direction on a planted cell, ``none`` on any other.
    """
    tally = {"planted": 0, "hits": 0, "unplanted": 0, "false": 0, "correct": 0}
    for (_, condition, expression), rec in cells.items():
        truth = planted_outcome(condition, expression)
        got = selected_outcome(rec)
        tally["correct"] += got == (truth or "none")
        if truth is None:
            tally["unplanted"] += 1
            tally["false"] += got not in (None, "none")
        else:
            tally["planted"] += 1
            tally["hits"] += got == truth
    return tally


def check_golden(out_dir: Path) -> None:
    for name in ("report.json", "report.csv"):
        if (out_dir / name).read_bytes() != (GOLDEN_DATA / f"golden_{name}").read_bytes():
            raise CheckFailed(f"{name} differs from tests/data/golden_{name}")


class Checker:
    """Output checks shared by all iterations of one run."""

    def __init__(self, expected_cells: set):
        self.expected = expected_cells
        self.first: dict[str, bytes] | None = None
        self.cells: dict | None = None

    def check(self, out_dir: Path) -> None:
        cells = read_cells(out_dir)
        if set(cells) != self.expected:
            raise CheckFailed(
                f"reported cells differ from the cohort: {len(cells)} vs {len(self.expected)}"
            )
        json.loads((out_dir / "report.json").read_text())
        got = {name: (out_dir / name).read_bytes() for name in ("report.json", "results.jsonl")}
        if self.first is None:
            self.first, self.cells = got, cells
        elif got != self.first:
            raise CheckFailed("output differs from the first iteration's")


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dyadgc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark's own checkouts carry no .git, where the source fingerprint
    identifies the code instead."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "none (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
    }


def median(values):
    return statistics.median(values) if values else float("nan")


def run(args) -> int:
    if not (SRC / "dyadgc" / "__init__.py").is_file():
        print(f"error: no dyadgc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads as wl
    from dyadgc.config import AnalysisConfig

    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    size = workload.full if args.size == "full" else workload.smoke
    check_reference = args.workload == "golden" and args.size == "full"
    if check_reference and not (GOLDEN_DATA / "golden_report.json").is_file():
        print(f"error: golden report missing under {GOLDEN_DATA}", file=sys.stderr)
        return 2

    config = dict(workload.config, workers=1)
    expressions = AnalysisConfig(**config).expressions
    checker = Checker(wl.expected_cells(size, expressions))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        manifest = workload.builder(work / "cohort", args.seed, size)
        synth_s = time.perf_counter() - t0

        failures: list[str] = []
        attempted = 0
        setup, rss, walls, traced = [], [], [], []
        # warm-up: writes bytecode caches and pages the sources in; not measured
        run_child(manifest, {"setup_only": True}, work, "warmup")

        def iterate(tag: str, trace: bool, golden_bytes: bool) -> float:
            nonlocal attempted
            attempted += 1
            out_dir = work / tag
            t_start = time.perf_counter()
            try:
                res = run_child(
                    manifest, {"config": config, "out": str(out_dir), "trace": trace},
                    work, tag,
                )
                checker.check(out_dir)
                if golden_bytes:
                    check_golden(out_dir)
                if trace:
                    layers = res["layers"]
                    if layers["trace.self_sum_s"] > layers["trace.wall_s"] * (1 + 1e-9):
                        raise CheckFailed("traced self times exceed the traced wall time")
                    traced.append(res)
                else:
                    walls.append(res["pipeline_s"])
                    rss.append(res["peak_rss_mb"])
                setup.append(res["setup_s"])
            except (CheckFailed, OSError, ValueError, KeyError,
                    subprocess.TimeoutExpired) as exc:
                failures.append(f"{tag}: {exc}")
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            return time.perf_counter() - t_start

        if check_reference and args.seed != wl.GOLDEN_SEED:
            attempted += 1
            ref_manifest = wl.build_demo(work / "reference", wl.GOLDEN_SEED, size)
            ref_out = work / "reference-out"
            try:
                run_child(
                    ref_manifest, {"config": config, "out": str(ref_out), "trace": False},
                    work, "reference",
                )
                check_golden(ref_out)
            except (CheckFailed, OSError, subprocess.TimeoutExpired) as exc:
                failures.append(f"reference: {exc}")
        golden_bytes = check_reference and args.seed == wl.GOLDEN_SEED

        start = time.perf_counter()
        last = 0.0
        k = 0
        # traced runs alternate traced and untraced iterations, starting traced,
        # so that the counts of two traced iterations can be compared
        plan = (True, False) if args.trace else (False,)
        min_iters = 2 * MIN_ITERATIONS - 1 if args.trace else MIN_ITERATIONS
        while k < min_iters or time.perf_counter() - start + last <= args.seconds:
            last = iterate(f"iter{k:03d}", plan[k % len(plan)], golden_bytes)
            k += 1
            if failures and k >= min_iters:
                break
        while len(setup) < MIN_SETUP_SAMPLES and not failures:
            try:
                setup.append(run_child(manifest, {"setup_only": True}, work, "setup")["setup_s"])
            except (CheckFailed, OSError, subprocess.TimeoutExpired) as exc:
                failures.append(f"setup: {exc}")

        tally = score(checker.cells, wl.planted_outcome) if checker.cells else None
        pipeline_s = min(walls, default=float("nan"))
        if args.trace:
            metrics, units = layer_summary(traced, pipeline_s, synth_s, failures)
        else:
            metrics = {
                "pipeline_s": pipeline_s,
                "frames_per_s": wl.total_frames(size) / pipeline_s,
                "setup_s": median(setup),
                "peak_rss_mb": median(rss),
                "direction_accuracy": (
                    tally["correct"] / len(checker.cells) if checker.cells else 0.0
                ),
            }
            units = END_TO_END_UNITS
        print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
        print(f"workload {args.workload} ({args.size}): {size.n_pairs} pair(s) x "
              f"{size.length} frames, {wl.total_frames(size)} input frames, "
              f"cohort built in {synth_s:.2f} s")
        print(f"samples: {len(walls)} untraced and {len(traced)} traced pipeline runs, "
              f"{len(setup)} set-up runs")
        print("pipeline_s samples: " + " ".join(f"{w:.3f}" for w in walls))
        print("setup_s samples: " + " ".join(f"{s:.3f}" for s in setup))
        if tally:
            print(f"direction_recall {tally['hits'] / max(tally['planted'], 1):.4f} ratio "
                  f"({tally['hits']} of {tally['planted']} planted cells)")
            print(f"false_direction_rate {tally['false'] / max(tally['unplanted'], 1):.4f} "
                  f"ratio ({tally['false']} of {tally['unplanted']} non-planted cells)")
        print(f"error_rate {len(failures) / max(attempted, 1):.4f} ratio "
              f"({len(failures)} of {attempted} iterations failed)")
        for failure in failures:
            print(f"FAILED {failure}", file=sys.stderr)
        for name, value in metrics.items():
            print(f"  {name:34s} {value:14.6g} {units[name]}")
        correct = not failures and len(walls) >= 1 and (not args.trace or traced)
        print(json.dumps({
            "correct": bool(correct),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def layer_summary(traced: list[dict], pipeline_s: float, synth_s: float, failures: list):
    """Per-layer metrics: medians of the traced timings, counts that must repeat exactly."""
    from tracer import COUNT_METRICS

    layers = [r["layers"] for r in traced]
    metrics = {}
    for name in (layers[0] if layers else {}):
        values = [lay[name] for lay in layers]
        if name in COUNT_METRICS:
            if len(set(values)) > 1:
                failures.append(f"count {name} differs between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median(values)
    metrics["synth.cohort_s"] = synth_s
    fastest_traced = min((r["pipeline_s"] for r in traced), default=float("nan"))
    metrics["trace.overhead_ratio"] = fastest_traced / pipeline_s - 1.0
    return metrics, {name: layer_unit(name) for name in metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "rows/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
