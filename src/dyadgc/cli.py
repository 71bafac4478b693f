"""Batch command-line interface.

Subcommands: ``ingest`` (validate inputs), ``intervals`` (emit selected
intervals per cell), ``granger`` (GC records, full span or interval
selected), ``pipeline`` (end to end), ``synth`` (generate a demo cohort),
``report`` (re-emit tables from a saved report).

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import AnalysisConfig, load_config, with_overrides
from .errors import AnalysisError
from .pipeline import (
    Manifest,
    PipelineResult,
    emit_report,
    emit_tables,
    report_from_dict,
    report_to_dict,
    run_pipeline,
)
from .synth import make_demo_cohort

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

log = logging.getLogger("dyadgc")


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="flat key = value config file")
    p.add_argument("--alpha", type=float, help="significance level for the GC tests")
    p.add_argument("--beta", type=float, help="correlation threshold for interval mining")
    p.add_argument("--lmin", type=int, dest="l_min", help="minimum interval length (frames)")
    p.add_argument("--kernel", type=int, dest="median_kernel", help="median filter kernel")
    p.add_argument("--extension", type=int, help="frames added to each interval side")
    p.add_argument("--shifts", help="comma-separated shift grid, e.g. -12,-8,-4,0,4,8,12")
    p.add_argument("--confidence", type=float, help="per-frame confidence cutoff")
    p.add_argument("--mode", choices=("pooled", "averaged"), dest="gc_mode",
                   help="GC aggregation over selected intervals")
    p.add_argument("--signal-mode", choices=("expression_mean", "per_au"), dest="signal_mode")
    p.add_argument("--expressions", help="comma-separated expression names")
    p.add_argument("--m-max", type=int, dest="m_max", help="maximum VAR order")
    p.add_argument("--workers", type=int, help="parallel worker processes")


def _build_config(args) -> AnalysisConfig:
    cfg = load_config(args.config) if args.config else AnalysisConfig()
    overrides = {}
    for key in ("alpha", "beta", "l_min", "median_kernel", "extension", "confidence",
                "gc_mode", "signal_mode", "m_max", "workers"):
        overrides[key] = getattr(args, key, None)
    if getattr(args, "shifts", None):
        overrides["shifts"] = tuple(int(s) for s in args.shifts.split(","))
    if getattr(args, "expressions", None):
        overrides["expressions"] = tuple(
            e.strip() for e in args.expressions.split(",") if e.strip()
        )
    return with_overrides(cfg, **overrides)


def _cmd_ingest(args) -> int:
    manifest = Manifest.load(args.manifest)
    from .au_features import parse_au_csv

    n_frames = 0
    for row in manifest.rows:
        rec = parse_au_csv(row.path, f"{row.pair_id}-{row.role}", row.condition, row.role)
        n_frames += rec.n_frames
        idx = rec.frame_indices
        gaps = int((idx[1:] - idx[:-1] > 1).sum())
        note = f", {int(idx[-1] - idx[0]) + 1 - len(idx)} missing in {gaps} gap(s)" if gaps else ""
        print(f"ok {row.pair_id} {row.role} {row.condition}: {rec.n_frames} frames{note}")
    print(f"manifest valid: {len(manifest.rows)} recordings, {n_frames} frames total")
    return EXIT_OK


def _cmd_intervals(args) -> int:
    manifest = Manifest.load(args.manifest)
    config = _build_config(args)
    result = run_pipeline(manifest, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for cell in result.cells:
        path = out / f"{cell.pair_id}_{cell.condition}_{cell.expression}.tsv"
        path.write_text(cell.intervals.to_tsv())
        print(f"{path}: {len(cell.intervals)} intervals, {cell.selected_frames} frames")
    return EXIT_OK


def _cmd_granger(args) -> int:
    manifest = Manifest.load(args.manifest)
    config = _build_config(args)
    precomputed = None
    if args.intervals_dir:
        from .intervals import IntervalSet

        precomputed = {}
        for tsv in Path(args.intervals_dir).glob("*.tsv"):
            # {pair}_{condition}_{emotion}_{half}.tsv; expression = last two tokens
            tokens = tsv.stem.split("_")
            if len(tokens) < 4:
                continue
            key = ("_".join(tokens[:-3]), tokens[-3], "_".join(tokens[-2:]))
            precomputed[key] = IntervalSet.from_tsv(tsv.read_text())
    result = run_pipeline(manifest, config, precomputed_intervals=precomputed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "results.jsonl"
    side = "full" if args.full_span else "selected"
    with path.open("w") as fh:
        for c in result.cells:
            status = c.full_status if args.full_span else c.sel_status
            gc = c.full_result if args.full_span else c.sel_result
            outcome = c.full_outcome if args.full_span else c.sel_outcome
            fh.write(json.dumps({
                "pair_id": c.pair_id,
                "condition": c.condition,
                "expression": c.expression,
                "method": side,
                "status": status,
                "f_y_causes_x": None if gc is None else gc.f_y_causes_x,
                "p_y_causes_x": None if gc is None else gc.p_y_causes_x,
                "f_x_causes_y": None if gc is None else gc.f_x_causes_y,
                "p_x_causes_y": None if gc is None else gc.p_x_causes_y,
                "order": None if gc is None else gc.order,
                "n_effective": None if gc is None else gc.n_effective,
                "outcome": None if outcome is None else outcome.value,
            }, sort_keys=True) + "\n")
    print(f"wrote {path} ({side} span, {len(result.cells)} cells)")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    manifest = Manifest.load(args.manifest)
    config = _build_config(args)
    result = run_pipeline(manifest, config)
    if not result.cells:
        log.warning("empty manifest produced an empty report")
    written = emit_report(result, args.out)
    for rep in result.reports:
        for row in rep.rows:
            sel = row.interval_selected
            print(
                f"{rep.condition:11s} {row.expression:17s} "
                f"S->R {sel.s_gc_r:2d}  R->S {sel.r_gc_s:2d}  "
                f"bidir {sel.bidirectional:2d}  none {sel.none:2d}  (interval selected)"
            )
    print(f"wrote {len(written)} files under {args.out}")
    return EXIT_OK


def _cmd_synth(args) -> int:
    manifest = make_demo_cohort(
        args.out, n_pairs=args.pairs, length=args.length, seed=args.seed
    )
    print(f"wrote cohort manifest {manifest}")
    return EXIT_OK


def _cmd_report(args) -> int:
    data = json.loads(Path(args.results).read_text())
    reports, occurrence = report_from_dict(data)
    cfg_raw = {
        k: tuple(v) if isinstance(v, list) else v for k, v in data["config"].items()
    }
    result = PipelineResult(reports, (), occurrence, AnalysisConfig(**cfg_raw))
    written = emit_tables(result, args.out, formats=(args.format,))
    print(f"wrote {len(written)} files under {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dyadgc", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate a manifest and its CSVs")
    p.add_argument("--manifest", required=True, type=Path)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("intervals", help="emit selected interval sets per cell")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_intervals)

    p = sub.add_parser("granger", help="GC records on intervals or the full span")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--full-span", action="store_true",
                   help="report the full-span GC instead of the interval-selected one")
    p.add_argument("--intervals-dir", type=Path,
                   help="reuse interval sets from a previous 'intervals' run "
                        "(refused with --signal-mode per_au)")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_granger)

    p = sub.add_parser("pipeline", help="end-to-end batch analysis")
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("synth", help="generate a synthetic demo cohort")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--length", type=int, default=3000)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="re-emit tables from a saved report.json")
    p.add_argument("--results", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
