"""Batch command-line interface.

Subcommands: ``ingest`` (validate inputs), ``intervals`` (mine and emit the
selected intervals per cell), ``granger`` (``pipeline``'s ``results.jsonl``,
full-span and interval-selected tests per cell, on mined or written
intervals), ``pipeline`` (every stage, end to end), ``synth`` (generate a demo
cohort), ``report`` (re-emit the three report tables from a saved
``report.json``). Every config flag is parsed as its config-file key is.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .config import AnalysisConfig, load_config, parse_value, with_overrides
from .errors import AnalysisError, FormatError
from .pipeline import (
    Manifest,
    analyze_cells,
    emit_report,
    emit_tables,
    mine_selections,
    read_recording,
    read_selections,
    report_from_dict,
    run_pipeline,
    selection_path,
    write_results,
)
from .synth import make_demo_cohort

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant using exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_analysis_command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """A subcommand that analyzes a manifest into ``--out``, with every config flag."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=func)
    p.add_argument("--manifest", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--config", type=Path, help="flat key = value config file")
    p.add_argument("--alpha", help="significance level for the GC tests")
    p.add_argument("--beta", help="correlation threshold for interval mining")
    p.add_argument("--lmin", dest="l_min", help="minimum interval length (frames)")
    p.add_argument("--kernel", dest="median_kernel", help="median filter kernel")
    p.add_argument("--extension", help="frames added to each interval side")
    p.add_argument("--shifts", help="comma-separated shift grid, e.g. --shifts=-12,-8,-4,0,4,8,12")
    p.add_argument("--confidence", help="per-frame confidence cutoff")
    p.add_argument("--mode", dest="gc_mode",
                   help="GC aggregation over selected intervals: pooled or averaged")
    p.add_argument("--signal-mode", dest="signal_mode", help="expression_mean or per_au")
    p.add_argument("--expressions", help="comma-separated expression names")
    p.add_argument("--m-max", dest="m_max", help="maximum VAR order")
    p.add_argument("--workers", help="parallel worker processes")
    return p


def _build_config(args) -> AnalysisConfig:
    """The config file (or the defaults) with every given flag on top."""
    cfg = load_config(args.config) if args.config else AnalysisConfig()
    overrides = {}
    for f in fields(AnalysisConfig):
        value = getattr(args, f.name, None)
        overrides[f.name] = parse_value(f.name, value) if isinstance(value, str) else value
    return with_overrides(cfg, **overrides)


def _cmd_ingest(args) -> int:
    manifest = Manifest.load(args.manifest)
    n_frames = 0
    for row in manifest.rows:
        rec = read_recording(row.path)
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
    selections = mine_selections(manifest, config)
    args.out.mkdir(parents=True, exist_ok=True)
    for pair_id, per_condition in selections.items():
        for condition, per_expr in per_condition.items():
            for expression, selection in per_expr.items():
                path = selection_path(args.out, pair_id, condition, expression)
                path.write_text(selection.to_tsv())
                print(f"{path}: {len(selection)} intervals, {selection.total_length()} frames")
    return EXIT_OK


def _cmd_granger(args) -> int:
    manifest = Manifest.load(args.manifest)
    config = _build_config(args)
    selections = None
    if args.intervals_dir:
        selections = read_selections(args.intervals_dir, manifest, config)
    cells = analyze_cells(manifest, config, selections)
    print(f"wrote {write_results(cells, args.out)} ({len(cells)} cells)")
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    manifest = Manifest.load(args.manifest)
    config = _build_config(args)
    result = run_pipeline(manifest, config)
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
    if args.pairs < 1:
        print(f"dyadgc synth: error: --pairs must be at least 1, got {args.pairs}", file=sys.stderr)
        return EXIT_USAGE
    manifest = make_demo_cohort(
        args.out, n_pairs=args.pairs, length=args.length, seed=args.seed
    )
    print(f"wrote cohort manifest {manifest}")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        result = report_from_dict(json.loads(args.results.read_text()))
    except (ValueError, LookupError, TypeError, AttributeError, AnalysisError) as exc:
        raise FormatError(
            f"{args.results}: not a saved report.json ({type(exc).__name__}: {exc})"
        ) from exc
    written = emit_tables(result, args.out)
    print(f"wrote {len(written)} files under {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dyadgc", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate a manifest and its CSVs")
    p.add_argument("--manifest", required=True, type=Path)
    p.set_defaults(func=_cmd_ingest)

    _add_analysis_command(sub, "intervals", _cmd_intervals, "emit selected interval sets per cell")
    p = _add_analysis_command(sub, "granger", _cmd_granger, "pipeline's per-cell GC records")
    p.add_argument("--intervals-dir", type=Path,
                   help="test on the interval sets of a previous 'intervals' run, "
                        "one TSV per cell (refused with --signal-mode per_au)")
    _add_analysis_command(sub, "pipeline", _cmd_pipeline, "end-to-end batch analysis")

    p = sub.add_parser("synth", help="generate a synthetic demo cohort")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--length", type=int, default=3000)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="re-emit the report tables from a saved report.json")
    p.add_argument("--results", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
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
