import json
import os
import shutil
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dyadgc
from dyadgc import cli, pipeline
from dyadgc.au_features import AU_IDS, AU_ROW, EXPRESSIONS, AURecording, parse_au_csv, write_au_csv
from dyadgc.cli import main
from dyadgc.config import AnalysisConfig, load_config, with_overrides
from dyadgc.errors import ConfigError, FormatError
from dyadgc.granger import cap_order, gc_test, select_order
from dyadgc.intervals import Interval, IntervalSet
from dyadgc.pipeline import (
    Manifest,
    MethodCounts,
    analyze_cells,
    analyze_pair_condition,
    emit_report,
    mine_selections,
    read_selections,
    report_from_dict,
    report_to_dict,
    run_pipeline,
    write_results,
)
from dyadgc.synth import make_demo_cohort
from dyadgc.timeseries import standardize


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """Small deterministic cohort shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("cohort")
    manifest_path = make_demo_cohort(root, n_pairs=2, length=1800, seed=77)
    return manifest_path


def _manifest_of_missing_files(tmp_path):
    """A valid manifest whose CSV files do not exist: reading one raises FormatError."""
    path = tmp_path / "missing.csv"
    path.write_text(
        "pair_id,role,condition,path\n"
        "a,sender,contempt,nope_s.csv\na,receiver,contempt,nope_r.csv\n"
    )
    return path


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    """One pair of 600 frames: the cohort the CLI stage checks run on."""
    return make_demo_cohort(tmp_path_factory.mktemp("small"), n_pairs=1, length=600, seed=5)


def _rewrite_frames(path, new_frame):
    """Replace each data row's frame index ``f`` of a recording CSV by ``new_frame(f)``."""
    header, *rows = path.read_text().splitlines()
    rows = [str(new_frame(int(r[: r.index(",")]))) + r[r.index(",") :] for r in rows]
    path.write_text("\n".join([header] + rows) + "\n")


@pytest.fixture(scope="module")
def result(cohort):
    manifest = Manifest.load(cohort)
    return run_pipeline(manifest, AnalysisConfig())


class TestConfig:
    def test_defaults_match_published_procedure(self):
        cfg = AnalysisConfig()
        assert (cfg.beta, cfg.l_min, cfg.median_kernel, cfg.extension) == (0.8, 75, 51, 12)
        assert cfg.shifts == (-12, -8, -4, 0, 4, 8, 12)
        assert (cfg.confidence, cfg.alpha) == (0.89, 0.05)

    def test_file_round_trip(self, tmp_path):
        cfg = AnalysisConfig(beta=0.7, shifts=(-4, 0, 4), expressions=("happiness_lower",))
        path = tmp_path / "cfg.txt"
        path.write_text("beta = 0.7\nshifts = -4,0,4\nexpressions = happiness_lower\n")
        assert load_config(path) == cfg

    def test_comments_and_unknown_keys(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nbeta = 0.9\n")
        assert load_config(path).beta == 0.9
        path.write_text("not_a_key = 3\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_overrides(self):
        cfg = with_overrides(AnalysisConfig(), alpha=0.01, beta=None)
        assert cfg.alpha == 0.01
        assert cfg.beta == 0.8

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(gc_mode="bogus")
        with pytest.raises(ConfigError):
            AnalysisConfig(median_kernel=10)
        for bad in (float("nan"), float("inf"), -0.5):
            with pytest.raises(ConfigError, match="activation_factor"):
                AnalysisConfig(activation_factor=bad)
        for bad in (0.0, 1.5, float("nan")):
            with pytest.raises(ConfigError, match="fdr_q"):
                AnalysisConfig(fdr_q=bad)

    def test_unknown_expression_rejected_when_built(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="nonsense"):
            AnalysisConfig(expressions=("happiness_lower", "nonsense"))
        path = tmp_path / "cfg.txt"
        path.write_text("expressions = nonsense\n")
        with pytest.raises(ConfigError, match="nonsense"):
            load_config(path)
        # registered but not computable from OpenFace output: valid, and skipped per cell
        assert AnalysisConfig(expressions=("anger_lower",)).expressions == ("anger_lower",)
        # the CLI stops at the config, before it reads a recording
        manifest = _manifest_of_missing_files(tmp_path)
        argv = ["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
        assert main(argv + ["--expressions", "nonsense"]) == 2
        assert "unknown expressions ['nonsense']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _cli_config(argv):
        return cli._build_config(cli.build_parser().parse_args(
            ["pipeline", "--manifest", "m.csv", "--out", "o"] + argv
        ))

    def test_every_flag_parses_as_its_config_key(self, tmp_path):
        flags = {
            "--alpha": ("alpha", "0.01"), "--beta": ("beta", "0.7"), "--lmin": ("l_min", "60"),
            "--kernel": ("median_kernel", "31"), "--extension": ("extension", "8"),
            "--shifts": ("shifts", " -4, 0,4"), "--confidence": ("confidence", "0.8"),
            "--mode": ("gc_mode", "averaged"), "--signal-mode": ("signal_mode", "per_au"),
            "--expressions": ("expressions", "happiness_lower, sadness_upper"),
            "--m-max": ("m_max", "6"), "--workers": ("workers", "2"),
        }
        path = tmp_path / "cfg.txt"
        path.write_text("".join(f"{key} = {value}\n" for key, value in flags.values()))
        argv = [item for flag, (_, value) in flags.items() for item in (flag, value)]
        cfg = self._cli_config(argv)
        assert cfg == load_config(path)
        default = AnalysisConfig()
        assert all(getattr(cfg, key) != getattr(default, key) for key, _ in flags.values())

    def test_empty_list_items_are_skipped_by_both_sources(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("shifts = 0,,4\n")
        assert self._cli_config(["--shifts", "0,,4"]) == load_config(path)
        assert load_config(path).shifts == (0, 4)

    def test_bad_list_item_is_a_config_error(self, tmp_path, capsys):
        manifest = _manifest_of_missing_files(tmp_path)
        argv = ["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
        assert main(argv + ["--shifts", "1,x"]) == 2
        assert "bad value for 'shifts'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["shifts", "expressions"])
    def test_empty_list_is_refused(self, tmp_path, capsys, key):
        path = tmp_path / "cfg.txt"
        path.write_text(f"{key} =\n")
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        manifest = _manifest_of_missing_files(tmp_path)
        argv = ["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
        for source in (["--config", str(path)], [f"--{key}", ""]):
            assert main(argv + source) == 2
            assert f"{key} must name at least one" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    # one unusable value per flag: each is parsed as its config-file key, so the
    # run exits 2 with the key named, not 1 with an argparse message
    @pytest.mark.parametrize(
        "flag, value, key",
        [
            ("--alpha", "abc", "alpha"), ("--beta", "x", "beta"), ("--lmin", "7.5", "l_min"),
            ("--kernel", "wide", "median_kernel"), ("--extension", "1e2", "extension"),
            ("--shifts", "a", "shifts"), ("--confidence", "high", "confidence"),
            ("--mode", "foo", "gc_mode"), ("--signal-mode", "foo", "signal_mode"),
            ("--expressions", "nonsense", "expressions"), ("--m-max", "1.5", "m_max"),
            ("--workers", "two", "workers"),
        ],
    )
    def test_bad_flag_value_is_a_config_error_naming_its_key(
        self, tmp_path, capsys, flag, value, key
    ):
        manifest = _manifest_of_missing_files(tmp_path)
        argv = ["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
        assert main(argv + [f"{flag}={value}"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"\xef\xbb\xbfalpha = 0.01\n")
        assert load_config(path) == AnalysisConfig(alpha=0.01)

    def test_non_utf8_config_is_a_data_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_bytes(b"alpha = 0.01  # \xff\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(path)
        manifest = _manifest_of_missing_files(tmp_path)
        argv = ["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")]
        assert main(argv + ["--config", str(path)]) == 2
        assert f"error: {path}: not UTF-8 text" in capsys.readouterr().err


class TestManifest:
    def test_load_and_paths_relative_to_manifest(self, cohort):
        manifest = Manifest.load(cohort)
        assert all(row.path.exists() for row in manifest.rows)
        assert manifest.pair_ids() == ["pair01", "pair02"]

    def test_duplicate_rows_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "pair_id,role,condition,path\n"
            "a,sender,contempt,x.csv\na,sender,contempt,y.csv\n"
        )
        with pytest.raises(FormatError):
            Manifest.load(p)

    def test_missing_role_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("pair_id,role,condition,path\na,sender,contempt,x.csv\n")
        with pytest.raises(FormatError):
            Manifest.load(p)

    def test_missing_role_is_named_in_manifest_order(self, tmp_path):
        # the first incomplete (pair, condition) is named, whatever the hash seed
        p = tmp_path / "m.csv"
        rows = "".join(f"p{i},sender,contempt,p{i}.csv\n" for i in range(5))
        p.write_text("pair_id,role,condition,path\n" + rows)
        code = (
            "import sys\nfrom dyadgc.pipeline import Manifest\n"
            "try:\n    Manifest.load(sys.argv[1])\nexcept Exception as exc:\n    print(exc)\n"
        )
        src = str(Path(dyadgc.__file__).resolve().parents[1])
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code, str(p)], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.stdout.strip() == "manifest: pair 'p0' condition 'contempt' needs both roles"

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("pair,role\n")
        with pytest.raises(FormatError):
            Manifest.load(p)

    def test_short_row_names_the_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "pair_id,role,condition,path\n"
            "a,sender,contempt,x.csv\na,receiver,contempt\n"
        )
        with pytest.raises(FormatError, match=r"m\.csv: row 3: missing or blank path"):
            Manifest.load(p)

    def test_blank_pair_id_names_the_row(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(
            "pair_id,role,condition,path\n"
            " ,sender,contempt,x.csv\n ,receiver,contempt,y.csv\n"
        )
        with pytest.raises(FormatError, match=r"m\.csv: row 2: missing or blank pair_id"):
            Manifest.load(p)

    def test_byte_order_mark_skipped(self, tmp_path, capsys):
        # a manifest and a recording as a spreadsheet program saves them
        manifest = make_demo_cohort(tmp_path, n_pairs=1, length=600, seed=5)
        recording = tmp_path / "pair01_contempt_receiver.csv"
        rows, intensities = Manifest.load(manifest).rows, parse_au_csv(recording).intensities
        for path in (manifest, recording):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert Manifest.load(manifest).rows == rows
        np.testing.assert_array_equal(parse_au_csv(recording).intensities, intensities)
        assert main(["ingest", "--manifest", str(manifest)]) == 0
        assert "manifest valid" in capsys.readouterr().out

    def test_non_utf8_manifest_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_bytes(
            b"pair_id,role,condition,path\n"
            b"a\xff,sender,contempt,x.csv\na\xff,receiver,contempt,y.csv\n"
        )
        assert main(["ingest", "--manifest", str(p)]) == 2
        assert f"error: {p}: not UTF-8 text" in capsys.readouterr().err

    def test_short_row_is_a_data_error(self, tmp_path, capsys):
        p = tmp_path / "m.csv"
        p.write_text("pair_id,role,condition,path\na,sender\n")
        assert main(["ingest", "--manifest", str(p)]) == 2
        assert "row 2: missing or blank condition, path" in capsys.readouterr().err


class TestRunPipeline:
    def test_planted_directions_are_modal(self, result):
        by_cond = {rep.condition: rep for rep in result.reports}
        happy = next(
            r for r in by_cond["respectful"].rows if r.expression == "happiness_lower"
        )
        counts = happy.interval_selected
        assert counts.s_gc_r == max(
            counts.s_gc_r, counts.r_gc_s, counts.bidirectional, counts.none
        )
        sad = next(r for r in by_cond["contempt"].rows if r.expression == "sadness_lower")
        assert sad.interval_selected.r_gc_s == max(
            sad.interval_selected.s_gc_r,
            sad.interval_selected.r_gc_s,
            sad.interval_selected.bidirectional,
            sad.interval_selected.none,
        )

    def test_uncoupled_cells_mostly_none(self, result):
        by_cond = {rep.condition: rep for rep in result.reports}
        for row in by_cond["objective"].rows:
            assert row.interval_selected.none == row.interval_selected.total()

    def test_counts_sum_to_analyzable_pairs(self, result):
        for c in result.cells:
            assert c.full_status in ("ok", "degenerate", "insufficient", "skipped")
            assert c.sel_status in (
                "ok", "no_intervals", "degenerate", "insufficient", "skipped",
            )
        for rep in result.reports:
            for row in rep.rows:
                cells = [
                    c for c in result.cells
                    if (c.condition, c.expression) == (rep.condition, row.expression)
                ]
                full_ok = sum(c.full_status == "ok" for c in cells)
                sel_ok = sum(c.sel_status in ("ok", "no_intervals") for c in cells)
                assert row.full_span.total() == full_ok
                assert row.interval_selected.total() == sel_ok

    def test_occurrence_table_present(self, result):
        assert result.occurrence  # 10 computable expressions x 3 condition pairs
        keys = {(r.expression, r.condition_a, r.condition_b) for r in result.occurrence}
        assert len(keys) == len(result.occurrence)
        assert all(r.condition_a < r.condition_b for r in result.occurrence)

    def test_determinism_and_worker_equivalence(self, cohort, tmp_path):
        manifest = Manifest.load(cohort)
        cfg = AnalysisConfig(expressions=("happiness_lower",))
        one = run_pipeline(manifest, cfg)
        two = run_pipeline(manifest, with_overrides(cfg, workers=2))
        a, b = report_to_dict(one), report_to_dict(two)
        assert a["conditions"] == b["conditions"]
        assert a["occurrence"] == b["occurrence"]
        # each task carries its pair id and condition to the worker process
        written = [write_results(r.cells, tmp_path / name) for name, r in (("1", one), ("2", two))]
        assert written[0].read_bytes() == written[1].read_bytes()

    def test_renaming_pairs_changes_only_their_ids(self, cohort, tmp_path):
        # a recording's identity is its manifest key alone; the new ids keep the
        # old sort order, so every table keeps its row order
        renamed = {"pair01": "a-b-c", "pair02": "b-sender"}
        rows = Manifest.load(cohort).rows
        lines = ["pair_id,role,condition,path"]
        lines += [f"{renamed[r.pair_id]},{r.role},{r.condition},{r.path}" for r in rows]
        (tmp_path / "renamed.csv").write_text("\n".join(lines) + "\n")
        cfg = AnalysisConfig(expressions=("happiness_lower", "sadness_lower"))
        for name, path in (("old", cohort), ("new", tmp_path / "renamed.csv")):
            emit_report(run_pipeline(Manifest.load(path), cfg), tmp_path / name)
        old, new = tmp_path / "old", tmp_path / "new"
        for table in ("report.json", "report.csv", "occurrence.csv"):
            assert (old / table).read_bytes() == (new / table).read_bytes()
        records = [
            [json.loads(line) for line in (d / "results.jsonl").read_text().splitlines()]
            for d in (old, new)
        ]
        assert [dict(r, pair_id=renamed[r["pair_id"]]) for r in records[0]] == records[1]
        tsvs = {
            f.name.replace(pid, renamed[pid], 1): f.read_bytes()
            for f in (old / "intervals").iterdir()
            for pid in renamed
            if f.name.startswith(pid + "_")
        }
        assert tsvs == {f.name: f.read_bytes() for f in (new / "intervals").iterdir()}
        assert len(tsvs) == len(rows) // 2 * len(cfg.expressions)

    def test_empty_manifest(self):
        result = run_pipeline(Manifest(()), AnalysisConfig())
        assert result.reports == ()
        assert result.cells == ()

    def test_averaged_mode_runs_and_classifies(self, cohort):
        manifest = Manifest.load(cohort)
        cfg = AnalysisConfig(gc_mode="averaged", expressions=("happiness_lower",))
        result = run_pipeline(manifest, cfg)
        happy = [c for c in result.cells if c.condition == "respectful"]
        ok = [c for c in happy if c.sel_status == "ok"]
        assert ok, "averaged mode produced no analyzable cells"
        for c in ok:
            assert c.sel_result.n_effective > 0

    def test_pooled_and_averaged_agree_on_planted_cells(self, cohort):
        manifest = Manifest.load(cohort)
        pooled = run_pipeline(
            manifest, AnalysisConfig(expressions=("happiness_lower",))
        )
        averaged = run_pipeline(
            manifest, AnalysisConfig(gc_mode="averaged", expressions=("happiness_lower",))
        )
        def planted(res):
            rep = next(r for r in res.reports if r.condition == "respectful")
            return rep.rows[0].interval_selected
        a, b = planted(pooled), planted(averaged)
        # same dominant direction on the planted cell
        assert a.dominant() == b.dominant() == "s_gc_r"

    def test_per_au_mode(self, cohort):
        manifest = Manifest.load(cohort)
        cfg = AnalysisConfig(signal_mode="per_au", expressions=("happiness_lower",))
        result = run_pipeline(manifest, cfg)
        rep = next(r for r in result.reports if r.condition == "respectful")
        counts = rep.rows[0].interval_selected
        assert counts.total() == 2
        assert counts.s_gc_r == max(
            counts.s_gc_r, counts.r_gc_s, counts.bidirectional, counts.none
        )

    def test_precomputed_intervals_round_trip(self, cohort, tmp_path):
        manifest = Manifest.load(cohort)
        cfg = AnalysisConfig(expressions=("happiness_lower",))
        first = run_pipeline(manifest, cfg)
        emit_report(first, tmp_path)
        written = read_selections(tmp_path / "intervals", manifest, cfg)
        again = analyze_cells(manifest, cfg, written)
        assert len(again) == len(first.cells)
        for a, b in zip(first.cells, again):
            assert a.intervals.intervals == b.intervals.intervals
            assert a.sel_status == b.sel_status
            if a.sel_status == "ok":
                assert a.sel_result.outcome == b.sel_result.outcome


def _pair_with_kept(n, kept, seed=0):
    """Sender/receiver recordings of ``n`` noisy frames; only ``kept`` frames pass the cutoff."""
    rng = np.random.default_rng(seed)
    conf = np.zeros(n)
    conf[list(kept)] = 1.0
    return tuple(
        AURecording(np.arange(n), conf, 1.0 + 3.0 * rng.random((len(AU_IDS), n)))
        for _ in range(2)
    )


class TestPerCellPath:
    @pytest.mark.parametrize("n_kept", [1, 2])
    def test_tiny_kept_span_is_insufficient(self, n_kept):
        sender, receiver = _pair_with_kept(200, range(50, 50 + n_kept))
        cfg = AnalysisConfig(expressions=("happiness_lower",))
        (cell,) = analyze_pair_condition("p1", "respectful", sender, receiver, cfg)
        assert (cell.full_status, cell.sel_status) == ("insufficient", "no_intervals")
        assert cell.kept_frames == n_kept
        # per_au: every member-AU full-span test is insufficient, so the cell is
        # too; no member AU has an interval, so the cell has none either
        (cell,) = analyze_pair_condition(
            "p1", "respectful", sender, receiver, with_overrides(cfg, signal_mode="per_au")
        )
        assert (cell.full_status, cell.sel_status) == ("insufficient", "no_intervals")
        assert (cell.full_outcome, cell.sel_outcome) == (None, None)

    def test_no_regression_row_straddles_a_confidence_gap(self):
        # frames 300..309 fail the confidence cutoff, splitting the selection in two
        kept = [f for f in range(600) if not 300 <= f <= 309]
        sender, receiver = _pair_with_kept(600, kept)
        selection = IntervalSet((Interval(200, 500),))
        (cell,) = analyze_pair_condition(
            "p1", "respectful", sender, receiver, AnalysisConfig(expressions=("happiness_upper",)),
            selections={"happiness_upper": selection},
        )
        assert cell.sel_status == "ok"
        order = cell.sel_result.order
        # pieces [200, 299] and [310, 500]: each loses its first `order` rows
        assert cell.sel_result.n_effective == (100 - order) + (191 - order)

    def test_full_span_is_the_kept_runs(self):
        # frames 300..309 fail the confidence cutoff: the full span is two kept runs
        kept = [f for f in range(600) if not 300 <= f <= 309]
        sender, receiver = _pair_with_kept(600, kept)
        cfg = AnalysisConfig(expressions=("happiness_upper",))
        (cell,) = analyze_pair_condition("p1", "respectful", sender, receiver, cfg)
        # standardized over all kept frames, cut at the gap, each run demeaned
        signals = [standardize(rec.intensities[AU_ROW[6], kept]) for rec in (sender, receiver)]
        segs_x, segs_y = ([v[:300] - v[:300].mean(), v[300:] - v[300:].mean()] for v in signals)
        order = select_order(segs_x, segs_y, cap_order([300, 290], cfg.m_max), cfg.order_criterion)
        assert cell.full_status == "ok"
        assert cell.full_result == gc_test(segs_x, segs_y, order, cfg.alpha)
        assert cell.full_result.n_effective == (300 - order) + (290 - order)


class TestMiningPerAU:
    """Each AU is mined once per pair and condition, whatever shares it."""

    # frames 190..199 fail the cutoff: two kept runs, each mined on its own
    KEPT = [f for f in range(400) if not 190 <= f <= 199]

    @staticmethod
    def _count_mining(monkeypatch):
        calls = []
        real = pipeline.mine_shifted

        def counted(x, y, params):
            calls.append((x.start_frame, x.values.tobytes(), y.values.tobytes()))
            return real(x, y, params)

        monkeypatch.setattr(pipeline, "mine_shifted", counted)
        return calls

    @pytest.mark.parametrize("signal_mode", ["expression_mean", "per_au"])
    def test_shared_au_is_mined_once(self, monkeypatch, signal_mode):
        sender, receiver = _pair_with_kept(400, self.KEPT)
        # happiness_lower = {12, 25} and fear_lower = {20, 25} share AU25
        cfg = AnalysisConfig(expressions=("happiness_lower", "fear_lower"), signal_mode=signal_mode)
        alone = [
            analyze_pair_condition(
                "p1", "respectful", sender, receiver, with_overrides(cfg, expressions=(name,))
            )[0]
            for name in cfg.expressions
        ]
        calls = self._count_mining(monkeypatch)
        cells = analyze_pair_condition("p1", "respectful", sender, receiver, cfg)
        assert len(calls) == 3 * 2  # AU12, AU20, AU25, once per kept run
        assert len(set(calls)) == len(calls)
        for cell, ref in zip(cells, alone):
            assert cell.intervals.intervals == ref.intervals.intervals
            assert (cell.sel_status, cell.sel_outcome) == (ref.sel_status, ref.sel_outcome)

    def test_precomputed_expression_is_not_mined(self, monkeypatch):
        # a given selection is complete: every expression's, so nothing is mined
        sender, receiver = _pair_with_kept(400, self.KEPT)
        cfg = AnalysisConfig(expressions=("happiness_lower", "surprise_lower"))
        given = {
            "happiness_lower": IntervalSet((Interval(20, 180),)),
            "surprise_lower": IntervalSet(),
        }
        calls = self._count_mining(monkeypatch)
        cells = analyze_pair_condition("p1", "respectful", sender, receiver, cfg, selections=given)
        assert calls == []
        assert [c.intervals for c in cells] == list(given.values())
        assert cells[1].sel_status == "no_intervals"


class TestPerAUTestsOnce:
    """In per_au mode each AU's tests run once per pair and condition, whatever shares it."""

    KEPT = TestMiningPerAU.KEPT

    @staticmethod
    def _count_orders(monkeypatch):
        calls = []
        real = pipeline.select_order

        def counted(xs, ys, m_max, criterion):
            calls.append((tuple(x.tobytes() for x in xs), tuple(y.tobytes() for y in ys), m_max))
            return real(xs, ys, m_max, criterion)

        monkeypatch.setattr(pipeline, "select_order", counted)
        return calls

    @staticmethod
    def _outcomes(cell):
        return (cell.full_status, cell.sel_status, cell.full_outcome, cell.sel_outcome, cell.note)

    def _alone(self, monkeypatch, sender, receiver, cfg):
        """Each expression run on its own: its cell and its select_order inputs."""
        calls = self._count_orders(monkeypatch)
        cells, inputs = [], []
        for name in cfg.expressions:
            (cell,) = analyze_pair_condition(
                "p1", "respectful", sender, receiver, with_overrides(cfg, expressions=(name,))
            )
            cells.append(cell)
            inputs.append(list(calls))
            calls.clear()
        return cells, inputs, calls

    def test_shared_au_is_tested_once(self, monkeypatch):
        sender, receiver = _pair_with_kept(400, self.KEPT)
        # the receiver's AU25 echoes the sender's over frames 40..179, so AU25
        # has a selected interval and a selected test as well as a full-span one
        intens = receiver.intensities.copy()
        row = AU_ROW[25]
        intens[row, 40:180] = sender.intensities[row, 40:180]
        intens[row, 40:180] += np.random.default_rng(1).normal(0.0, 0.1, 140)
        receiver = AURecording(receiver.frame_indices, receiver.confidence, intens)
        # happiness_lower = {12, 25} and fear_lower = {20, 25} share AU25
        cfg = AnalysisConfig(expressions=("happiness_lower", "fear_lower"), signal_mode="per_au")
        alone, inputs, calls = self._alone(monkeypatch, sender, receiver, cfg)
        cells = analyze_pair_condition("p1", "respectful", sender, receiver, cfg)
        assert len(calls) == len(set(calls))  # no test input is fitted twice
        assert set(calls) == set(inputs[0]) | set(inputs[1])
        # AU25's full-span and selected tests were shared
        assert len(calls) == len(inputs[0]) + len(inputs[1]) - 2
        assert [self._outcomes(c) for c in cells] == [self._outcomes(c) for c in alone]

    def test_precomputed_selection_is_refused(self, small_cohort, tmp_path, capsys):
        # a written selection is one set per expression, not each member AU's own
        sender, receiver = _pair_with_kept(400, self.KEPT)
        cfg = AnalysisConfig(expressions=("happiness_lower",), signal_mode="per_au")
        given = {"happiness_lower": IntervalSet((Interval(20, 180),))}
        with pytest.raises(ConfigError, match="per_au"):
            analyze_pair_condition("p1", "respectful", sender, receiver, cfg, selections=given)
        ivdir, out = tmp_path / "iv", tmp_path / "out"
        flags = ["--manifest", str(small_cohort), "--signal-mode", "per_au"]
        assert main(["intervals", "--out", str(ivdir)] + flags) == 0
        capsys.readouterr()
        assert main(["granger", "--out", str(out), "--intervals-dir", str(ivdir)] + flags) == 2
        assert "per_au" in capsys.readouterr().err
        assert not (out / "results.jsonl").exists()


class TestEmitReport:
    def test_json_round_trip(self, result, tmp_path):
        emit_report(result, tmp_path)
        data = json.loads((tmp_path / "report.json").read_text())
        # everything but the per-cell records, config included
        assert report_from_dict(data) == replace(result, cells=())

    def test_reemission_is_byte_identical(self, result, tmp_path):
        emit_report(result, tmp_path / "a")
        emit_report(result, tmp_path / "b")
        for name in ("report.json", "report.csv", "occurrence.csv", "results.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_dominant_flag(self):
        assert MethodCounts(8, 4, 1, 1).dominant() == "s_gc_r"
        assert MethodCounts(4, 8, 1, 1).dominant() == "r_gc_s"
        assert MethodCounts(3, 3, 1, 1).dominant() == ""

    def test_csv_files_written(self, result, tmp_path):
        written = emit_report(result, tmp_path)
        names = {p.name for p in written}
        assert {"report.json", "report.csv", "occurrence.csv", "results.jsonl"} <= names
        header = (tmp_path / "report.csv").read_text().splitlines()[0]
        assert header.startswith("condition,expression,full_span_s_gc_r")
        assert (tmp_path / "intervals").is_dir()

    def test_per_au_results_jsonl_is_strict_json(self, cohort, tmp_path):
        cfg = AnalysisConfig(signal_mode="per_au", expressions=("happiness_lower",))
        result = run_pipeline(Manifest.load(cohort), cfg)
        emit_report(result, tmp_path)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        records = [
            json.loads(line, parse_constant=reject)
            for line in (tmp_path / "results.jsonl").read_text().splitlines()
        ]
        assert any(rec["sel_status"] == "ok" for rec in records)
        for rec, cell in zip(records, result.cells):
            # a per_au cell votes: it records its majority outcome and no test numbers
            assert (cell.full_result, cell.sel_result) == (None, None)
            for side, outcome in (("full", cell.full_outcome), ("sel", cell.sel_outcome)):
                want = None if outcome is None else {"outcome": outcome.value}
                assert rec[f"{side}_result"] == want
                assert (outcome is not None) == (rec[f"{side}_status"] == "ok")

    def test_results_jsonl_parses(self, result, tmp_path):
        emit_report(result, tmp_path)
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        assert len(lines) == len(result.cells)
        for line in lines:
            rec = json.loads(line)
            assert rec["sel_status"] in (
                "ok", "no_intervals", "degenerate", "insufficient", "skipped",
            )


class TestCLI:
    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline"])  # missing required flags
        assert exc.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["pipeline", "--nope"])
        assert exc.value.code == 1

    def test_data_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("pair_id,role,condition,path\na,sender,contempt,missing.csv\n")
        bad2 = tmp_path / "m2.csv"
        bad2.write_text(
            "pair_id,role,condition,path\n"
            "a,sender,contempt,missing.csv\na,receiver,contempt,missing2.csv\n"
        )
        assert main(["pipeline", "--manifest", str(bad2), "--out", str(tmp_path / "o")]) == 2

    def test_ingest_rejects_a_nan_cell(self, tmp_path, capsys):
        rows = ["pair_id,role,condition,path"]
        for role, rec in zip(("sender", "receiver"), _pair_with_kept(10, range(10))):
            path = tmp_path / f"{role}.csv"
            write_au_csv(path, rec)
            rows.append(f"p1,{role},respectful,{path.name}")
        lines = (tmp_path / "receiver.csv").read_text().splitlines()
        cells = lines[4].split(",")
        cells[-1] = "nan"  # AU45_r of the fourth frame, CSV row 5
        lines[4] = ",".join(cells)
        (tmp_path / "receiver.csv").write_text("\n".join(lines) + "\n")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("\n".join(rows) + "\n")
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert "manifest valid" not in captured.out
        assert "receiver.csv: bad value in row 5: AU45_r is nan" in captured.err

    def test_ingest_rejects_a_non_utf8_file(self, tmp_path, capsys):
        manifest = make_demo_cohort(tmp_path / "c", n_pairs=1, length=600, seed=5)
        bad = tmp_path / "c" / "pair01_contempt_receiver.csv"
        with bad.open("ab") as fh:
            fh.write(b"\xff\xfe")
        assert main(["ingest", "--manifest", str(manifest)]) == 2
        captured = capsys.readouterr()
        assert "manifest valid" not in captured.out
        assert f"error: {bad}: not UTF-8 text" in captured.err

    @pytest.mark.parametrize("command", ["ingest", "intervals", "granger", "pipeline"])
    def test_recording_without_frames_is_a_data_error(self, tmp_path, capsys, command):
        manifest = make_demo_cohort(tmp_path / "c", n_pairs=1, length=600, seed=5)
        empty = tmp_path / "c" / "pair01_contempt_receiver.csv"
        empty.write_text(empty.read_text().splitlines()[0] + "\n")
        assert parse_au_csv(empty).n_frames == 0
        args = [command, "--manifest", str(manifest)]
        if command != "ingest":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert "manifest valid" not in captured.out
        assert f"error: {empty}: no frames" in captured.err
        assert not (tmp_path / "out").exists()

    def test_frame_gap_is_reported_and_counted_over_present_frames(
        self, tmp_path, capsys, monkeypatch
    ):
        manifest = make_demo_cohort(tmp_path / "c", n_pairs=2, length=600, seed=5)
        gapped = tmp_path / "c" / "pair01_contempt_receiver.csv"
        lines = gapped.read_text().splitlines()
        del lines[101:121]  # data rows 101-120
        gapped.write_text("\n".join(lines) + "\n")

        assert main(["ingest", "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "ok pair01 receiver contempt: 580 frames, 20 missing in 1 gap(s)\n" in out
        assert "ok pair01 sender contempt: 600 frames\n" in out

        seen = []
        real = pipeline.count_activations

        def record(mask, video_len):
            value = real(mask, video_len)
            seen.append((len(mask), video_len, value))
            return value

        monkeypatch.setattr(pipeline, "count_activations", record)
        assert main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "occurrence.csv").exists()

        # the receiver's baseline pools its three conditions; count its active
        # frames among the 580 present ones directly
        recs = [
            parse_au_csv(tmp_path / "c" / f"pair01_{c}_receiver.csv")
            for c in ("respectful", "contempt", "objective")
        ]
        pooled = np.concatenate([r.intensities for r in recs], axis=1)
        thr = pooled.mean(axis=1) + 0.5 * pooled.std(axis=1, ddof=1)
        expected = [
            np.all(
                [recs[1].intensities[AU_ROW[a]] >= thr[AU_ROW[a]] for a in expr.au_ids], axis=0
            ).sum() / 580
            for expr in EXPRESSIONS
            if expr.available_in(AU_IDS)
        ]
        # one mask column per present frame
        got = [(columns, value) for columns, video_len, value in seen if video_len == 580]
        assert got == [(580, v) for v in expected]

    def test_frame_index_jump_is_counted_over_present_frames(self, tmp_path, monkeypatch):
        # a corrupted last frame index: the activation masks must not span the jump
        manifest = make_demo_cohort(tmp_path / "c", n_pairs=1, length=600, seed=5)
        jumped = tmp_path / "c" / "pair01_contempt_receiver.csv"
        lines = jumped.read_text().splitlines()
        lines[-1] = str(10**12) + lines[-1][lines[-1].index(",") :]
        jumped.write_text("\n".join(lines) + "\n")
        assert main(["ingest", "--manifest", str(manifest)]) == 0

        seen, last_frame = [], []
        real_activation, real_count = pipeline.au_activation, pipeline.count_activations

        def activation(rec, *args):
            last_frame.append(int(rec.frame_indices[-1]))
            return real_activation(rec, *args)

        def count(mask, video_len):
            value = real_count(mask, video_len)
            seen.append((last_frame[-1], video_len, value))
            return value

        monkeypatch.setattr(pipeline, "au_activation", activation)
        monkeypatch.setattr(pipeline, "count_activations", count)
        assert main(["pipeline", "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "o" / "occurrence.csv").exists()

        recs = [
            parse_au_csv(tmp_path / "c" / f"pair01_{c}_receiver.csv")
            for c in ("respectful", "contempt", "objective")
        ]
        assert recs[1].frame_indices[-1] == 10**12
        pooled = np.concatenate([r.intensities for r in recs], axis=1)
        thr = pooled.mean(axis=1) + 0.5 * pooled.std(axis=1, ddof=1)
        expected = [
            np.all(
                [recs[1].intensities[AU_ROW[a]] >= thr[AU_ROW[a]] for a in expr.au_ids], axis=0
            ).sum() / 600
            for expr in EXPRESSIONS
            if expr.available_in(AU_IDS)
        ]
        assert [(n, v) for last, n, v in seen if last == 10**12] == [(600, v) for v in expected]

    def test_shared_frame_index_jump_runs_every_stage(self, small_cohort, tmp_path):
        # both recordings of a pair end on frame 10^12: no stage may span the frame range
        jump = tmp_path / "jump"
        shutil.copytree(small_cohort.parent, jump)
        for role in ("sender", "receiver"):
            _rewrite_frames(jump / f"pair01_contempt_{role}.csv", lambda f: 10**12 if f == 600 else f)
        manifest = ["--manifest", str(jump / "manifest.csv")]
        assert main(["pipeline", "--out", str(tmp_path / "run")] + manifest) == 0
        assert main(["intervals", "--out", str(tmp_path / "iv")] + manifest) == 0
        written = ["--intervals-dir", str(tmp_path / "run" / "intervals")]
        assert main(["granger", "--out", str(tmp_path / "gc")] + manifest + written) == 0
        results = (tmp_path / "run" / "results.jsonl").read_text()
        assert (tmp_path / "gc" / "results.jsonl").read_text() == results
        kept = {json.loads(ln)["kept_frames"] for ln in results.splitlines() if '"contempt"' in ln}
        assert kept == {600 - 3}  # every frame still kept, less the three low-confidence ones

    def test_shifting_every_frame_index_shifts_only_the_intervals(self, small_cohort, tmp_path):
        shifted = tmp_path / "shifted"
        shutil.copytree(small_cohort.parent, shifted)
        for path in shifted.glob("*.csv"):
            if path.name != "manifest.csv":
                _rewrite_frames(path, lambda f: f + 10**9)
        runs = {}
        for name, cohort_dir in (("plain", small_cohort.parent), ("shifted", shifted)):
            runs[name] = tmp_path / name
            argv = ["pipeline", "--manifest", str(cohort_dir / "manifest.csv"), "--out", str(runs[name])]
            assert main(argv) == 0
        plain, moved = runs["plain"], runs["shifted"]
        assert (moved / "report.json").read_bytes() == (plain / "report.json").read_bytes()

        def shift(ivs):
            return [[a + 10**9, b + 10**9, s] for a, b, s in ivs]

        records = [json.loads(ln) for ln in (plain / "results.jsonl").read_text().splitlines()]
        assert any(rec["intervals"] for rec in records)
        want = [dict(rec, intervals=shift(rec["intervals"])) for rec in records]
        assert [json.loads(ln) for ln in (moved / "results.jsonl").read_text().splitlines()] == want
        tsvs = sorted(p.name for p in (plain / "intervals").iterdir())
        assert tsvs == sorted(p.name for p in (moved / "intervals").iterdir())
        for name in tsvs:
            ivs = IntervalSet.from_tsv((plain / "intervals" / name).read_text())
            got = IntervalSet.from_tsv((moved / "intervals" / name).read_text())
            assert [[iv.start, iv.end, iv.shift] for iv in got] == shift(
                [iv.start, iv.end, iv.shift] for iv in ivs
            )

    def test_ingest_and_pipeline_and_report(self, cohort, tmp_path, capsys):
        assert main(["ingest", "--manifest", str(cohort)]) == 0
        out = capsys.readouterr().out
        assert "manifest valid" in out

        run_dir = tmp_path / "run"
        code = main([
            "pipeline", "--manifest", str(cohort), "--out", str(run_dir),
            "--expressions", "happiness_lower",
        ])
        assert code == 0
        assert (run_dir / "report.json").exists()

        re_dir = tmp_path / "reemit"
        assert main([
            "report", "--results", str(run_dir / "report.json"), "--out", str(re_dir),
        ]) == 0
        assert (re_dir / "report.csv").exists()

    def test_report_into_its_own_run_dir_keeps_cell_files(self, cohort, tmp_path):
        run_dir = tmp_path / "run"
        assert main([
            "pipeline", "--manifest", str(cohort), "--out", str(run_dir),
            "--expressions", "happiness_lower",
        ]) == 0

        def contents():
            return {p: p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}

        before = contents()
        assert (run_dir / "results.jsonl").stat().st_size > 0
        assert list((run_dir / "intervals").glob("*.tsv"))
        assert main([
            "report", "--results", str(run_dir / "report.json"), "--out", str(run_dir),
        ]) == 0
        # the three tables are rewritten byte for byte; the per-cell files are untouched
        assert contents() == before

    def test_intervals_and_granger_subcommands(self, cohort, tmp_path):
        # granger writes pipeline's results.jsonl: on mined intervals, and on
        # the intervals pipeline wrote (per_au takes no written selection)
        for name, config in (("default", {}), ("wide", WIDE)):
            flags = ["--manifest", str(cohort)]
            if config:
                flags += ["--expressions", ",".join(config["expressions"]),
                          "--signal-mode", config["signal_mode"], "--mode", config["gc_mode"]]
            run = tmp_path / name / "run"
            assert main(["pipeline", "--out", str(run)] + flags) == 0
            want = (run / "results.jsonl").read_bytes()
            extras = [[]] if config else [[], ["--intervals-dir", str(run / "intervals")]]
            for i, extra in enumerate(extras):
                gc = tmp_path / name / f"gc{i}"
                assert main(["granger", "--out", str(gc)] + flags + extra) == 0
                assert (gc / "results.jsonl").read_bytes() == want

    def test_alpha_one_rejects_everywhere(self, cohort, tmp_path):
        out = tmp_path / "alpha1"
        assert main([
            "pipeline", "--manifest", str(cohort), "--out", str(out),
            "--alpha", "1.0", "--expressions", "happiness_lower",
        ]) == 0
        data = json.loads((out / "report.json").read_text())
        for cond in data["conditions"]:
            for row in cond["rows"]:
                for method in ("full_span", "interval_selected"):
                    counts = row[method]
                    analyzable = sum(counts.values())
                    # every analyzable cell with a fitted test rejects both ways;
                    # only cells without intervals can stay "none"
                    assert counts["s_gc_r"] == 0 and counts["r_gc_s"] == 0
                    if method == "full_span":
                        assert counts["bidirectional"] == analyzable

    def test_synth_subcommand(self, tmp_path):
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--pairs", "1", "--length", "900",
                     "--seed", "5"]) == 0
        assert (out / "manifest.csv").exists()

    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_synth_needs_a_pair(self, tmp_path, capsys, pairs):
        # it used to write a header-only manifest, which ingest and pipeline accepted
        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--pairs", pairs]) == 1
        assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err
        assert not out.exists()


#: every computable expression, per_au + averaged: the config of perfbench's wide workload
WIDE = {
    "expressions": tuple(e.name for e in EXPRESSIONS if e.available_in(AU_IDS)),
    "signal_mode": "per_au",
    "gc_mode": "averaged",
}


class TestStages:
    """Each subcommand runs only the stages its output needs."""

    @staticmethod
    def _count(monkeypatch, names):
        calls = {name: 0 for name in names}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in names:
            monkeypatch.setattr(pipeline, name, counted(name, getattr(pipeline, name)))
        return calls

    def test_intervals_runs_no_test(self, small_cohort, tmp_path, monkeypatch):
        calls = self._count(
            monkeypatch,
            ("mine_shifted", "select_order", "gc_test", "baseline_stats", "condition_comparison"),
        )
        for config in ([], ["--signal-mode", "per_au", "--mode", "averaged"]):
            argv = ["intervals", "--manifest", str(small_cohort), "--out", str(tmp_path / "iv")]
            assert main(argv + config) == 0
        assert calls.pop("mine_shifted") > 0
        assert calls == {name: 0 for name in calls}

    def test_granger_runs_no_occurrence_stage(self, small_cohort, tmp_path, monkeypatch):
        ivdir = tmp_path / "iv"
        assert main(["intervals", "--manifest", str(small_cohort), "--out", str(ivdir)]) == 0
        calls = self._count(
            monkeypatch, ("gc_test", "baseline_stats", "au_activation", "condition_comparison")
        )
        argv = ["granger", "--manifest", str(small_cohort), "--out", str(tmp_path / "gc")]
        assert main(argv) == 0
        assert main(argv + ["--intervals-dir", str(ivdir)]) == 0
        assert main(argv + ["--signal-mode", "per_au"]) == 0
        assert calls.pop("gc_test") > 0
        assert calls == {name: 0 for name in calls}

    @pytest.mark.parametrize("config", [{}, WIDE], ids=["default", "wide"])
    def test_intervals_writes_what_pipeline_writes(self, cohort, tmp_path, capsys, config):
        flags = ["--manifest", str(cohort)]
        if config:
            flags += ["--expressions", ",".join(config["expressions"]),
                      "--signal-mode", config["signal_mode"], "--mode", config["gc_mode"]]
        assert main(["pipeline", "--out", str(tmp_path / "run")] + flags) == 0
        capsys.readouterr()
        ivdir = tmp_path / "iv"
        assert main(["intervals", "--out", str(ivdir)] + flags) == 0
        printed = capsys.readouterr().out

        cells = run_pipeline(Manifest.load(cohort), AnalysisConfig(**config)).cells
        assert printed == "".join(
            f"{ivdir / f'{c.pair_id}_{c.condition}_{c.expression}.tsv'}: "
            f"{len(c.intervals)} intervals, {c.selected_frames} frames\n"
            for c in cells
        )
        assert any(c.selected_frames for c in cells)

        def tsvs(directory):
            return {p.name: p.read_bytes() for p in directory.glob("*.tsv")}

        assert tsvs(ivdir) == tsvs(tmp_path / "run" / "intervals")
        assert len(tsvs(ivdir)) == len(cells)

    def test_missing_intervals_dir_is_a_data_error(self, small_cohort, tmp_path, capsys):
        # it used to be read as an empty map, and every cell was mined instead
        missing, out = tmp_path / "does_not_exist", tmp_path / "gc"
        argv = ["granger", "--manifest", str(small_cohort), "--out", str(out)]
        assert main(argv + ["--intervals-dir", str(missing)]) == 2
        assert str(missing / "pair01_contempt_happiness_lower.tsv") in capsys.readouterr().err
        assert not (out / "results.jsonl").exists()

    def test_every_cell_needs_its_tsv(self, small_cohort, tmp_path, capsys):
        ivdir, out = tmp_path / "iv", tmp_path / "gc"
        assert main(["intervals", "--manifest", str(small_cohort), "--out", str(ivdir)]) == 0
        kept = list(ivdir.glob("*_happiness_lower.tsv"))
        assert len(kept) == 3
        for path in ivdir.glob("*.tsv"):
            if path not in kept:
                path.unlink()
        capsys.readouterr()
        argv = ["granger", "--manifest", str(small_cohort), "--out", str(out),
                "--intervals-dir", str(ivdir)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "pair01_contempt_" in err and ".tsv" in err
        assert not (out / "results.jsonl").exists()

    def test_only_the_manifest_cells_are_read(self, small_cohort, tmp_path):
        ivdir = tmp_path / "iv"
        assert main(["intervals", "--manifest", str(small_cohort), "--out", str(ivdir)]) == 0
        (ivdir / "pair99_contempt_happiness_lower.tsv").write_text("not\ta\tselection\n")
        (ivdir / "notes.tsv").write_text("junk\n")
        argv = ["granger", "--manifest", str(small_cohort), "--out", str(tmp_path / "gc")]
        assert main(argv + ["--intervals-dir", str(ivdir)]) == 0

    def test_malformed_tsv_names_the_file(self, small_cohort, tmp_path, capsys):
        ivdir = tmp_path / "iv"
        assert main(["intervals", "--manifest", str(small_cohort), "--out", str(ivdir)]) == 0
        bad = ivdir / "pair01_objective_sadness_lower.tsv"
        bad.write_text("12\tx\t\n")
        with pytest.raises(FormatError, match="sadness_lower.tsv: line 1"):
            read_selections(ivdir, Manifest.load(small_cohort), AnalysisConfig())
        argv = ["granger", "--manifest", str(small_cohort), "--out", str(tmp_path / "gc"),
                "--intervals-dir", str(ivdir)]
        assert main(argv) == 2
        assert f"error: {bad}: line 1: " in capsys.readouterr().err

    def test_byte_order_mark_skipped(self, small_cohort, tmp_path):
        # a spreadsheet program saves a TSV with ef bb bf in front
        ivdir, bom = tmp_path / "iv", tmp_path / "bom"
        assert main(["intervals", "--manifest", str(small_cohort), "--out", str(ivdir)]) == 0
        bom.mkdir()
        for path in ivdir.glob("*.tsv"):
            (bom / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        manifest = Manifest.load(small_cohort)
        plain = read_selections(ivdir, manifest, AnalysisConfig())
        assert any(
            len(sel)
            for per_condition in plain.values()
            for per_expr in per_condition.values()
            for sel in per_expr.values()
        )
        assert read_selections(bom, manifest, AnalysisConfig()) == plain
        argv = ["granger", "--manifest", str(small_cohort)]
        assert main(argv + ["--out", str(tmp_path / "gc"), "--intervals-dir", str(ivdir)]) == 0
        assert main(argv + ["--out", str(tmp_path / "gc_bom"), "--intervals-dir", str(bom)]) == 0
        written = (tmp_path / "gc_bom" / "results.jsonl").read_bytes()
        assert written == (tmp_path / "gc" / "results.jsonl").read_bytes()

    def test_non_utf8_tsv_names_the_file(self, small_cohort, tmp_path, capsys):
        ivdir = tmp_path / "iv"
        assert main(["intervals", "--manifest", str(small_cohort), "--out", str(ivdir)]) == 0
        bad = ivdir / "pair01_objective_sadness_lower.tsv"
        bad.write_bytes(b"12\t\xff\t\n")
        with pytest.raises(FormatError, match="sadness_lower.tsv: 'utf-8' codec can't decode"):
            read_selections(ivdir, Manifest.load(small_cohort), AnalysisConfig())
        argv = ["granger", "--manifest", str(small_cohort), "--out", str(tmp_path / "gc"),
                "--intervals-dir", str(ivdir)]
        assert main(argv) == 2
        assert f"error: {bad}: 'utf-8' codec can't decode" in capsys.readouterr().err
        assert not (tmp_path / "gc" / "results.jsonl").exists()

    @pytest.mark.parametrize(
        "text", ["not json\n", '{"conditions": [], "occurrence": []}\n'], ids=["text", "no_config"]
    )
    def test_report_of_a_bad_file_is_a_data_error(self, tmp_path, capsys, text):
        saved = tmp_path / "report.json"
        saved.write_text(text)
        assert main(["report", "--results", str(saved), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {saved}: not a saved report.json" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _nan_in(path, row=5):
    """Write NaN into the last column (AU45_r) of CSV row ``row`` of a recording."""
    lines = path.read_text().splitlines()
    cells = lines[row - 1].split(",")
    cells[-1] = "nan"
    lines[row - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestPairTasks:
    """A pair is the unit of work: each task reads and analyzes one pair's files."""

    def test_one_pair_of_recordings_at_a_time(self, cohort, monkeypatch):
        manifest = Manifest.load(cohort)
        pair_of = {row.path: row.pair_id for row in manifest.rows}
        live, seen = weakref.WeakSet(), []
        real = pipeline.parse_au_csv

        def tracked(path):
            rec = real(path)
            live.add(rec)
            limit = 2 * len(manifest.conditions_of(pair_of[path]))
            seen.append((len(live), limit))
            return rec

        monkeypatch.setattr(pipeline, "parse_au_csv", tracked)
        cfg = AnalysisConfig(expressions=("happiness_lower",))
        run_pipeline(manifest, cfg)
        selections = mine_selections(manifest, cfg)
        analyze_cells(manifest, cfg)
        analyze_cells(manifest, cfg, selections)
        assert len(seen) == 4 * len(manifest.rows)
        assert all(n <= limit for n, limit in seen), max(seen)
        # a pair's recordings are all held while its task runs
        assert max(n for n, _ in seen) == 2 * len(manifest.conditions_of("pair01"))

    def test_two_workers_write_what_one_writes(self, cohort, tmp_path):
        flags = ["--manifest", str(cohort)]
        for w in ("1", "2"):
            out = tmp_path / w
            assert main(["pipeline", "--out", str(out / "run"), "--workers", w] + flags) == 0
            assert main(["intervals", "--out", str(out / "iv"), "--workers", w] + flags) == 0
            given = ["--intervals-dir", str(out / "run" / "intervals")]
            assert main(["granger", "--out", str(out / "gc"), "--workers", w] + flags + given) == 0

        def written(root):
            # report.json echoes the config, workers included
            files = (p for p in root.rglob("*") if p.is_file() and p.name != "report.json")
            return {p.relative_to(root): p.read_bytes() for p in files}

        one, two = written(tmp_path / "1"), written(tmp_path / "2")
        assert {"results.jsonl", "report.csv", "occurrence.csv"} <= {p.name for p in one}
        cells = len(Manifest.load(cohort).rows) // 2 * len(AnalysisConfig().expressions)
        assert len([p for p in one if p.parts[0] == "iv"]) == cells
        assert one == two

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_file_in_the_last_pair_is_named(self, tmp_path, capsys, workers):
        manifest = make_demo_cohort(tmp_path / "c", n_pairs=3, length=600, seed=5)
        bad = tmp_path / "c" / "pair03_objective_sender.csv"
        _nan_in(bad)
        out = tmp_path / "out"
        argv = ["pipeline", "--manifest", str(manifest), "--out", str(out), "--workers", workers]
        assert main(argv) == 2
        assert f"error: {bad}: bad value in row 5: AU45_r is nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_first_bad_pair_in_sorted_order_is_named(self, tmp_path, capsys, workers):
        manifest = make_demo_cohort(tmp_path / "c", n_pairs=3, length=600, seed=5)
        # the manifest lists pair03 first; pairs still run in sorted order
        header, *rows = manifest.read_text().splitlines()
        manifest.write_text("\n".join([header] + rows[::-1]) + "\n")
        first, later = (tmp_path / "c" / f"pair0{i}_contempt_receiver.csv" for i in (2, 3))
        for path in (first, later):
            _nan_in(path)
        out = tmp_path / "out"
        argv = ["pipeline", "--manifest", str(manifest), "--out", str(out), "--workers", workers]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {first}: bad value in row 5: AU45_r is nan" in err
        assert str(later) not in err
        assert not out.exists()

    def test_per_au_refuses_written_selections_before_reading_a_file(self, cohort, monkeypatch):
        reads = []
        monkeypatch.setattr(pipeline, "parse_au_csv", reads.append)
        manifest = Manifest.load(cohort)
        given = {p: {} for p in manifest.pair_ids()}
        with pytest.raises(ConfigError, match="per_au"):
            analyze_cells(manifest, AnalysisConfig(signal_mode="per_au"), given)
        assert reads == []
