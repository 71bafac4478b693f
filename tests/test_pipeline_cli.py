import json

import numpy as np
import pytest

from dyadgc import pipeline
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
    load_recordings,
    read_selections,
    report_from_dict,
    report_to_dict,
    run_pipeline,
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

    def test_bad_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("pair,role\n")
        with pytest.raises(FormatError):
            Manifest.load(p)


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

    def test_determinism_and_worker_equivalence(self, cohort):
        manifest = Manifest.load(cohort)
        cfg = AnalysisConfig(expressions=("happiness_lower",))
        a = report_to_dict(run_pipeline(manifest, cfg))
        b = report_to_dict(run_pipeline(manifest, with_overrides(cfg, workers=2)))
        assert a["conditions"] == b["conditions"]
        assert a["occurrence"] == b["occurrence"]

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
        again = analyze_cells(manifest, load_recordings(manifest), cfg, written)
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
        AURecording(f"p1-{role}", "respectful", role, np.arange(n), conf,
                    1.0 + 3.0 * rng.random((len(AU_IDS), n)))
        for role in ("sender", "receiver")
    )


class TestPerCellPath:
    @pytest.mark.parametrize("n_kept", [1, 2])
    def test_tiny_kept_span_is_insufficient(self, n_kept):
        sender, receiver = _pair_with_kept(200, range(50, 50 + n_kept))
        cfg = AnalysisConfig(expressions=("happiness_lower",))
        (cell,) = analyze_pair_condition(sender, receiver, cfg)
        assert (cell.full_status, cell.sel_status) == ("insufficient", "no_intervals")
        assert cell.kept_frames == n_kept
        # per_au: every member-AU full-span test is insufficient, so the cell is
        # too; no member AU has an interval, so the cell has none either
        (cell,) = analyze_pair_condition(
            sender, receiver, with_overrides(cfg, signal_mode="per_au")
        )
        assert (cell.full_status, cell.sel_status) == ("insufficient", "no_intervals")
        assert (cell.full_outcome, cell.sel_outcome) == (None, None)

    def test_no_regression_row_straddles_a_confidence_gap(self):
        # frames 300..309 fail the confidence cutoff, splitting the selection in two
        kept = [f for f in range(600) if not 300 <= f <= 309]
        sender, receiver = _pair_with_kept(600, kept)
        selection = IntervalSet((Interval(200, 500),))
        (cell,) = analyze_pair_condition(
            sender, receiver, AnalysisConfig(expressions=("happiness_upper",)),
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
        (cell,) = analyze_pair_condition(sender, receiver, cfg)
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
            analyze_pair_condition(sender, receiver, with_overrides(cfg, expressions=(name,)))[0]
            for name in cfg.expressions
        ]
        calls = self._count_mining(monkeypatch)
        cells = analyze_pair_condition(sender, receiver, cfg)
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
        cells = analyze_pair_condition(sender, receiver, cfg, selections=given)
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
                sender, receiver, with_overrides(cfg, expressions=(name,))
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
        receiver = AURecording(
            receiver.participant_id, receiver.condition, receiver.role,
            receiver.frame_indices, receiver.confidence, intens,
        )
        # happiness_lower = {12, 25} and fear_lower = {20, 25} share AU25
        cfg = AnalysisConfig(expressions=("happiness_lower", "fear_lower"), signal_mode="per_au")
        alone, inputs, calls = self._alone(monkeypatch, sender, receiver, cfg)
        cells = analyze_pair_condition(sender, receiver, cfg)
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
            analyze_pair_condition(sender, receiver, cfg, selections=given)
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
        reports, occurrence = report_from_dict(data)
        assert reports == result.reports
        assert occurrence == result.occurrence

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
        for rec in _pair_with_kept(10, range(10)):
            path = tmp_path / f"{rec.role}.csv"
            write_au_csv(path, rec)
            rows.append(f"p1,{rec.role},respectful,{path.name}")
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
        got = [(span, value) for span, video_len, value in seen if video_len == 580]
        assert got == [(600, v) for v in expected]

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
        for fmt in ("csv", "json"):
            assert main([
                "report", "--results", str(run_dir / "report.json"), "--out", str(run_dir),
                "--format", fmt,
            ]) == 0
        assert contents() == before

    def test_intervals_and_granger_subcommands(self, cohort, tmp_path):
        ivdir = tmp_path / "iv"
        assert main([
            "intervals", "--manifest", str(cohort), "--out", str(ivdir),
            "--expressions", "happiness_lower",
        ]) == 0
        assert list(ivdir.glob("*.tsv"))

        gdir = tmp_path / "gc"
        assert main([
            "granger", "--manifest", str(cohort), "--out", str(gdir),
            "--expressions", "happiness_lower",
        ]) == 0
        selected = [json.loads(l) for l in (gdir / "results.jsonl").read_text().splitlines()]
        assert all(r["method"] == "selected" for r in selected)

        gdir2 = tmp_path / "gc_full"
        assert main([
            "granger", "--manifest", str(cohort), "--out", str(gdir2), "--full-span",
            "--expressions", "happiness_lower",
        ]) == 0
        full = [json.loads(l) for l in (gdir2 / "results.jsonl").read_text().splitlines()]
        assert all(r["method"] == "full" for r in full)
        assert len(full) == len(selected)

        # the written intervals give the same selected-side records
        gdir3 = tmp_path / "gc_pre"
        assert main([
            "granger", "--manifest", str(cohort), "--out", str(gdir3),
            "--intervals-dir", str(ivdir), "--expressions", "happiness_lower",
        ]) == 0
        again = [json.loads(l) for l in (gdir3 / "results.jsonl").read_text().splitlines()]
        assert [r["outcome"] for r in again] == [r["outcome"] for r in selected]

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

    @pytest.mark.parametrize(
        "text", ["not json\n", '{"conditions": [], "occurrence": []}\n'], ids=["text", "no_config"]
    )
    def test_report_of_a_bad_file_is_a_data_error(self, tmp_path, capsys, text):
        saved = tmp_path / "report.json"
        saved.write_text(text)
        assert main(["report", "--results", str(saved), "--out", str(tmp_path / "o")]) == 2
        assert f"error: {saved}: not a saved report.json" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
