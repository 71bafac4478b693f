import csv
import warnings
from pathlib import Path

import numpy as np
import pytest

from dyadgc import au_features
from dyadgc.au_features import (
    AU_IDS,
    AU_ROW,
    AURecording,
    EXPRESSIONS,
    EXPRESSIONS_BY_NAME,
    ExpressionDef,
    au_activation,
    au_column,
    baseline_stats,
    confidence_sync,
    count_activations,
    expression_activation,
    expression_signal,
    parse_au_csv,
    write_au_csv,
)
from dyadgc.errors import ConfigError, DegenerateSeries, EmptyOverlap, FormatError, ShapeError
from dyadgc.synth import make_demo_cohort
from dyadgc.timeseries import runs

DATA = Path(__file__).parent / "data"


def make_recording(n=20, pid="p1", condition="respectful", role="sender",
                   confidence=None, au_values=None, start=1):
    frames = np.arange(start, start + n)
    conf = np.ones(n) if confidence is None else np.asarray(confidence, dtype=float)
    intens = np.full((len(AU_IDS), n), 0.5)
    for a, vals in (au_values or {}).items():
        intens[AU_ROW[a]] = vals
    return AURecording(pid, condition, role, frames, conf, intens)


def csv_text(rows, header=None):
    if header is None:
        header = ["frame", "confidence"] + [au_column(a) for a in AU_IDS]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_text(tmp_path, text):
    """Write ``text`` byte for byte to a CSV file and parse it with :func:`parse_au_csv`."""
    path = tmp_path / "rec.csv"
    path.write_bytes(text.encode())
    return parse_au_csv(path)


def reference_parse(path):
    """The row-by-row parser on a file, as :func:`parse_au_csv` falls back to it."""
    with path.open(newline="") as fh:
        return au_features._parse_au_stream(fh, str(path), "", "", "")


def outcome(parse, path):
    """A parser's result on a file: the bytes of its three arrays, or its FormatError text."""
    try:
        rec = parse(path)
    except FormatError as exc:
        return str(exc)
    return [a.tobytes() for a in (rec.frame_indices, rec.confidence, rec.intensities)]


def data_lines(n=5, extra=0):
    """Header and n rows of distinct values, ``extra`` unused columns before the AU columns."""
    header = [f"pose_{i}" for i in range(extra)] + ["frame", "confidence"]
    header += [au_column(a) for a in AU_IDS]
    rows = [
        [f"{k * 0.25 - i:.2f}" for i in range(extra)]
        + [str(k + 1), f"{0.9 + k / 100:.2f}"]
        + [f"{(k * 17 + i) / 20:.6f}" for i in range(len(AU_IDS))]  # inside 0..5
        for k in range(n)
    ]
    return [",".join(header)] + [",".join(r) for r in rows]


def with_cell(line, col, value):
    cells = line.split(",")
    cells[col] = value
    return ",".join(cells)


LINES = data_lines()
AU12 = 2 + AU_IDS.index(12)

#: files the C reader must serve on its own
FAST_CASES = {
    "crlf": "\r\n".join(LINES) + "\r\n",
    "cr_only": "\r".join(LINES) + "\r",
    "no_trailing_newline": "\n".join(LINES),
    "blank_line": "\n".join(LINES[:3] + [""] + LINES[3:]) + "\n",
    # OpenFace width: the AU columns after 680 others
    "wide_openface": "\n".join(data_lines(extra=680)) + "\n",
}

#: files either parser may serve; each must come out as the reference makes it
EDGE_CASES = {
    "whitespace_row": "\n".join(LINES[:3] + ["   "] + LINES[3:]) + "\n",
    "all_comma_row": "\n".join(LINES[:3] + ["," * 18] + LINES[3:]) + "\n",
    "quoted_cell": "\n".join(LINES[:2] + [with_cell(LINES[2], AU12, '"1.5"')] + LINES[3:]) + "\n",
    # split at every comma, the quoted note would shift each later cell one column right
    "quoted_comma": "\n".join(
        ["note,pose," + LINES[0]] + [f'"a,b",{k + 10},' + line for k, line in enumerate(LINES[1:])]
    )
    + "\n",
    "underscore_digits": "\n".join(LINES[:2] + [with_cell(LINES[2], AU12, "0.1_2_5")] + LINES[3:])
    + "\n",
    "short_row": "\n".join(LINES[:2] + ["3,0.9,0.5"] + LINES[3:]) + "\n",
    "hash_row": "\n".join(LINES[:2] + ["#" + LINES[2]] + LINES[3:]) + "\n",
    "header_only": LINES[0] + "\n",
    "header_without_newline": LINES[0],
    "header_and_blank_lines": LINES[0] + "\n\n\n",
}


class TestRecording:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["intensity", "confidence"])
    def test_non_finite_value_rejected(self, field, bad):
        # clipping keeps a NaN, which later aborted the pair's analysis, and
        # would turn an Inf into a bound
        n = 600
        conf, intens = np.ones(n), np.ones((len(AU_IDS), n))
        if field == "intensity":
            intens[AU_ROW[6], 100] = bad
        else:
            conf[100] = bad
        with pytest.raises(ShapeError, match="finite"):
            AURecording("p1-sender", "respectful", "sender", np.arange(n), conf, intens)


class TestParse:
    def test_intensities_echoed(self, tmp_path):
        rows = []
        for i, v in enumerate([0.0, 1.0, 2.0]):
            vals = {a: 0.1 for a in AU_IDS}
            vals[6] = v
            rows.append([i + 1, 0.99] + [vals[a] for a in AU_IDS])
        rec = parse_text(tmp_path, csv_text(rows))
        np.testing.assert_allclose(rec.intensities[AU_ROW[6]], [0.0, 1.0, 2.0])
        assert rec.n_frames == 3

    def test_missing_confidence_column(self, tmp_path):
        header = ["frame"] + [au_column(a) for a in AU_IDS]
        text = csv_text([[1] + [0.0] * len(AU_IDS)], header=header)
        with pytest.raises(FormatError, match="confidence"):
            parse_text(tmp_path, text)

    def test_non_numeric_cell_reports_row(self, tmp_path):
        rows = [[1, 0.99] + [0.0] * len(AU_IDS), [2, "oops"] + [0.0] * len(AU_IDS)]
        with pytest.raises(FormatError, match="row 3"):
            parse_text(tmp_path, csv_text(rows))

    def test_header_whitespace_tolerated(self, tmp_path):
        header = [" frame", " confidence"] + [f" {au_column(a)}" for a in AU_IDS]
        text = csv_text([[1, 0.5] + [1.0] * len(AU_IDS)], header=header)
        rec = parse_text(tmp_path, text)
        assert rec.n_frames == 1

    def test_extra_columns_ignored(self, tmp_path):
        header = ["frame", "confidence", "pose_Rx"] + [au_column(a) for a in AU_IDS]
        text = csv_text([[1, 0.9, 123.4] + [0.3] * len(AU_IDS)], header=header)
        rec = parse_text(tmp_path, text)
        assert rec.intensities[AU_ROW[45], 0] == pytest.approx(0.3)

    def test_round_trip_large_file(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 10_000
        rec = AURecording(
            "p9", "contempt", "receiver",
            np.arange(1, n + 1),
            rng.random(n),
            rng.random((len(AU_IDS), n)) * 5,
        )
        path = tmp_path / "rec.csv"
        write_au_csv(path, rec)
        again = parse_au_csv(path, "p9", "contempt", "receiver")
        np.testing.assert_array_equal(again.frame_indices, rec.frame_indices)
        np.testing.assert_array_equal(again.confidence, rec.confidence)
        np.testing.assert_array_equal(again.intensities, rec.intensities)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("frame", "inf"),
            ("frame", "1e30"),
            ("confidence", "nan"),
            ("AU05_r", "nan"),
            ("AU12_r", "nan"),
            ("AU06_r", "inf"),
        ],
    )
    def test_unusable_value_reports_row(self, column, value, tmp_path):
        header = ["frame", "confidence"] + [au_column(a) for a in AU_IDS]
        rows = [[f, 0.99] + [0.5] * len(AU_IDS) for f in (1, 2, 3)]
        rows[1][header.index(column)] = value
        with pytest.raises(FormatError, match=f"row 3: {column} is "):
            parse_text(tmp_path, csv_text(rows, header=header))

    def test_columns_mapped_by_name(self, tmp_path):
        rng = np.random.default_rng(7)
        n = 6
        intens = rng.random((len(AU_IDS), n)) * 5
        conf = rng.random(n)
        header = ["confidence", "pose_Rx"] + [au_column(a) for a in reversed(AU_IDS)] + ["frame"]
        lines = [",".join(header)]
        for k in range(n):
            values = [conf[k], -1.0, *intens[::-1, k], k + 1]
            lines.append(",".join(repr(float(v)) for v in values))
        lines.insert(4, "")  # a blank line between the third and fourth frame
        rec = parse_text(tmp_path, "\n".join(lines) + "\n")
        np.testing.assert_array_equal(rec.intensities, intens)
        np.testing.assert_array_equal(rec.confidence, conf)
        np.testing.assert_array_equal(rec.frame_indices, np.arange(1, n + 1))

        # the fifth frame sits on CSV row 7, one below its place without the blank
        cells = lines[6].split(",")
        cells[header.index("AU12_r")] = "nan"
        lines[6] = ",".join(cells)
        with pytest.raises(FormatError, match="row 7: AU12_r is nan"):
            parse_text(tmp_path, "\n".join(lines) + "\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            parse_au_csv(tmp_path / "nope.csv")

    def test_decreasing_frames_rejected(self, tmp_path):
        rows = [[2, 0.9] + [0.0] * len(AU_IDS), [1, 0.9] + [0.0] * len(AU_IDS)]
        with pytest.raises(FormatError):
            parse_text(tmp_path, csv_text(rows))

    # the bad byte sits in the header, in the first data row, or in a row
    # thousands of bytes in, past the text the header read decodes
    @pytest.mark.parametrize("line", [0, 1, 1500])
    def test_non_utf8_byte_is_a_format_error(self, line, tmp_path):
        rows = [[i + 1, 0.95] + [0.25] * len(AU_IDS) for i in range(2000)]
        lines = csv_text(rows).encode().split(b"\n")
        lines[line] += b",\xff\xfe"
        path = tmp_path / "rec.csv"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match="not UTF-8") as exc:
            parse_au_csv(path)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("name", sorted(FAST_CASES) + sorted(EDGE_CASES))
    def test_matches_reference_parser(self, name, tmp_path, monkeypatch):
        path = tmp_path / f"{name}.csv"
        path.write_bytes({**FAST_CASES, **EDGE_CASES}[name].encode())
        want = outcome(reference_parse, path)
        if name in FAST_CASES:
            monkeypatch.setattr(au_features, "_parse_au_stream", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert outcome(parse_au_csv, path) == want
        assert not caught

    @pytest.mark.parametrize(
        "name, au12",
        [("whitespace_row", None), ("all_comma_row", None), ("quoted_comma", None),
         ("quoted_cell", 1.5), ("underscore_digits", 0.125)],
    )
    def test_edge_rows_read_as_their_values(self, name, au12, tmp_path):
        want = parse_text(tmp_path, "\n".join(LINES) + "\n")
        got = parse_text(tmp_path, EDGE_CASES[name])
        intens = want.intensities.copy()
        if au12 is not None:
            intens[AU_ROW[12], 1] = au12  # the edited cell, in the second frame
        np.testing.assert_array_equal(got.frame_indices, want.frame_indices)
        np.testing.assert_array_equal(got.confidence, want.confidence)
        np.testing.assert_array_equal(got.intensities, intens)

    @pytest.mark.parametrize("name", ["header_only", "header_without_newline", "header_and_blank_lines"])
    def test_header_only_is_zero_frames_without_warning(self, name, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert parse_text(tmp_path, EDGE_CASES[name]).n_frames == 0
        assert not caught

    @pytest.mark.parametrize("name", ["short_row", "hash_row"])
    def test_bad_row_reported_at_its_row(self, name, tmp_path):
        # a row starting with '#' is a bad value, not a comment
        with pytest.raises(FormatError, match="bad value in row 3: "):
            parse_text(tmp_path, EDGE_CASES[name])

    def test_skipped_rows_keep_later_row_numbers(self, tmp_path):
        # a whitespace-only row (CSV row 4) and an all-comma row (row 5) are skipped;
        # the NaN in the fourth frame still sits on CSV row 7
        lines = LINES[:3] + ["  ", ",,,"] + LINES[3:]
        lines[6] = with_cell(lines[6], AU12, "nan")
        text = "\n".join(lines) + "\n"
        with pytest.raises(FormatError, match="row 7: AU12_r is nan"):
            parse_text(tmp_path, text)
        assert outcome(parse_au_csv, tmp_path / "rec.csv") == outcome(
            reference_parse, tmp_path / "rec.csv"
        )

    def test_fast_path_serves_written_and_demo_files(self, tmp_path, monkeypatch):
        """A fallback taken on every file would hide here: the reference parser is refused."""
        written = tmp_path / "written.csv"
        write_au_csv(written, make_recording(50, au_values={6: np.linspace(0.0, 5.0, 50)}))
        manifest = make_demo_cohort(tmp_path / "cohort", n_pairs=1, length=600, seed=3)
        demo = manifest.parent / "pair01_respectful_sender.csv"
        want = [outcome(reference_parse, p) for p in (written, demo)]
        assert all(isinstance(w, list) for w in want)
        monkeypatch.setattr(au_features, "_parse_au_stream", refuse)
        assert [outcome(parse_au_csv, p) for p in (written, demo)] == want


def refuse(*args, **kwargs):
    raise AssertionError("the row-by-row parser was called")


class TestRegistry:
    def test_matches_machine_readable_table(self):
        with (DATA / "expression_aus.csv").open() as fh:
            table = {
                row["expression"]: frozenset(int(a) for a in row["au_ids"].split())
                for row in csv.DictReader(fh)
            }
        assert {e.name: e.au_ids for e in EXPRESSIONS} == table

    def test_eleven_expressions(self):
        assert len(EXPRESSIONS) == 11

    def test_anger_lower_not_computable_from_regression_aus(self):
        assert not EXPRESSIONS_BY_NAME["anger_lower"].available_in(AU_IDS)
        assert all(
            e.available_in(AU_IDS) for e in EXPRESSIONS if e.name != "anger_lower"
        )

    def test_empty_expression_rejected(self):
        with pytest.raises(ConfigError):
            ExpressionDef("nothing", frozenset())


class TestConfidenceSync:
    def test_nothing_dropped_at_full_confidence(self):
        s = make_recording(30)
        r = make_recording(30, pid="p1r", role="receiver")
        pair = confidence_sync(s, r, 0.89)
        assert pair.sender.n_frames == 30
        assert [(iv.start, iv.end) for iv in pair.kept_frames] == [(1, 30)]

    def test_either_side_drops_both(self):
        conf_s = np.ones(10)
        conf_s[4] = 0.5
        s = make_recording(10, confidence=conf_s)
        r = make_recording(10, pid="p1r", role="receiver")
        pair = confidence_sync(s, r, 0.89)
        assert 5 not in pair.sender.frame_indices  # frame index 5 = row 4
        assert 5 not in pair.receiver.frame_indices
        assert pair.sender.n_frames == 9

    @pytest.mark.parametrize("seed", range(8))
    def test_kept_set_matches_per_frame_and(self, seed):
        rng = np.random.default_rng(seed)
        n = 50
        cs, cr = rng.random(n), rng.random(n)
        s = make_recording(n, confidence=cs)
        r = make_recording(n, pid="p1r", role="receiver", confidence=cr)
        want = np.flatnonzero((cs >= 0.89) & (cr >= 0.89)) + 1
        if want.size == 0:
            with pytest.raises(EmptyOverlap):
                confidence_sync(s, r, 0.89)
            return
        pair = confidence_sync(s, r, 0.89)
        np.testing.assert_array_equal(pair.sender.frame_indices, want)
        np.testing.assert_array_equal(pair.receiver.frame_indices, want)

    def test_empty_intersection(self):
        s = make_recording(10, confidence=np.full(10, 0.2))
        r = make_recording(10, pid="p1r", role="receiver")
        with pytest.raises(EmptyOverlap):
            confidence_sync(s, r, 0.89)

    def test_gap_runs_recorded(self):
        conf = np.ones(10)
        conf[3] = conf[4] = 0.1
        s = make_recording(10, confidence=conf)
        r = make_recording(10, pid="p1r", role="receiver")
        pair = confidence_sync(s, r)
        assert [(iv.start, iv.end) for iv in pair.kept_frames] == [(1, 3), (6, 10)]


class TestBaseline:
    def test_constant_intensity(self):
        recs = [
            make_recording(10, condition=c, au_values={6: np.full(10, 2.0)})
            for c in ("respectful", "contempt", "objective")
        ]
        base = baseline_stats(recs)
        assert base.mean[AU_ROW[6]] == 2.0
        assert base.std[AU_ROW[6]] == 0.0
        assert base.complete

    def test_pooled_sample_std(self):
        rec = make_recording(4, au_values={6: [0.0, 0.0, 4.0, 4.0]})
        base = baseline_stats([rec])
        assert base.mean[AU_ROW[6]] == 2.0
        assert base.std[AU_ROW[6]] == pytest.approx(np.std([0, 0, 4, 4], ddof=1))

    def test_rows_equal_per_au_reduction(self):
        rng = np.random.default_rng(8)
        recs = [
            make_recording(n, condition=c, au_values={a: rng.random(n) * 5 for a in AU_IDS})
            for n, c in ((37, "respectful"), (1, "contempt"), (250, "objective"))
        ]
        base = baseline_stats(recs)
        for a in AU_IDS:
            pooled = np.concatenate([rec.intensities[AU_ROW[a]] for rec in recs])
            assert base.mean[AU_ROW[a]] == pooled.mean()
            assert base.std[AU_ROW[a]] == pooled.std(ddof=1)

    def test_single_condition_flagged(self):
        base = baseline_stats([make_recording(10)])
        assert base.n_conditions == 1
        assert not base.complete

    def test_zero_frames(self):
        with pytest.raises(DegenerateSeries):
            baseline_stats([make_recording(0)])

    def test_mixed_participants_rejected(self):
        with pytest.raises(ConfigError):
            baseline_stats([make_recording(5), make_recording(5, pid="other")])


class TestActivation:
    def test_boundary_inclusive_at_zero_std(self):
        rec = make_recording(5, au_values={6: np.full(5, 2.0)})
        base = baseline_stats([rec])
        active = au_activation(rec, base)
        assert active.shape == (len(AU_IDS), 5)
        assert active[AU_ROW[6]].all()  # intensity == mean and std == 0: >= holds

    def test_threshold_arithmetic(self):
        rec = make_recording(2, au_values={6: [1.9, 2.0]})
        base_rec = make_recording(40, au_values={6: list(np.tile([-1, 3], 20))})
        base = baseline_stats([base_rec])
        # mean 1, std ~2.0254: threshold slightly above 2.0 at factor 0.5
        thr = base.mean[AU_ROW[6]] + 0.5 * base.std[AU_ROW[6]]
        active = au_activation(rec, base)
        np.testing.assert_array_equal(active[AU_ROW[6]], np.array([1.9, 2.0]) >= thr)

    def test_single_run_for_single_crossing(self):
        vals = np.concatenate([np.zeros(10), np.full(5, 5.0), np.zeros(10)])
        rec = make_recording(25, au_values={6: vals})
        base = baseline_stats([rec])
        active = au_activation(rec, base)
        # columns start at the recording's first frame, 1
        assert runs(active[AU_ROW[6]], 1) == [(11, 15)]

    def test_raising_factor_is_monotone(self):
        rng = np.random.default_rng(1)
        rec = make_recording(200, au_values={a: rng.random(200) * 5 for a in AU_IDS})
        base = baseline_stats([rec])
        low = au_activation(rec, base, factor=0.25)
        high = au_activation(rec, base, factor=1.0)
        assert not (high & ~low).any()

    def test_and_semantics(self):
        rng = np.random.default_rng(2)
        rec = make_recording(100, au_values={a: rng.random(100) * 5 for a in AU_IDS})
        base = baseline_stats([rec])
        active = au_activation(rec, base)
        expr = EXPRESSIONS_BY_NAME["sadness_lower"]
        combined = expression_activation(active, expr)
        np.testing.assert_array_equal(combined, active[AU_ROW[15]] & active[AU_ROW[17]])

    def test_absorbing_inactive_au(self):
        active = np.ones((len(AU_IDS), 10), dtype=bool)
        active[AU_ROW[17]] = False
        out = expression_activation(active, EXPRESSIONS_BY_NAME["sadness_lower"])
        assert out.shape == (10,)
        assert not out.any()

    def test_single_au_expression_identity(self):
        rng = np.random.default_rng(3)
        rec = make_recording(50, au_values={6: rng.random(50) * 5})
        base = baseline_stats([rec])
        active = au_activation(rec, base)
        out = expression_activation(active, EXPRESSIONS_BY_NAME["happiness_upper"])
        np.testing.assert_array_equal(out, active[AU_ROW[6]])

    def test_missing_mask_rejected(self):
        # AU24 has no row: OpenFace records no intensity for it
        with pytest.raises(ConfigError):
            expression_activation(np.ones((len(AU_IDS), 3), dtype=bool),
                                  EXPRESSIONS_BY_NAME["anger_lower"])


class TestExpressionSignal:
    def test_single_au_is_identity(self):
        rng = np.random.default_rng(4)
        vals = rng.random(30) * 5
        rec = make_recording(30, au_values={6: vals})
        sig = expression_signal(rec, EXPRESSIONS_BY_NAME["happiness_upper"])
        np.testing.assert_allclose(sig, vals)
        assert sig.shape == rec.frame_indices.shape

    def test_two_au_mean(self):
        rec = make_recording(1, au_values={15: [1.0], 17: [3.0]})
        sig = expression_signal(rec, EXPRESSIONS_BY_NAME["sadness_lower"])
        assert sig[0] == 2.0

    def test_matches_per_frame_mean(self):
        rng = np.random.default_rng(5)
        rec = make_recording(60, au_values={a: rng.random(60) * 5 for a in AU_IDS})
        # a synced recording has gaps; the values stay aligned to its frames
        rec = rec.restrict(np.r_[0:20, 35:60])
        expr = EXPRESSIONS_BY_NAME["disgust_lower"]
        sig = expression_signal(rec, expr)
        want = np.mean([rec.intensities[AU_ROW[a]] for a in sorted(expr.au_ids)], axis=0)
        np.testing.assert_allclose(sig, want)
        assert sig.shape == rec.frame_indices.shape

    def test_missing_au(self):
        rec = make_recording(10)
        with pytest.raises(ConfigError):
            expression_signal(rec, EXPRESSIONS_BY_NAME["anger_lower"])


class TestCounting:
    def test_empty_mask(self):
        assert count_activations(np.zeros(100, dtype=bool), 100) == 0.0

    def test_published_order_of_magnitude(self):
        bits = np.zeros(1000, dtype=bool)
        bits[:129] = True
        assert count_activations(bits, 1000) == pytest.approx(0.129)

    def test_full_mask(self):
        assert count_activations(np.ones(50, dtype=bool), 50) == 1.0

    def test_bad_video_len(self):
        with pytest.raises(ConfigError):
            count_activations(np.ones(5, dtype=bool), 0)
