import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadgc import intervals
from dyadgc.errors import EmptyInput, ShapeError
from dyadgc.intervals import (
    Interval,
    IntervalParams,
    IntervalSet,
    correlated_intervals,
    intersect_sets,
    longest_set,
    mine_shifted,
    postprocess,
    segment_series,
)
from dyadgc.synth import gen_window_pair
from dyadgc.timeseries import TimeSeries, runs

from oracles import (
    oracle_level_walk,
    oracle_longest_set,
    oracle_majority_filter,
    oracle_maximal_intervals,
    oracle_maximal_intervals_tiny,
    oracle_pearson,
    windows_corr,
)


def ts(values, start=0):
    return TimeSeries(np.asarray(values, dtype=float), start)


def correlated_pair(rng, n, rho=0.85):
    base = rng.normal(size=n)
    x = base + np.sqrt(1 / rho**2 - 1) / np.sqrt(2) * rng.normal(size=n)
    y = base + np.sqrt(1 / rho**2 - 1) / np.sqrt(2) * rng.normal(size=n)
    return x, y


def mined(x, y, beta, l_min):
    p = IntervalParams(beta=beta, l_min=l_min, shifts=(0,))
    return [(iv.start, iv.end) for iv in correlated_intervals(x, y, p)]


def level_runs(x, y, beta, l_min):
    """Runs of valid starts per window length, from the oracle's direct window scores."""
    out = {}
    valid = windows_corr(x, y, l_min) >= beta
    l = l_min
    while valid.any():
        idx = np.flatnonzero(valid)
        out[l] = [(int(r[0]), int(r[-1])) for r in np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)]
        if l == len(x):
            break
        valid = valid[:-1] & valid[1:] & (windows_corr(x, y, l + 1) >= beta)
        l += 1
    return out


class TestIntervalTypes:
    def test_interval_validation(self):
        with pytest.raises(ShapeError):
            Interval(5, 4)

    def test_set_rejects_overlap(self):
        with pytest.raises(ShapeError):
            IntervalSet((Interval(0, 10), Interval(10, 20)))

    def test_set_allows_adjacency(self):
        s = IntervalSet((Interval(0, 9), Interval(10, 20)))
        assert s.total_length() == 21

    def test_tsv_round_trip(self):
        s = IntervalSet((Interval(3, 9, shift=-4), Interval(12, 30)))
        again = IntervalSet.from_tsv(s.to_tsv())
        assert [(i.start, i.end, i.shift) for i in again] == [(3, 9, -4), (12, 30, None)]

    def test_mask_round_trip(self):
        s = IntervalSet((Interval(2, 4), Interval(8, 8)))
        mask = s.coverage_mask(10, 0)
        assert runs(mask) == [(iv.start, iv.end) for iv in s]


class TestCorrelatedIntervals:
    def test_identical_series_single_maximal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        p = IntervalParams(beta=0.8, l_min=75, shifts=(0,))
        out = correlated_intervals(x, x, p)
        assert [(iv.start, iv.end) for iv in out] == [(0, 199)]

    def test_absolute_coordinates(self):
        # sample indices from the arrays, absolute frames from mine_shifted's run
        rng = np.random.default_rng(2)
        x = rng.normal(size=120)
        p = IntervalParams(beta=0.8, l_min=50, shifts=(0,))
        assert [(iv.start, iv.end) for iv in correlated_intervals(x, x, p)] == [(0, 119)]
        out = mine_shifted(ts(x, start=500), ts(x, start=500), p)
        assert [(iv.start, iv.end) for iv in out] == [(500, 619)]

    def test_white_noise_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        y = rng.normal(size=500)
        p = IntervalParams(beta=0.8, l_min=75, shifts=(0,))
        got = [(iv.start, iv.end) for iv in correlated_intervals(x, y, p)]
        assert got == oracle_maximal_intervals(x, y, 0.8, 75)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_match_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(60, 220))
        l_min = int(rng.choice([10, 30]))
        beta = float(rng.choice([0.5, 0.8]))
        x, y = correlated_pair(rng, n, rho=0.7)
        got = [(iv.start, iv.end) for iv in
               correlated_intervals(x, y, IntervalParams(beta=beta, l_min=l_min, shifts=(0,)))]
        assert got == oracle_maximal_intervals(x, y, beta, l_min)

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_agrees_with_literal_definition(self, seed):
        # guards the counting oracle itself on tiny instances
        rng = np.random.default_rng(200 + seed)
        n = 36
        x, y = correlated_pair(rng, n, rho=0.75)
        fast = oracle_maximal_intervals(x, y, 0.6, 8)
        literal = oracle_maximal_intervals_tiny(x, y, 0.6, 8)
        assert fast == literal

    def test_planted_windows_recovered(self):
        x, y = gen_window_pair(600, [(100, 250, 1.0), (350, 500, 0.9)], seed=1)
        p = IntervalParams(beta=0.8, l_min=75, shifts=(0,))
        got = [(iv.start, iv.end) for iv in correlated_intervals(x.values, y.values, p)]
        assert got == oracle_maximal_intervals(x.values, y.values, 0.8, 75)
        assert len(got) == 2
        for (a, b), (pa, pb) in zip(got, [(100, 250), (350, 500)]):
            assert abs(a - pa) <= 3 and abs(b - pb) <= 3

    def test_every_result_recheckable(self):
        rng = np.random.default_rng(7)
        x, y = correlated_pair(rng, 300, rho=0.9)
        p = IntervalParams(beta=0.8, l_min=30, shifts=(0,))
        for iv in correlated_intervals(x, y, p):
            whole = oracle_pearson(x[iv.start : iv.end + 1], y[iv.start : iv.end + 1])
            assert whole >= p.beta - 1e-12
            for a in range(iv.start, iv.end - p.l_min + 2):
                w = slice(a, a + p.l_min)
                assert oracle_pearson(x[w], y[w]) >= p.beta - 1e-12

    def test_too_short_raises(self):
        with pytest.raises(ShapeError):
            correlated_intervals(np.zeros(10), np.zeros(10), IntervalParams())

    def test_misaligned_pair_raises(self):
        x = np.random.default_rng(3).normal(size=200)
        with pytest.raises(ShapeError, match="equal length"):
            correlated_intervals(x, x[:150], IntervalParams(l_min=50))
        with pytest.raises(ShapeError, match="equal length"):
            correlated_intervals(x.reshape(2, 100), x.reshape(2, 100), IntervalParams(l_min=50))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_input_raises(self, bad):
        # 1e200 is finite, but its square overflows the prefix sums
        x = np.random.default_rng(3).normal(size=200)
        y = x.copy()
        y[120] = bad
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ShapeError, match="finite"):
            correlated_intervals(x, y, IntervalParams(l_min=50))


class TestRunSlicedLevels:
    """The miner evaluates each length only inside the runs of valid starts."""

    def test_two_separate_stretches(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=400), rng.normal(size=400)
        for a, b in ((40, 160), (250, 370)):
            y[a:b] = x[a:b] + 0.2 * rng.normal(size=b - a)
        assert len(level_runs(x, y, 0.8, 30)[30]) >= 2  # several runs at one level
        got = mined(x, y, 0.8, 30)
        assert got == oracle_maximal_intervals(x, y, 0.8, 30)
        assert any(b < 200 for _, b in got) and any(a > 200 for a, _ in got)

    def test_run_splits_at_a_dip(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=300)
        x, y = base + 0.45 * rng.normal(size=300), base + 0.45 * rng.normal(size=300)
        levels = level_runs(x, y, 0.8, 20)
        # some run at length l holds two or more separate runs at length l + 1
        assert any(
            sum(a <= c and d < b for c, d in levels.get(l + 1, [])) >= 2
            for l, runs in levels.items()
            for a, b in runs
        )
        assert mined(x, y, 0.8, 20) == oracle_maximal_intervals(x, y, 0.8, 20)

    def test_run_stays_valid_up_to_full_length(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=150)
        y = x + 0.1 * rng.normal(size=150)
        assert max(level_runs(x, y, 0.8, 20)) == 150
        assert mined(x, y, 0.8, 20) == oracle_maximal_intervals(x, y, 0.8, 20) == [(0, 149)]

    def test_flat_stretches_score_zero(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=300)
        y = x + 0.2 * rng.normal(size=300)
        x[100:160] = 2.0  # sender flat
        y[220:280] = -1.0  # receiver flat
        got = mined(x, y, 0.5, 25)
        assert got == oracle_maximal_intervals(x, y, 0.5, 25)
        assert got
        for a, b in got:  # no interval holds a window that is flat on one side
            for lo, hi in ((100, 159), (220, 279)):
                assert max(a, lo) + 25 - 1 > min(b, hi)

    def test_beta_one_keeps_only_exact_stretches(self):
        # integers with equal sums: both prefix sums stay exact and the two
        # centered series agree on the shared stretch, so r there is exactly 1
        rng = np.random.default_rng(14)
        x = rng.integers(0, 1000, size=256).astype(float)
        y = x.copy()
        y[:60] = x[:60][::-1]
        y[200:] = x[200:][::-1]
        assert mined(x, y, 1.0, 20) == oracle_maximal_intervals(x, y, 1.0, 20) == [(60, 199)]


def certificate_spy(monkeypatch):
    """Record ((l, a, b), fired) for every run offered to the certificate."""
    calls = []
    real = intervals._certified

    def spy(csum, l, a, b, *rest):
        fired = real(csum, l, a, b, *rest)
        calls.append(((l, a, b), fired))
        return fired

    monkeypatch.setattr(intervals, "_certified", spy)
    return calls


class TestCertificate:
    """A run certified at once emits exactly what walking its levels would."""

    def test_fires_on_a_long_strong_stretch(self, monkeypatch):
        # shaped like the benchmark's long mimicry windows: r about 0.99 over
        # hundreds of frames, inside independent louder noise
        calls = certificate_spy(monkeypatch)
        x, y = gen_window_pair(700, [(100, 599, 0.99)], seed=21)
        p = IntervalParams(beta=0.8, l_min=75, shifts=(0,))
        got = [(iv.start, iv.end) for iv in correlated_intervals(x.values, y.values, p)]
        assert got == oracle_maximal_intervals(x.values, y.values, 0.8, 75)
        certified = [(a, b + l - 1) for (l, a, b), fired in calls if fired]
        assert certified and set(certified) <= set(got)
        # settled long before the walk would reach the stretch's full length
        assert max(l for (l, _, _), fired in calls if fired) < 300

    def test_refuses_a_run_hiding_a_longer_sub_beta_window(self, monkeypatch):
        # y = x plus a slow swing: every 30-frame window sees almost none of
        # the swing and is correlated, windows of a few hundred frames are not
        calls = certificate_spy(monkeypatch)
        rng = np.random.default_rng(22)
        n = 600
        x = rng.normal(size=n)
        y = x + 2.0 * np.sin(2 * np.pi * np.arange(n) / 600) + 0.1 * rng.normal(size=n)
        p = IntervalParams(beta=0.8, l_min=30, shifts=(0,))
        got = [(iv.start, iv.end) for iv in correlated_intervals(x, y, p)]
        assert level_runs(x, y, 0.8, 30)[30] == [(0, n - 30)]  # valid at l_min
        assert (windows_corr(x, y, 300) < 0.8).any()  # but not at 300 frames
        assert got == oracle_maximal_intervals(x, y, 0.8, 30)
        assert calls and not any(fired for _, fired in calls)

    def test_flatness_floor_counts_the_whole_run(self, monkeypatch):
        # A square wave of period 64 after noise. The loud receiver sets the
        # floor; the sender is the same wave scaled so that a 64-frame window
        # (an even split, variance 1/4 of the swing squared per frame) sits
        # at 1.06 tol per frame. Windows of about 100 frames hold an uneven
        # split, fall under the floor and score r = 0. The sender's error
        # bound is small here, so only the floor can refuse.
        calls = certificate_spy(monkeypatch)
        rng = np.random.default_rng(23)
        period = 64
        wave = (np.arange(6 * period) % period < period // 2).astype(float)
        x = np.r_[1e-7 * rng.normal(size=400), wave]
        y = np.r_[5.0 * rng.normal(size=400), wave]
        tol = intervals._prefix_sums(np.zeros_like(y), y)[5]  # set by y alone
        x[400:] *= np.sqrt(tol / 0.235)
        got = mined(x, y, 0.8, period - 1)
        assert got == oracle_level_walk(x, y, 0.8, period - 1)
        assert all(b - a + 1 < 2 * period for a, b in got)
        assert calls and not any(fired for _, fired in calls)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_line_at_beta_one_is_left_to_the_walk(self, monkeypatch, seed):
        # y = 3x + 1 has r = 1, but the walk's float r lands a few ulps on
        # either side of 1 window by window; only the margin keeps the
        # certificate from claiming the whole stretch
        calls = certificate_spy(monkeypatch)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, 400))
        y[100:300] = 3.0 * x[100:300] + 1.0
        assert mined(x, y, 1.0, 20) == oracle_level_walk(x, y, 1.0, 20)
        assert not any(fired for _, fired in calls)

    @pytest.mark.parametrize("delta", [-0.02, -0.01, 0.0, 0.01, 0.02])
    @pytest.mark.parametrize("seed", range(3))
    def test_near_threshold_stretches_match_the_walk(self, monkeypatch, delta, seed):
        calls = certificate_spy(monkeypatch)
        beta = 0.8
        x, y = gen_window_pair(600, [(50, 549, beta + delta)], seed=300 + seed, outside_std=2.0)
        p = IntervalParams(beta=beta, l_min=30, shifts=(0,))
        got = [(iv.start, iv.end) for iv in correlated_intervals(x.values, y.values, p)]
        assert {(a, b + l - 1) for (l, a, b), fired in calls if fired} <= set(got)
        assert got == oracle_level_walk(x.values, y.values, beta, 30)
        assert got == oracle_maximal_intervals(x.values, y.values, beta, 30)

    def test_random_series_match_the_walk(self, monkeypatch):
        calls = certificate_spy(monkeypatch)

        @given(
            st.integers(0, 2**31 - 1),
            st.integers(120, 500),
            st.floats(0.3, 0.99),
            st.integers(2, 79),
            st.lists(st.floats(-0.02, 0.02), min_size=1, max_size=3),
            st.booleans(),
            st.booleans(),
        )
        @settings(max_examples=200)
        def check(seed, n, beta, l_min, deltas, strong, rounded):
            rng = np.random.default_rng(seed)
            l_min = min(l_min, n // 3)
            # back-to-back stretches coupled just below and above beta, one
            # per delta, and optionally one far above it
            rhos = [min(beta + d, 1.0) for d in deltas] + [np.sqrt(1 - (1 - beta**2) / 8)] * strong
            cuts = np.sort(rng.choice(np.arange(1, n), size=len(rhos) - 1, replace=False))
            x = rng.normal(size=n)
            y = np.empty(n)
            for lo, hi, rho in zip(np.r_[0, cuts], np.r_[cuts, n], rhos):
                y[lo:hi] = rho * x[lo:hi] + np.sqrt(1 - rho**2) * rng.normal(size=hi - lo)
            if rounded:
                x, y = np.round(x, 1), np.round(y, 1)
            p = IntervalParams(beta=beta, l_min=l_min, shifts=(0,))
            got = [(iv.start, iv.end) for iv in correlated_intervals(x, y, p)]
            assert got == oracle_level_walk(x, y, beta, l_min)

        check()
        assert any(fired for _, fired in calls)


class TestLongestSet:
    def test_disjoint_all_selected(self):
        cands = [Interval(0, 9), Interval(20, 29), Interval(40, 49)]
        assert list(longest_set(cands)) == cands

    def test_dominance(self):
        out = longest_set([Interval(0, 99), Interval(50, 129)])
        assert [(iv.start, iv.end) for iv in out] == [(0, 99)]

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_exhaustive_search(self, seed):
        rng = np.random.default_rng(300 + seed)
        k = int(rng.integers(1, 16))
        cands = []
        for _ in range(k):
            a = int(rng.integers(0, 60))
            cands.append(Interval(a, a + int(rng.integers(0, 25))))
        got = [(iv.start, iv.end) for iv in longest_set(cands)]
        assert got == oracle_longest_set([(iv.start, iv.end) for iv in cands])

    def test_beats_greedy_by_length(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            cands = []
            for _ in range(int(rng.integers(1, 12))):
                a = int(rng.integers(0, 80))
                cands.append(Interval(a, a + int(rng.integers(0, 30))))
            best = longest_set(cands).total_length()
            chosen = []
            for iv in sorted(cands, key=lambda i: -i.length):
                if all(not iv.overlaps(c) for c in chosen):
                    chosen.append(iv)
            assert best >= sum(iv.length for iv in chosen)


class TestMineShifted:
    def test_degenerate_grid_reduces_to_plain_mining(self):
        rng = np.random.default_rng(5)
        x, y = correlated_pair(rng, 260, rho=0.9)
        p0 = IntervalParams(beta=0.8, l_min=40, shifts=(0,))
        mined = mine_shifted(ts(x), ts(y), p0)
        plain = longest_set(correlated_intervals(x, y, p0))
        assert [(iv.start, iv.end) for iv in mined] == [
            (iv.start, iv.end) for iv in plain
        ]
        assert all(iv.shift == 0 for iv in mined)

    def test_lag_coupling_found_at_matching_shift(self):
        # smooth driver so the grid's nearest shifts (4, 8) still see the
        # lag-6 echo; at shift 0 the correlation stays below threshold
        rng = np.random.default_rng(600)
        n = 420
        w = rng.normal(size=n)
        x = np.zeros(n)
        for t in range(1, n):
            x[t] = 0.93 * x[t - 1] + w[t]
        y = rng.normal(size=n) * 3.0
        y[206:356] = x[200:350] + 0.1 * x[200:350].std() * rng.normal(size=150)
        p = IntervalParams(beta=0.8, l_min=75, shifts=(-12, -8, -4, 0, 4, 8, 12))
        mined = mine_shifted(ts(x), ts(y), p)
        assert len(mined) >= 1
        assert all(iv.shift in (4, 8) for iv in mined)
        p0 = IntervalParams(beta=0.8, l_min=75, shifts=(0,))
        assert len(mine_shifted(ts(x), ts(y), p0)) == 0

    def test_swap_symmetry(self):
        rng = np.random.default_rng(8)
        x, y = correlated_pair(rng, 300, rho=0.85)
        p = IntervalParams(beta=0.75, l_min=50, shifts=(-8, -4, 0, 4, 8))
        a = mine_shifted(ts(x), ts(y), p)
        b = mine_shifted(ts(y), ts(x), p)
        assert [(iv.start, iv.end) for iv in a] == [(iv.start, iv.end) for iv in b]
        assert [-(iv.shift or 0) for iv in a] == [(iv.shift or 0) for iv in b]

    def test_misaligned_pair_raises(self):
        x = np.random.default_rng(3).normal(size=200)
        with pytest.raises(ShapeError, match="frame-aligned"):
            mine_shifted(ts(x), ts(x, start=100), IntervalParams(l_min=50))

    def test_short_overlap_shifts_skipped(self):
        rng = np.random.default_rng(9)
        x, y = correlated_pair(rng, 80, rho=0.9)
        p = IntervalParams(beta=0.5, l_min=75, shifts=(0, 12))
        mined = mine_shifted(ts(x), ts(y), p)  # shift 12 leaves 68 < 75 frames
        assert all(iv.shift == 0 for iv in mined)

    @pytest.mark.parametrize("seed", range(6))
    def test_output_disjoint_and_long_enough(self, seed):
        rng = np.random.default_rng(700 + seed)
        x, y = correlated_pair(rng, 400, rho=float(rng.uniform(0.6, 0.95)))
        p = IntervalParams(beta=0.75, l_min=40, shifts=(-8, -4, 0, 4, 8))
        mined = mine_shifted(ts(x), ts(y), p)
        for prev, cur in zip(mined, list(mined)[1:]):
            assert prev.end < cur.start
        assert all(iv.length >= p.l_min for iv in mined)


class TestIntersectSets:
    def test_single_set_identity(self):
        s = IntervalSet((Interval(5, 10),))
        assert intersect_sets([s]).intervals == s.intervals

    def test_disjoint_sets_empty(self):
        a = IntervalSet((Interval(0, 10),))
        b = IntervalSet((Interval(20, 30),))
        assert len(intersect_sets([a, b])) == 0

    def test_partial_overlap(self):
        a = IntervalSet((Interval(0, 100),))
        b = IntervalSet((Interval(50, 150),))
        assert [(iv.start, iv.end) for iv in intersect_sets([a, b])] == [(50, 100)]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            intersect_sets([])


class TestPostprocess:
    def test_large_interval_survives_and_extends(self):
        s = IntervalSet((Interval(100, 299),))
        p = IntervalParams(median_kernel=51, extension=12)
        out = postprocess(s, p, 500, 0)
        assert [(iv.start, iv.end) for iv in out] == [(88, 311)]

    def test_short_interval_removed(self):
        s = IntervalSet((Interval(100, 119),))  # 20 frames < kernel majority
        p = IntervalParams(median_kernel=51, extension=12)
        assert len(postprocess(s, p, 400, 0)) == 0

    def test_nearby_intervals_merge(self):
        s = IntervalSet((Interval(100, 199), Interval(210, 309)))
        p = IntervalParams(median_kernel=51, extension=12)
        out = postprocess(s, p, 500, 0)
        assert [(iv.start, iv.end) for iv in out] == [(88, 321)]

    def test_clipping_at_bounds(self):
        s = IntervalSet((Interval(0, 199),))
        p = IntervalParams(median_kernel=51, extension=12)
        out = postprocess(s, p, 210, 0)
        assert [(iv.start, iv.end) for iv in out] == [(0, 209)]

    def test_matches_mask_pipeline(self):
        rng = np.random.default_rng(10)
        ivs, cursor = [], 0
        while cursor < 900:
            cursor += int(rng.integers(5, 120))
            end = cursor + int(rng.integers(1, 150))
            if end >= 1000:
                break
            ivs.append(Interval(cursor, end))
            cursor = end + 1
        s = IntervalSet(tuple(ivs))
        p = IntervalParams(median_kernel=21, extension=5)
        out = postprocess(s, p, 1000, 0)
        bits = oracle_majority_filter(s.coverage_mask(1000, 0), 21)
        # dilate + merge on the oracle side
        runs = []
        i = 0
        while i < 1000:
            if bits[i]:
                j = i
                while j + 1 < 1000 and bits[j + 1]:
                    j += 1
                runs.append((max(0, i - 5), min(999, j + 5)))
                i = j + 1
            else:
                i += 1
        merged = []
        for a, b in runs:
            if merged and a <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        assert [(iv.start, iv.end) for iv in out] == [(a, b) for a, b in merged]


class TestSegmentSeries:
    def test_full_span_single_segment(self):
        rng = np.random.default_rng(11)
        x = ts(rng.normal(size=100))
        y = ts(rng.normal(size=100))
        segs = segment_series(x, y, IntervalSet((Interval(0, 99),)))
        assert len(segs) == 1
        np.testing.assert_array_equal(segs[0][0], x.values)
        np.testing.assert_array_equal(segs[0][1], y.values)
        assert not segs[0][0].flags.writeable

    def test_offsets_recorded(self):
        x = ts(np.arange(50, dtype=float), start=10)
        y = ts(np.arange(50, dtype=float) * 2, start=10)
        segs = segment_series(x, y, IntervalSet((Interval(15, 24), Interval(40, 49))))
        # frame f sits at sample f - 10, whose value is f - 10 in x and twice that in y
        assert [(sx[0], sy[0]) for sx, sy in segs] == [(5.0, 10.0), (30.0, 60.0)]
        assert [len(s[0]) for s in segs] == [10, 10]

    def test_coverage_matches_mask(self):
        rng = np.random.default_rng(12)
        x = ts(rng.normal(size=200))
        y = ts(rng.normal(size=200))
        s = IntervalSet((Interval(3, 30), Interval(77, 150), Interval(190, 199)))
        segs = segment_series(x, y, s)
        assert sum(len(sx) for sx, _ in segs) == s.coverage_mask(200, 0).sum()

    def test_out_of_bounds(self):
        x = ts(np.zeros(50))
        with pytest.raises(ShapeError):
            segment_series(x, x, IntervalSet((Interval(40, 60),)))
