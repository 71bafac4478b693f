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
from dyadgc.synth import CouplingSpec, gen_coupled_pair
from dyadgc.timeseries import TimeSeries, runs

from generators import gen_window_pair
from oracles import (
    oracle_level_walk,
    oracle_longest_set,
    oracle_maximal_intervals,
    oracle_maximal_intervals_tiny,
    oracle_pearson,
    oracle_postprocess,
    windows_corr,
)


def ts(values, start=0):
    return TimeSeries(np.asarray(values, dtype=float), start)


@st.composite
def interval_layouts(draw, sizes=st.integers(0, 120)):
    """A span length and sorted, disjoint (possibly adjacent) intervals inside it.

    Gaps are drawn from ``sizes`` and lengths from ``sizes`` plus one.
    """
    n = draw(st.integers(1, 400))
    ivs, cursor = [], draw(st.integers(0, 60))
    for gap, length in draw(st.lists(st.tuples(sizes, sizes.map(lambda v: v + 1)), max_size=8)):
        if cursor + length > n:
            break
        ivs.append(Interval(cursor, cursor + length - 1))
        cursor += length + gap
    return n, IntervalSet(tuple(ivs))


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
        # a sample outside the only shift's overlap is still summed over the run
        x[-1] = bad
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ShapeError, match="finite"):
            correlated_intervals(x, x.copy(), IntervalParams(l_min=50, shifts=(4,)))


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
        # settled at its first offer, long before the walk would reach the
        # stretch's full length
        assert max(l for (l, _, _), fired in calls if fired) == p.l_min

    def test_settles_a_stretch_whose_noise_level_changes_at_its_first_offer(self, monkeypatch):
        # r 0.995 then 0.97: the whole run's line residual is large against
        # the smallest window's Syy, but small window by window
        calls = certificate_spy(monkeypatch)
        x, y = gen_window_pair(1200, [(100, 599, 0.995), (600, 1099, 0.97)], seed=24)
        x, y = x.values, y.values
        p = IntervalParams(beta=0.8, l_min=75, shifts=(0,))
        got = mined(x, y, p.beta, p.l_min)
        assert got == oracle_level_walk(x, y, p.beta, p.l_min)
        (l, a, b), fired = calls[0]
        assert fired and l == p.l_min and (a, b + l - 1) in got
        # the bound on the whole run, 1 - res_U / min Syy >= beta^2, refuses it
        u = slice(a, b + l)
        res_u = np.sum((y[u] - np.polyval(np.polyfit(x[u], y[u], 1), x[u])) ** 2)
        syy = [np.var(y[t : t + l + 1]) * (l + 1) for t in range(a, b)]
        assert 1 - res_u / min(syy) < p.beta**2

    @pytest.mark.parametrize("hidden", ["l + 1 at the run's start", "2l + 1"])
    def test_refuses_a_run_hiding_a_short_sub_beta_window(self, monkeypatch, hidden):
        # At l_min = 2 every co-moving pair of frames is a valid window, so
        # the whole series is one run at the first offer and only the
        # certificate's own bound can refuse it. The exactly linear loud tail
        # keeps every window reaching it correlated; the head hides one
        # window under beta that no other start's bound covers.
        calls = certificate_spy(monkeypatch)
        tail = 3.0 * np.sin(1.3 * np.arange(30) + 0.5)
        if hidden == "l + 1 at the run's start":
            # [0, 2] is sub-beta; every later window holds the loud frame 3
            x = np.r_[0.0, 1.0, 2.0, 10.0, tail]
            y = np.r_[0.0, 1.5, 1.6, 10.0, tail]
            beta, k = np.sqrt(0.85), 3
        else:
            # residuals of opposite sign at both ends of [0, 4], the loud
            # frame 2 between them: each end alone keeps its windows correlated
            x = np.r_[-0.01, 0.0, 1.0, 0.0, -0.3, tail]
            y = x + np.sqrt(0.06) * np.r_[-1.0, 0.0, 0.0, 0.0, 1.0, np.zeros(30)]
            beta, k = np.sqrt(0.9), 5
        assert windows_corr(x, y, k)[0] < beta
        assert all(windows_corr(x, y, m).min() >= beta for m in range(3, k))
        got = mined(x, y, beta, 2)
        assert got == oracle_level_walk(x, y, beta, 2)
        assert calls[0] == ((2, 0, len(x) - 2), False)

    def test_long_shaped_stretch_walks_few_levels(self, monkeypatch):
        # one window of the benchmark's long workload: 4,500 frames of lag-4,
        # strength-8 mimicry, mined over the default shift grid
        spec = CouplingSpec(
            direction="x_to_y", lag=4, strength=8.0, ar_coeff=0.0, noise_std=1.0,
            active_intervals=IntervalSet((Interval(750, 5249),)), length=6000, seed=5,
        )
        x, y, _ = gen_coupled_pair(spec)
        steps = []
        real = intervals._window_stats

        def counted(*args):
            steps.append(args[1])
            return real(*args)

        monkeypatch.setattr(intervals, "_window_stats", counted)
        got = correlated_intervals(x.values, y.values, IntervalParams())
        # 50 calls measured: the first level and the walk up to the
        # certificate, which settles the matched shift's run at level 123
        assert len(steps) <= 60
        matched = [(iv.start, iv.end) for iv in got if iv.shift == 4]
        assert max(b - a + 1 for a, b in matched) > 4400
        assert matched == oracle_level_walk(x.values[:-4], y.values[4:], 0.8, 75)

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
        # the whole run is refused at every offer; the walk splits it, and
        # only a piece it would keep whole may be settled at once
        assert [fired for (l, a, b), fired in calls if (a, b + l - 1) == (0, n - 1)] == [False] * 6
        assert {(a, b + l - 1) for (l, a, b), fired in calls if fired} <= set(got)

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
        tol = intervals._prefix_sums(np.zeros_like(y), y, (0,))[1][0]  # set by y alone
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
                if all(iv.start > c.end or c.start > iv.end for c in chosen):
                    chosen.append(iv)
            assert best >= sum(iv.length for iv in chosen)


class TestShiftGrid:
    """One call mines every shift of the grid as mining each shift's own slices would."""

    def test_grid_equals_per_shift_mining(self, monkeypatch):
        calls = certificate_spy(monkeypatch)
        seen = set()

        @given(
            st.integers(0, 2**31 - 1),
            st.integers(2, 60),
            st.integers(0, 200),
            st.lists(st.integers(-40, 40), min_size=1, max_size=7),
            st.floats(0.5, 0.95),
        )
        @settings(max_examples=200)
        def check(seed, l_min, slack, shifts, beta):
            rng = np.random.default_rng(seed)
            n = l_min + slack
            x, y = rng.normal(size=(2, n))
            # y echoes x at one of the grid's shifts over a stretch of up to 3 l_min
            lag = shifts[int(rng.integers(len(shifts)))]
            lo = int(rng.integers(0, n))
            t = np.arange(lo, min(n, lo + int(rng.integers(l_min, 3 * l_min + 1))))
            t = t[(t + lag >= 0) & (t + lag < n)]
            y[t + lag] = x[t] + 0.2 * rng.normal(size=len(t))

            p = IntervalParams(beta=beta, l_min=l_min, shifts=tuple(shifts))
            got = [(iv.start, iv.end, iv.shift) for iv in correlated_intervals(x, y, p)]
            p0 = IntervalParams(beta=beta, l_min=l_min, shifts=(0,))
            want = []
            for s in dict.fromkeys(shifts):
                if n - abs(s) < l_min:
                    seen.add("short overlap")
                    continue
                off = max(-s, 0)
                xs, ys = x[off : n - max(s, 0)], y[max(s, 0) : n - off]
                want += [(iv.start + off, iv.end + off, s) for iv in correlated_intervals(xs, ys, p0)]
            assert got == sorted(want, key=lambda iv: iv[:2])
            if len(set(shifts)) < len(shifts):
                seen.add("duplicate")
            if any(s < 0 for _, _, s in got):
                seen.add("negative")
            if got and slack <= 5:
                seen.add("near l_min")

        check()
        assert seen == {"short overlap", "duplicate", "negative", "near l_min"}
        assert any(fired for _, fired in calls)

    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_rows_equal_one_dimensional_sums(self, seed):
        # the grid's results are the per-shift results only because each row of
        # the stacked array is bit for bit the 1-D mean, product and cumsum
        rng = np.random.default_rng(seed)
        n = 400 + 37 * seed
        x = 3.0 + rng.normal(size=n)
        y = np.round(-2.0 + rng.normal(size=n), 1 + seed)
        shifts = (-12, -5, 0, 4, 12)
        pad = 12
        c, tol = intervals._prefix_sums(x, y, shifts)
        assert c.shape == (4 + len(shifts), n + 2 * pad + 1)
        xc, yc = x - np.mean(x), y - np.mean(y)
        terms = [xc, yc, xc * xc, yc * yc]
        for s in shifts:
            lo, hi = max(-s, 0), n - max(s, 0)
            xy = np.zeros(n)
            xy[lo:hi] = xc[lo:hi] * yc[lo + s : hi + s]
            terms.append(xy)
        want = [np.cumsum(np.concatenate((np.zeros(pad + 1), v, np.zeros(pad)))) for v in terms]
        for row, w in zip(c, want):
            assert row.tobytes() == w.tobytes()
        for i, s in enumerate(shifts):
            # each shift's overlap, read off the run's sums at its own columns
            lo, hi = pad + max(-s, 0), pad + n - max(s, 0)
            m = hi - lo
            sx, sxx = (w[hi] - w[lo] for w in want[0:3:2])
            sy, syy = (w[hi + s] - w[lo + s] for w in want[1:4:2])
            assert tol[i] == max((sxx - sx * sx / m) / m, (syy - sy * sy / m) / m) * intervals._FLAT_REL
            # the mean square of the overlap about its own means
            xs, ys = x[lo - pad : hi - pad], y[lo - pad + s : hi - pad + s]
            assert tol[i] == pytest.approx(max(np.var(xs), np.var(ys)) * intervals._FLAT_REL, rel=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_edge_shifts_match_the_oracle(self, seed):
        # overlaps of exactly l_min (one window) and of l_min - 1 (skipped),
        # shifts of both signs, and duplicates, against the direct definition
        n, l_min, beta = 80, 20, 0.8
        rng = np.random.default_rng(40 + seed)
        x, y = rng.normal(size=(2, n))
        y[60:] = x[:20] + 0.2 * rng.normal(size=20)  # shift 60: its one window
        y[:20] = x[60:] + 0.2 * rng.normal(size=20)  # shift -60
        y[23:54] = x[20:51] + 0.2 * rng.normal(size=31)  # shift 3
        shifts = (60, -60, 61, -61, 3, -3, 3, 0, 60)
        p = IntervalParams(beta=beta, l_min=l_min, shifts=shifts)
        got = [(iv.start, iv.end, iv.shift) for iv in correlated_intervals(x, y, p)]
        want = []
        for s in dict.fromkeys(shifts):
            lo, hi = max(-s, 0), n - max(s, 0)
            if hi - lo >= l_min:
                found = oracle_maximal_intervals(x[lo:hi], y[lo + s : hi + s], beta, l_min)
                want += [(a + lo, b + lo, s) for a, b in found]
        assert sorted(got) == sorted(want)
        assert len(got) == len(set(got))
        assert {(0, 19, 60), (60, 79, -60)} <= set(got)
        assert any(s == 3 for _, _, s in got)


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
        assert [(iv.start, iv.end) for iv in out] == oracle_postprocess(s, p, 1000, 0)

    @given(
        data=st.data(),
        half=st.integers(0, 30),
        extension=st.integers(0, 30),
        start=st.sampled_from((0, 7, 10**12)),
    )
    @settings(max_examples=300)
    def test_equals_the_span_wide_filter_across_a_huge_gap(self, data, half, extension, start):
        """Cluster windows give the span-wide result, also with 10^12 frames between two layouts.

        Gaps and lengths are drawn near the kernel half as often as not, where
        a window that splits or pads too little goes wrong. The span-wide
        oracle cannot hold a 10^12-frame mask, so it runs on the same layout
        with the gap shrunk to one that still keeps both halves out of each
        other's reach (a filtered frame lies within ``half`` of a covered one,
        and dilation adds ``extension``); only the right half's outputs move,
        by the removed frames.
        """
        sizes = st.one_of(st.integers(0, 120), st.integers(max(0, half - 3), 2 * half + 3))
        (n_left, s_left), (n_right, s_right) = (data.draw(interval_layouts(sizes)) for _ in range(2))
        p = IntervalParams(median_kernel=2 * half + 1, extension=extension)
        near = n_left + 4 * half + 2 * extension + 4
        far = 10**12

        def joined(gap):
            moved = tuple(Interval(start + gap + iv.start, start + gap + iv.end) for iv in s_right)
            ivs = tuple(Interval(start + iv.start, start + iv.end) for iv in s_left) + moved
            return IntervalSet(ivs), gap + n_right

        compact, n_compact = joined(near)
        expected = oracle_postprocess(compact, p, n_compact, start)
        assert [(iv.start, iv.end) for iv in postprocess(compact, p, n_compact, start)] == expected
        reach = start + near - half - extension  # every right-half output starts at or after it
        expected = [(a, b) if a < reach else (a + far - near, b + far - near) for a, b in expected]
        spread, n_spread = joined(far)
        assert [(iv.start, iv.end) for iv in postprocess(spread, p, n_spread, start)] == expected

    def test_a_gap_frame_between_two_intervals_can_hold_a_majority(self):
        # kernel 3: frame 11 sees covered frames 10 and 12, one from each interval
        s, p = IntervalSet((Interval(5, 10), Interval(12, 20))), IntervalParams(median_kernel=3, extension=0)
        assert [(iv.start, iv.end) for iv in postprocess(s, p, 30, 0)] == [(5, 20)]
        assert oracle_postprocess(s, p, 30, 0) == [(5, 20)]

    def test_interval_outside_the_span_raises(self):
        p = IntervalParams(median_kernel=5, extension=0)
        for iv in (Interval(10, 30), Interval(-3, 4), Interval(10**12, 10**12 + 5)):
            with pytest.raises(ShapeError, match="outside span"):
                postprocess(IntervalSet((iv,)), p, 20, 0)


class TestSegmentSeries:
    def test_full_span_single_segment(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=100), rng.normal(size=100)
        segs = segment_series(np.arange(100), x, y, IntervalSet((Interval(0, 99),)))
        assert len(segs) == 1
        np.testing.assert_array_equal(segs[0][0], x)
        np.testing.assert_array_equal(segs[0][1], y)

    def test_segments_are_views(self):
        x, y = np.arange(50.0), np.arange(50.0) * 2
        segs = segment_series(np.arange(50), x, y, IntervalSet((Interval(3, 9), Interval(20, 29))))
        for sx, sy in segs:
            assert sx.base is x and sy.base is y

    def test_offsets_recorded(self):
        frames = np.arange(10, 60)
        x, y = np.arange(50, dtype=float), np.arange(50, dtype=float) * 2
        segs = segment_series(frames, x, y, IntervalSet((Interval(15, 24), Interval(40, 49))))
        # frame f sits at sample f - 10, whose value is f - 10 in x and twice that in y
        assert [(sx[0], sy[0]) for sx, sy in segs] == [(5.0, 10.0), (30.0, 60.0)]
        assert [len(s[0]) for s in segs] == [10, 10]

    def test_slices_by_the_frame_index_across_gaps(self):
        # frames 1-5, 9-10 and a jump to 10^12: samples are counted over present frames
        frames = np.array([1, 2, 3, 4, 5, 9, 10, 10**12])
        x = np.arange(8.0)
        s = IntervalSet((Interval(2, 4), Interval(9, 10), Interval(10**12, 10**12)))
        segs = segment_series(frames, x, -x, s)
        assert [sx.tolist() for sx, _ in segs] == [[1.0, 2.0, 3.0], [5.0, 6.0], [7.0]]
        assert all(np.array_equal(sy, -sx) for sx, sy in segs)

    def test_coverage_matches_mask(self):
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=200), rng.normal(size=200)
        s = IntervalSet((Interval(3, 30), Interval(77, 150), Interval(190, 199)))
        segs = segment_series(np.arange(200), x, y, s)
        assert sum(len(sx) for sx, _ in segs) == s.coverage_mask(200, 0).sum()

    def test_out_of_bounds(self):
        x = np.zeros(50)
        with pytest.raises(ShapeError):
            segment_series(np.arange(50), x, x, IntervalSet((Interval(40, 60),)))

    @pytest.mark.parametrize("iv", [Interval(4, 9), Interval(5, 6), Interval(0, 1), Interval(11, 11)])
    def test_a_missing_frame_raises(self, iv):
        frames = np.array([1, 2, 3, 4, 7, 8, 9, 10])  # 5 and 6 missing, nothing before 1 or after 10
        x = np.zeros(8)
        with pytest.raises(ShapeError, match="lacks"):
            segment_series(frames, x, x, IntervalSet((iv,)))

    @pytest.mark.parametrize("lengths", [(10, 9, 10), (10, 10, 11), (9, 10, 10)])
    def test_misaligned_arrays_raise(self, lengths):
        frames, x, y = (np.arange(n) for n in lengths)
        with pytest.raises(ShapeError, match="aligned"):
            segment_series(frames, x.astype(float), y.astype(float), IntervalSet((Interval(0, 5),)))
