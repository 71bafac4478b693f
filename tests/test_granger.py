import numpy as np
import pytest
from scipy import signal as spsig
from scipy import stats as sps

from dyadgc import pipeline
from dyadgc.config import AnalysisConfig
from dyadgc.errors import ConfigError, EmptyInput, InsufficientData, SingularDesign
from dyadgc.granger import (
    Direction,
    average_gc,
    build_design,
    cap_order,
    classify,
    f_sf,
    f_statistic,
    fit_var,
    gc_test,
    select_order,
)
from oracles import oracle_select_order


def ar1_pair(seed, n=2000, a=0.5):
    rng = np.random.default_rng(seed)
    e1, e2 = rng.normal(size=n), rng.normal(size=n)
    x, y = np.zeros(n), np.zeros(n)
    for t in range(1, n):
        x[t] = a * x[t - 1] + e1[t]
        y[t] = a * y[t - 1] + e2[t]
    return x, y


def coupled_pair(seed, n=2000, strength=0.8, lag=1, a=0.0, noise=1.0, reverse=False):
    rng = np.random.default_rng(seed)
    e1, e2 = rng.normal(0, noise, n), rng.normal(0, noise, n)
    x, y = np.zeros(n), np.zeros(n)
    for t in range(1, n):
        x[t] = a * x[t - 1] + e1[t]
        y[t] = a * y[t - 1] + e2[t]
        if t >= lag:
            if reverse:
                x[t] += strength * y[t - lag]
            else:
                y[t] += strength * x[t - lag]
    return x, y


class TestBuildDesign:
    def test_rows_never_straddle_segments(self):
        rng = np.random.default_rng(0)
        segs = [rng.normal(size=30), rng.normal(size=12), rng.normal(size=50)]
        d = build_design(segs, [s + 1 for s in segs], order=4)
        # every row, in order: a target of one segment and its lag window
        # [t - 4, t - 1] inside that same segment
        want = [
            (seg[t], [seg[t - j] for j in (1, 2, 3, 4)]) for seg in segs for t in range(4, len(seg))
        ]
        assert len(d.x_targets) == len(want) == (30 - 4) + (12 - 4) + (50 - 4)
        np.testing.assert_array_equal(d.x_targets, [target for target, _ in want])
        np.testing.assert_array_equal(d.x_lags, [lags for _, lags in want])
        np.testing.assert_array_equal(d.y_lags, d.x_lags + 1)

    def test_splitting_matches_per_segment_rows(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=100)
        y = rng.normal(size=100)
        whole = build_design([x], [y], 3)
        split = build_design([x[:60], x[60:]], [y[:60], y[60:]], 3)
        # the split loses exactly `order` rows at the boundary
        assert len(split.x_targets) == len(whole.x_targets) - 3

    def test_short_segments_skipped(self):
        with pytest.raises(InsufficientData):
            build_design([np.zeros(3)], [np.zeros(3)], order=5)


class TestFitVar:
    def test_known_generator_coefficient(self):
        # y_t = 0.8 x_(t-1) + e_t with white x: the enriched fit leaves the noise
        # variance, and the lag of x explains 0.8^2 var(x) on top of y's own past
        x, y = coupled_pair(7, strength=0.8, noise=0.1)
        m = fit_var([x], [y], 1)
        assert m.resid_var_enriched_y == pytest.approx(0.1**2, rel=0.1)
        gain = m.resid_var_restricted_y - m.resid_var_enriched_y
        assert np.sqrt(gain / np.var(x)) == pytest.approx(0.8, abs=0.05)

    def test_independent_coefficients_near_zero(self):
        # with y's lags carrying nothing, T (s'/s - 1) is about chi-squared with
        # `order` degrees of freedom; the bound is its 1e-6 tail, about 5 sigma
        x, y = ar1_pair(8)
        m = fit_var([x], [y], 2)
        wald = m.n_effective * (m.resid_var_restricted_x / m.resid_var_enriched_x - 1.0)
        assert wald < sps.chi2.isf(1e-6, 2)

    def test_exact_interpolation_single_row(self):
        m = fit_var([np.array([1.0, 2.0])], [np.array([3.0, 1.0])], 1)
        assert m.n_effective == 1
        assert m.resid_var_enriched_x == 0.0
        assert m.resid_var_enriched_y == 0.0

    def test_constant_segment_rejected(self):
        with pytest.raises(SingularDesign):
            fit_var([np.ones(50)], [np.arange(50.0)], 1)

    def test_nested_inequality(self):
        for seed in range(20):
            x, y = ar1_pair(seed, n=300)
            m = fit_var([x], [y], 3)
            assert m.resid_var_restricted_x >= m.resid_var_enriched_x - 1e-9
            assert m.resid_var_restricted_y >= m.resid_var_enriched_y - 1e-9


class TestSelectOrder:
    def test_ar1_pair_prefers_order_one(self):
        hits = 0
        for seed in range(40):
            x, y = ar1_pair(seed)
            hits += select_order([x], [y], 12, "bic") == 1
        assert hits >= 38  # >= 95%

    def test_white_noise_minimal_order(self):
        rng = np.random.default_rng(2)
        assert select_order([rng.normal(size=2000)], [rng.normal(size=2000)], 12, "bic") == 1

    def test_forced_single_order(self):
        x, y = ar1_pair(3, n=200)
        assert select_order([x], [y], 1, "bic") == 1

    def test_recovers_deeper_lag(self):
        x, y = coupled_pair(4, strength=0.9, lag=3, a=0.2)
        assert select_order([x], [y], 12, "bic") == 3

    def test_bad_criterion(self):
        x, y = ar1_pair(5, n=100)
        with pytest.raises(ConfigError):
            select_order([x], [y], 2, "hqc")

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientData):
            select_order([np.zeros(20)], [np.zeros(20)], 12, "bic")

    def test_m_max_below_one(self):
        x, y = ar1_pair(5, n=100)
        with pytest.raises(ConfigError):
            select_order([x], [y], 0, "bic")


def _random_system(seed):
    """An AR or coupled pair in 1-4 segments of 40-3000 frames in total, and an m_max the segments support.

    Every fourth system is quantized to integers or halves; every fifth has an
    x that is zero over all or half of the span.
    """
    rng = np.random.default_rng(seed)
    total = int(np.exp(rng.uniform(np.log(40), np.log(3000))))
    n_seg = int(rng.integers(1, 5))
    cuts = np.sort(rng.choice(np.arange(1, total), n_seg - 1, replace=False))
    lengths = np.diff(np.concatenate([[0], cuts, [total]])).astype(int)
    x = spsig.lfilter([1.0], [1.0, -rng.uniform(0.0, 0.98)], rng.normal(size=total))
    drive = rng.normal(size=total)
    if rng.random() < 0.5:  # coupled: y follows x at a lag
        lag = int(rng.integers(1, 5))
        drive[lag:] += rng.uniform(0.1, 1.0) * x[:-lag]
    y = spsig.lfilter([1.0], [1.0, -rng.uniform(0.0, 0.98)], drive)
    x, y = x * rng.uniform(1.0, 5.0), y * rng.uniform(1.0, 5.0)
    if seed % 4 == 0:
        step = 1.0 if seed % 8 == 0 else 0.5
        x, y = np.round(x / step) * step, np.round(y / step) * step
    if seed % 5 == 0:
        x[: total if seed % 10 == 0 else total // 2] = 0.0
    bounds = np.cumsum(lengths)[:-1]
    m_max = cap_order(list(lengths), int(rng.integers(1, 13)))
    return np.split(x, bounds), np.split(y, bounds), m_max


class TestSelectOrderOracle:
    """One QR per call picks the order that one ``lstsq`` per order picks."""

    @pytest.mark.parametrize("criterion", ["bic", "aic"])
    def test_equals_per_order_lstsq(self, criterion):
        for seed in range(320):
            xs, ys, m_max = _random_system(seed)
            assert select_order(xs, ys, m_max, criterion) == oracle_select_order(
                xs, ys, m_max, criterion
            ), seed

    @pytest.mark.parametrize("gc_mode, status", [("pooled", "degenerate"), ("averaged", "insufficient")])
    def test_collinear_pair_still_fails_its_test(self, gc_mode, status):
        # y = c * x: the residual determinant is 0 in exact arithmetic, so the
        # chosen order is decided by roundoff; the cell must fail either way
        cfg = AnalysisConfig(gc_mode=gc_mode)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            xs, _, _ = _random_system(1 + 5 * seed)  # never zeroed
            c = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
            segments = [(x, c * x) for x in xs]
            assert pipeline._run_gc(segments, cfg) == (status, None), seed


class TestCapOrder:
    def test_largest_supported_order(self):
        assert cap_order([3000], 12) == 12
        assert cap_order([20], 12) == 6  # 14 rows > 13, but 13 rows at order 7 are not > 15
        assert cap_order([4, 4], 12) == 1

    def test_select_order_accepts_the_cap_and_nothing_above(self):
        rng = np.random.default_rng(7)
        xs = [rng.normal(size=20), rng.normal(size=9)]
        ys = [rng.normal(size=20), rng.normal(size=9)]
        m = cap_order([20, 9], 12)
        assert 1 <= select_order(xs, ys, m, "bic") <= m
        with pytest.raises(InsufficientData):
            select_order(xs, ys, m + 1, "bic")

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            cap_order([3, 2], 12)


class TestFStatistic:
    def test_no_improvement_is_zero(self):
        assert f_statistic(1.5, 1.5, 200, 2) == 0.0

    def test_direct_substitution(self):
        assert f_statistic(2.0, 1.0, 103, 1) == 50.0

    def test_matches_independent_formula_on_fits(self):
        for seed in range(10):
            x, y = ar1_pair(seed, n=400)
            m = fit_var([x], [y], 2)
            t_eff = m.n_effective
            got = f_statistic(m.resid_var_restricted_x, m.resid_var_enriched_x, t_eff, 2)
            want = (
                (m.resid_var_restricted_x - m.resid_var_enriched_x)
                * (t_eff - 5)
                / (m.resid_var_restricted_x * 2)
            )
            assert got == pytest.approx(max(want, 0.0), rel=1e-12)

    def test_scale_invariance(self):
        x, y = ar1_pair(11, n=500)
        m1 = fit_var([x], [y], 2)
        m2 = fit_var([x * 37.5], [y * 37.5], 2)
        f1 = f_statistic(m1.resid_var_restricted_x, m1.resid_var_enriched_x, m1.n_effective, 2)
        f2 = f_statistic(m2.resid_var_restricted_x, m2.resid_var_enriched_x, m2.n_effective, 2)
        assert f1 == pytest.approx(f2, abs=1e-8)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientData):
            f_statistic(2.0, 1.0, 5, 2)


class TestFSurvival:
    def test_zero_gives_one(self):
        assert f_sf(0.0, 3, 100) == 1.0

    def test_student_t_identity_at_one_numerator_dof(self):
        for f in (0.3, 1.7, 3.84, 9.2):
            for d2 in (5, 40, 1000):
                want = 2 * sps.t.sf(np.sqrt(f), d2)
                assert f_sf(f, 1, d2) == pytest.approx(want, abs=1e-12)

    def test_matches_scipy_f(self):
        for f, d1, d2 in [(0.5, 2, 17), (2.31, 6, 120), (11.0, 12, 2000)]:
            assert f_sf(f, d1, d2) == pytest.approx(sps.f.sf(f, d1, d2), abs=1e-13)

    def test_monte_carlo_null_exceedance(self):
        # F(2, 60): empirical tail mass vs analytic, 3 binomial SE tolerance
        rng = np.random.default_rng(13)
        draws = rng.f(2, 60, size=20000)
        for q in (0.5, 1.0, 2.5):
            emp = float(np.mean(draws > q))
            p = f_sf(q, 2, 60)
            se = np.sqrt(p * (1 - p) / 20000)
            assert abs(emp - p) <= 3 * se

    def test_invalid_dof(self):
        with pytest.raises(ConfigError):
            f_sf(1.0, 0, 10)


class TestGCTest:
    def test_unidirectional_detection_rate(self):
        hits = 0
        trials = 60
        for seed in range(trials):
            x, y = coupled_pair(1000 + seed, strength=0.8, lag=1, a=0.0, noise=1.0)
            r = gc_test([x], [y], 1)
            hits += r.outcome == Direction.SENDER_CAUSES_RECEIVER
        assert hits >= int(0.95 * trials)

    def test_reversed_generator_flips(self):
        hits = 0
        trials = 60
        for seed in range(trials):
            x, y = coupled_pair(2000 + seed, strength=0.8, lag=1, reverse=True)
            r = gc_test([x], [y], 1)
            hits += r.outcome == Direction.RECEIVER_CAUSES_SENDER
        assert hits >= int(0.95 * trials)

    def test_independent_mostly_none(self):
        outcomes = []
        for s in range(60):
            x, y = ar1_pair(3000 + s, n=1000)
            outcomes.append(gc_test([x], [y], 1).outcome)
        assert sum(o == Direction.NONE for o in outcomes) >= 48

    def test_bidirectional_generator(self):
        hits = 0
        for seed in range(30):
            rng = np.random.default_rng(4000 + seed)
            n = 2000
            x, y = np.zeros(n), np.zeros(n)
            e1, e2 = rng.normal(size=n), rng.normal(size=n)
            for t in range(1, n):
                x[t] = 0.3 * x[t - 1] + 0.5 * y[t - 1] + e1[t]
                y[t] = 0.3 * y[t - 1] + 0.5 * x[t - 1] + e2[t]
            hits += gc_test([x], [y], 1).outcome == Direction.BIDIRECTIONAL
        assert hits >= 28

    def test_classification_cases(self):
        assert classify(0.01, 0.20, 0.05) == Direction.RECEIVER_CAUSES_SENDER
        assert classify(0.20, 0.01, 0.05) == Direction.SENDER_CAUSES_RECEIVER
        assert classify(0.01, 0.01, 0.05) == Direction.BIDIRECTIONAL
        assert classify(0.20, 0.20, 0.05) == Direction.NONE
        # boundary: rejection at p == alpha
        assert classify(0.05, 1.0, 0.05) == Direction.RECEIVER_CAUSES_SENDER

    def test_alpha_one_everything_bidirectional(self):
        x, y = ar1_pair(17, n=500)
        assert gc_test([x], [y], 1, alpha=1.0).outcome == Direction.BIDIRECTIONAL


class TestAverageGC:
    def test_single_interval_identity(self):
        x, y = coupled_pair(5, n=800)
        r = gc_test([x], [y], 1)
        avg = average_gc([r], [len(x)])
        assert avg.f_x_causes_y == r.f_x_causes_y
        assert avg.f_y_causes_x == r.f_y_causes_x
        assert avg.outcome == r.outcome

    def test_equal_weight_mean(self):
        x1, y1 = coupled_pair(6, n=600)
        x2, y2 = coupled_pair(7, n=600)
        r1 = gc_test([x1], [y1], 1)
        r2 = gc_test([x2], [y2], 1)
        avg = average_gc([r1, r2], [600, 600])
        assert avg.f_x_causes_y == pytest.approx((r1.f_x_causes_y + r2.f_x_causes_y) / 2)
        assert avg.n_effective == r1.n_effective + r2.n_effective

    def test_pooled_vs_averaged_agree_on_homogeneous_coupling(self):
        agree = 0
        trials = 20
        for seed in range(trials):
            x, y = coupled_pair(5000 + seed, strength=0.8, noise=1.0)
            half = len(x) // 2
            segs_x = [x[:half], x[half:]]
            segs_y = [y[:half], y[half:]]
            pooled = gc_test(segs_x, segs_y, 1)
            averaged = average_gc(
                [gc_test([sx], [sy], 1) for sx, sy in zip(segs_x, segs_y)],
                [half, len(x) - half],
            )
            agree += pooled.outcome == averaged.outcome
        assert agree >= int(0.9 * trials)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            average_gc([], [])

    def test_mixed_orders_rejected(self):
        x, y = coupled_pair(8, n=600)
        r1 = gc_test([x], [y], 1)
        r2 = gc_test([x], [y], 2)
        with pytest.raises(ConfigError):
            average_gc([r1, r2], [1, 1])
