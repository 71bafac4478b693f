import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadgc.errors import ConfigError, ShapeError
from dyadgc.stats import (
    _normal_cdf,
    benjamini_hochberg,
    condition_comparison,
    wilcoxon_signed_rank,
)

from oracles import oracle_wilcoxon_p


def signed_rank(diffs):
    d = np.asarray(diffs, dtype=float)
    return wilcoxon_signed_rank(d + 10.0, np.full(len(d), 10.0))


class TestWilcoxon:
    def test_identical_samples_degenerate(self):
        r = wilcoxon_signed_rank((1, 2, 3), (1, 2, 3))
        assert r.degenerate
        assert r.p_value == 1.0
        assert r.n_effective == 0

    def test_all_positive_differences(self):
        r = signed_rank([1, 2, 3, 4, 5, 6])
        assert r.w_statistic == 0.0
        assert r.w_plus == 21.0
        assert r.p_value == 2 / 2**6

    def test_zero_differences_dropped(self):
        r = wilcoxon_signed_rank((5, 1, 2, 3), (5, 0, 0, 0))
        assert r.n_effective == 3

    def test_w_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            r = signed_rank(rng.normal(size=15))
            assert 0 <= r.w_statistic <= r.n_effective * (r.n_effective + 1) / 2

    @pytest.mark.parametrize("seed", range(25))
    def test_exact_p_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 11))
        diffs = rng.integers(-4, 5, size=n).astype(float)  # ties and zeros likely
        r = signed_rank(diffs)
        if r.degenerate:
            assert np.all(diffs == 0)
        else:
            assert r.p_value == oracle_wilcoxon_p(diffs)

    def test_exact_matches_scipy_without_ties(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        rng = np.random.default_rng(5)
        for _ in range(10):
            d = rng.normal(size=14)
            r = signed_rank(d)
            ref = scipy_wilcoxon(d, mode="exact")
            assert r.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_normal_approximation_close_to_scipy(self):
        from scipy.stats import wilcoxon as scipy_wilcoxon

        rng = np.random.default_rng(6)
        d = rng.normal(0.3, 1.0, size=60)
        r = signed_rank(d)
        ref = scipy_wilcoxon(d, mode="approx", correction=False)
        assert r.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_normal_cdf_matches_scipy_ndtr(self):
        from scipy.special import ndtr

        zs = np.linspace(-38.0, 0.0, 20001)
        for z, want in zip(zs, ndtr(zs)):
            got = _normal_cdf(float(z))
            if want > 0.0:
                assert abs(got - want) <= 1e-12 * want, z
            else:  # ndtr underflows to 0 below z = -37.6, in the subnormal range
                assert got < 1e-300

    @given(st.integers(0, 2**31 - 1), st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, seed, offset):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        r1 = wilcoxon_signed_rank(a, b)
        r2 = wilcoxon_signed_rank(a + offset, b + offset)
        assert r1.w_statistic == r2.w_statistic
        assert r1.p_value == r2.p_value

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            wilcoxon_signed_rank((1, 2), (1,))

    @pytest.mark.parametrize(
        "a, b",
        [((), ()), ((1.0, np.nan), (1.0, 2.0)), ((1.0, 2.0), (np.inf, 2.0)), (((1.0,),), ((1.0,),))],
        ids=["empty", "nan", "inf", "two_dimensional"],
    )
    def test_unusable_samples_rejected(self, a, b):
        with pytest.raises(ShapeError):
            wilcoxon_signed_rank(a, b)


class TestBenjaminiHochberg:
    def test_single_small_p_rejected(self):
        assert benjamini_hochberg([0.03], 0.05).tolist() == [True]

    def test_hand_computed_example(self):
        rej = benjamini_hochberg([0.01, 0.04, 0.03, 0.005], 0.05)
        assert rej.all()

    def test_all_ones_nothing_rejected(self):
        assert not benjamini_hochberg([1.0, 1.0, 1.0], 0.05).any()

    def test_step_up_partial(self):
        # sorted: .001 <= .0125, .02 <= .025, .2 > .0375, .9 > .05 -> k = 2
        rej = benjamini_hochberg([0.2, 0.001, 0.9, 0.02], 0.05)
        assert rej.tolist() == [False, True, False, True]

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            benjamini_hochberg([0.5, 1.5])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_lowering_p_values_keeps_rejections(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 12))
        p = rng.random(m)
        lowered = p * rng.random(m)  # element-wise <= p
        before = benjamini_hochberg(p, 0.1)
        after = benjamini_hochberg(lowered, 0.1)
        # rejection count can only grow under the step-up rule
        assert after.sum() >= before.sum()


class TestConditionComparison:
    def _cohort(self, effect=0.0, n=12, seed=0):
        rng = np.random.default_rng(seed)
        counts = {}
        for i in range(n):
            pid = f"p{i:02d}"
            counts[pid] = {
                "respectful": {"happiness_lower": float(rng.normal(0.5 + effect, 0.1)),
                               "sadness_lower": float(rng.normal(0.5, 0.1))},
                "contempt": {"happiness_lower": float(rng.normal(0.5, 0.1)),
                             "sadness_lower": float(rng.normal(0.5, 0.1))},
                "objective": {"happiness_lower": float(rng.normal(0.5, 0.1)),
                              "sadness_lower": float(rng.normal(0.5, 0.1))},
            }
        return counts

    def test_identical_cohorts_nothing_significant(self):
        counts = {
            "p1": {"respectful": {"e": 0.5}, "contempt": {"e": 0.5}},
            "p2": {"respectful": {"e": 0.7}, "contempt": {"e": 0.7}},
        }
        rows = condition_comparison(counts)
        assert all(not r.significant_after_bh for r in rows)
        assert all(r.degenerate for r in rows)

    def test_extreme_dominance_w_zero(self):
        counts = {}
        for i in range(8):
            counts[f"p{i}"] = {
                "respectful": {"e": 0.9 + 0.01 * i},
                "contempt": {"e": 0.1 + 0.01 * i},
            }
        rows = condition_comparison(counts)
        assert len(rows) == 1
        assert rows[0].w_statistic == 0.0
        assert rows[0].significant_after_bh

    def test_planted_effect_recovered(self):
        hits = 0
        trials = 20
        for seed in range(trials):
            rows = condition_comparison(self._cohort(effect=0.1, n=34, seed=seed))
            hit = any(
                r.significant_after_bh
                and r.expression == "happiness_lower"
                and {"respectful"} < {r.condition_a, r.condition_b}
                for r in rows
            )
            hits += hit
        assert hits >= int(0.95 * trials)

    def test_needs_two_participants(self):
        with pytest.raises(ShapeError):
            condition_comparison({"p1": {"a": {"e": 1.0}}})

    def test_rows_are_deterministic_and_ordered(self):
        counts = self._cohort(effect=0.2, n=6, seed=1)
        rows1 = condition_comparison(counts)
        rows2 = condition_comparison(counts)
        assert rows1 == rows2
        keys = [(r.expression, r.condition_a, r.condition_b) for r in rows1]
        assert keys == sorted(keys)
