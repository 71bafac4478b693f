import numpy as np
import pytest

from dyadgc.errors import ConfigError, DegenerateSeries, ShapeError
from dyadgc.timeseries import TimeSeries, median_filter, runs, standardize

from oracles import oracle_majority_filter


def ts(values, start=0):
    return TimeSeries(np.asarray(values, dtype=float), start)


def arr(values):
    return np.asarray(values, dtype=float)


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ShapeError):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_negative_start(self):
        with pytest.raises(ShapeError):
            TimeSeries(np.array([1.0]), start_frame=-1)

    def test_immutable_values(self):
        t = ts([1, 2, 3])
        with pytest.raises(ValueError):
            t.values[0] = 9.0


class TestRuns:
    def test_empty_mask(self):
        assert runs(np.zeros(0, dtype=bool)) == []
        assert runs(np.zeros(0, dtype=bool), 7) == []

    def test_no_true_bit(self):
        assert runs(np.zeros(6, dtype=bool)) == []

    def test_all_true(self):
        assert runs(np.ones(6, dtype=bool)) == [(0, 5)]

    def test_start_offset(self):
        bits = np.array([0, 1, 1, 0, 0, 1], dtype=bool)
        assert runs(bits) == [(1, 2), (5, 5)]
        assert runs(bits, 100) == [(101, 102), (105, 105)]

    def test_runs_touching_both_ends(self):
        bits = np.array([1, 1, 0, 1, 0, 0, 1], dtype=bool)
        assert runs(bits, 3) == [(3, 4), (6, 6), (9, 9)]

    @pytest.mark.parametrize("seed", range(4))
    def test_runs_cover_exactly_the_true_bits(self, seed):
        bits = np.random.default_rng(seed).random(80) < 0.5
        got = runs(bits)
        rebuilt = np.zeros_like(bits)
        for a, b in got:
            rebuilt[a : b + 1] = True
        assert np.array_equal(rebuilt, bits)
        # maximal: consecutive runs are separated by at least one false bit
        assert all(b + 1 < a for (_, b), (a, _) in zip(got, got[1:]))


class TestStandardize:
    def test_three_point_example(self):
        # population-std scaling: [1,2,3] -> +-sqrt(3/2)
        out = standardize(arr([1, 2, 3]))
        np.testing.assert_allclose(out, [-1.2247448714, 0.0, 1.2247448714], atol=1e-9)
        assert abs(out.mean()) < 1e-10
        assert abs(np.std(out) - 1.0) < 1e-10

    def test_constant_clamped_to_zeros(self):
        out = standardize(arr([5, 5, 5, 5]))
        assert np.array_equal(out, np.zeros(4))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 2.5, 400)
        once = standardize(x)
        twice = standardize(once)
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(DegenerateSeries):
            standardize(arr([1.0]))


class TestMedianFilter:
    def test_all_true_unchanged(self):
        out = median_filter(np.ones(200, dtype=bool), 51)
        assert out.all()

    def test_isolated_bit_removed(self):
        bits = np.zeros(9, dtype=bool)
        bits[4] = True
        out = median_filter(bits, 3)
        assert not out.any()

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            median_filter(np.ones(5, dtype=bool), 4)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_windowed_majority_oracle(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random(60) < 0.5
        out = median_filter(bits, 5)
        assert np.array_equal(out, oracle_majority_filter(bits, 5))

    def test_idempotent_kernel3_without_short_runs(self):
        # runs of length >= 2 everywhere
        bits = np.array([1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1], dtype=bool)
        once = median_filter(bits, 3)
        twice = median_filter(once, 3)
        assert np.array_equal(once, twice)
