import numpy as np
import pytest

from dyadgc.errors import ConfigError, DegenerateSeries, ShapeError
from dyadgc.timeseries import BinaryMask, TimeSeries, median_filter, standardize

from oracles import oracle_majority_filter


def ts(values, start=0):
    return TimeSeries(np.asarray(values, dtype=float), start)


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

    def test_slice_frames(self):
        t = ts([1, 2, 3, 4, 5], start=10)
        s = t.slice_frames(11, 13)
        assert s.start_frame == 11
        assert list(s.values) == [2, 3, 4]
        with pytest.raises(ShapeError):
            t.slice_frames(9, 12)


class TestStandardize:
    def test_three_point_example(self):
        # population-std scaling: [1,2,3] -> +-sqrt(3/2)
        out = standardize(ts([1, 2, 3]))
        np.testing.assert_allclose(out.values, [-1.2247448714, 0.0, 1.2247448714], atol=1e-9)
        assert abs(out.values.mean()) < 1e-10
        assert abs(np.std(out.values) - 1.0) < 1e-10

    def test_constant_clamped_to_zeros(self):
        out = standardize(ts([5, 5, 5, 5]))
        assert np.array_equal(out.values, np.zeros(4))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = ts(rng.normal(3.0, 2.5, 400))
        once = standardize(x)
        twice = standardize(once)
        np.testing.assert_allclose(once.values, twice.values, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(DegenerateSeries):
            standardize(ts([1.0]))


class TestMedianFilter:
    def test_all_true_unchanged(self):
        m = BinaryMask(np.ones(200, dtype=bool))
        out = median_filter(m, 51)
        assert out.bits.all()

    def test_isolated_bit_removed(self):
        bits = np.zeros(9, dtype=bool)
        bits[4] = True
        out = median_filter(BinaryMask(bits), 3)
        assert not out.bits.any()

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            median_filter(BinaryMask(np.ones(5, dtype=bool)), 4)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_windowed_majority_oracle(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.random(60) < 0.5
        out = median_filter(BinaryMask(bits), 5)
        assert np.array_equal(out.bits, oracle_majority_filter(bits, 5))

    def test_idempotent_kernel3_without_short_runs(self):
        # runs of length >= 2 everywhere
        bits = np.array([1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1], dtype=bool)
        once = median_filter(BinaryMask(bits), 3)
        twice = median_filter(once, 3)
        assert np.array_equal(once.bits, twice.bits)
