import numpy as np
import pytest

from dyadgc.au_features import (
    EXPRESSIONS_BY_NAME,
    au_activation,
    baseline_stats,
    confidence_sync,
    expression_activation,
    parse_au_csv,
)
from dyadgc.errors import ConfigError
from dyadgc.intervals import Interval, IntervalSet
from dyadgc.synth import (
    CouplingSpec,
    active_everywhere,
    gen_au_fixture,
    gen_coupled_pair,
    gen_masked_transient_pair,
    gen_window_pair,
    make_demo_cohort,
)
from dyadgc.timeseries import runs


def lagged_corr(x, y, lag):
    """corr(x_t, y_{t+lag}) over the overlap."""
    if lag >= 0:
        a, b = x[: len(x) - lag], y[lag:]
    else:
        a, b = x[-lag:], y[: len(y) + lag]
    return float(np.corrcoef(a, b)[0, 1])


class TestCoupledPair:
    def test_seed_determinism(self):
        spec = CouplingSpec(seed=42, length=500)
        x1, y1, _ = gen_coupled_pair(spec)
        x2, y2, _ = gen_coupled_pair(spec)
        assert np.array_equal(x1.values, x2.values)
        assert np.array_equal(y1.values, y2.values)

    def test_zero_strength_is_independent(self):
        spec = CouplingSpec(strength=0.0, active_intervals=active_everywhere(4000),
                            length=4000, seed=1)
        x, y, _ = gen_coupled_pair(spec)
        assert abs(lagged_corr(x.values, y.values, 1)) < 0.08

    def test_lagged_coupling_visible(self):
        spec = CouplingSpec(direction="x_to_y", strength=0.8, lag=1,
                            active_intervals=active_everywhere(4000), length=4000, seed=2)
        x, y, _ = gen_coupled_pair(spec)
        assert lagged_corr(x.values, y.values, 1) > 0.3

    def test_inactive_region_uncoupled(self):
        spec = CouplingSpec(
            direction="x_to_y", strength=2.0, lag=1,
            active_intervals=IntervalSet((Interval(0, 999),)), length=5000, seed=3,
        )
        x, y, _ = gen_coupled_pair(spec)
        # well after the active window (skip a margin for the AR tail)
        inactive = lagged_corr(x.values[1200:], y.values[1200:], 1)
        assert abs(inactive) < 3.0 / np.sqrt(3800 - 1)

    def test_direction_reversal(self):
        fwd = CouplingSpec(direction="x_to_y", active_intervals=active_everywhere(3000),
                           length=3000, seed=4)
        rev = CouplingSpec(direction="y_to_x", active_intervals=active_everywhere(3000),
                           length=3000, seed=4)
        x1, y1, _ = gen_coupled_pair(fwd)
        x2, y2, _ = gen_coupled_pair(rev)
        assert lagged_corr(x1.values, y1.values, 1) > 0.2
        assert lagged_corr(y2.values, x2.values, 1) > 0.2

    def test_unstable_spec_rejected(self):
        with pytest.raises(ConfigError):
            CouplingSpec(ar_coeff=1.0)
        with pytest.raises(ConfigError):
            CouplingSpec(active_intervals=IntervalSet((Interval(0, 99),)), length=50)

    def test_stationarity_no_drift(self):
        spec = CouplingSpec(active_intervals=active_everywhere(8000), length=8000, seed=5)
        x, _, _ = gen_coupled_pair(spec)
        assert np.all(np.isfinite(x.values))
        first, last = x.values[:1000], x.values[-1000:]
        assert abs(first.mean() - last.mean()) < 5 * spec.noise_std


class TestWindowPair:
    def test_planted_correlations(self):
        x, y = gen_window_pair(600, [(100, 250, 1.0), (350, 500, 0.9)], seed=0)
        r1 = np.corrcoef(x.values[100:251], y.values[100:251])[0, 1]
        r2 = np.corrcoef(x.values[350:501], y.values[350:501])[0, 1]
        assert r1 == pytest.approx(1.0, abs=1e-12)
        assert r2 > 0.85
        outside = np.corrcoef(x.values[260:340], y.values[260:340])[0, 1]
        assert abs(outside) < 0.5


class TestMaskedTransientPair:
    def test_signal_windows_positive_distractor_negative(self):
        x, y, planted = gen_masked_transient_pair(length=6000, seed=3)
        assert len(planted) == 2
        for iv in planted:
            r = lagged_corr(x.values[iv.start : iv.end + 1], y.values[iv.start : iv.end + 1], 4)
            assert r > 0.8
        # somewhere outside the signal windows the reverse coupling is negative
        mask = np.ones(6000, dtype=bool)
        for iv in planted:
            mask[max(iv.start - 50, 0) : iv.end + 51] = False
        xs, ys = x.values[mask], y.values[mask]
        assert lagged_corr(ys, xs, 4) < -0.2


class TestAUFixture:
    def make(self, tmp_path, **kwargs):
        spec = CouplingSpec(
            direction="x_to_y", lag=4, strength=4.0, ar_coeff=0.3,
            active_intervals=IntervalSet((Interval(500, 1100), Interval(2000, 2600))),
            length=3000, seed=9,
        )
        return spec, gen_au_fixture(
            {"happiness_lower": spec}, tmp_path, "p01", "respectful", seed=9, **kwargs
        )

    def test_clean_fixture_reproduces_planted_mask(self, tmp_path):
        spec, (s_path, _, _) = self.make(tmp_path, swing=0.0, onset=0)
        rec = parse_au_csv(s_path, "p01", "respectful", "sender")
        base = baseline_stats([rec])
        active = expression_activation(
            au_activation(rec, base), EXPRESSIONS_BY_NAME["happiness_lower"]
        )
        # CSV frames are 1-based, and the activation columns start at the first frame
        got = runs(active, int(rec.frame_indices[0]))
        assert got == [(iv.start + 1, iv.end + 1) for iv in spec.active_intervals]

    def test_low_confidence_frames_dropped_by_sync(self, tmp_path):
        spec, (s_path, r_path, truths) = self.make(tmp_path, low_conf_frames=(10, 11, 700))
        s = parse_au_csv(s_path, "p01", "respectful", "sender")
        r = parse_au_csv(r_path, "p01", "respectful", "receiver")
        pair = confidence_sync(s, r, 0.89)
        for f in (11, 12, 701):  # 1-based frames of the injected rows
            assert f not in pair.sender.frame_indices
            assert f not in pair.receiver.frame_indices

    def test_deterministic_output(self, tmp_path):
        _, (s1, r1, _) = self.make(tmp_path / "a")
        _, (s2, r2, _) = self.make(tmp_path / "b")
        assert s1.read_bytes() == s2.read_bytes()
        assert r1.read_bytes() == r2.read_bytes()

    def test_unknown_expression_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            gen_au_fixture({"boredom_upper": CouplingSpec()}, tmp_path, "p", "contempt")

    def test_uncomputable_expression_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            gen_au_fixture({"anger_lower": CouplingSpec()}, tmp_path, "p", "contempt")


class TestDemoCohort:
    def test_manifest_structure_and_determinism(self, tmp_path):
        m1 = make_demo_cohort(tmp_path / "a", n_pairs=2, length=1200, seed=7)
        m2 = make_demo_cohort(tmp_path / "b", n_pairs=2, length=1200, seed=7)
        assert m1.read_text() == m2.read_text()
        lines = m1.read_text().strip().splitlines()
        assert lines[0] == "pair_id,role,condition,path"
        assert len(lines) == 1 + 2 * 3 * 2  # pairs x conditions x roles
        for a, b in zip(sorted(p.name for p in (tmp_path / "a").iterdir()),
                        sorted(p.name for p in (tmp_path / "b").iterdir())):
            assert a == b
