"""Variogram estimators, normalization, power-law fits, ensembles."""

import numpy as np
import pytest

from vartau import cli, hurst
from vartau.candles import write_candles
from vartau.clock import ClockKind, build_clock, year_bounds
from vartau.errors import DataError
from vartau.synthetic import point_candles, random_walk_candles
from vartau.variogram import (PERCENTILES, Variogram, default_tau_grid, fit_power_law,
                              loglog_interp, normalize_at, percentile_curves,
                              variogram_diff_of_avg, variogram_two_point)
from vartau.variogram import _nearest_index

T0, _ = year_bounds(2021)


def identity_clock(year=2021):
    return build_clock([point_candles("X", [year_bounds(year)[0]], [1.0])],
                       ClockKind.CLOCK, year)


CLOCK = identity_clock()


class TestDiffOfAvg:
    def test_memoryless_flat(self):
        # random-walk null: normalized V(tau)/tau constant across the grid
        s = random_walk_candles("M", 2021, 120_000, vol_per_candle=1e-3, seed=8)
        grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        v = variogram_diff_of_avg(s, CLOCK, grid)
        ratio = v.v / v.tau
        n_eff = v.n_samples.astype(float)
        # each point is a mean of ~n chi-square terms; allow 4 relative sigmas
        band = 4 * np.sqrt(2.0 / n_eff)
        assert np.all(np.abs(ratio / ratio[0] - 1) < band + band[0])

    def test_two_thirds_ratio_point_prices(self):
        # interval averaging shrinks return variance by 2/3 vs point prices
        s = random_walk_candles("P", 2021, 80_000, vol_per_candle=1e-3, seed=9)
        grid = np.array([0.5])
        vd = variogram_diff_of_avg(s, CLOCK, grid)
        vt = variogram_two_point(s, CLOCK, grid, mode="grid_points")
        assert vd.v[0] / vt.v[0] == pytest.approx(2.0 / 3.0, rel=0.05)

    def test_insufficient_tau_omitted_and_flagged(self):
        ts = T0 + 60 * np.arange(30, dtype=np.int64)
        s = point_candles("S", ts, np.exp(np.linspace(0, 0.01, 30)))
        grid = np.array([0.25, 100.0])  # no two bins exist at tau=100
        v = variogram_diff_of_avg(s, CLOCK, grid)
        assert 100.0 not in v.tau
        assert 100.0 in v.omitted


class TestTwoPoint:
    def test_constant_series_zero(self):
        ts = T0 + 60 * np.arange(500, dtype=np.int64)
        s = point_candles("C", ts, np.full(500, 42.0))
        v = variogram_two_point(s, CLOCK, [0.5, 1.0], mode="grid_points")
        assert np.allclose(v.v, 0.0)

    def test_linear_ramp_exact(self):
        # deterministic log price c*t: two-point V(tau) = (c*tau)^2 exactly
        c = 0.01
        hours = np.arange(400)
        s = point_candles("L", T0 + 3600 * hours.astype(np.int64),
                          np.exp(c * hours))
        grid = np.array([1.0, 2.0, 5.0])
        v = variogram_two_point(s, CLOCK, grid, mode="grid_points")
        assert np.allclose(v.v, (c * grid) ** 2, rtol=1e-10)

    def test_two_point_less_consistent_on_candle_averages(self):
        # candles built from a finer walk are averages, not points; treating
        # them as points distorts the two-point V/tau as tau approaches the
        # candle length, while difference-of-average stays nearly flat
        s = random_walk_candles("B", 2021, 40_000, vol_per_candle=1e-3, seed=10,
                                substeps=30, price_mode="ohlc")
        grid = np.array([2.0 / 60.0, 1.0])
        vt = variogram_two_point(s, CLOCK, grid, mode="full_resolution")
        vd = variogram_diff_of_avg(s, CLOCK, grid)
        tp_small = (vt.v[0] / vt.tau[0]) / (vt.v[1] / vt.tau[1])
        doa_small = (vd.v[0] / vd.tau[0]) / (vd.v[1] / vd.tau[1])
        assert abs(tp_small - 1) > 1.5 * abs(doa_small - 1)

    def test_grid_and_full_resolution_agree(self):
        s = random_walk_candles("G", 2021, 60_000, vol_per_candle=1e-3, seed=11)
        grid = np.array([1.0, 3.0])
        vg_ = variogram_two_point(s, CLOCK, grid, mode="grid_points")
        vf = variogram_two_point(s, CLOCK, grid, mode="full_resolution")
        for i in range(len(grid)):
            se = vg_.v[i] * np.sqrt(2.0 / vg_.n_samples[i])
            assert abs(vg_.v[i] - vf.v[i]) < 3 * se

    def test_nearest_index_single_candle(self):
        # one candle is nearest to every target; index -1 would wrap around
        assert list(_nearest_index(np.array([5.0]), np.array([1.0, 9.0]))) == [0, 0]

    def test_nearest_index_brute_force(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3, 10):
            coords = np.sort(rng.choice(100, size=n, replace=False)).astype(float)
            targets = rng.uniform(-10, 110, 50)
            want = np.argmin(np.abs(coords[None, :] - targets[:, None]), axis=1)
            assert np.array_equal(_nearest_index(coords, targets), want)

    @pytest.mark.parametrize("estimate", [
        variogram_diff_of_avg,
        lambda s, clock, grid: variogram_two_point(s, clock, grid, mode="grid_points"),
        lambda s, clock, grid: variogram_two_point(s, clock, grid, mode="full_resolution"),
    ])
    def test_candles_outside_the_year_are_ignored(self, estimate):
        ts = T0 + 3600 * np.arange(40, dtype=np.int64)
        prices = np.exp(np.sin(np.arange(40.0)))
        inside = point_candles("Y", ts, prices)
        wider = point_candles("Y", np.concatenate([[T0 - 3600], ts, [year_bounds(2022)[0]]]),
                              np.concatenate([[5.0], prices, [7.0]]))
        grid = np.array([1.0, 3.0])
        want, got = estimate(inside, CLOCK, grid), estimate(wider, CLOCK, grid)
        assert got.v.tolist() == want.v.tolist() and len(want) == 2
        assert got.n_samples.tolist() == want.n_samples.tolist()
        alone = estimate(point_candles("Y", ts[:1], prices[:1]), CLOCK, grid)
        assert len(alone) == 0 and alone.omitted.tolist() == grid.tolist()

    def test_unknown_mode(self):
        s = point_candles("U", np.array([T0], dtype=np.int64), [1.0])
        with pytest.raises(DataError, match="mode"):
            variogram_two_point(s, CLOCK, [1.0], mode="bogus")


class TestNormalize:
    def grid_vario(self, exponent, amp=3.0):
        tau = default_tau_grid(0.1, 100, 10)
        return Variogram(tau, amp * tau ** exponent, np.full(len(tau), 100))

    def test_unit_at_tau0(self):
        v = normalize_at(self.grid_vario(0.8), 1.0)
        assert loglog_interp(1.0, v.tau, v.v) == pytest.approx(1.0)

    def test_scale_cancels(self):
        v = normalize_at(self.grid_vario(1.0, amp=3.0), 1.0)
        assert np.allclose(v.v, v.tau, rtol=1e-12)

    def test_exponent_preserved(self):
        v = normalize_at(self.grid_vario(0.93), 1.0)
        assert fit_power_law(v).exponent == pytest.approx(0.93, abs=1e-12)

    def test_outside_span(self):
        with pytest.raises(DataError, match="span"):
            normalize_at(self.grid_vario(1.0), 1e-6)


class TestFit:
    def test_exact_linear(self):
        tau = default_tau_grid(0.1, 10, 10)
        fit = fit_power_law(Variogram(tau, tau.copy(), np.ones(len(tau), int)))
        assert fit.exponent == pytest.approx(1.0, abs=1e-12)
        assert fit.epsilon == pytest.approx(0.0, abs=1e-12)
        assert fit.residual < 1e-12

    def test_observed_market_exponent(self):
        # exponent 0.93 corresponds to eps = 0.035, the headline fit
        tau = default_tau_grid(0.06, 200, 25)
        fit = fit_power_law(Variogram(tau, 2.0 * tau ** 0.93, np.ones(len(tau), int)))
        assert fit.epsilon == pytest.approx(0.035, abs=1e-12)
        assert fit.hurst == pytest.approx(0.465, abs=1e-12)
        assert fit.residual < 1e-12

    def test_amplitude(self):
        tau = default_tau_grid(1, 100, 10)
        fit = fit_power_law(Variogram(tau, 5.0 * tau ** 0.5, np.ones(len(tau), int)))
        assert fit.amplitude == pytest.approx(5.0, rel=1e-10)

    def test_single_year_recovery_band(self):
        # sampling band derived by Monte Carlo: per-year eps-hat spread is
        # wide (sd ~ 0.018 at 8760 hours), so test the mean over seeds
        eps = 0.05
        vals = []
        for seed in range(25):
            pan = hurst.simulate_fbm(hurst.HurstParams(eps),
                                     hurst.SimConfig(1, 8760, seed=seed))
            vals.append(fit_power_law(hurst.panel_variogram(pan), (1, 200)).epsilon)
        v = np.array(vals)
        se = v.std(ddof=1) / np.sqrt(len(v))
        assert abs(v.mean() - eps) < 3 * se
        assert v.std(ddof=1) < 0.03

    def test_degenerate_range(self):
        tau = np.array([1.0, 2.0, 4.0])
        v = Variogram(tau, tau.copy(), np.ones(3, int))
        with pytest.raises(DataError, match="3 grid points"):
            fit_power_law(v, (3.0, 3.5))

    def test_normalize_fit_commutes(self):
        rng = np.random.default_rng(13)
        tau = default_tau_grid(0.1, 50, 12)
        noisy = 4.0 * tau ** 0.9 * np.exp(rng.normal(0, 0.05, len(tau)))
        v = Variogram(tau, noisy, np.full(len(tau), 50))
        e1 = fit_power_law(v).exponent
        e2 = fit_power_law(normalize_at(v, 1.0)).exponent
        assert e1 == pytest.approx(e2, abs=1e-12)


class TestEnsemble:
    def test_identical_members_coincide(self):
        tau = np.array([1.0, 2.0, 4.0])
        v = Variogram(tau, np.array([1.0, 2.0, 4.0]), np.ones(3, int))
        curves = percentile_curves(np.stack([v.v, v.v, v.v]))
        assert np.allclose(curves, np.tile(v.v, (5, 1)))

    def test_two_members_median_is_midpoint(self):
        tau = np.array([1.0, 2.0])
        a = Variogram(tau, np.array([1.0, 1.0]), np.ones(2, int))
        b = Variogram(tau, np.array([3.0, 2.0]), np.ones(2, int))
        curves = percentile_curves(np.stack([a.v, b.v]))
        assert np.allclose(curves[PERCENTILES.index(50)], [2.0, 1.5])

    def test_mismatched_grids_rejected(self, tmp_path):
        # B trades 30 hours, too few for a return at 64 hours: its variogram
        # is written, but the ensemble holds only the tickers on the full grid
        write_candles(tmp_path / "A.csv", random_walk_candles("A", 2021, 8000, 60, seed=1))
        write_candles(tmp_path / "B.csv", random_walk_candles("B", 2021, 30, 60, seed=2))
        out = tmp_path / "out"
        assert cli.main(["variogram", "--data-dir", str(tmp_path), "--year", "2021",
                         "--clock", "clock", "--tau-grid", "0.5,1,4,64",
                         "--out-dir", str(out)]) == 0
        v_a = np.loadtxt(out / "variogram_A.csv", delimiter=",", skiprows=1)
        v_b = np.loadtxt(out / "variogram_B.csv", delimiter=",", skiprows=1)
        assert len(v_a) == 4 and len(v_b) == 3
        ensemble = np.loadtxt(out / "ensemble.csv", delimiter=",", skiprows=1)
        assert np.array_equal(ensemble[:, 1:], np.tile(v_a[:, 1:2], (1, 5)))

    def test_memoryless_years_dispersion_grows(self):
        # the percentile fan widens with tau as samples per year shrink
        grid = np.array([1.0, 4.0, 16.0, 64.0])
        members = []
        rng = np.random.default_rng(14)
        for _ in range(40):
            s = random_walk_candles("Y", 2021, 8760, spacing_minutes=60,
                                    vol_per_candle=4e-3, rng=rng)
            members.append(normalize_at(variogram_diff_of_avg(s, CLOCK, grid), 1.0))
        tau = grid
        curves = percentile_curves(np.stack([m.v for m in members]))
        spread = curves[-1] - curves[0]          # p90 - p10 per tau
        assert spread[-1] > 2 * spread[1]
        med = curves[2] / tau * tau[0]
        assert np.all(np.abs(med / med[0] - 1) < 0.4)
