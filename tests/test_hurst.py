"""Hurst process simulation and its analytic companions."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from vartau import hurst
from vartau.errors import DataError
from vartau.hurst import (HurstParams, PricePanel, SimConfig, _postprocess,
                          impulse_response, panel_variogram, read_panel_csv, sampled_kernel,
                          simulate_fbm, simulate_shot_noise)
from vartau.variogram import fit_power_law


class TestImpulse:
    def test_zero_before_rise(self):
        assert impulse_response(0.05, 1.0, 0.5) == 0.0

    def test_unit_at_rise_time(self):
        assert impulse_response(0.05, 1.0, 1.0) == pytest.approx(1.0)

    def test_memoryless_is_unit_step(self):
        t = np.array([0.2, 1.0, 5.0, 500.0])
        assert np.allclose(impulse_response(0.0, 1.0, t), [0.0, 1.0, 1.0, 1.0])

    def test_mean_reverting_decays(self):
        v = impulse_response(0.1, 1.0, np.array([1.0, 10.0, 100.0]))
        assert np.all(np.diff(v) < 0)

    def test_param_validation(self):
        with pytest.raises(DataError):
            HurstParams(0.6)
        with pytest.raises(DataError):
            HurstParams(0.1, delta=0.0)
        assert HurstParams(0.035).hurst == pytest.approx(0.465)


class TestSimulateFbm:
    def test_deterministic(self):
        p = HurstParams(0.05)
        c = SimConfig(3, 512, seed=7)
        a = simulate_fbm(p, c)
        b = simulate_fbm(p, c)
        assert np.array_equal(a.prices, b.prices)

    def test_year_endpoints_at_one(self):
        pan = simulate_fbm(HurstParams(0.02), SimConfig(5, 1000, seed=1))
        assert np.allclose(np.log(pan.prices[:, 0]), 0.0)
        assert np.allclose(np.log(pan.prices[:, -1]), 0.0)

    def test_prices_hold_no_more_than_their_own_values(self):
        # the prices once viewed the whole inverse transform, about twice their size
        prices = simulate_fbm(HurstParams(0.05), SimConfig(3, 500, seed=1)).prices
        assert prices.base is None or prices.base.nbytes <= prices.nbytes

    def test_global_volatility_exact(self):
        pan = simulate_fbm(HurstParams(0.0), SimConfig(4, 2048, target_vol=0.15, seed=2))
        assert np.log(pan.prices).std() == pytest.approx(0.15, abs=1e-9)

    def test_no_circular_leakage(self):
        # the year blocks' FFT products are the direct linear convolution of the
        # same draws, also over many blocks, where every year adds into the next
        for eps, years, hours in [(0.05, 2, 500), (-0.3, 3, 97), (0.45, 1, 4), (0.2, 40, 4),
                                  (-0.45, 25, 33), (0.1, 12, 300)]:
            params, config = HurstParams(eps), SimConfig(years, hours, seed=3)
            n = years * hours
            e = np.random.default_rng(config.seed).standard_normal(n)
            direct = np.convolve(e, sampled_kernel(params, n))[:n].reshape(years, hours)
            want = _postprocess(direct, config.target_vol)
            got = simulate_fbm(params, config).prices
            assert np.allclose(np.log(got), np.log(want), rtol=0, atol=1e-12)

    def test_kernel_sampled_from_an_hour_is_that_part_of_the_kernel(self):
        params = HurstParams(0.3, delta=0.4)
        whole = sampled_kernel(params, 30)
        assert whole[0] == 0.0
        assert np.array_equal(sampled_kernel(params, 12, 18), whole[18:])

    def test_memory_grows_by_the_block_spectra_not_a_full_transform(self):
        # pocketfft's scratch is invisible to tracemalloc, so a child's peak RSS
        # is read after a one-year warm-up and after a 20-year panel. One
        # transform twice the series long grew it by about 75 bytes an hour; the
        # year blocks' spectra and the log prices take about 40. A process's
        # peak RSS starts at that of the process it was forked from, so a small
        # launcher starts the child, not this test process
        launcher = ("import os, sys\n"
                    "pid = os.posix_spawn(sys.executable, [sys.executable, '-c', sys.argv[1]],"
                    " os.environ)\n"
                    "sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n")
        script = ("import resource\n"
                  "from vartau.hurst import HurstParams, SimConfig, simulate_fbm\n"
                  "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                  "simulate_fbm(HurstParams(0.035), SimConfig(1, seed=1))\n"
                  "before = peak()\n"
                  "simulate_fbm(HurstParams(0.035), SimConfig(20, seed=1))\n"
                  "print(before, peak())\n")
        env = {**os.environ, "PYTHONPATH": str(Path(hurst.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-S", "-c", launcher, script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        before, after = map(int, run.stdout.split())
        per_hour = (after - before) * 1024 / (20 * 8760)          # ru_maxrss is in KiB
        assert per_hour < 60, (per_hour, before, after)

    def test_random_walk_exponent(self):
        pan = simulate_fbm(HurstParams(0.0), SimConfig(60, 8760, seed=4))
        fit = fit_power_law(panel_variogram(pan), (1, 300))
        assert fit.exponent == pytest.approx(1.0, abs=0.02)

    def test_market_epsilon_exponent(self):
        pan = simulate_fbm(HurstParams(0.035), SimConfig(60, 8760, seed=5))
        fit = fit_power_law(panel_variogram(pan), (1, 300))
        assert fit.exponent == pytest.approx(0.93, abs=0.02)


class TestShotNoise:
    def test_no_events_flat(self):
        pan = simulate_shot_noise(HurstParams(0.0, rate=1e-9),
                                  SimConfig(1, 100, seed=0))
        assert np.allclose(pan.prices, 1.0)

    def test_dense_step_impulses_are_random_walk(self):
        pan = simulate_shot_noise(HurstParams(0.0, rate=30),
                                  SimConfig(20, 8760, seed=5))
        fit = fit_power_law(panel_variogram(pan), (1, 200))
        assert fit.exponent == pytest.approx(1.0, abs=0.03)

    def test_matches_fft_variogram_exponent(self):
        # two implementations of the same dense limit; compare fitted
        # exponents within the Monte Carlo band of the panel ensemble
        lags = np.unique(np.geomspace(1, 150, 20).astype(int))
        shot, fft = [], []
        for seed in range(5):
            ps = simulate_shot_noise(HurstParams(0.05, rate=8),
                                     SimConfig(2, 1500, seed=seed))
            pf = simulate_fbm(HurstParams(0.05), SimConfig(2, 1500, seed=100 + seed))
            shot.append(fit_power_law(panel_variogram(ps, lags), (1, 150)).exponent)
            fft.append(fit_power_law(panel_variogram(pf, lags), (1, 150)).exponent)
        shot, fft = np.array(shot), np.array(fft)
        se = np.sqrt(shot.var(ddof=1) / len(shot) + fft.var(ddof=1) / len(fft))
        assert abs(shot.mean() - fft.mean()) < 3 * se

    def test_deterministic(self):
        p = HurstParams(0.05, rate=5)
        c = SimConfig(1, 300, seed=11)
        assert np.array_equal(simulate_shot_noise(p, c).prices,
                              simulate_shot_noise(p, c).prices)


class TestAnalytic:
    def test_simulated_autocorr_consistent_with_own_variogram(self):
        # R(1) = (V(2) - 2 V(1)) / 2 for stationary increments; the
        # simulation must satisfy its own variogram algebra
        pan = simulate_fbm(HurstParams(0.05), SimConfig(50, 8760, seed=6))
        v = panel_variogram(pan, np.array([1, 2]))
        implied = (v.v[1] - 2 * v.v[0]) / (2 * v.v[0])
        # pooled lag-1 autocorrelation of hourly returns; its standard error
        # from the spread of the per-year estimates
        r = np.diff(np.log(pan.prices), axis=1)
        ac = np.mean(r[:, :-1] * r[:, 1:]) / np.mean(r * r)
        per_year = np.mean(r[:, :-1] * r[:, 1:], axis=1) / np.mean(r * r, axis=1)
        se = per_year.std(ddof=1) / np.sqrt(len(per_year))
        assert ac < 0
        assert abs(ac - implied) < 3 * se


class TestPanelIo:
    def test_roundtrip(self, tmp_path):
        pan = simulate_fbm(HurstParams(0.05), SimConfig(2, 50, seed=9))
        path = tmp_path / "panel.csv"
        pan.write_csv(path)
        back = read_panel_csv(path)
        assert back.prices.shape == pan.prices.shape
        assert np.allclose(back.prices, pan.prices, rtol=1e-15)

    def test_bad_panel(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,hour,price\n0,0,1.0\n0,2,1.0\n")
        with pytest.raises(DataError, match="missing"):
            read_panel_csv(path)

    def test_header_names_the_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n0,0,1\n")
        with pytest.raises(DataError, match=r"bad\.csv: bad header \['foo', 'bar'\]"):
            read_panel_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ("0,0,1\n0,1,x\n", r"bad\.csv:3: cannot read price from 'x' as float64"),
        ("0,0,1\n\n0,1\n", r"bad\.csv:4: expected 3 fields, got 2"),
        ("0,0,1\n0,1,1\n0,1,2\n", r"bad\.csv:4: year 0, hour 1 repeats line 3"),
        # the first repeated cell in cell order, not in file order, is named
        ("0,1,1\n0,0,1\n0,1,2\n0,0,2\n", r"bad\.csv:5: year 0, hour 0 repeats line 3$"),
        ("0,0,1\n0,1,1\n1,0,1\n-1,1,1\n", r"bad\.csv:5: want a whole year"),
        ("0,0,1\n0.5,1,1\n", r"bad\.csv:3: want a whole year"),
        ("0,0,1\n0,1.5,1\n", r"bad\.csv:3: want a whole year"),
        ("0,0,1\n0,1,nan\n", r"bad\.csv:3: .* positive finite price"),
    ], ids=["non_numeric", "short_row", "repeated_cell", "repeated_cell_out_of_order",
            "negative_year", "fractional_year", "fractional_hour", "nan_price"])
    def test_bad_row_names_its_line(self, tmp_path, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("year,hour,price\n" + rows)
        with pytest.raises(DataError, match=message):
            read_panel_csv(path)

    def test_reader_holds_no_row_sized_temporary(self, tmp_path):
        # the rows (24 bytes each), the cell numbers, their counts and the
        # prices: about 40 bytes a row. A floor of the year and hour columns
        # together and a sort of the cells took it to about 49
        rows = 10 * 10_000
        path = tmp_path / "panel.csv"
        PricePanel(np.random.default_rng(1).lognormal(0, 0.1, (10, 10_000))).write_csv(path)
        tracemalloc.start()
        try:
            read_panel_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 45 * rows, peak / rows
