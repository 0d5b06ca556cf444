"""Variogram estimators, normalization, power-law fits, ensembles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vartau import cli, hurst
from vartau.candles import CandleSeries, write_candles
from vartau.clock import ClockKind, build_clock, year_bounds
from vartau.errors import DataError
from vartau.panel import map_candles
from vartau.synthetic import point_candles, random_walk_candles
from vartau.variogram import (PERCENTILES, Variogram, default_tau_grid, fit_power_law,
                              percentile_curves, value_at, variogram_diff_of_avg)

T0, _ = year_bounds(2021)


def identity_clock(year=2021):
    return build_clock([point_candles("X", [year_bounds(year)[0]], [1.0])],
                       ClockKind.CLOCK, year)


CLOCK = identity_clock()


def mapped(s):
    """One ticker's candles on the identity clock, as the estimator reads them."""
    return map_candles([s], [CLOCK])


def normalize_at(v: Variogram, tau0: float) -> Variogram:
    """v divided by its value at tau0, as the variogram command writes it."""
    return Variogram(v.tau, v.v / value_at(v.tau, v.v[None], tau0)[0], v.n_samples)


def fbm_minute_candles(epsilon, seed):
    """A year of 250 sessions x 390 minute candles of one ticker, each bar the
    open, high, low and close of 6 lattice steps of a simulated Hurst path,
    with constant volume."""
    sessions, minutes, steps = 250, 390, 6
    path = hurst.simulate_fbm(hurst.HurstParams(epsilon),
                              hurst.SimConfig(1, sessions * minutes * steps, seed=seed))
    bars = path.prices.reshape(-1, steps)
    ts = T0 + (86400 * np.arange(sessions)[:, None] + 60 * np.arange(minutes)).ravel()
    return CandleSeries("F", ts, bars[:, 0], bars.max(axis=1), bars.min(axis=1), bars[:, -1],
                        np.ones(len(ts)))


class TestDiffOfAvg:
    def test_memoryless_flat(self):
        # random-walk null: normalized V(tau)/tau constant across the grid
        s = random_walk_candles("M", 2021, 120_000, vol_per_candle=1e-3, seed=8)
        grid = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        v = variogram_diff_of_avg(mapped(s), grid)
        ratio = v.v / v.tau
        n_eff = v.n_samples.astype(float)
        # each point is a mean of ~n chi-square terms; allow 4 relative sigmas
        band = 4 * np.sqrt(2.0 / n_eff)
        assert np.all(np.abs(ratio / ratio[0] - 1) < band + band[0])

    def test_two_thirds_ratio_point_prices(self):
        # interval averaging shrinks return variance by 2/3 against point
        # prices: at tau = 0.5 h on the identity clock a return spans 30
        # one-minute steps of the walk, whose point variance is 30 vol^2;
        # about 13,000 returns put 0.05 near 4 sigma of the estimate
        s = random_walk_candles("P", 2021, 400_000, vol_per_candle=1e-3, seed=9)
        vd = variogram_diff_of_avg(mapped(s), [0.5])
        assert vd.v[0] / (1e-3 ** 2 * 30) == pytest.approx(2.0 / 3.0, rel=0.05)

    def test_insufficient_tau_omitted_and_flagged(self):
        ts = T0 + 60 * np.arange(30, dtype=np.int64)
        s = point_candles("S", ts, np.exp(np.linspace(0, 0.01, 30)))
        grid = np.array([0.25, 100.0])  # no two bins exist at tau=100
        v = variogram_diff_of_avg(mapped(s), grid)
        assert 100.0 not in v.tau
        assert 100.0 in v.omitted

    def test_candles_outside_the_year_are_ignored(self):
        ts = T0 + 3600 * np.arange(40, dtype=np.int64)
        prices = np.exp(np.sin(np.arange(40.0)))
        inside = point_candles("Y", ts, prices)
        wider = point_candles("Y", np.concatenate([[T0 - 3600], ts, [year_bounds(2022)[0]]]),
                              np.concatenate([[5.0], prices, [7.0]]))
        grid = np.array([1.0, 3.0])
        want = variogram_diff_of_avg(mapped(inside), grid)
        got = variogram_diff_of_avg(mapped(wider), grid)
        assert got.v.tolist() == want.v.tolist() and len(want) == 2
        assert got.n_samples.tolist() == want.n_samples.tolist()
        alone = variogram_diff_of_avg(mapped(point_candles("Y", ts[:1], prices[:1])), grid)
        assert len(alone) == 0 and alone.omitted.tolist() == grid.tolist()

    def test_recovers_the_planted_epsilon_of_minute_candles(self):
        # one seed of the estimator audit: a year of minute OHLC candles of a
        # Hurst path on the volume clock, fitted over the CLI's default grid.
        # Over 30 seeds the exponent fell by 0.0655 +- 0.0012 from eps = 0 to
        # the paper's 0.035 and was 0.953 +- 0.018 there; a point-difference
        # estimator read 1.00 at 0.035, so it could not see the memory
        grid = default_tau_grid(0.0333333, 200, 25)
        slopes = []
        for epsilon in (0.0, 0.035):
            s = fbm_minute_candles(epsilon, seed=0)
            clock = build_clock([s], ClockKind.VOLUME_WEIGHTED, 2021)
            v = variogram_diff_of_avg(map_candles([s], [clock]), grid)
            slopes.append(fit_power_law(v).exponent)
        assert slopes[0] - slopes[1] == pytest.approx(0.07, abs=0.01)
        assert slopes[1] == pytest.approx(0.93, abs=0.06)


class TestNormalize:
    def grid_vario(self, exponent, amp=3.0):
        tau = default_tau_grid(0.1, 100, 10)
        return Variogram(tau, amp * tau ** exponent, np.full(len(tau), 100))

    def test_unit_at_tau0(self):
        v = normalize_at(self.grid_vario(0.8), 1.0)
        assert value_at(v.tau, v.v[None], 1.0)[0] == pytest.approx(1.0)

    def test_scale_cancels(self):
        v = normalize_at(self.grid_vario(1.0, amp=3.0), 1.0)
        assert np.allclose(v.v, v.tau, rtol=1e-12)

    def test_exponent_preserved(self):
        v = normalize_at(self.grid_vario(0.93), 1.0)
        assert fit_power_law(v).exponent == pytest.approx(0.93, abs=1e-12)

    def test_outside_span(self):
        # a row with no cell on one side of tau0 cannot be read there
        v = self.grid_vario(1.0)
        assert np.isnan(value_at(v.tau, v.v[None], 1e-6)).all()
        assert np.isnan(value_at(v.tau, v.v[None], 1e6)).all()

    def test_power_law_is_read_log_log(self):
        # between two cells of a power law, log-log interpolation is exact
        tau = np.array([0.5, 2.0])
        assert value_at(tau, (3.0 * tau ** 0.8)[None], 1.0)[0] == pytest.approx(3.0, rel=1e-14)

    def test_rows_are_read_independently(self):
        tau = np.array([0.5, 1.0, 2.0, 4.0])
        values = np.array([[np.nan, 2.0, 4.0, 8.0],      # exactly on a cell
                           [1.0, np.nan, np.nan, 4.0],   # log-log over the gap
                           [np.nan, np.nan, 3.0, 5.0],   # misses tau0 below
                           [-1.0, np.nan, 3.0, 0.0],     # not positive: linear in log tau
                           [0.0, 0.0, 0.0, 0.0],         # vanishes at tau0
                           [np.nan] * 4])
        got = value_at(tau, values, 1.0)
        assert got[0] == 2.0
        assert got[1] == pytest.approx(2.0 ** (2 / 3), rel=1e-14)
        assert np.isnan(got[2])
        assert got[3] == pytest.approx(1.0, rel=1e-14)       # midway from -1 to 3
        assert np.isnan(got[4]) and np.isnan(got[5])


# curves on a grid of distinct taus, with NaN, zero, negative and positive cells
taus = st.lists(st.integers(-12, 12), min_size=1, max_size=8, unique=True).map(
    lambda k: 0.1 * 1.5 ** np.sort(np.array(k, dtype=float)))
cells = st.one_of(st.just(np.nan), st.just(0.0), st.floats(1e-6, 1e6),
                  st.floats(-1e6, 1e6))


@st.composite
def curve_rows(draw):
    tau = draw(taus)
    rows = draw(st.lists(st.lists(cells, min_size=len(tau), max_size=len(tau)),
                         min_size=1, max_size=5))
    tau0 = draw(st.one_of(st.sampled_from(list(tau)), st.floats(0.01, 200.0)))
    return tau, np.array(rows, dtype=float), tau0


@settings(max_examples=300, deadline=None)
@given(curve_rows())
def test_value_at_is_np_interp_of_each_row(case):
    # log-log for an all-positive row, linear in log tau for any other, over
    # the row's non-NaN cells and bit for bit; NaN where the row does not
    # reach tau0 on both sides or is zero there
    tau, values, tau0 = case
    x0 = np.log(tau0)
    got = value_at(tau, values, tau0)
    for row, v0 in zip(values, got):
        ok = ~np.isnan(row)
        x, y = np.log(tau[ok]), row[ok]
        if not (ok.any() and x[0] <= x0 <= x[-1]):
            want = np.nan
        elif (y > 0).all():
            want = np.exp(np.interp(x0, x, np.log(y)))
        else:
            want = np.interp(x0, x, y)
        if want == 0 or not np.isfinite(want):
            want = np.nan
        assert np.array_equal(v0, want, equal_nan=True), (row, tau0, v0, want)


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
            members.append(normalize_at(variogram_diff_of_avg(mapped(s), grid), 1.0))
        tau = grid
        curves = percentile_curves(np.stack([m.v for m in members]))
        spread = curves[-1] - curves[0]          # p90 - p10 per tau
        assert spread[-1] > 2 * spread[1]
        med = curves[2] / tau * tau[0]
        assert np.all(np.abs(med / med[0] - 1) < 0.4)
