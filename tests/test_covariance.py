"""Asynchronous covariance, correlation curves, two-component model."""

import tracemalloc

import numpy as np
import pytest

from vartau.candles import ReturnSeries
from vartau.clock import ClockKind, build_clock, year_bounds
from vartau.covariance import (CovMatrix, TwoComponentModel, cov_to_corr, corr_vs_tau,
                               estimate_cov, pair_stats, predicted_corr_ratio,
                               simulate_two_component)
from vartau.errors import DataError
from vartau.panel import grid_returns, map_candles
from vartau.synthetic import (correlated_walk_panel, hourly_candles_from_prices,
                              point_candles)
from vartau.variogram import default_tau_grid, value_at, variogram_diff_of_avg

T0, _ = year_bounds(2021)


def rs(r, tau=1.0, dt=None, idx=None):
    r = np.asarray(r, dtype=float)
    dt = np.full(len(r), tau) if dt is None else np.asarray(dt, dtype=float)
    idx = np.arange(len(r)) if idx is None else np.asarray(idx)
    return ReturnSeries(tau, r, dt, idx.astype(np.int64))


def identity_clock(year=2021):
    return build_clock([point_candles("X", [year_bounds(year)[0]], [1.0])],
                       ClockKind.CLOCK, year)


def walk_candles(returns, tau=1.0, first=None, gaps=None):
    """Point candles, one per tau bin, whose log returns are ``returns``, mapped to the grid.

    Ticker t's walk starts in bin ``first[t]`` (default 0), and its returns
    span ``gaps[t]`` bins each (default 1).
    """
    series = {}
    for t, r in returns.items():
        steps = np.ones(len(r), dtype=np.int64) if gaps is None else np.asarray(gaps[t])
        bins = (first or {}).get(t, 0) + np.concatenate(([0], np.cumsum(steps)))
        prices = np.exp(np.concatenate(([0.0], np.cumsum(r))))
        series[t] = point_candles(t, T0 + (bins * round(tau * 3600)).astype(np.int64), prices)
    return map_candles(series.values(), [identity_clock()])


def model_rho(ra, rb, tau):
    """Correlation of two return series paired by start index, from one return grid."""
    c, n_obs = pair_stats([ra, rb], len(ra), tau)
    return cov_to_corr(CovMatrix(["A", "B"], c, n_obs)).rho[0, 1]


class TestEstimate:
    def test_self_covariance_is_variance(self):
        rng = np.random.default_rng(0)
        r = rng.normal(0, 0.01, 500)
        candles = walk_candles({"A": r, "B": r})
        c = estimate_cov(candles, 1.0, min_obs=2)
        got = next(grid_returns(candles, 1.0)).r
        want = np.mean((got - got.mean()) ** 2)
        assert c.c[0, 1] == pytest.approx(want, rel=1e-12)
        assert c.c[0, 0] == pytest.approx(want, rel=1e-12)
        assert c.n_obs[0, 1] == 500

    def test_independent_null(self):
        rng = np.random.default_rng(1)
        n = 4000
        c = estimate_cov(walk_candles({"A": rng.normal(0, 1, n), "B": rng.normal(0, 1, n)}),
                         1.0, min_obs=2)
        rho = cov_to_corr(c).rho[0, 1]
        assert abs(rho) < 3 / np.sqrt(n)

    def test_planted_factor_correlation(self):
        # single-factor construction with shared draws, rho = 0.49; the
        # 20,000 returns fit in one year at 15 minutes a bin
        rho = 0.49
        model = TwoComponentModel(v=lambda t: 1.0, u=lambda t: 0.0, rho=rho)
        ra, rb = simulate_two_component(model, 1.0, 20000, seed=2)
        c = estimate_cov(walk_candles({"A": ra.r, "B": rb.r}, tau=0.25), 0.25, min_obs=2)
        assert cov_to_corr(c).rho[0, 1] == pytest.approx(rho, abs=0.05)

    def test_partial_overlap_and_floor(self):
        rng = np.random.default_rng(3)
        candles = walk_candles({"A": rng.normal(size=100), "B": rng.normal(size=100)},
                               first={"B": 60})
        c = estimate_cov(candles, 1.0, min_obs=50)
        assert c.n_obs[0, 1] == 40          # joint start bins 60..99
        assert np.isnan(c.c[0, 1])          # below the floor -> missing
        filled = c.filled()
        assert not np.isnan(filled.c).any()
        assert filled.c[0, 1] == 0.0        # nothing observed to impute from

    def test_dt_band_discards_long_gaps(self):
        # the third return spans 10 bins, past the band's 3 tau
        candles = walk_candles({"A": [0.1, 0.2, 0.3, 0.4]}, gaps={"A": [1, 1, 10, 1]})
        assert estimate_cov(candles, 1.0, min_obs=2).n_obs[0, 0] == 3

    def test_permutation_equivariance(self):
        # the grid sorts its rows by ticker, so renaming permutes the matrix
        rng = np.random.default_rng(4)
        x, y, z = rng.normal(size=(3, 300))
        c1 = estimate_cov(walk_candles({"A": x, "B": y, "C": z}), 1.0, min_obs=2)
        c2 = estimate_cov(walk_candles({"B": x, "C": y, "A": z}), 1.0, min_obs=2)
        perm = [2, 0, 1]
        assert np.allclose(c2.c, c1.c[np.ix_(perm, perm)], rtol=1e-12, atol=0)

    def test_binned_pipeline_factor_model(self):
        clock = identity_clock()
        rho = 0.6
        prices = correlated_walk_panel(4, 6000, rho, seed=6)
        series = {f"T{i}": hourly_candles_from_prices(f"T{i}", 2021, prices[i])
                  for i in range(4)}
        rm = cov_to_corr(estimate_cov(map_candles(series.values(), [clock]), 1.0))
        off = rm.rho[np.triu_indices(4, 1)]
        assert np.all(np.abs(off - rho) < 4 / np.sqrt(6000) + 0.02)


class TestCorrMatrix:
    def test_unit_diagonal_and_closed_form(self):
        c = CovMatrix(["A", "B"], np.array([[4.0, 1.0], [1.0, 1.0]]),
                      np.full((2, 2), 100, dtype=np.int64))
        rm = cov_to_corr(c)
        assert rm.rho[0, 0] == 1.0 and rm.rho[1, 1] == 1.0
        assert rm.rho[0, 1] == pytest.approx(0.5)

    def test_diagonal_cov_gives_identity(self):
        c = CovMatrix(["A", "B", "C"], np.diag([1.0, 2.0, 3.0]),
                      np.full((3, 3), 99, dtype=np.int64))
        assert np.allclose(cov_to_corr(c).rho, np.eye(3))

    def test_clamp_keeps_raw(self):
        # the correlation is clamped; the covariance it came from keeps the raw ratio
        c = CovMatrix(["A", "B"], np.array([[1.0, 1.1], [1.1, 1.0]]),
                      np.full((2, 2), 9, dtype=np.int64))
        rm = cov_to_corr(c)
        assert rm.rho[0, 1] == 1.0 and rm.rho[1, 0] == 1.0
        assert c.c[0, 1] / np.sqrt(c.c[0, 0] * c.c[1, 1]) == pytest.approx(1.1)

    def test_no_clamp_on_synchronous_complete_data(self):
        rng = np.random.default_rng(7)
        c = estimate_cov(walk_candles(dict(zip("ABCDE", rng.normal(size=(5, 400))))),
                         1.0, min_obs=2).c
        raw = c / np.sqrt(np.outer(np.diag(c), np.diag(c)))
        assert np.all(np.abs(raw) <= 1 + 1e-12)


class TestCorrVsTau:
    def test_constant_rho_factor_model_flat(self):
        clock = identity_clock()
        rho = 0.5
        prices = correlated_walk_panel(2, 8000, rho, hourly_vol=0.01, seed=8)
        series = {f"T{i}": hourly_candles_from_prices(f"T{i}", 2021, prices[i])
                  for i in range(2)}
        grid = np.array([1.0, 2.0, 4.0, 8.0])
        tickers, curves, _ = corr_vs_tau(map_candles(series.values(), [clock]), grid, 1.0)
        assert tickers == ["T0", "T1"] and curves.shape == (1, len(grid))
        se = 3.0 / np.sqrt(8000 / grid)
        assert np.all(np.abs(curves[0] - 1.0) < (se / rho + se[0] / rho))

    def test_single_point_grid(self):
        clock = identity_clock()
        prices = correlated_walk_panel(2, 400, 0.4, seed=9)
        series = {f"T{i}": hourly_candles_from_prices(f"T{i}", 2021, prices[i])
                  for i in range(2)}
        _, curves, _ = corr_vs_tau(map_candles(series.values(), [clock]), np.array([1.0]), 1.0)
        assert np.allclose(curves, 1.0)

    @pytest.mark.parametrize("case", ["walks", "year_end"])
    def test_variogram_rows_match_diff_of_avg(self, case):
        if case == "walks":
            clock = identity_clock()
            prices = correlated_walk_panel(3, 600, 0.4, seed=10)
            series = {f"T{i}": hourly_candles_from_prices(f"T{i}", 2021,
                                                          prices[i][:200 * (i + 1)])
                      for i in range(3)}
            grid = np.array([0.5, 1.0, 3.0, 40.0, 250.0])
        else:
            # all of the year's volume trades in its first two minutes, so the
            # zero-volume candle sits at transaction hour 8760, in no bin of
            # the year at a tau that divides it
            ts = np.array([T0, T0 + 60, T0 + 7200], dtype=np.int64)
            series = {"A": point_candles("A", ts, [1.0, 2.0, 3.0],
                                         volume=np.array([1.0, 1.0, 0.0]))}
            clock = build_clock(series.values(), ClockKind.VOLUME_WEIGHTED, 2021)
            grid = np.array([1460.0, 2920.0, 8760.0])
        _, _, v = corr_vs_tau(map_candles(series.values(), [clock]), grid, 1.0)
        for row, s in zip(v, series.values()):
            want = variogram_diff_of_avg(map_candles([s], [clock]), grid)
            assert np.array_equal(grid[~np.isnan(row)], want.tau)
            assert np.array_equal(row[~np.isnan(row)], want.v)
        assert np.isnan(v).sum() > 0
        if case == "year_end":
            # the one return left runs from hour 0 to hour 4380; at tau 8760
            # both candles share bin 0 and there is none
            assert np.allclose(v[0, :2], np.log(2.0) ** 2 * grid[:2] / 4380, rtol=1e-14)


class TestPredictedRatio:
    def test_memoryless_flat_one(self):
        tau = default_tau_grid(0.1, 10, 10)
        assert np.allclose(predicted_corr_ratio(5.0 * tau, tau, 1.0), 1.0)

    def test_power_law_rises_like_tau_to_2eps(self):
        tau = default_tau_grid(0.1, 10, 10)
        curve = predicted_corr_ratio(2.0 * tau ** 0.93, tau, 1.0)
        assert np.allclose(curve, tau ** 0.07, rtol=1e-10)

    def test_normalization_point_is_one(self):
        tau = default_tau_grid(0.2, 5, 8)
        curve = predicted_corr_ratio(tau ** 0.9, tau, normalize_tau=1.0)
        assert value_at(tau, curve[None], 1.0)[0] == pytest.approx(1.0, rel=1e-10)

    def test_curve_that_misses_the_normalization_point_is_nan(self):
        tau = default_tau_grid(0.2, 5, 8)
        assert np.isnan(predicted_corr_ratio(tau ** 0.9, tau, 10.0)).all()


class TestTwoComponent:
    def test_no_uncorrelated_part_recovers_latent(self):
        model = TwoComponentModel(v=lambda t: 2.0 * t, u=lambda t: 0.0, rho=0.7)
        ra, rb = simulate_two_component(model, 1.0, 30000, seed=10)
        rho = model_rho(ra, rb, 1.0)
        assert rho == pytest.approx(0.7, abs=3 * (1 - 0.7 ** 2) / np.sqrt(30000))

    def test_no_correlated_part_gives_zero(self):
        model = TwoComponentModel(v=lambda t: 0.0, u=lambda t: 1.0, rho=0.7)
        ra, rb = simulate_two_component(model, 1.0, 30000, seed=11)
        assert abs(model_rho(ra, rb, 1.0)) < 3 / np.sqrt(30000)

    def test_equal_parts_halve_latent(self):
        model = TwoComponentModel(v=lambda t: 1.5, u=lambda t: 1.5, rho=0.8)
        ra, rb = simulate_two_component(model, 1.0, 60000, seed=12)
        assert model_rho(ra, rb, 1.0) == pytest.approx(0.4, abs=0.02)

    def test_negative_latent_correlation(self):
        model = TwoComponentModel(v=lambda t: 1.0, u=lambda t: 0.0, rho=-0.6)
        ra, rb = simulate_two_component(model, 1.0, 30000, seed=13)
        assert model_rho(ra, rb, 1.0) == pytest.approx(-0.6, abs=0.02)

    def test_observed_rho_closure_across_tau(self):
        # measured rho(tau) tracks rho * V/(V+U) at every grid point
        model = TwoComponentModel(v=lambda t: t, u=lambda t: t ** 0.9, rho=0.5)
        for tau in (0.25, 1.0, 4.0, 16.0):
            n = 20000
            ra, rb = simulate_two_component(model, tau, n, seed=int(tau * 100))
            got = model_rho(ra, rb, tau)
            want = model.observed_rho(tau)
            assert abs(got - want) < 3 * (1 - want ** 2) / np.sqrt(n)

    def test_pair_stats_empty_overlap(self):
        a = rs(np.array([0.1, 0.2]), idx=np.array([0, 1]))
        b = rs(np.array([0.1, 0.2]), idx=np.array([5, 6]))
        c, n = pair_stats([a, b], 7, 1.0)
        assert n[0, 1] == n[1, 0] == 0 and np.isnan(c[0, 1]) and np.isnan(c[1, 0])
        assert n[0, 0] == n[1, 1] == 2

    @pytest.mark.parametrize("idx", [[0, 2, 1], [0, 1, 1], [-1, 0, 1], [4, 5, 7]])
    def test_pair_stats_needs_increasing_starts_on_the_grid(self, idx):
        with pytest.raises(DataError, match="start indices of row 1"):
            pair_stats([rs([0.1, 0.2, 0.3]), rs([0.1, 0.2, 0.3], idx=np.array(idx))],
                       7, 1.0)

    def test_pair_stats_state_grows_with_the_returns_not_the_grid(self):
        # three rows of ten returns on a grid of 200,000 column blocks once
        # held state for every block, 20 MiB of it, and took a second
        rng = np.random.default_rng(0)
        width = 4096 * 200_000
        rows = [rs(rng.normal(size=10), idx=np.sort(rng.choice(width, 10, replace=False)))
                for _ in range(3)]
        tracemalloc.start()
        try:
            _, n = pair_stats(rows, width, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert np.diag(n).tolist() == [10, 10, 10]
