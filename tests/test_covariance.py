"""Asynchronous covariance, correlation curves and their prediction."""

import tracemalloc
import weakref

import numpy as np
import pytest

from oracles import (candle_cov, corr_vs_tau_loop, support_hy_loop, support_returns,
                     txn_candles)
from vartau import covariance, panel
from vartau.clock import ClockKind, build_clock, year_bounds
from vartau.covariance import (CovMatrix, cov_to_corr, corr_vs_tau, pair_stats,
                               predicted_corr_ratio)
from vartau.errors import DataError
from vartau.panel import grid_bins
from vartau.synthetic import (correlated_walk_panel, hourly_candles_from_prices,
                              point_candles)
from vartau.variogram import default_tau_grid, value_at

T0, _ = year_bounds(2021)


def row(idx, r=None):
    """A row of (grid index, bin price) at grid indices idx, as ``grid_bins``
    yields it, whose log returns are r (default 0.01 each)."""
    idx = np.asarray(idx, dtype=np.int64)
    r = np.full(len(idx) - 1, 0.01) if r is None else np.asarray(r, dtype=float)
    return idx, np.exp(np.concatenate(([0.0], np.cumsum(r))))


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
    return txn_candles(series.values(), [identity_clock()])


def lag1_kernel(z):
    """The support-HY variance of demeaned returns: sum z^2 + 2 sum z_i z_{i+1}."""
    return z @ z + 2 * (z[1:] @ z[:-1])


class TestEstimate:
    def test_self_covariance_is_variance(self):
        # per return: the lag-1 kernel of the 500 hourly returns over their 500 steps
        rng = np.random.default_rng(0)
        r = rng.normal(0, 0.01, 500)
        candles = walk_candles({"A": r, "B": r})
        c = candle_cov(candles, 1.0, min_obs=2)
        k, p = next(grid_bins(candles, 1.0))
        want = lag1_kernel(support_returns(k, p)[1]) / 500
        assert c.c[0, 1] == pytest.approx(want, rel=1e-12)
        assert c.c[0, 0] == pytest.approx(want, rel=1e-12)
        assert c.n_obs[0, 1] == 3 * 500 - 2          # each return overlaps its neighbours

    def test_independent_null(self):
        # each return meets three of the other's, so the null spread of rho
        # is sqrt(3 / n), not sqrt(1 / n)
        rng = np.random.default_rng(1)
        n = 4000
        c = candle_cov(walk_candles({"A": rng.normal(0, 1, n), "B": rng.normal(0, 1, n)}),
                         1.0, min_obs=2)
        rho = cov_to_corr(c).rho[0, 1]
        assert abs(rho) < 3 * np.sqrt(3 / n)

    def test_planted_factor_correlation(self):
        # single-factor construction with one shared draw a period, rho = 0.49;
        # the 20,000 returns fit in one year at 15 minutes a bin
        rho = 0.49
        rng = np.random.default_rng(2)
        common, own = rng.standard_normal(20000), rng.standard_normal((2, 20000))
        ra, rb = np.sqrt(rho) * common + np.sqrt(1 - rho) * own
        c = candle_cov(walk_candles({"A": ra, "B": rb}, tau=0.25), 0.25, min_obs=2)
        assert cov_to_corr(c).rho[0, 1] == pytest.approx(rho, abs=0.05)

    def test_partial_overlap_and_floor(self):
        rng = np.random.default_rng(3)
        candles = walk_candles({"A": rng.normal(size=100), "B": rng.normal(size=100)},
                               first={"B": 80})
        c = candle_cov(candles, 1.0, min_obs=100)
        # B's returns from bins 80..98 overlap three of A's, 99 two and 100 one
        assert c.n_obs[0, 1] == 3 * 19 + 2 + 1
        assert np.isnan(c.c[0, 1])          # below the floor -> missing
        assert np.isfinite(np.diag(c.c)).all()      # 100 returns, 298 pairs each
        filled = c.filled()
        assert not np.isnan(filled.c).any()
        assert filled.c[0, 1] == 0.0        # nothing observed to impute from

    def test_long_gap_return_overlaps_every_return_inside_its_support(self):
        # A's third return runs from bin 2 to bin 12 and overlaps B's returns
        # 1..12, the returns from bins 1, 2, ..., 12; A's others meet 2, 3 and 3
        rng = np.random.default_rng(2)
        ra, rb = [0.1, 0.2, 0.3, 0.4], rng.normal(0, 0.01, 20)
        candles = walk_candles({"A": ra, "B": rb}, gaps={"A": [1, 1, 10, 1], "B": [1] * 20})
        c = candle_cov(candles, 1.0, min_obs=2)
        assert c.n_obs[0, 1] == 2 + 3 + 12 + 3
        za, zb = (r - np.mean(r) for r in (np.array(ra), rb))
        want = (za[0] * zb[:2].sum() + za[1] * zb[:3].sum() + za[2] * zb[1:13].sum()
                + za[3] * zb[11:14].sum())
        assert c.c[0, 1] == pytest.approx(want / 13, rel=1e-12)      # A spans bins 0..13

    @pytest.mark.parametrize("gaps, first, m", [([1, 22, 1], 2, 19), ([1, 1, 22], 3, 22)],
                             ids=["within", "past_its_last_bin"])
    def test_a_ticker_inside_one_return_of_another_has_no_covariance(self, gaps, first, m):
        # B's m returns each meet A's second return, from bin 1 to 23, or A's
        # last, from bin 2 to 24, and no other (B's last return runs from 24 to
        # 25 there), so their sum is that return times B's demeaned sum: 0 but
        # for rounding, which gave correlations like 5e-15 and rho(tau) curves
        # of 1e17
        rng = np.random.default_rng(4)
        candles = walk_candles({"A": [0.3, 0.1, -0.4], "B": rng.normal(0, 0.01, m)},
                               first={"B": first}, gaps={"A": gaps, "B": [1] * m})
        c = candle_cov(candles, 1.0, min_obs=2)
        assert c.n_obs[0, 1] == m and np.isnan(c.c[0, 1]) and np.isfinite(np.diag(c.c)).all()
        _, curves, v = corr_vs_tau(candles, np.array([0.5, 1.0]), 1.0)
        assert np.isnan(curves).all() and np.isfinite(v).all()

    def test_different_spans_keep_a_perfect_correlation(self):
        # one walk: A trades bins 0..6000, B only 2000..4000, C only 0..3000
        # at every third bin. Each sum is divided by the steps both tickers
        # span, so every raw ratio is about 1; divided by the grid's hours
        # each was shrunk by T_ab / sqrt(T_a T_b) of the spans: 0.58, 0.71, 0.41
        rng = np.random.default_rng(6)
        r = rng.normal(0, 0.01, 6000)
        candles = walk_candles({"A": r, "B": r[2000:4000], "C": r[:3000].reshape(-1, 3).sum(1)},
                               first={"B": 2000}, gaps={"A": [1] * 6000, "B": [1] * 2000,
                                                        "C": [3] * 1000})
        c = candle_cov(candles, 1.0, min_obs=2).c
        raw = c / np.sqrt(np.outer(np.diag(c), np.diag(c)))
        assert raw[np.triu_indices(3, 1)] == pytest.approx(1.0, abs=0.05)

    def test_few_returns_beside_a_dense_ticker_are_below_the_floor(self):
        # A's 10 returns span 1000 bins and overlap 1009 of B's returns, but
        # a cell also needs min_obs returns of each ticker
        rng = np.random.default_rng(7)
        candles = walk_candles({"A": rng.normal(0, 0.03, 10), "B": rng.normal(0, 0.01, 1000)},
                               gaps={"A": [100] * 10, "B": [1] * 1000})
        c = candle_cov(candles, 1.0, min_obs=50)
        assert c.n_obs[0, 1] >= 1000
        assert np.isnan(c.c[0]).all() and np.isnan(c.c[:, 0]).all()
        assert np.isfinite(c.c[1, 1])

    def test_alternating_price_has_no_variance(self):
        # returns +a, -a, ...: the lag-1 kernel is (2 - m) a^2, not positive,
        # so A's variance, row and column are missing, as below min_obs
        rng = np.random.default_rng(3)
        candles = walk_candles({"A": 0.01 * (-1.0) ** np.arange(200),
                                "B": rng.normal(0, 0.01, 200), "C": rng.normal(0, 0.01, 200)})
        c = candle_cov(candles, 1.0, min_obs=2)
        assert np.isnan(c.c[0]).all() and np.isnan(c.c[:, 0]).all()
        assert np.isfinite(c.c[1:, 1:]).all()
        assert np.isnan(cov_to_corr(c).rho[0, 1:]).all()

    def test_permutation_equivariance(self):
        # the grid sorts its rows by ticker, so renaming permutes the matrix
        rng = np.random.default_rng(4)
        x, y, z = rng.normal(size=(3, 300))
        c1 = candle_cov(walk_candles({"A": x, "B": y, "C": z}), 1.0, min_obs=2)
        c2 = candle_cov(walk_candles({"B": x, "C": y, "A": z}), 1.0, min_obs=2)
        perm = [2, 0, 1]
        assert np.allclose(c2.c, c1.c[np.ix_(perm, perm)], rtol=1e-12, atol=0)

    def test_binned_pipeline_factor_model(self):
        clock = identity_clock()
        rho = 0.6
        prices = correlated_walk_panel(4, 6000, rho, seed=6)
        series = {f"T{i}": hourly_candles_from_prices(f"T{i}", 2021, prices[i])
                  for i in range(4)}
        rm = cov_to_corr(candle_cov(txn_candles(series.values(), [clock]), 1.0))
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
        c = candle_cov(walk_candles(dict(zip("ABCDE", rng.normal(size=(5, 400))))),
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
        tickers, curves, _ = corr_vs_tau(txn_candles(series.values(), [clock]), grid, 1.0)
        assert tickers == ["T0", "T1"] and curves.shape == (1, len(grid))
        se = 3.0 / np.sqrt(8000 / grid)
        assert np.all(np.abs(curves[0] - 1.0) < (se / rho + se[0] / rho))

    def test_single_point_grid(self):
        clock = identity_clock()
        prices = correlated_walk_panel(2, 400, 0.4, seed=9)
        series = {f"T{i}": hourly_candles_from_prices(f"T{i}", 2021, prices[i])
                  for i in range(2)}
        _, curves, _ = corr_vs_tau(txn_candles(series.values(), [clock]), np.array([1.0]), 1.0)
        assert np.allclose(curves, 1.0)

    @pytest.mark.parametrize("case", ["walks", "year_end"])
    def test_variance_rows_match_pair_loop(self, case):
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
        _, _, v = corr_vs_tau(txn_candles(series.values(), [clock]), grid, 1.0)
        _, _, want = corr_vs_tau_loop(series, clock, grid, 1.0)
        assert np.array_equal(np.isnan(v), np.isnan(want))
        assert np.allclose(v[~np.isnan(v)], want[~np.isnan(want)], rtol=1e-12, atol=0)
        assert np.isnan(v).sum() > 0
        if case == "year_end":
            # the one return left, from hour 0 to hour 4380, has no variance:
            # demeaned, it is 0
            assert np.isnan(v).all()


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
    """pair_stats' edge cases and memory, and corr_vs_tau's."""

    def test_pair_stats_empty_overlap(self):
        # the supports [0, 1], [1, 2] and [5, 6], [6, 7] never meet
        hy, n, steps, inside = pair_stats([row([0, 1, 2]), row([5, 6, 7])], 8)
        assert n[0, 1] == n[1, 0] == 0 and hy[0, 1] == hy[1, 0] == 0.0
        assert n[0, 0] == n[1, 1] == 3 * 2 - 2
        assert steps.tolist() == [[2, 0], [0, 2]] and not inside.any()

    @pytest.mark.parametrize("idx", [[0, 2, 1], [0, 1, 1], [-1, 0, 1], [4, 5, 7]])
    def test_pair_stats_needs_increasing_starts_on_the_grid(self, idx):
        with pytest.raises(DataError, match="grid indices of row 1"):
            pair_stats([row([0, 1, 2]), row(idx)], 7)

    def test_pair_stats_keeps_ten_bytes_per_kept_return(self):
        # 16 rows of ~37,000 bins over 40 column blocks. Each bin is held
        # once, as the z of the return it starts (float64) and its column
        # within its block (int16); besides that state the peak holds one
        # block's two dense float64 operands and the per-bin buffers that
        # fill them (54 bytes a bin of the fullest block here), one row's
        # temporaries and a few objects per (row, block). The peak is
        # 7.5 MB, of which the state is 5.9; at 16 bytes a bin it would be 11
        rng = np.random.default_rng(5)
        n, blocks = 16, 40
        width = blocks * covariance._BLOCK_BINS
        rows = [row(idx, rng.normal(0, 0.01, len(idx) - 1))
                for idx in (np.flatnonzero(rng.random(width) < 0.3) for _ in range(n))]
        bins = sum(len(k) for k, _ in rows)
        fullest = max(sum(((k // covariance._BLOCK_BINS) == b).sum() for k, _ in rows)
                      for b in range(blocks))
        tracemalloc.start()
        try:
            hy, n_obs, _, _ = pair_stats(iter(rows), width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 16 * n * covariance._BLOCK_BINS + 64 * fullest
        longest = 64 * max(len(k) for k, _ in rows)
        assert peak < 10 * bins + block + longest + 512 * n * blocks + (64 << 10)
        want, want_n, scale = support_hy_loop(rows)
        assert np.array_equal(n_obs, want_n)
        assert np.all(np.abs(hy - want) <= 1e-12 * scale)

    def test_corr_vs_tau_lets_each_ticker_go_before_binning_the_next(self, monkeypatch):
        # enumerate()'s reused tuple and the generators' loop variables once
        # held one ticker's bins and returns while the next ticker was binned
        rng = np.random.default_rng(3)
        gaps = {t: rng.choice([1, 1, 1, 5], 300) for t in "ABCD"}
        candles = walk_candles({t: rng.normal(0, 0.01, 300) for t in "ABCD"}, gaps=gaps)
        held, calls = [], []
        real_series, real_bins = panel.bin_series, covariance.grid_bins

        def bin_series(*args):
            assert all(ref() is None for ref in held), f"held at bin_series call {len(calls)}"
            calls.append(1)
            b = real_series(*args)
            held[:] = [weakref.ref(b.time), weakref.ref(b.price)]
            return b

        def grid_bins(candles, tau):
            for bins in real_bins(candles, tau):
                held.extend(map(weakref.ref, bins))
                yield bins
                del bins

        monkeypatch.setattr(panel, "bin_series", bin_series)
        monkeypatch.setattr(covariance, "grid_bins", grid_bins)
        tickers, curves, v = corr_vs_tau(candles, np.array([0.5, 1.0, 2.0]), 1.0)
        assert len(calls) == 12 and tickers == list("ABCD") and np.isfinite(v).all()

    def test_pair_stats_state_grows_with_the_returns_not_the_grid(self):
        # three rows of ten returns on a grid of 200,000 column blocks once
        # held state for every block, 20 MiB of it, and took a second
        rng = np.random.default_rng(0)
        width = covariance._BLOCK_BINS * 200_000
        rows = [row(np.sort(rng.choice(width, 11, replace=False)), rng.normal(size=10))
                for _ in range(3)]
        tracemalloc.start()
        try:
            _, n, _, _ = pair_stats(rows, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        assert np.diag(n).tolist() == [3 * 10 - 2] * 3
