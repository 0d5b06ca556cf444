"""Pairwise covariance and correlation of asynchronous returns.

Each ticker's returns run between its consecutive non-empty bins at
resolution tau, and two tickers' returns are paired by the grid index of
the bin they start from: the standard pairing on a synchronous grid.
Each product r_A * r_B is reweighted by tau/sqrt(dt_A*dt_B) to put
unequal elapsed times on the common tau scale (as the variogram
estimators do), after returns outside the dt band 0 < dt <= 3 tau
(``variogram.MAX_DT_FACTOR``) are dropped and per-ticker mean returns
are removed. Pairs with too few joint observations are reported as
missing. The weight factorises, so with z = r*sqrt(tau/dt) on a
zero-filled (ticker x start bin) grid Z and a 0/1 mask M, the sums for
all pairs are Z @ Z.T and the joint counts M @ M.T. The Hayashi-Yoshida
estimator (Bernoulli 11(2), 2005), which sums the products of all
overlapping return intervals with no common grid, is the usual
asynchronous alternative; it is not implemented here. Correlation falling
as tau shrinks is the Epps effect (Epps, JASA 1979), which
``corr_vs_tau`` measures.

The two-component return model splits each stock's return into a
cross-correlated part with partial variogram V(tau) sharing one factor
draw per period, and an uncorrelated part U(tau). Its observable
correlation is rho * V/(V+U); when V is memoryless the normalized
observed correlation must follow tau/V_tot(tau), which is what
``predicted_corr_ratio`` computes from a measured total variogram.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .candles import CandleSeries, ReturnSeries, bin_coordinates
from .errors import DataError
from .panel import Panel
from .variogram import MAX_DT_FACTOR, loglog_interp, weighted_v

DEFAULT_MIN_OBS = 50


@dataclass
class CovMatrix:
    tickers: list[str]
    c: np.ndarray           # n x n, NaN where a pair had too few samples
    tau: float
    n_obs: np.ndarray       # n x n joint sample counts

    def filled(self) -> "CovMatrix":
        """Impute missing off-diagonal cells with the observed mean.

        Matrix-level consumers (precision/LOO) need a complete matrix;
        missing pairs take the cross-sectional mean off-diagonal value.
        Missing diagonals cannot be imputed and raise.
        """
        c = self.c.copy()
        if np.isnan(np.diag(c)).any():
            raise DataError("cannot impute a missing diagonal (variance) entry")
        off = ~np.eye(len(self.tickers), dtype=bool)
        miss = np.isnan(c)
        have = off & ~miss
        if miss.any():
            # with no observed off-diagonal at all, fall back to uncorrelated
            c[miss] = c[have].mean() if have.any() else 0.0
        return CovMatrix(list(self.tickers), c, self.tau, self.n_obs.copy())

    def write_csv(self, path, n_obs_path=None) -> None:
        _write_matrix_csv(path, self.tickers, self.c)
        if n_obs_path is not None:
            _write_matrix_csv(n_obs_path, self.tickers, self.n_obs, as_int=True)


@dataclass
class CorrMatrix:
    tickers: list[str]
    rho: np.ndarray          # clamped to [-1, 1], unit diagonal

    def write_csv(self, path) -> None:
        _write_matrix_csv(path, self.tickers, self.rho)


@dataclass
class TwoComponentModel:
    """Correlated/uncorrelated partial variograms and the latent correlation."""

    v: Callable[[float], float]
    u: Callable[[float], float]
    rho: float

    def __post_init__(self):
        if not -1.0 <= self.rho <= 1.0:
            raise DataError(f"latent correlation must be in [-1, 1], got {self.rho}")

    def total(self, tau: float) -> float:
        return float(self.v(tau)) + float(self.u(tau))

    def observed_rho(self, tau: float) -> float:
        """Expected measured correlation at tau: rho * V/(V+U)."""
        vt = self.total(tau)
        if vt <= 0:
            return 0.0
        return self.rho * float(self.v(tau)) / vt


def _write_matrix_csv(path, tickers, m, as_int=False) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(tickers)
        for row in m:
            w.writerow([int(x) if as_int else repr(float(x)) for x in row])


def return_grid(returns, shape: tuple[int, int], tau: float):
    """Weighted returns z and a 0/1 mask m on a (series, start bin) grid.

    Row i takes the i-th ReturnSeries (read once): the returns with dt in
    (0, MAX_DT_FACTOR*tau], demeaned, as z = r*sqrt(tau/dt) at their start
    indices, which must be distinct and in [0, shape[1]). Empty cells are 0.
    The float32 mask counts exactly below 2**24.
    """
    z = np.zeros(shape)
    m = np.zeros(shape, dtype=np.float32)
    for i, rs in enumerate(returns):
        keep = (rs.dt > 0) & (rs.dt <= MAX_DT_FACTOR * tau)
        k, r = rs.start_index[keep], rs.r[keep]
        if len(k) and k.min() < 0:
            raise DataError(f"negative start index {k.min()}")
        z[i, k] = (r - r.mean() if len(r) else r) * np.sqrt(tau / rs.dt[keep])
        m[i, k] = 1.0
    return z, m


def pair_stats(z: np.ndarray, m: np.ndarray):
    """Weighted cross-moments of all pairs of rows of a return grid.

    z_a*z_b is r_a*r_b reweighted by tau/sqrt(dt_a*dt_b), so the sums are
    z @ z.T and the joint counts m @ m.T. Returns (covariance, counts), both
    exactly symmetric; a pair with no joint bin gets (nan, 0).
    """
    n_obs = (m @ m.T).astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = (z @ z.T) / n_obs
    lower = np.tril_indices(len(c), -1)
    c[lower] = c.T[lower]
    return c, n_obs


def estimate_cov(panel: Panel, min_obs: int = DEFAULT_MIN_OBS) -> CovMatrix:
    """Covariance of the log returns between consecutive bins of a grid's rows."""
    c, n_obs = pair_stats(*return_grid(panel.returns(), panel.price.shape, panel.tau))
    c[n_obs < max(min_obs, 2)] = np.nan
    return CovMatrix(list(panel.tickers), c, panel.tau, n_obs)


def cov_to_corr(c: CovMatrix) -> CorrMatrix:
    """Normalize by the diagonal; clamp into [-1, 1]; force unit diagonal."""
    d = np.diag(c.c)
    if np.any(~np.isnan(d) & (d <= 0)):
        raise DataError("non-positive variance on the diagonal")
    scale = np.sqrt(np.outer(d, d))
    rho = np.clip(c.c / scale, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return CorrMatrix(list(c.tickers), rho)


def _value_at(tau_grid, values: np.ndarray, tau0: float) -> np.ndarray:
    """Each row's value at tau0, interpolated over its non-NaN cells.

    Every row needs a cell at or below tau0 and one at or above it. All
    positive rows interpolate log-log (the power-law convention), others
    linearly in log tau, with ``np.interp``'s arithmetic. Zero raises.
    """
    x, x0 = np.log(tau_grid), np.log(tau0)
    ok = ~np.isnan(values)
    k = np.arange(len(x))
    lo = np.where(ok & (x <= x0), k, -1).max(axis=1)
    hi = np.where(ok & (x >= x0), k, len(x)).min(axis=1)
    loglog = np.all((values > 0) | ~ok, axis=1)
    rows = np.arange(len(values))
    with np.errstate(invalid="ignore", divide="ignore"):
        y = np.where(loglog[:, None], np.log(values), values)
        slope = (y[rows, hi] - y[rows, lo]) / (x[hi] - x[lo])
        v0 = np.where(lo == hi, y[rows, lo], slope * (x0 - x[lo]) + y[rows, lo])
    v0 = np.where(loglog, np.exp(v0), v0)
    if np.any((v0 == 0) | ~np.isfinite(v0)):
        raise DataError("curve vanishes at the normalization point")
    return v0


def corr_vs_tau(series: Mapping[str, CandleSeries], clock, tau_grid,
                normalize_tau: float = 1.0, min_obs: int = 2):
    """Pairwise correlation as a function of resolution, normalized at 1 hr.

    ``series`` maps ticker to CandleSeries. Per tau, one return grid and one
    product give every pair, with the variances on the diagonal. Returns
    (pairs, curves, v). curves is (n_pairs, n_tau) normalized rho, NaN where
    a pair or a variance had fewer than ``min_obs`` samples or a variance was
    not positive, and for a pair whose values do not reach tau0 on both
    sides. v is (n_tickers, n_tau): from the same bins, each ticker's
    ``variogram_diff_of_avg`` at the taus it keeps, NaN at those it omits.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    tickers = list(series)
    coords = [clock.to_txn_time(series[t].timestamps) for t in tickers]
    prices = [series[t].rep_prices() for t in tickers]
    upper = np.triu_indices(len(tickers), 1)
    floor = max(min_obs, 2)
    raw = np.full((len(upper[0]), len(tau_grid)), np.nan)
    v = np.full((len(tickers), len(tau_grid)), np.nan)
    for k, tau in enumerate(tau_grid):
        # the greatest grid index a coordinate of the year can take, plus one
        width = int(np.floor_divide(clock.total_txn_hours, tau)) + 1
        returns = _binned_returns(coords, prices, tau, v[:, k])
        c, n_obs = pair_stats(*return_grid(returns, (len(tickers), width), tau))
        var = np.diag(c)
        good = (var > 0) & (np.diag(n_obs) >= floor)
        with np.errstate(invalid="ignore"):
            rho = c / np.sqrt(np.outer(var, var))
        rho[(n_obs < floor) | ~np.outer(good, good)] = np.nan
        raw[:, k] = rho[upper]
    ok = ~np.isnan(raw)
    reach = ((ok & (tau_grid <= normalize_tau)).any(axis=1)
             & (ok & (tau_grid >= normalize_tau)).any(axis=1))
    curves = np.full_like(raw, np.nan)
    curves[reach] = raw[reach] / _value_at(tau_grid, raw[reach], normalize_tau)[:, None]
    return list(itertools.combinations(tickers, 2)), curves, v


def _binned_returns(coords, prices, tau, v):
    """Yield each ticker's returns between its tau bins; set v[i] to their V(tau)."""
    for i, (x, p) in enumerate(zip(coords, prices)):
        idx, tbar, pbar, _ = bin_coordinates(x, p, tau)
        rs = ReturnSeries(tau, np.diff(np.log(pbar)), np.diff(tbar), idx[:-1])
        v[i] = weighted_v(rs.r, rs.dt, tau)[0]
        yield rs


def predicted_corr_ratio(v_tot, tau_grid, normalize_tau: float = 1.0) -> np.ndarray:
    """Two-component prediction tau / V_tot(tau), normalized to 1 at 1 hr.

    ``v_tot`` is a Variogram of the total return variance; it is
    interpolated onto the requested grid in log-log space.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    vt = loglog_interp(tau_grid, v_tot.tau, v_tot.v)
    curve = tau_grid / vt
    return curve / float(loglog_interp(normalize_tau, tau_grid, curve))


def simulate_two_component(model: TwoComponentModel, tau: float,
                           n_periods: int, seed: int = 0
                           ) -> tuple[ReturnSeries, ReturnSeries]:
    """Draw paired returns at resolution tau from the two-component model.

    Each period shares one factor draw between the two stocks; the
    uncorrelated parts get independent draws. A negative latent rho puts
    the minus sign on the second stock's factor loading.
    """
    if n_periods < 2:
        raise DataError("need at least 2 periods")
    rng = np.random.default_rng(seed)
    v = float(model.v(tau))
    u = float(model.u(tau))
    if v < 0 or u < 0:
        raise DataError("partial variograms must be non-negative")
    root = np.sqrt(abs(model.rho))
    sign_b = -1.0 if model.rho < 0 else 1.0
    n_c = rng.standard_normal(n_periods)
    n_a1 = rng.standard_normal(n_periods)
    n_a2 = rng.standard_normal(n_periods)
    n_b1 = rng.standard_normal(n_periods)
    n_b2 = rng.standard_normal(n_periods)
    resid = np.sqrt(1.0 - abs(model.rho))
    r_a = np.sqrt(v) * (root * n_c + resid * n_a1) + np.sqrt(u) * n_a2
    r_b = np.sqrt(v) * (sign_b * root * n_c + resid * n_b1) + np.sqrt(u) * n_b2
    idx = np.arange(n_periods, dtype=np.int64)
    dt = np.full(n_periods, float(tau))
    return (ReturnSeries(float(tau), r_a, dt, idx),
            ReturnSeries(float(tau), r_b, dt, idx))
