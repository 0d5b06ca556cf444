"""Pairwise covariance and correlation of asynchronous returns.

Each ticker's returns are its ``panel.grid_returns`` at resolution tau, and
two tickers' returns are paired by the grid column of the bin they start
from: the standard pairing on a synchronous grid. Each product r_A * r_B is
reweighted by tau/sqrt(dt_A*dt_B) to put unequal elapsed times on the common
tau scale (as ``variogram.weighted_v`` reweights r^2), after returns outside
the dt band 0 < dt <= 3 tau (``variogram.MAX_DT_FACTOR``) are dropped and
per-ticker mean returns are removed. Pairs with too few joint observations
are reported as missing. The weight factorises, so with z = r*sqrt(tau/dt)
on a (ticker x start bin) grid Z, zero where a ticker has no return, and its
0/1 mask M, the sums for all pairs are Z @ Z.T and the joint counts M @ M.T.
``pair_stats`` never holds Z whole: it reads the tickers' returns one at a
time, keeps each kept return once, in 10 bytes (its z as float64 and its
column within its block of ``_BLOCK_BINS`` columns as int16), and adds both
products up block by block, so its dense temporaries are tickers x
``_BLOCK_BINS`` at any tau. The blocks reorder the sums, so they agree with
a pair-by-pair loop to rounding, not bit for bit. The Hayashi-Yoshida
estimator (Bernoulli 11(2), 2005), which sums the products of all
overlapping return intervals with no common grid, is the usual asynchronous
alternative; it is not implemented here. Correlation falling as tau shrinks
is the Epps effect (Epps, JASA 1979), which ``corr_vs_tau`` measures beside
each ticker's V(tau) from the same returns, normalized by ``variogram.value_at``.

The two-component return model splits each stock's return into a
cross-correlated part with partial variogram V(tau) sharing one factor
draw per period, and an uncorrelated part U(tau). Its observable
correlation is rho * V/(V+U); when V is memoryless the normalized
observed correlation must follow tau/V_tot(tau), which is what
``predicted_corr_ratio`` computes from a measured total variogram.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .candles import ReturnSeries, write_table
from .errors import DataError
from .panel import TxnCandles, grid_returns
from .variogram import MAX_DT_FACTOR, value_at, weighted_v

DEFAULT_MIN_OBS = 50
# the fewest joint returns behind any covariance or correlation that is reported
MIN_JOINT_OBS = 2
# grid columns per block of pair_stats' products; bounds its dense temporaries
_BLOCK_BINS = 4096


@dataclass
class CovMatrix:
    tickers: list[str]
    c: np.ndarray           # n x n, NaN where a pair had too few samples
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
        return CovMatrix(list(self.tickers), c, self.n_obs.copy())

    def write_csv(self, path) -> None:
        write_table(path, self.tickers, self.c.T)


@dataclass
class CorrMatrix:
    tickers: list[str]
    rho: np.ndarray          # clamped to [-1, 1], unit diagonal

    def write_csv(self, path) -> None:
        write_table(path, self.tickers, self.rho.T)


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



def pair_stats(returns, width: int, tau: float):
    """Weighted cross-moments of all pairs of rows of a (series, start bin) grid.

    Row i takes the i-th ReturnSeries (read once): the returns with dt in
    (0, MAX_DT_FACTOR*tau], demeaned, as z = r*sqrt(tau/dt) at their start
    indices, which must be strictly increasing and in [0, width).
    z_a*z_b is r_a*r_b reweighted by tau/sqrt(dt_a*dt_b), so the sums are
    Z @ Z.T and the joint counts M @ M.T over the zero-filled grid Z and its
    0/1 mask M. Each row keeps each of its returns once, in 10 bytes: its z
    (float64) and its column within its block of ``_BLOCK_BINS`` columns
    (int16), so the state grows with the returns, not with width. Block by
    block in ascending order, the rows' positions in one dense block are
    built in one reused buffer, every row's values fill the block and its
    mask, and their products are added up (the float32 mask counts exactly
    within a block). Returns (covariance, int64 counts), both exactly
    symmetric; a pair with no joint bin gets (nan, 0).
    """
    assert _BLOCK_BINS <= 32768     # a column within a block fits in int16
    # pieces[b]: (row, columns within block b, z) of each row with returns in block b
    pieces: dict[int, list] = {}
    n = 0
    # no enumerate(): its last tuple would hold a row while the next is read
    for rs in returns:
        i, n = n, n + 1
        k, r, dt = rs.start_index, rs.r, rs.dt
        del rs
        keep = (dt > 0) & (dt <= MAX_DT_FACTOR * tau)
        if not keep.all():
            k, r, dt = k[keep], r[keep], dt[keep]
        if not len(k):
            continue
        if k[0] < 0 or k[-1] >= width or np.any(k[1:] <= k[:-1]):
            raise DataError(f"start indices of row {i} are not increasing "
                            f"inside [0, {width})")
        z = r - r.mean()
        z *= np.sqrt(tau / dt)
        lo = 0
        while lo < len(k):      # one step per block that holds returns of the row
            b = int(k[lo]) // _BLOCK_BINS
            hi = int(np.searchsorted(k, (b + 1) * _BLOCK_BINS))
            cols = (k[lo:hi] - b * _BLOCK_BINS).astype(np.int16)
            pieces.setdefault(b, []).append((i, cols, z[lo:hi]))
            lo = hi
        del k, r, dt, keep      # the row is freed before the next one is read
    sums = np.zeros((n, n))
    n_obs = np.zeros((n, n), dtype=np.int64)
    # one block's positions and values at a time, in buffers reused by every block
    size = max((sum(len(p[2]) for p in block) for block in pieces.values()), default=0)
    flat = np.empty(size, dtype=np.int64)
    zs = np.empty(size)
    for b in sorted(pieces):
        bw = min(_BLOCK_BINS, width - b * _BLOCK_BINS)
        m = 0
        for i, cols, z in pieces.pop(b):
            e = m + len(z)
            flat[m:e] = cols
            flat[m:e] += i * bw
            zs[m:e] = z
            m = e
        zb = np.zeros((n, bw))
        zb.ravel()[flat[:m]] = zs[:m]
        mb = np.zeros(zb.shape, dtype=np.float32)
        mb.ravel()[flat[:m]] = 1.0
        sums += zb @ zb.T
        n_obs += (mb @ mb.T).astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        c = sums / n_obs
    lower = np.tril_indices(len(c), -1)
    c[lower] = c.T[lower]
    return c, n_obs


def estimate_cov(candles: TxnCandles, tau: float, min_obs: int = DEFAULT_MIN_OBS) -> CovMatrix:
    """Covariance of the tickers' grid returns at tau, in one pass over the
    candles; a ticker with none is left out."""
    tickers = []
    def rows():
        for t, rs in zip(candles.tickers, grid_returns(candles, tau)):
            if len(rs):
                tickers.append(t)
                yield rs
    c, n_obs = pair_stats(rows(), sum(candles.widths(tau)), tau)
    c[n_obs < max(min_obs, MIN_JOINT_OBS)] = np.nan
    return CovMatrix(tickers, c, n_obs)


def cov_to_corr(c: CovMatrix) -> CorrMatrix:
    """Normalize by the diagonal; clamp into [-1, 1]; force unit diagonal. A
    ticker whose variance is not positive (a constant price) gets NaN correlations."""
    d = np.where(np.diag(c.c) > 0, np.diag(c.c), np.nan)
    rho = np.clip(c.c / np.sqrt(np.outer(d, d)), -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return CorrMatrix(list(c.tickers), rho)


def corr_vs_tau(candles: TxnCandles, tau_grid, normalize_tau: float):
    """Pairwise correlation as a function of resolution, normalized at normalize_tau.

    Per tau, one ``pair_stats`` call over the tickers' ``grid_returns`` gives
    every pair, with the variances on the diagonal. Returns (tickers, curves,
    v). curves is (n_pairs, n_tau) normalized rho, the pairs in the order of
    ``np.triu_indices(len(tickers), 1)``, NaN where a pair or a variance had
    fewer than MIN_JOINT_OBS samples or a variance was not positive, and for
    a pair that ``variogram.value_at`` cannot read at normalize_tau.
    v is (n_tickers, n_tau): each ticker's V(tau) from the same returns,
    which for one year is its ``variogram_diff_of_avg`` (NaN where omitted).
    The candles are held (``TxnCandles.held``) across the taus.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    candles = candles.held()
    tickers = candles.tickers
    upper = np.triu_indices(len(tickers), 1)
    raw = np.full((len(upper[0]), len(tau_grid)), np.nan)
    v = np.full((len(tickers), len(tau_grid)), np.nan)
    for k, tau in enumerate(tau_grid):
        returns = _in_band(grid_returns(candles, tau), v[:, k])
        c, n_obs = pair_stats(returns, sum(candles.widths(tau)), tau)
        var = np.diag(c)
        good = (var > 0) & (np.diag(n_obs) >= MIN_JOINT_OBS)
        with np.errstate(invalid="ignore"):
            rho = c / np.sqrt(np.outer(var, var))
        rho[(n_obs < MIN_JOINT_OBS) | ~np.outer(good, good)] = np.nan
        raw[:, k] = rho[upper]
    raw /= value_at(tau_grid, raw, normalize_tau)[:, None]      # normalized in place
    return tickers, raw, v


def _in_band(returns, v):
    """Pass each ReturnSeries on cut to the dt band 0 < dt <= MAX_DT_FACTOR * tau,
    which ``weighted_v`` and ``pair_stats`` then keep whole; set v[i] to the
    i-th one's V(tau). A row is let go before the next one is read."""
    i = 0
    for rs in returns:
        keep = (rs.dt > 0) & (rs.dt <= MAX_DT_FACTOR * rs.tau)
        if not keep.all():
            rs = ReturnSeries(rs.tau, rs.r[keep], rs.dt[keep], rs.start_index[keep])
        v[i] = weighted_v(rs.r, rs.dt, rs.tau)[0]
        i += 1
        yield rs
        del rs, keep


def predicted_corr_ratio(v_tot, tau_grid, normalize_tau: float) -> np.ndarray:
    """Two-component prediction tau / V_tot(tau), V_tot the total return variance
    at each tau of tau_grid, divided by its value at normalize_tau (``value_at``)."""
    curve = np.asarray(tau_grid, dtype=float) / np.asarray(v_tot, dtype=float)
    return curve / value_at(tau_grid, curve[None], normalize_tau)[0]


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
