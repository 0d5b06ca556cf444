"""Pairwise covariance and correlation of asynchronous returns.

A ticker's returns at resolution tau are the demeaned log differences of its
consecutive bin prices in ``panel.grid_bins``. A bin price averages the
candles of its bin, so the return from bin k_i to k_{i+1} has the closed
support [k_i, k_{i+1}]. A pair's covariance is the Hayashi-Yoshida sum
(Bernoulli 11(2), 2005) of r_A r_B over every pair of returns whose supports
overlap, and its count is the number of those pairs. On the diagonal this is
sum r_i^2 + 2 sum r_i r_{i+1}, a lag-1 realised kernel (Barndorff-Nielsen
et al., Econometrica 76(6), 2008) that takes in the lag-1 autocovariance
averaging gives adjacent returns, so a correlation and its variances come
from one matrix. The kernel need not be positive (prices alternating between
two values give returns +a, -a, ...); such a variance is reported missing.
Each sum is divided by the grid steps both tickers' returns span, a
covariance per return that does not shrink the correlation of two tickers
whose spans differ. Correlation falling as tau shrinks is the Epps effect
(Epps, JASA 1979), which ``corr_vs_tau`` measures beside each ticker's
variance from the same diagonal, normalized by ``variogram.value_at``.

The paper's two-component return model splits each stock's return into a
cross-correlated part with partial variogram V(tau), sharing one factor draw
per period, and an uncorrelated part U(tau). Its observable correlation is
rho * V/(V+U); when V is memoryless the normalized observed correlation must
follow tau/V_tot(tau), which is what ``predicted_corr_ratio`` computes from a
measured total variance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .candles import write_table
from .errors import DataError
from .panel import TxnCandles, grid_bins
from .variogram import value_at

DEFAULT_MIN_OBS = 50
# the fewest overlapping return pairs behind any covariance or correlation reported
MIN_JOINT_OBS = 2
# and behind a variance: 3 returns give 7. The lag-1 kernel of 2 demeaned
# returns, (z_1 + z_2)^2, is 0, and only rounding would give it a sign
MIN_VARIANCE_OBS = 7
# grid columns per block of pair_stats' products: 48 KiB a row of float64 operands
_BLOCK_BINS = 3072


@dataclass
class CovMatrix:
    tickers: list[str]
    c: np.ndarray           # n x n, NaN where a pair or a variance is missing
    n_obs: np.ndarray       # n x n counts of overlapping return pairs

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


def pair_stats(bins, width: int):
    """Support Hayashi-Yoshida sums and overlap counts of all pairs of rows.

    Row i is the i-th (grid index, bin price) of ``grid_bins`` or ``Panel.bins``,
    read once. Its indices are strictly increasing inside [0, width). Its
    returns z_j are demeaned log differences of its prices, with supports
    [k_j, k_{j+1}]. Returns (hy, n_obs, steps, inside): hy[a, b] sums z_a,i
    z_b,j over the pairs of returns whose supports overlap, n_obs[a, b] counts
    them (3 m - 2 on the diagonal for m returns), both exactly symmetric,
    steps[a, b] is the grid steps both rows' returns span (0 if none), and
    inside[a, b] marks where each return of one row meets one and the same
    return of the other alone: hy is that z times a demeaned sum, 0 in exact
    arithmetic.

    Two closed supports overlap exactly when one starts inside the other,
    and only equal starts count twice. So with Q each z at its start column,
    R each column's sum of the z whose supports cover it and W = R - Q/2,
    hy = Q W^T + (Q W^T)^T, and the counts, exact, from the 0/1 masks alike.
    Each row keeps each bin once, in 10 bytes: its column within its block of
    ``_BLOCK_BINS`` (int16) and the z of the return it starts (float64, NaN
    at the last bin). Block by block, all rows' runs are filled at once from
    the return each row carries in, so a support may span blocks with no bin.
    """
    assert _BLOCK_BINS <= 32768     # a column within a block fits in int16
    # pieces[b]: (row, columns within block b, z) of each row with bins in block b
    pieces: dict[int, list] = {}
    n, ends = 0, []             # each row's first, second, next-to-last and last grid index
    # no enumerate(): its last tuple would hold a row while the next is read
    for k, p in bins:
        i, n = n, n + 1
        ends.append((k[0], k[1], k[-2], k[-1]) if len(k) >= 2 else (0, 0, 0, 0))
        if len(k) < 2:
            continue
        if k[0] < 0 or k[-1] >= width or np.any(k[1:] <= k[:-1]):
            raise DataError(f"grid indices of row {i} are not increasing inside [0, {width})")
        z = np.log(p)
        z[:-1] = z[1:] - z[:-1]
        z[:-1] -= z[:-1].mean()
        z[-1] = np.nan
        lo = 0
        while lo < len(k):      # one step per block that holds bins of the row
            b = int(k[lo]) // _BLOCK_BINS
            hi = int(np.searchsorted(k, (b + 1) * _BLOCK_BINS))
            cols = (k[lo:hi] - b * _BLOCK_BINS).astype(np.int16)
            pieces.setdefault(b, []).append((i, cols, z[lo:hi]))
            lo = hi
        del k, p, z             # the row is freed before the next one is read
    hy, counts = np.zeros((n, n)), np.zeros((n, n))
    carry = np.full(n, np.nan)  # each row's return that is open at the next block
    for b in sorted(pieces):
        bw = min(_BLOCK_BINS, width - b * _BLOCK_BINS)
        block = pieces.pop(b)
        rows = np.array([piece[0] for piece in block])
        sizes = np.array([len(piece[1]) for piece in block])
        cols = np.concatenate([piece[1] for piece in block])
        z = np.concatenate([piece[2] for piece in block])
        del block
        # W's runs, row after row: from column 0 on the return the row carries
        # in, then one from each bin. ``first`` and ``at`` number each row's
        # first run and each bin's; in ``values``, after Q's zeros, a bin's
        # run is at + 1 and the run before it at
        count = np.zeros(n, dtype=np.intp)
        count[rows] = sizes
        first = np.cumsum(count) - count + np.arange(n)
        at = np.repeat(rows, sizes)
        pos = at * bw + cols                    # each bin's flat position in the block
        at += np.arange(1, len(z) + 1)
        edges = np.empty(n + len(z), dtype=np.intp)
        edges[first], edges[at] = np.arange(n) * bw, pos
        runs = np.diff(edges, prepend=-n * bw, append=n * bw)   # Q's zeros, then W's runs
        values = np.empty(len(runs))             # NaN where no return is open
        values[0], values[1 + first], values[1 + at] = np.nan, carry, z
        carry[rows] = z[np.cumsum(sizes) - 1]
        del count, first, edges, cols, z
        known = ~np.isnan(values)
        values[~known] = 0.0
        hy += _block_product(runs, pos, at, values, bw)
        counts += _block_product(runs, pos, at, known.astype(float), bw)
    first, second, penult, last = np.array(ends, dtype=np.int64).reshape(-1, 4).T
    steps = np.maximum(np.minimum.outer(last, last) - np.maximum.outer(first, first), 0)
    n_obs = (counts + counts.T).astype(np.int64)
    # b's m returns all meet a's span in m pairs: one return each, and the same
    inside = ((n_obs == (np.diag(n_obs) + 2) // 3) & (second >= first[:, None])
              & (penult <= last[:, None]))
    return hy + hy.T, n_obs, steps, inside | inside.T


def _block_product(runs, pos, at, run_values, bw: int):
    """Q W^T of one block: [Q; W] repeats ``run_values`` over ``runs`` (Q's
    zeros, then W's runs); at each bin's flat position ``pos`` Q takes its
    run's value (``at + 1``) and W the run before's plus half that. Taken as
    a corner of [Q; W] [Q; W]^T, its sums came out alike on 1, 2 and 4 BLAS
    threads at the bench's row counts, where Q W^T's did not (32 x 2160)."""
    x = np.repeat(run_values, runs).reshape(-1, bw)
    n = len(x) // 2
    starting = run_values[at + 1]
    x[:n].reshape(-1)[pos] = starting
    starting *= 0.5
    starting += run_values[at]
    x[n:].reshape(-1)[pos] = starting
    return (x @ x.T)[:n, n:]


def _per_return(bins, width: int):
    """``pair_stats``' sums per grid step both rows' returns span (at least 1
    from MIN_JOINT_OBS pairs on), and the counts; NaN below MIN_JOINT_OBS,
    where ``inside`` marks a sum that only rounding would make other than 0,
    and in the row and column of a variance that is not positive or counts
    fewer than MIN_VARIANCE_OBS."""
    hy, n_obs, steps, inside = pair_stats(bins, width)
    c = hy / np.where((n_obs >= MIN_JOINT_OBS) & ~inside, steps, np.nan)
    flat = ~((np.diag(c) > 0) & (np.diag(n_obs) >= MIN_VARIANCE_OBS))
    c[flat] = c[:, flat] = np.nan
    return c, n_obs


def estimate_cov(tickers: list[str], bins, width: int,
                 min_obs: int = DEFAULT_MIN_OBS) -> CovMatrix:
    """Support-HY covariance per return (``_per_return``) of the tickers' rows
    of ``bins`` on a grid of ``width`` columns, as ``pair_stats`` takes them,
    read once; a ticker with no return is left out. A cell is NaN where
    ``_per_return`` leaves it so, below min_obs overlapping return pairs, and
    where either ticker has fewer than min_obs returns."""
    kept = []
    def rows():
        for t, row in zip(tickers, bins):
            if len(row[0]) >= 2:
                kept.append(t)
                yield row
            del row
    c, n_obs = _per_return(rows(), width)
    returns = (np.diag(n_obs) + 2) // 3     # m returns overlap in 3 m - 2 pairs
    few = np.minimum.outer(returns, returns) < min_obs
    c[few | (n_obs < min_obs)] = np.nan
    return CovMatrix(kept, c, n_obs)


def cov_to_corr(c: CovMatrix) -> CorrMatrix:
    """Normalize by the diagonal; clamp into [-1, 1]; force unit diagonal. A
    ticker whose variance is missing or not positive gets NaN correlations."""
    d = np.where(np.diag(c.c) > 0, np.diag(c.c), np.nan)
    rho = np.clip(c.c / np.sqrt(np.outer(d, d)), -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    return CorrMatrix(list(c.tickers), rho)


def corr_vs_tau(candles: TxnCandles, tau_grid, normalize_tau: float):
    """Pairwise correlation as a function of resolution, normalized at normalize_tau.

    Per tau, one ``pair_stats`` call over the tickers' ``grid_bins`` gives
    every pair, with the variances on the diagonal. Returns (tickers, curves,
    v). curves is (n_pairs, n_tau) normalized rho, the pairs in the order of
    ``np.triu_indices(len(tickers), 1)``, NaN where ``_per_return`` leaves a
    cell so and for a pair that ``variogram.value_at`` cannot read at
    normalize_tau. v is (n_tickers, n_tau): each variance per return
    (``_per_return``), NaN where its correlations are. The candles are held
    (``TxnCandles.held``) across the taus.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    candles = candles.held()
    upper = np.triu_indices(len(candles.tickers), 1)
    raw = np.full((len(upper[0]), len(tau_grid)), np.nan)
    v = np.full((len(candles.tickers), len(tau_grid)), np.nan)
    for k, tau in enumerate(tau_grid):
        c, _ = _per_return(grid_bins(candles, tau), sum(candles.widths(tau)))
        v[:, k] = np.diag(c)
        raw[:, k] = (c / np.sqrt(np.outer(v[:, k], v[:, k])))[upper]
    raw /= value_at(tau_grid, raw, normalize_tau)[:, None]      # normalized in place
    return candles.tickers, raw, v


def predicted_corr_ratio(v_tot, tau_grid, normalize_tau: float) -> np.ndarray:
    """Two-component prediction tau / V_tot(tau), V_tot the total return variance
    at each tau of tau_grid, divided by its value at normalize_tau (``value_at``)."""
    curve = np.asarray(tau_grid, dtype=float) / np.asarray(v_tot, dtype=float)
    return curve / value_at(tau_grid, curve[None], normalize_tau)[0]
