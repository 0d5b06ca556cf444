"""Variogram estimation, power-law fitting and ensemble summaries.

The variogram V(tau) is the expected squared log return over a
transaction-time interval tau; a martingale has V proportional to tau,
so V(tau)/tau plotted against tau is flat for a memoryless process and
a power law tau^(1-2*eps) signals memory. ``value_at`` is the one
normalizer of these curves: V(tau), rho(tau) and its prediction.

One estimator is provided, difference of averages. It reads one ticker's
mapped candles, a ``panel.TxnCandles`` of one ticker and one year on its
transaction-time clock, and takes log returns of adjacent tau-bin average
prices, ``panel.grid_returns``. Because sampling is asynchronous, a return
spanning elapsed time dt contributes r^2 * (tau/dt) to the estimate at tau
-- the variance of a martingale increment grows linearly with elapsed
time, so this reweighting makes unequal spans comparable -- and spans
longer than MAX_DT_FACTOR = 3 times tau are dropped.

A candle's price is an average over its minute, not a point price. An
estimator that differences candle prices tau apart, as if they were point
prices, is biased at taus near the candle length, and the bias raises the
fitted exponent. This was measured on 30 seeded markets of one ticker with
250 sessions x 390 minute candles, each bar built from six lattice steps of
``hurst.simulate_fbm``, on the volume clock, fitted over the default
0.033-200 h grid. At a planted eps of 0.035 (exponent 0.93), point
differences, sampled once per grid step or at every candle, fitted 1.007 +-
0.013 and 1.001 +- 0.015, so they read eps as zero; difference of averages
fitted 0.953 +- 0.018. On the same seed, its exponent fell by 0.0655 +-
0.0012 from eps = 0 to eps = 0.035 (one seed of this is
``test_recovers_the_planted_epsilon_of_minute_candles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .candles import write_table
from .errors import DataError
from .panel import TxnCandles, grid_returns

# the dt band: a return is kept when 0 < dt <= MAX_DT_FACTOR * tau
MAX_DT_FACTOR = 3.0
PERCENTILES = (10, 25, 50, 75, 90)


@dataclass
class Variogram:
    tau: np.ndarray          # transaction hours, strictly increasing
    v: np.ndarray            # squared-log-return units
    n_samples: np.ndarray    # returns contributing at each tau
    omitted: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.n_samples = np.asarray(self.n_samples, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.tau)

    def write_csv(self, path) -> None:
        write_table(path, ["tau_hours", "V", "n_samples"], [self.tau, self.v, self.n_samples])


@dataclass
class PowerLawFit:
    exponent: float          # slope in log-log space; 2H = 1 - 2*eps
    amplitude: float         # V(tau) ~ amplitude * tau**exponent
    fit_range: tuple[float, float]
    residual: float          # rms of log-log residuals

    @property
    def epsilon(self) -> float:
        return (1.0 - self.exponent) / 2.0

    @property
    def hurst(self) -> float:
        return self.exponent / 2.0


def default_tau_grid(tau_min: float, tau_max: float, points_per_decade: int) -> np.ndarray:
    """Log-spaced grid from tau_min to tau_max hours, points_per_decade to a decade."""
    n = int(round(np.log10(tau_max / tau_min) * points_per_decade)) + 1
    return np.geomspace(tau_min, tau_max, max(n, 2))


def weighted_v(r: np.ndarray, dt: np.ndarray, tau: float):
    """Asynchronous variance estimate: mean of r^2 * (tau/dt).

    Only entries in the dt band 0 < dt <= MAX_DT_FACTOR * tau = 3 tau are
    kept. Returns (estimate, count); (nan, 0) when nothing survives.
    """
    keep = (dt > 0) & (dt <= MAX_DT_FACTOR * tau)
    r = r[keep]
    dt = dt[keep]
    if len(r) == 0:
        return np.nan, 0
    return float(np.mean(r * r * (tau / dt))), int(len(r))


def variogram_diff_of_avg(candles: TxnCandles, tau_grid) -> Variogram:
    """Difference-of-average estimator of one ticker's mapped candles over a tau grid.

    For each tau, the year's candles are sorted into tau bins, bin prices
    are the mean representative prices, and returns are log differences of
    adjacent non-empty bins, as ``panel.grid_returns`` gives them. A tau
    with no return is left out of the result and listed in ``omitted``.
    """
    tau_grid = np.asarray(tau_grid, dtype=float)
    vals, counts = np.empty(len(tau_grid)), np.empty(len(tau_grid), dtype=np.int64)
    for i, tau in enumerate(tau_grid):
        # fewer than 2 bins give no return, and so (nan, 0)
        (rs,) = grid_returns(candles, tau)
        vals[i], counts[i] = weighted_v(rs.r, rs.dt, tau)
    ok = counts >= 1
    return Variogram(tau_grid[ok], vals[ok], counts[ok], omitted=tau_grid[~ok])


def value_at(tau_grid, values, tau0: float) -> np.ndarray:
    """Each (n_rows, n_tau) row's value at tau0 over its non-NaN cells, read
    log-log if they are all positive (the power-law convention) and else
    linearly in log tau, with ``np.interp``'s arithmetic; NaN for a row with no
    cell on one side of tau0, or that is zero or not finite there.
    """
    x, x0 = np.log(tau_grid), np.log(tau0)
    ok = ~np.isnan(values)
    below, above = ok & (x <= x0), ok & (x >= x0)
    lo = len(x) - 1 - below[:, ::-1].argmax(axis=1)     # the last cell below
    hi = above.argmax(axis=1)                          # the first cell above
    ends = np.take_along_axis(values, np.stack([lo, hi], axis=1), axis=1)
    loglog = ~(values <= 0).any(axis=1)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        y_lo, y_hi = np.where(loglog[:, None], np.log(ends), ends).T
        slope = (y_hi - y_lo) / (x[hi] - x[lo])
        v0 = np.where(lo == hi, y_lo, slope * (x0 - x[lo]) + y_lo)
        v0 = np.where(loglog, np.exp(v0), v0)
    usable = below.any(axis=1) & above.any(axis=1) & (v0 != 0) & np.isfinite(v0)
    return np.where(usable, v0, np.nan)


def fit_power_law(v: Variogram, fit_range: tuple[float, float] | None = None) -> PowerLawFit:
    """Least-squares line in (log tau, log V); slope is the exponent."""
    if fit_range is None:
        fit_range = (float(v.tau[0]), float(v.tau[-1]))
    lo, hi = fit_range
    sel = (v.tau >= lo) & (v.tau <= hi) & (v.v > 0)
    if sel.sum() < 3:
        raise DataError(f"need >= 3 grid points in fit range [{lo}, {hi}], "
                        f"have {int(sel.sum())}")
    x = np.log(v.tau[sel])
    y = np.log(v.v[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return PowerLawFit(float(slope), float(np.exp(intercept)), (lo, hi),
                       float(np.sqrt(np.mean(resid ** 2))))


def percentile_curves(values: np.ndarray) -> np.ndarray:
    """Column-wise PERCENTILES (linear interpolation convention) of each
    column's non-NaN cells; NaN in a column with none.

    values is (n_members, n_tau); returns (len(PERCENTILES), n_tau).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DataError("need a 2-d stack of curves")
    out = np.full((len(PERCENTILES), values.shape[1]), np.nan)
    has = ~np.isnan(values).all(axis=0)
    out[:, has] = np.nanpercentile(values[:, has], list(PERCENTILES), axis=0)
    return out

