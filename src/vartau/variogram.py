"""Variogram estimation, power-law fitting and ensemble summaries.

The variogram V(tau) is the expected squared log return over a
transaction-time interval tau; a martingale has V proportional to tau,
so V(tau)/tau plotted against tau is flat for a memoryless process and
a power law tau^(1-2*eps) signals memory.

Three estimators are provided. The difference-of-average method takes
log returns of adjacent tau-bin average prices, ``panel.grid_returns``
(the method of choice for candle inputs, which are themselves averages).
The two-point method differences prices spaced tau apart, one sample per
grid step or at full one-minute resolution. Because sampling is
asynchronous, a return spanning elapsed time dt contributes r^2 * (tau/dt)
to the estimate at tau -- the variance of a martingale increment grows
linearly with elapsed time, so this reweighting makes unequal spans
comparable -- and spans longer than MAX_DT_FACTOR = 3 times tau are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .candles import CandleSeries, write_table
from .errors import DataError
from .panel import grid_returns, map_candles

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


def default_tau_grid(tau_min: float = 2.0 / 60.0, tau_max: float = 200.0,
                     points_per_decade: int = 25) -> np.ndarray:
    """Log-spaced grid, 25 points per decade from 2 minutes to 200 hours."""
    n = int(round(np.log10(tau_max / tau_min) * points_per_decade)) + 1
    return np.geomspace(tau_min, tau_max, max(n, 2))


def loglog_interp(x, xp, fp):
    """Power-law (log-log linear) interpolation; fp must be positive."""
    xp = np.asarray(xp, dtype=float)
    fp = np.asarray(fp, dtype=float)
    if np.any(fp <= 0):
        raise DataError("log-log interpolation needs positive values")
    return np.exp(np.interp(np.log(x), np.log(xp), np.log(fp)))


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


def _assemble(tau_grid, values, counts) -> Variogram:
    tau_grid = np.asarray(tau_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    ok = counts >= 1
    return Variogram(tau_grid[ok], values[ok], counts[ok], omitted=tau_grid[~ok])


def variogram_diff_of_avg(s: CandleSeries, clock, tau_grid) -> Variogram:
    """Difference-of-average estimator over a tau grid.

    For each tau, the year's candles are sorted into tau bins, bin prices
    are the mean representative prices, and returns are log differences of
    adjacent non-empty bins, as ``panel.grid_returns`` gives them.
    """
    if np.any(s.price <= 0):
        raise DataError(f"{s.ticker}: non-positive representative price")
    candles = map_candles({s.ticker: s}, [clock])
    vals, counts = [], []
    for tau in np.asarray(tau_grid, dtype=float):
        # fewer than 2 bins give no return, and so (nan, 0)
        (rs,) = grid_returns(candles, tau)
        v, n = weighted_v(rs.r, rs.dt, tau)
        vals.append(v); counts.append(n)
    return _assemble(tau_grid, vals, counts)


def _nearest_index(coords: np.ndarray, targets: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(coords, targets)
    left = np.clip(pos - 1, 0, len(coords) - 1)
    right = np.clip(pos, 0, len(coords) - 1)
    use_left = (targets - coords[left]) <= (coords[right] - targets)
    return np.where(use_left, left, right)


def variogram_two_point(s: CandleSeries, clock, tau_grid,
                        mode: str = "grid_points") -> Variogram:
    """Two-point difference estimator.

    grid_points: one sample per grid step, using the candle price nearest
    each grid point k*tau (within tau/2). full_resolution: every candle is
    paired with the candle nearest tau ahead of it, keeping one-minute
    granularity (samples overlap and are correlated).
    """
    if mode not in ("grid_points", "full_resolution"):
        raise DataError(f"unknown two-point mode {mode!r}")
    if np.any(s.price <= 0):
        raise DataError(f"{s.ticker}: non-positive representative price")
    (xp,) = map_candles({s.ticker: s}, [clock]).coords[s.ticker]
    if xp is None:
        return _assemble(tau_grid, np.full(len(tau_grid), np.nan), np.zeros(len(tau_grid)))
    coords, logp = xp[0], np.log(xp[1])
    vals, counts = [], []
    for tau in np.asarray(tau_grid, dtype=float):
        if mode == "grid_points":
            kmax = int(np.floor(coords[-1] / tau))
            grid = np.arange(kmax + 1) * tau
            sel = _nearest_index(coords, grid)
            ok = np.abs(coords[sel] - grid) <= tau / 2
            sel = np.unique(sel[ok])
            r = np.diff(logp[sel])
            dt = np.diff(coords[sel])
        else:
            j2 = _nearest_index(coords, coords + tau)
            ok = j2 > np.arange(len(coords))
            r = logp[j2[ok]] - logp[ok]
            dt = coords[j2[ok]] - coords[ok]
        v, n = weighted_v(r, dt, tau)
        vals.append(v); counts.append(n)
    return _assemble(tau_grid, vals, counts)


def normalize_at(v: Variogram, tau0: float = 1.0) -> Variogram:
    """Scale so the (log-log interpolated) value at tau0 is exactly 1."""
    if len(v) == 0:
        raise DataError("cannot normalize an empty variogram")
    if not (v.tau[0] <= tau0 <= v.tau[-1]):
        raise DataError(f"tau0={tau0} outside variogram span "
                        f"[{v.tau[0]}, {v.tau[-1]}]")
    v0 = float(loglog_interp(tau0, v.tau, v.v))
    if v0 <= 0:
        raise DataError("variogram is zero at the normalization point")
    return Variogram(v.tau.copy(), v.v / v0, v.n_samples.copy(),
                     omitted=v.omitted.copy())


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
    """Column-wise PERCENTILES (linear interpolation convention).

    values is (n_members, n_tau); returns (len(PERCENTILES), n_tau).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[0] < 1:
        raise DataError("need a 2-d stack of curves")
    return np.percentile(values, list(PERCENTILES), axis=0)

