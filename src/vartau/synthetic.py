"""Synthetic candle generators for tests, demos and pipeline checks.

These build candles and hourly price matrices from simulated processes:
geometric random walks sampled at candle start times (point prices),
hourly price paths wrapped into candles, and single-factor correlated
hourly walks.
"""

from __future__ import annotations

import numpy as np

from .candles import CandleSeries
from .clock import year_bounds
from .errors import DataError


def point_candles(ticker: str, timestamps, prices, volume=1.0) -> CandleSeries:
    """Candles whose four prices all equal a given point price."""
    timestamps = np.asarray(timestamps, dtype=np.int64)
    prices = np.asarray(prices, dtype=float)
    if np.any(prices <= 0):
        raise DataError("prices must be positive")
    vol = np.broadcast_to(np.asarray(volume, dtype=float), prices.shape)
    return CandleSeries(ticker, timestamps, prices, prices, prices, prices, vol)


def random_walk_candles(ticker: str, year: int, n_candles: int,
                        spacing_minutes: int = 1, vol_per_candle: float = 1e-3,
                        seed: int = 0, rng=None) -> CandleSeries:
    """Memoryless Gaussian log-price walk from 100, sampled at candle start times."""
    if rng is None:
        rng = np.random.default_rng(seed)
    t0, t1 = year_bounds(year)
    timestamps = t0 + np.arange(n_candles, dtype=np.int64) * (60 * spacing_minutes)
    if timestamps[-1] >= t1:
        raise DataError(f"{n_candles} candles at {spacing_minutes} min overflow year {year}")
    logp = np.log(100.0) + np.cumsum(rng.standard_normal(n_candles)) * vol_per_candle
    return point_candles(ticker, timestamps, np.exp(logp))


def hourly_candles_from_prices(ticker: str, year: int, prices) -> CandleSeries:
    """Wrap a contiguous hourly price path into hourly point candles."""
    prices = np.asarray(prices, dtype=float).ravel()
    t0, t1 = year_bounds(year)
    if len(prices) > (t1 - t0) // 3600:
        raise DataError(f"{len(prices)} hourly prices overflow year {year}")
    timestamps = t0 + np.arange(len(prices), dtype=np.int64) * 3600
    return point_candles(ticker, timestamps, prices)


def correlated_walk_panel(n_tickers: int, n_hours: int, rho: float,
                          hourly_vol: float = 0.004, seed: int = 0) -> np.ndarray:
    """Hourly price matrix of single-factor correlated random walks."""
    if not 0 <= rho <= 1:
        raise DataError("rho must be in [0, 1]")
    rng = np.random.default_rng(seed)
    common = rng.standard_normal(n_hours)
    own = rng.standard_normal((n_tickers, n_hours))
    r = hourly_vol * (np.sqrt(rho) * common + np.sqrt(1 - rho) * own)
    logp = np.cumsum(r, axis=1)
    return np.exp(logp - logp[:, [0]])
