"""Each ticker's returns on one grid of transaction time, and the hourly panel.

At resolution tau each year of a run gets its own block of ceil(hours in the
year / tau) grid columns, in calendar order. ``map_candles`` puts each
ticker's candles on its year's transaction-hour axis once per command, and
``grid_returns`` bins them at a tau into the log returns between consecutive
present bins, ticker by ticker. A bin past its year's block (a candle at the
year's last transaction hour, when tau divides the year) is dropped. Returns
run across year boundaries: ``start_index`` is the column of the earlier
bin, and ``dt`` is taken on the transaction-hour axis that chains the years.
Covariance, rho(tau) and the difference-of-average variogram read them.

A ``Panel`` holds the same grid's hourly (tau = 1) bin-mean prices, NaN where
a ticker (row) has no candle in the hour (column). ``predict`` scores its
``adjacent_returns``, which stay within each year; the backtests trade on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .candles import CandleSeries, ReturnSeries, bin_coordinates, bin_series
from .clock import ClockMap, hours_in_year
from .errors import DataError

_NO_BINS = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))


@dataclass
class TxnCandles:
    """Candles mapped once: ``coords[ticker][j]`` is (transaction hours, prices) of
    the ticker's candles in year j, None if fewer than two; ``hours[j]``, the year's hours."""

    hours: list[int]
    coords: dict[str, list]

    def widths(self, tau: float) -> list[int]:
        """Each year's block of grid columns at resolution tau."""
        return [math.ceil(h / tau) for h in self.hours]


def map_candles(series: Mapping[str, CandleSeries], clocks: list[ClockMap]) -> TxnCandles:
    """Map each ticker's in-year candles through each clock; tickers sorted by name."""
    def mapped(s, clock):
        sub = s.slice_window(clock.year_start, clock.year_end)
        return (clock.to_txn_time(sub.timestamps), sub.price) if len(sub) >= 2 else None
    return TxnCandles([hours_in_year(c.year) for c in clocks],
                      {t: [mapped(series[t], c) for c in clocks] for t in sorted(series)})


def grid_returns(candles: TxnCandles, tau: float) -> Iterator[ReturnSeries]:
    """Per ticker, in order, its log returns between consecutive bins at tau."""
    widths = candles.widths(tau)
    firsts, offsets = (np.cumsum([0] + a[:-1]).tolist() for a in (widths, candles.hours))
    for per_year in candles.coords.values():
        bins = []
        for xp, width, first, offset in zip(per_year, widths, firsts, offsets):
            if xp is None:
                continue
            k, t, p, _ = bin_coordinates(*xp, tau)
            n = np.searchsorted(k, width)   # the indices increase: dropped bins end the year
            bins.append((k[:n] + first if first else k[:n],
                         t[:n] + offset if offset else t[:n], p[:n]))
        k, t, p = bins[0] if len(bins) == 1 else map(np.concatenate, zip(*bins or [_NO_BINS]))
        yield ReturnSeries(tau, np.diff(np.log(p)), np.diff(t), k[:-1])


@dataclass
class Panel:
    tickers: list[str]
    years: list[int]
    blocks: list[slice]      # each year's columns, in the order of ``years``
    price: np.ndarray        # (ticker, hour) mean representative price, NaN if empty

    def eligible(self, min_active_fraction: float) -> "Panel":
        """The rows with a bin in the given share of every year's columns."""
        keep = eligible_mask(self.price, self.blocks, min_active_fraction)
        if not keep.any():
            raise DataError("no tickers pass the eligibility filter")
        return Panel([t for t, k in zip(self.tickers, keep) if k], self.years,
                     self.blocks, self.price[keep])

    def adjacent_returns(self) -> dict[int, np.ndarray]:
        """Per year, log returns of adjacent columns; NaN unless both are present."""
        out = {}
        for y, sl in zip(self.years, self.blocks):
            p = self.price[:, sl]
            ok = np.isfinite(p[:, 1:]) & np.isfinite(p[:, :-1])
            out[y] = np.full((p.shape[0], p.shape[1] - 1), np.nan)
            out[y][ok] = np.log(p[:, 1:][ok] / p[:, :-1][ok])
        return out


def build_panel(series: Mapping[str, CandleSeries], clocks: list[ClockMap]) -> Panel:
    """Hourly bin prices: one block per clock, in order, and one row per ticker,
    by name; a ticker's year is binned when it has at least two candles."""
    tickers = sorted(series)
    ends = np.cumsum([hours_in_year(c.year) for c in clocks]).tolist()
    blocks = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
    price = np.full((len(tickers), ends[-1]), np.nan)
    for clock, sl in zip(clocks, blocks):
        for i, t in enumerate(tickers):
            sub = series[t].slice_window(clock.year_start, clock.year_end)
            if len(sub) < 2:
                continue
            b = bin_series(sub, clock, 1.0)
            inside = b.index < sl.stop - sl.start
            price[i, sl.start + b.index[inside]] = b.price[inside]
    return Panel(tickers, [c.year for c in clocks], blocks, price)


def eligible_mask(prices: np.ndarray, year_slices=None,
                  min_active_fraction: float = 0.5) -> np.ndarray:
    """Rows active in at least the given fraction of the columns of every year.

    The boundary is inclusive: exactly one-half active keeps the ticker.
    """
    present = np.isfinite(np.asarray(prices, dtype=float))
    return np.logical_and.reduce([present[:, sl].mean(axis=1) >= min_active_fraction
                                  for sl in year_slices or [slice(0, present.shape[1])]])
