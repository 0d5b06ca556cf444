"""One dense ticker x bin grid for every multi-ticker command.

A ``Panel`` holds, per ticker (row) and tau-resolution bin of transaction
time (column), the bin-mean representative price and transaction hour,
NaN where the ticker has no candle in the bin. ``build_panel`` fills it;
covariance, leave-one-out prediction and the market backtests read it.

Each year gets its own block of ceil(hours in the year / tau) columns, in
the order the years are given, so no two bins share a column; at tau = 1
the columns are the years' transaction hours in sequence. A bin whose
index falls outside its year's block (a candle exactly at the year's last
transaction hour, when tau divides the year) is dropped. What a year
boundary means depends on the reader:

* ``returns`` (the covariance of ``correlate``) runs between consecutive
  present bins of a row across the boundary too, on one transaction-hour
  axis chaining the years; the covariance keeps such a return when its
  elapsed time is inside the dt band 0 < dt <= 3 tau;
* ``adjacent_returns`` (the hourly returns of ``predict``) stays within
  each year;
* the backtests read ``price`` as one matrix and trade across it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .candles import CandleSeries, ReturnSeries, bin_series
from .clock import ClockMap, hours_in_year
from .errors import DataError


@dataclass
class Panel:
    tickers: list[str]
    tau: float               # transaction hours per bin
    years: list[int]
    blocks: list[slice]      # each year's columns, in the order of ``years``
    price: np.ndarray        # (ticker, bin) mean representative price, NaN if empty
    time: np.ndarray         # (ticker, bin) mean transaction hour within its year

    def select(self, keep: np.ndarray) -> "Panel":
        """The rows where ``keep`` is true; the panel itself when all are."""
        if keep.all():
            return self
        return Panel([t for t, k in zip(self.tickers, keep) if k], self.tau, self.years,
                     self.blocks, self.price[keep], self.time[keep])

    def year(self, year: int) -> "Panel":
        """One year's block as a panel of its own."""
        sl = self.blocks[self.years.index(year)]
        return Panel(self.tickers, self.tau, [year], [slice(0, sl.stop - sl.start)],
                     self.price[:, sl], self.time[:, sl])

    def eligible(self, min_active_fraction: float) -> "Panel":
        """The rows with a bin in the given share of every year's columns."""
        keep = eligible_mask(self.price, self.blocks, min_active_fraction)
        if not keep.any():
            raise DataError("no tickers pass the eligibility filter")
        return self.select(keep)

    def returns(self):
        """Per row, a ReturnSeries of log returns between consecutive present bins.

        ``start_index`` is the column of the earlier bin; ``dt`` is taken on
        the transaction-hour axis that chains the years end to end.
        """
        start_hour, hours = np.zeros(self.price.shape[1]), 0
        for y, sl in zip(self.years, self.blocks):
            start_hour[sl] = hours
            hours += hours_in_year(y)
        for p, t in zip(self.price, self.time):
            k = np.flatnonzero(np.isfinite(p))
            yield ReturnSeries(self.tau, np.diff(np.log(p[k])),
                               np.diff(t[k] + start_hour[k]), k[:-1])

    def adjacent_returns(self) -> dict[int, np.ndarray]:
        """Per year, log returns of adjacent columns; NaN unless both are present."""
        out = {}
        for y, sl in zip(self.years, self.blocks):
            p = self.price[:, sl]
            ok = np.isfinite(p[:, 1:]) & np.isfinite(p[:, :-1])
            out[y] = np.full((p.shape[0], p.shape[1] - 1), np.nan)
            out[y][ok] = np.log(p[:, 1:][ok] / p[:, :-1][ok])
        return out


def build_panel(series: Mapping[str, CandleSeries], clocks: list[ClockMap],
                tau: float = 1.0) -> Panel:
    """Bin each ticker with at least two candles in a clock's year into the grid.

    One block per clock, in order; one row per ticker, sorted by name.
    """
    tickers = sorted(series)
    ends = np.cumsum([math.ceil(hours_in_year(c.year) / tau) for c in clocks]).tolist()
    blocks = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
    price = np.full((len(tickers), ends[-1]), np.nan)
    time = np.full_like(price, np.nan)
    for clock, sl in zip(clocks, blocks):
        for i, t in enumerate(tickers):
            sub = series[t].slice_window(clock.year_start, clock.year_end)
            if len(sub) < 2:
                continue
            b = bin_series(sub, clock, tau)
            inside = b.index < sl.stop - sl.start
            price[i, sl.start + b.index[inside]] = b.price[inside]
            time[i, sl.start + b.index[inside]] = b.time[inside]
    return Panel(tickers, float(tau), [c.year for c in clocks], blocks, price, time)


def eligible_mask(prices: np.ndarray, year_slices=None,
                  min_active_fraction: float = 0.5) -> np.ndarray:
    """Rows active in at least the given fraction of the columns of every year.

    The boundary is inclusive: exactly one-half active keeps the ticker.
    """
    present = np.isfinite(np.asarray(prices, dtype=float))
    return np.logical_and.reduce([present[:, sl].mean(axis=1) >= min_active_fraction
                                  for sl in year_slices or [slice(0, present.shape[1])]])
