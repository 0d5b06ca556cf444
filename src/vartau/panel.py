"""Each ticker's bins on one grid of transaction time: its returns, and the hourly panel.

At resolution tau each year of a run gets its own block of ceil(hours in the
year / tau) grid columns, in calendar order. ``map_candles`` puts each
ticker's candles on its year's transaction-hour axis once per command, as a
stream of series yields them, and keeps 16 bytes a candle (the hour and a
copy of the price), so it never holds more than one series. ``grid_bins``
bins them at a tau, ticker by ticker, one ``bin_series`` step per
ticker-year. A bin past its year's block (a candle at the year's last
transaction hour, when tau divides the year) is dropped. ``grid_returns``
takes the log returns between consecutive present bins. Returns run across
year boundaries: ``start_index`` is the column of the earlier bin, and
``dt`` is taken on the transaction-hour axis that chains the years.
Covariance, rho(tau) and the difference-of-average variogram read them.

A ``Panel`` holds the same grid's tau = 1 bin-mean prices, NaN where a
ticker (row) has no candle in the hour (column). ``predict`` scores its
``adjacent_returns``, which stay within each year; the backtests trade on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .candles import CandleSeries, ReturnSeries, bin_series
from .clock import ClockMap, hours_in_year
from .errors import DataError

_NO_BINS = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))


@dataclass
class TxnCandles:
    """Candles mapped once: ``coords[ticker][j]`` is (transaction hours, prices) of
    the ticker's candles in ``years[j]``, None if fewer than two."""

    years: list[int]
    coords: dict[str, list]

    def widths(self, tau: float) -> list[int]:
        """Each year's block of grid columns at resolution tau; at tau = 1, its hours."""
        return [math.ceil(hours_in_year(y) / tau) for y in self.years]

    def in_year(self, year: int, tickers: Iterable[str]) -> "TxnCandles":
        """The given tickers' candles of one of the years."""
        j = self.years.index(year)
        return TxnCandles([year], {t: self.coords[t][j:j + 1] for t in tickers})


def map_candles(series: Iterable[CandleSeries], clocks: list[ClockMap]) -> TxnCandles:
    """Map each series' in-year candles through each clock, as ``series`` yields
    it; the tickers are the series' names, sorted.

    Only the mapped coordinates and a copy of the in-year prices are kept, 16
    bytes a candle, so each series is freed once it is mapped: a stream of
    series is held one at a time.
    """
    def mapped(s, clock):
        sub = s.slice_window(clock.year_start, clock.year_end)
        return (clock.to_txn_time(sub.timestamps), sub.price.copy()) if len(sub) >= 2 else None
    coords = {}
    for s in series:
        coords[s.ticker] = [mapped(s, c) for c in clocks]
        del s           # freed before the next series is loaded
    return TxnCandles([c.year for c in clocks], {t: coords[t] for t in sorted(coords)})


def grid_bins(candles: TxnCandles, tau: float) -> Iterator[tuple]:
    """Per ticker, in order, its (grid index, bin time, bin price) at tau: the
    years' ``bin_series`` on their blocks' columns and the chained hour axis."""
    widths, hours = candles.widths(tau), candles.widths(1.0)
    firsts, offsets = (np.cumsum([0] + a[:-1]).tolist() for a in (widths, hours))
    for per_year in candles.coords.values():
        bins = [_chained(bin_series(*xp, tau, w), first, offset)
                for xp, w, first, offset in zip(per_year, widths, firsts, offsets) if xp]
        yield bins[0] if len(bins) == 1 else tuple(map(np.concatenate, zip(*bins or [_NO_BINS])))
        del bins        # freed before the next ticker is binned


def _chained(b, first: int, offset: int) -> tuple:
    """A year's bins on the chained grid; the rest of ``b`` is let go before the yield."""
    return b.index + first if first else b.index, b.time + offset if offset else b.time, b.price


def grid_returns(candles: TxnCandles, tau: float) -> Iterator[ReturnSeries]:
    """Per ticker, in order, its log returns between consecutive bins at tau."""
    for k, t, p in grid_bins(candles, tau):
        yield ReturnSeries(tau, np.diff(np.log(p)), np.diff(t), k[:-1])
        del k, t, p     # freed before the next ticker is binned


@dataclass
class Panel:
    tickers: list[str]
    years: list[int]
    blocks: list[slice]      # each year's columns, in the order of ``years``
    price: np.ndarray        # (ticker, hour) mean representative price, NaN if empty

    def adjacent_returns(self) -> dict[int, np.ndarray]:
        """Per year, log returns of adjacent columns; NaN unless both are present."""
        return {y: np.log(self.price[:, sl][:, 1:] / self.price[:, sl][:, :-1])
                for y, sl in zip(self.years, self.blocks)}


def build_panel(candles: TxnCandles, min_active_fraction: float | None = None) -> Panel:
    """The hourly prices: ``grid_bins`` at tau = 1, a row per ticker, a block per year.

    Given a share in (0, 1], only the tickers with a bin in at least that share
    of every year's columns are kept (exactly that share keeps one), and a panel
    that keeps none raises DataError.
    """
    if min_active_fraction is not None:
        check_active_fraction(min_active_fraction)
    widths = candles.widths(1.0)
    ends = np.cumsum(widths).tolist()
    blocks = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
    tickers, rows = [], []
    for t, (k, _, p) in zip(candles.coords, grid_bins(candles, 1.0)):
        row = np.full(ends[-1], np.nan)
        row[k] = p
        if min_active_fraction is None or all(np.isfinite(row[sl]).sum() / w >= min_active_fraction
                                              for sl, w in zip(blocks, widths)):
            tickers.append(t)
            rows.append(row)
    if min_active_fraction is not None and not rows:
        raise DataError("no tickers pass the eligibility filter")
    return Panel(tickers, candles.years, blocks, np.array(rows).reshape(len(rows), ends[-1]))


def check_active_fraction(value: float) -> None:
    """An eligibility share must be in (0, 1]."""
    if not 0 < value <= 1:
        raise DataError("min_active_fraction must be in (0, 1]")
