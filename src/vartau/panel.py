"""Each ticker's bins on one grid of transaction time, and the hourly panel.

At resolution tau each year of a run gets its own block of ceil(hours in the
year / tau) grid columns, in calendar order. A ``TxnCandles`` view puts each
ticker's candles on its year's transaction-hour axis as a pass reaches the
ticker: it loads the ticker's series, maps it, and lets the series go, so a
pass holds one ticker's candles, whatever the number of tickers. ``grid_bins``
bins them at a tau, ticker by ticker, one ``bin_series`` step per
ticker-year, and drops each ticker's candles before it reads the next. A bin
past its year's block (a candle at the year's last transaction hour, when
tau divides the year) is dropped. The years chain: a ticker's grid indices
run on through the years' blocks and its bin times on one transaction-hour
axis, so the return between consecutive bins, which covariance, rho(tau)
and the difference-of-average variogram take, may cross a year boundary.

A ``Panel`` holds the same grid's tau = 1 bin-mean prices, NaN where a
ticker (row) has no candle in the hour (column), in one array that
``build_panel`` fills row by row. ``predict`` reads each training year's
covariance from the year's ``bins`` and scores one year's
``adjacent_returns`` at a time, which stay within the year; the backtests
trade on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .candles import CandleSeries, bin_series
from .clock import ClockMap, hours_in_year
from .errors import DataError

_NO_BINS = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))


class TxnCandles:
    """Tickers' candles on the years' clocks. Each iteration is a pass that
    yields, per ticker in order, its (transaction hours, prices) in each
    year, None if fewer than two: it loads the series with ``load(ticker)``,
    maps copies and lets it go. ``held()`` maps once and keeps them, 16 bytes
    a candle, for a caller that takes one pass per tau."""

    def __init__(self, tickers: Iterable[str], clocks: list[ClockMap],
                 load: Callable[[str], CandleSeries]):
        self.tickers, self.clocks, self._load = list(tickers), list(clocks), load
        self.years = [c.year for c in self.clocks]

    def __iter__(self) -> Iterator[list]:
        # map() holds no item it has yielded: the consumer decides when one goes
        return map(self._map, self.tickers)

    def _map(self, ticker: str) -> list:
        s = self._load(ticker)          # freed on return: only the copies are kept
        subs = [(c, s.slice_window(c.year_start, c.year_end)) for c in self.clocks]
        return [(c.to_txn_time(u.timestamps), u.price.copy()) if len(u) >= 2 else None
                for c, u in subs]

    def widths(self, tau: float) -> list[int]:
        """Each year's block of grid columns at resolution tau; at tau = 1, its hours."""
        return [math.ceil(hours_in_year(y) / tau) for y in self.years]

    def select(self, tickers: list[str], year: int | None = None) -> "TxnCandles":
        """The given tickers' candles, in that order, of one of the years or of all."""
        clocks = self.clocks if year is None else [self.clocks[self.years.index(year)]]
        return TxnCandles(tickers, clocks, self._load)

    def held(self) -> "TxnCandles":
        """The same candles mapped in one pass and kept; later passes read no file."""
        return _Held(self.tickers, self.years, dict(zip(self.tickers, self)))


class _Held(TxnCandles):
    """Candles mapped once and kept, with no clock or loader; passes read no file."""

    def __init__(self, tickers: list[str], years: list[int], coords: dict[str, list]):
        self.tickers, self.years, self._coords = list(tickers), years, coords

    def __iter__(self) -> Iterator[list]:
        return map(self._coords.__getitem__, self.tickers)

    def select(self, tickers: list[str], year: int | None = None) -> "TxnCandles":
        js = range(len(self.years)) if year is None else [self.years.index(year)]
        return _Held(tickers, [self.years[j] for j in js],
                     {t: [self._coords[t][j] for j in js] for t in tickers})

    def held(self) -> "TxnCandles":
        return self


def grid_bins(candles: TxnCandles, tau: float) -> Iterator[tuple]:
    """Per ticker, in order, its (grid index, bin time, bin price) at tau: the
    years' ``bin_series`` on their blocks' columns and the chained hour axis."""
    widths, hours = candles.widths(tau), candles.widths(1.0)
    firsts, offsets = (np.cumsum([0] + a[:-1]).tolist() for a in (widths, hours))
    for per_year in candles:
        bins = [_chained(bin_series(*xp, tau, w), first, offset)
                for xp, w, first, offset in zip(per_year, widths, firsts, offsets) if xp]
        del per_year    # a lazy view's candles are freed once binned
        yield bins[0] if len(bins) == 1 else tuple(map(np.concatenate, zip(*bins or [_NO_BINS])))
        del bins        # freed before the next ticker is binned


def _chained(b, first: int, offset: int) -> tuple:
    """A year's bins on the chained grid; the rest of ``b`` is let go before the yield."""
    return b.index + first if first else b.index, b.time + offset if offset else b.time, b.price


@dataclass
class Panel:
    tickers: list[str]
    years: list[int]
    blocks: list[slice]      # each year's columns, in the order of ``years``
    price: np.ndarray        # (ticker, hour) mean representative price, NaN if empty

    def adjacent_returns(self, year: int) -> np.ndarray:
        """The year's log returns of adjacent columns; NaN unless both are present."""
        p = self.price[:, self.blocks[self.years.index(year)]]
        return np.log(p[:, 1:] / p[:, :-1])

    def bins(self, year: int) -> Iterator[tuple]:
        """Per ticker, in order, its tau = 1 bins in the year as ``grid_bins``
        gives them on that year's block alone: (grid index, None, bin price)
        of each present hour. No bin time is kept, so none is given."""
        for row in self.price[:, self.blocks[self.years.index(year)]]:
            k = np.flatnonzero(np.isfinite(row))
            yield k, None, row[k]


def build_panel(candles: TxnCandles, min_active_fraction: float | None = None) -> Panel:
    """The hourly prices: ``grid_bins`` at tau = 1, a row per ticker, a block per year.

    Given a share in (0, 1], only the tickers with a bin in at least that share
    of every year's columns are kept (exactly that share keeps one), and a panel
    that keeps none raises DataError. Each ticker's row is made in place, at the
    next row of the result, and a row that is not kept is overwritten, so the
    panel is the one array of rows.
    """
    if min_active_fraction is not None:
        check_active_fraction(min_active_fraction)
    widths = candles.widths(1.0)
    ends = np.cumsum(widths).tolist()
    blocks = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
    # pages of rows never reached are never written, so they take no memory
    price = np.empty((len(candles.tickers), ends[-1]))
    tickers = []
    for t, (k, _, p) in zip(candles.tickers, grid_bins(candles, 1.0)):
        i = len(tickers)
        price[i] = np.nan
        price[i, k] = p
        if min_active_fraction is None or all(np.isfinite(price[i, sl]).sum() / w
                                              >= min_active_fraction
                                              for sl, w in zip(blocks, widths)):
            tickers.append(t)
    if min_active_fraction is not None and not tickers:
        raise DataError("no tickers pass the eligibility filter")
    price.resize((len(tickers), ends[-1]), refcheck=False)    # the rows kept, not a copy
    return Panel(tickers, candles.years, blocks, price)


def check_active_fraction(value: float) -> None:
    """An eligibility share must be in (0, 1]."""
    if not 0 < value <= 1:
        raise DataError("min_active_fraction must be in (0, 1]")
