"""Each ticker's bins on one grid of transaction time, and the hourly panel.

At resolution tau each year of a run gets its own block of ceil(hours in the
year / tau) grid columns, in calendar order. A ``TxnCandles`` view puts each
ticker's candles on its years' transaction-hour axes as a pass reaches the
ticker, through a per-ticker mapper: a lazy view's loads the ticker's series,
maps it and lets the series go, so a pass holds one ticker's candles,
whatever the number of tickers; a held view's is a dict of mapped candles.
``grid_bins`` bins them at a tau, ticker by ticker, one ``bin_series`` step
per ticker-year, and drops each ticker's candles before it reads the next. A
bin past its year's block (a candle at the year's last transaction hour,
when tau divides the year) is dropped. The years chain: a ticker's grid
indices run on through the years' blocks, so the return between consecutive
bins, which covariance and rho(tau) take, may cross a year boundary.

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

_NO_BINS = (np.empty(0, dtype=np.int64), np.empty(0))


class TxnCandles:
    """Tickers' candles on the years' clocks: a pass yields, per ticker in order,
    ``coords(ticker)``, its (transaction hours, prices) in each year, None if
    fewer than two candles."""

    def __init__(self, tickers: Iterable[str], years: list[int], coords: Callable[[str], list]):
        self.tickers, self.years, self._coords = list(tickers), list(years), coords

    @classmethod
    def on_clocks(cls, tickers: Iterable[str], clocks: list[ClockMap],
                  load: Callable[[str], CandleSeries]) -> "TxnCandles":
        """A lazy view: each pass loads a ticker's series with ``load(ticker)``."""
        def coords(ticker: str) -> list:
            s = load(ticker)        # freed on return: only the mapped copies are kept
            subs = [(c, s.slice_window(c.year_start, c.year_end)) for c in clocks]
            return [(c.to_txn_time(u.timestamps), u.price.copy()) if len(u) >= 2 else None
                    for c, u in subs]
        return cls(tickers, [c.year for c in clocks], coords)

    def __iter__(self) -> Iterator[list]:
        # map() holds no item it has yielded: the consumer decides when one goes
        return map(self._coords, self.tickers)

    def widths(self, tau: float) -> list[int]:
        """Each year's block of grid columns at resolution tau; at tau = 1, its hours."""
        return [math.ceil(hours_in_year(y) / tau) for y in self.years]

    def select(self, tickers: list[str], year: int | None = None) -> "TxnCandles":
        """The given tickers' candles, in that order, of one of the years or of all."""
        js = slice(None) if year is None else slice(j := self.years.index(year), j + 1)
        coords = self._coords
        return TxnCandles(tickers, self.years[js], lambda t: coords(t)[js])

    def held(self) -> "TxnCandles":
        """The same candles mapped in one pass and kept, 16 bytes a candle, for a
        caller that takes one pass per tau: a dict is the mapper of later passes."""
        return TxnCandles(self.tickers, self.years, dict(zip(self.tickers, self)).__getitem__)


def grid_bins(candles: TxnCandles, tau: float) -> Iterator[tuple]:
    """Per ticker, in order, its (grid index, bin price) at tau: the years'
    ``bin_series`` on their blocks' columns."""
    widths = candles.widths(tau)
    firsts = np.cumsum([0] + widths[:-1]).tolist()
    for per_year in candles:
        bins = [_chained(bin_series(*xp, tau, w), first)
                for xp, w, first in zip(per_year, widths, firsts) if xp]
        del per_year    # a lazy view's candles are freed once binned
        yield bins[0] if len(bins) == 1 else tuple(map(np.concatenate, zip(*bins or [_NO_BINS])))
        del bins        # freed before the next ticker is binned


def _chained(b, first: int) -> tuple:
    """A year's bins on the chained grid; the rest of ``b`` is let go before the yield."""
    return b.index + first if first else b.index, b.price


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
        gives them on that year's block alone: (grid index, bin price) of each
        present hour."""
        for row in self.price[:, self.blocks[self.years.index(year)]]:
            k = np.flatnonzero(np.isfinite(row))
            yield k, row[k]


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
    for t, (k, p) in zip(candles.tickers, grid_bins(candles, 1.0)):
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
