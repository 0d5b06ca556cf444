"""Clock time to transaction time mapping for one calendar year.

Transaction time advances with cumulative trading weight normalized so
the year spans exactly its number of clock hours (8760, or 8784 in leap
years): one dollar-weighted hour is an interval containing 1/8760 of the
year's dollar trading volume. Weights accumulate at one-minute (candle)
granularity; the map is linear within a minute and flat across spans
with no trading, so no transaction time elapses between sessions.

``build_clock`` adds each series' in-year weights into one array over the
year's minutes (4.2 MB, 525,600 float64), series by series, and reads the
traded minutes off a boolean array of the same length. It lets each series
go before it takes the next, so given a stream that loads one file at a
time, its working memory is those arrays plus one series and its weights,
whatever the number of candles. It needs every in-year timestamp on a
minute boundary.

Supported weightings: dollar volume (representative price x shares),
share volume, and the identity clock (plain rescaled clock time).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .candles import CandleSeries, write_table
from .errors import DataError


class ClockKind(enum.Enum):
    CLOCK = "clock"
    DOLLAR_WEIGHTED = "dollar"
    VOLUME_WEIGHTED = "volume"


def year_bounds(year: int) -> tuple[int, int]:
    """Unix seconds of Jan 1 00:00 UTC for this year and the next."""
    t0 = int(datetime(year, 1, 1, tzinfo=timezone.utc).timestamp())
    t1 = int(datetime(year + 1, 1, 1, tzinfo=timezone.utc).timestamp())
    return t0, t1


def hours_in_year(year: int) -> int:
    t0, t1 = year_bounds(year)
    return (t1 - t0) // 3600


@dataclass
class ClockMap:
    """Monotone piecewise-linear map between unix seconds and txn hours."""

    year: int
    knots_clock: np.ndarray   # unix seconds, strictly increasing
    knots_txn: np.ndarray     # transaction hours, non-decreasing, 0 to the year's hours

    @property
    def year_start(self) -> int:
        return int(self.knots_clock[0])

    @property
    def year_end(self) -> int:
        return int(self.knots_clock[-1])

    def to_txn_time(self, t):
        """Transaction-hour coordinate(s) of unix time(s) t."""
        t = np.asarray(t, dtype=float)
        if np.any(t < self.knots_clock[0]) or np.any(t > self.knots_clock[-1]):
            raise DataError(f"time outside clock domain for year {self.year}")
        out = np.interp(t, self.knots_clock, self.knots_txn)
        return float(out) if out.ndim == 0 else out

    def write_csv(self, path) -> None:
        """One row per knot: whole unix seconds and the txn hours' repr."""
        write_table(path, ["clock_unix", "txn_hours"],
                    [self.knots_clock.astype(np.int64), self.knots_txn])


def build_clock(all_candles, kind: ClockKind, year: int) -> ClockMap:
    """Accumulate per-minute weights over all tickers into a ClockMap.

    Candles outside the calendar year are ignored; an in-year timestamp off
    a minute boundary raises DataError. For CLOCK the map is the identity
    up to the hours-in-year scaling.
    """
    t0, t1 = year_bounds(year)
    total_hours = float((t1 - t0) // 3600)
    if kind is ClockKind.CLOCK:
        return ClockMap(year, np.array([t0, t1], dtype=float), np.array([0.0, total_hours]))

    # the year's minutes: each series' weights are added in ticker order,
    # so every minute sums its candles in the order a bincount over the
    # concatenated series would
    acc = np.zeros((t1 - t0) // 60)
    traded = np.zeros(len(acc), dtype=bool)
    for series in all_candles:
        if not isinstance(series, CandleSeries):
            raise DataError("build_clock expects CandleSeries inputs")
        sub = series.slice_window(t0, t1)
        slot, off = np.divmod(sub.timestamps - t0, 60)
        if off.any():
            bad = int(sub.timestamps[np.argmax(off != 0)])
            raise DataError(f"{series.ticker}: timestamp {bad} is not a minute boundary")
        with np.errstate(over="ignore"):        # an inf weight is refused below
            acc[slot] += sub.dollar_weights() if kind is ClockKind.DOLLAR_WEIGHTED else sub.volume
        traded[slot] = True
        del series, sub, slot, off      # freed before the next series is loaded
    slot = np.flatnonzero(traded)
    if len(slot) == 0:
        raise DataError(f"no candles inside year {year}")
    minutes = t0 + 60 * slot
    w = acc[slot]
    del acc, traded
    with np.errstate(over="ignore"):
        total_w = w.sum()
    if total_w == np.inf:
        raise DataError(f"total weight for year {year} overflows: a price or volume is too large")
    if total_w <= 0:
        raise DataError(f"zero total weight for year {year}")

    # knots at the start and end of every traded minute; cumulative weight
    # is flat between minute end and the next minute start
    cum = np.cumsum(w)
    starts = minutes.astype(float)
    ends = starts + 60.0
    knots_c = np.empty(2 * len(minutes) + 2)
    knots_x = np.empty_like(knots_c)
    knots_c[0], knots_x[0] = float(t0), 0.0
    knots_c[1:-1:2] = starts
    knots_x[1:-1:2] = np.concatenate(([0.0], cum[:-1])) / total_w * total_hours
    knots_c[2::2] = ends
    knots_x[2::2] = cum / total_w * total_hours
    knots_c[-1], knots_x[-1] = float(t1), total_hours
    knots_x[-2] = total_hours  # kill round-off on the last cumulative point
    # cumsum rounds differently from sum, so the knots of the last traded
    # minute and of zero-weight minutes after it can land a few ulps past
    # total_hours; clamping keeps the knots non-decreasing
    np.minimum(knots_x, total_hours, out=knots_x)

    # collapse duplicate clock knots (adjacent minutes, or a minute that
    # starts exactly at t0 / ends exactly at t1)
    keep = np.concatenate(([True], np.diff(knots_c) > 0))
    return ClockMap(year, knots_c[keep], knots_x[keep])
