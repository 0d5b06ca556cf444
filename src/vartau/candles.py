"""One-minute candle ingestion and resolution binning.

A candle is one traded minute: unix timestamp (start of minute), four
prices (open/high/low/close) and a share volume. Minutes in which a stock
did not trade are simply absent; prices are never held over or
interpolated. The representative price of a minute is the plain mean of
its four prices.

Coarser resolutions are built by sorting candles into consecutive
half-open bins of length tau along a transaction-time axis (see
``vartau.clock``), averaging representative prices and coordinates within
each bin. Returns are log differences of consecutive known bin prices,
each carrying its actual elapsed transaction time.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

CSV_HEADER = ["timestamp", "open", "high", "low", "close", "volume"]
_ROW = np.dtype([("timestamp", np.int64)] + [(n, np.float64) for n in CSV_HEADER[1:]])
# rows that write_blocks formats at a time, bounding its Python lists
_WRITE_ROWS = 4096


class CandleSeries:
    """All candles of one ticker, held as column arrays, sorted by time."""

    def __init__(self, ticker, timestamps, open_, high, low, close, volume):
        self.ticker = str(ticker)
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.open = np.asarray(open_, dtype=float)
        self.high = np.asarray(high, dtype=float)
        self.low = np.asarray(low, dtype=float)
        self.close = np.asarray(close, dtype=float)
        self.volume = np.asarray(volume, dtype=float)
        if len({len(a) for a in (self.timestamps, self.open, self.high,
                                 self.low, self.close, self.volume)}) != 1:
            raise DataError("candle column arrays have mismatched lengths")
        if np.any(np.diff(self.timestamps) <= 0):
            raise DataError(f"{self.ticker}: timestamps not strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps)

    def rep_prices(self) -> np.ndarray:
        """Representative (OHLC-mean) price of every candle."""
        return (self.open + self.high + self.low + self.close) / 4.0

    def dollar_weights(self) -> np.ndarray:
        """Per-minute dollar volume: representative price times shares."""
        return self.rep_prices() * self.volume

    def slice_window(self, t0: int, t1: int) -> "CandleSeries":
        """Candles with t0 <= timestamp < t1."""
        i = np.searchsorted(self.timestamps, t0, side="left")
        j = np.searchsorted(self.timestamps, t1, side="left")
        return CandleSeries(self.ticker, self.timestamps[i:j], self.open[i:j],
                            self.high[i:j], self.low[i:j], self.close[i:j],
                            self.volume[i:j])


@dataclass
class BinnedSeries:
    """Bin-averaged prices of one ticker at resolution tau.

    ``index`` is the bin's position on the tau grid anchored at
    transaction time 0 of the year (bin k covers [k*tau, (k+1)*tau)).
    Bins with no candles are absent.
    """

    ticker: str
    tau: float                # transaction hours
    index: np.ndarray         # int64, strictly increasing grid indices
    time: np.ndarray          # mean transaction-time coordinate per bin
    price: np.ndarray         # mean representative price per bin
    n_candles: np.ndarray     # candles per bin, >= 1

    def __len__(self) -> int:
        return len(self.index)


@dataclass
class ReturnSeries:
    """Log returns of consecutive known bin prices.

    Entry i is the return from bin i to bin i+1 of the source
    BinnedSeries; ``dt`` is the elapsed transaction time between the two
    bin mean times and ``start_index`` the grid index of the earlier bin.
    """

    tau: float
    r: np.ndarray
    dt: np.ndarray
    start_index: np.ndarray

    def __len__(self) -> int:
        return len(self.r)


def parse_candles(path, ticker: str | None = None) -> CandleSeries:
    """Read one ticker's candle CSV.

    Accepted syntax: UTF-8 text, optionally starting with a byte-order
    mark; a header line ``timestamp,open,high,low,close,volume`` (case and
    surrounding spaces ignored), then one candle per line with six
    comma-separated fields, each optionally in double quotes and padded
    with spaces or tabs. The timestamp is a signed decimal integer of ASCII
    digits within int64; prices and volume are decimal floats with an
    optional sign, fraction and exponent. Lines end in LF, CRLF or CR;
    empty and whitespace-only lines are skipped. Rows may be out of order
    (they are sorted). Malformed fields, a wrong field count, non-finite
    values and OHLC-invariant violations are rejected with the line number
    of the first offending line; duplicate timestamps are rejected too.

    The file is parsed in one ``np.loadtxt`` call and checked as whole
    columns. Unlike the row-by-row reader this replaced, it rejects NaN and
    infinite prices and volumes, ``_`` digit separators, non-ASCII digits
    and timestamps outside int64 (which Python's ``int``/``float`` took),
    and a line holding only a quoted empty field is not a blank line.
    """
    path = Path(path)
    if ticker is None:
        ticker = path.stem
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        header = next(csv.reader([first]), [])
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise DataError(f"{path}: bad header {header!r}, want {CSV_HEADER}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no rows: raised below
                rows = _load_rows(fh)
        except ValueError:
            rows = None
    if rows is None:
        rows = _reparse(path)
    if len(rows) == 0:
        raise DataError(f"{path}: no candles")
    _check_rows(path, rows)
    ts = rows["timestamp"]
    order = np.argsort(ts, kind="stable")
    ts = ts[order]
    dup = np.nonzero(np.diff(ts) == 0)[0]
    if dup.size:
        raise DataError(f"{path}: duplicate timestamp {int(ts[dup[0]])}")
    return CandleSeries(ticker, ts, *(rows[n][order] for n in CSV_HEADER[1:]))


def _load_rows(lines, dtype=_ROW, usecols=None) -> np.ndarray:
    return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None,
                      quotechar='"', usecols=usecols, ndmin=1)


def _data_lines(path: Path) -> list[tuple[int, str]]:
    """(line number, text) of every non-blank line after the header.

    Error path only: the file is read again once a row is known bad.
    """
    lines = path.read_text(encoding="utf-8-sig").split("\n")
    return [(n, line) for n, line in enumerate(lines[1:], start=2) if line.strip()]


def _check_rows(path: Path, rows: np.ndarray, numbered=None) -> None:
    """Every per-candle invariant as one mask; raise for the first bad row.

    ``numbered`` is ``_data_lines(path)`` when the caller already has it.
    """
    t, o, h, l, c, v = (rows[n] for n in CSV_HEADER)
    finite = np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c)
    # in the order a row is described when it breaks several
    fails = {
        "timestamp {t} is not a minute boundary": t % 60 != 0,
        "non-finite price or volume at ts {t}": ~(finite & np.isfinite(v)),
        "low {l} above open/close at ts {t}": l > np.minimum(o, c),
        "high {h} below open/close at ts {t}": h < np.maximum(o, c),
        "negative volume at ts {t}": v < 0,
        "non-positive price at ts {t}": np.minimum(np.minimum(o, h), np.minimum(l, c)) <= 0,
    }
    bad = np.logical_or.reduce(list(fails.values()))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    msg = next(m for m, mask in fails.items() if mask[i])
    lineno = (numbered or _data_lines(path))[i][0]
    raise DataError(f"{path}:{lineno}: "
                    + msg.format(t=int(t[i]), l=float(l[i]), h=float(h[i])))


def _reparse(path: Path) -> np.ndarray:
    """Rows of a file that the one-call parse rejected (error path only).

    ``loadtxt`` skips empty lines but not whitespace-only ones, so the
    non-blank lines are parsed again. If that fails too, the first line
    ``loadtxt`` cannot read is found by bisection with the same call (so
    numpy's own rules decide, and its message is never parsed). The rows
    before it are checked first, so the first bad line in file order is
    the one reported.
    """
    numbered = _data_lines(path)
    lines = [line for _, line in numbered]
    if not lines:
        return np.empty(0, dtype=_ROW)
    try:
        return _load_rows(lines)
    except ValueError:
        pass
    lo, hi = 0, len(lines)      # lines[:lo] parse; the first failure is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load_rows(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    if lo:
        _check_rows(path, _load_rows(lines[:lo]), numbered)
    lineno, line = numbered[lo]
    fields = next(csv.reader([line]), [])
    if len(fields) != len(CSV_HEADER):
        raise DataError(f"{path}:{lineno}: expected {len(CSV_HEADER)} fields, "
                        f"got {len(fields)}")
    for col, (name, field) in enumerate(zip(CSV_HEADER, fields)):
        try:
            _load_rows([line], dtype=_ROW[name], usecols=[col])
        except ValueError:
            raise DataError(f"{path}:{lineno}: cannot read {name} from "
                            f"{field!r} as {_ROW[name]}") from None
    raise DataError(f"{path}:{lineno}: cannot read line {line!r}")


def write_candles(path, series: CandleSeries) -> None:
    """Write a CandleSeries back to the interchange CSV format."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for i in range(len(series)):
            w.writerow([int(series.timestamps[i]), repr(float(series.open[i])),
                        repr(float(series.high[i])), repr(float(series.low[i])),
                        repr(float(series.close[i])), repr(float(series.volume[i]))])


def write_blocks(path, header: str, n_rows: int, lines) -> None:
    """Write ``header``, then ``lines(rows)`` for each slice of _WRITE_ROWS rows."""
    with open(path, "w", newline="") as fh:
        fh.write(header)
        for lo in range(0, n_rows, _WRITE_ROWS):
            fh.writelines(lines(slice(lo, lo + _WRITE_ROWS)))


def bin_coordinates(coords: np.ndarray, prices: np.ndarray, tau: float):
    """Core binning: sorted transaction coordinates -> per-bin means.

    Returns (grid index, mean coord, mean price, count) arrays with empty
    bins absent. Bins are half-open [k*tau, (k+1)*tau), anchored at 0.
    ``coords`` must be non-decreasing, as clock coordinates of a
    time-sorted series are: each bin is read off as one run of equal grid
    index. Unsorted coordinates raise DataError.

    The grid index is floor(coords/tau) exactly, as ``np.floor_divide`` gives
    it: the floor of the rounded quotient is exact unless the quotient rounded
    up onto an integer, so only exact-integer quotients use ``floor_divide``.
    """
    if tau <= 0:
        raise DataError(f"tau must be positive, got {tau}")
    if np.any(coords[1:] < coords[:-1]):
        raise DataError("bin coordinates are not sorted")
    idx = coords / tau
    exact = np.flatnonzero(np.floor(idx) == idx)
    np.floor(idx, out=idx)
    idx[exact] = np.floor_divide(coords[exact], tau)
    first = np.flatnonzero(idx[1:] != idx[:-1]) + 1
    if len(idx):
        first = np.concatenate(([0], first))
    counts = np.diff(np.append(first, len(idx)))
    sums_t = np.add.reduceat(coords, first)
    sums_p = np.add.reduceat(prices, first)
    return idx[first].astype(np.int64), sums_t / counts, sums_p / counts, counts


def bin_series(s: CandleSeries, clock, tau: float) -> BinnedSeries:
    """Sort a candle series into tau-resolution bins in the given clock.

    Each candle is assigned by its transaction-time coordinate; the bin
    price is the mean of representative prices, the bin time the mean of
    coordinates. A coordinate exactly on a boundary goes to the later
    bin. Candles outside the clock's domain raise DataError.
    """
    coords = clock.to_txn_time(s.timestamps)
    idx, times, prices, counts = bin_coordinates(coords, s.rep_prices(), tau)
    return BinnedSeries(s.ticker, float(tau), idx, times, prices, counts)
