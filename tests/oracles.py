"""Row-by-row reference implementations of the vectorised ingest layers.

Each function is the loop that ``vartau`` used before the whole-array
version replaced it. ``test_oracles.py`` requires the library to give the
same answers: equal arrays, not close ones, because the arithmetic is
done in the same order.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from vartau.candles import CSV_HEADER, CandleSeries
from vartau.clock import ClockKind, ClockMap, year_bounds
from vartau.errors import DataError


def validate_row(t, o, h, l, c, v) -> None:
    """The per-candle invariants, checked one row at a time."""
    if t % 60 != 0:
        raise DataError(f"timestamp {t} is not a minute boundary")
    if l > min(o, c):
        raise DataError(f"low {l} above open/close at ts {t}")
    if h < max(o, c):
        raise DataError(f"high {h} below open/close at ts {t}")
    if v < 0:
        raise DataError(f"negative volume at ts {t}")
    if min(o, h, l, c) <= 0:
        raise DataError(f"non-positive price at ts {t}")


def parse_candles_loop(path, ticker: str | None = None) -> CandleSeries:
    """csv reader, Python ``int``/``float`` and one validation per row."""
    path = Path(path)
    if ticker is None:
        ticker = path.stem
    ts, op, hi, lo, cl, vo = [], [], [], [], [], []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise DataError(f"{path}: bad header {header!r}, want {CSV_HEADER}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 6:
                raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            try:
                t = int(row[0])
                o, h, l, c, v = (float(x) for x in row[1:])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            try:
                validate_row(t, o, h, l, c, v)
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            ts.append(t); op.append(o); hi.append(h); lo.append(l); cl.append(c); vo.append(v)
    if not ts:
        raise DataError(f"{path}: no candles")
    order = np.argsort(np.asarray(ts, dtype=np.int64), kind="stable")
    ts = np.asarray(ts, dtype=np.int64)[order]
    dup = np.nonzero(np.diff(ts) == 0)[0]
    if dup.size:
        raise DataError(f"{path}: duplicate timestamp {int(ts[dup[0]])}")
    pick = lambda a: np.asarray(a, dtype=float)[order]
    return CandleSeries(ticker, ts, pick(op), pick(hi), pick(lo), pick(cl), pick(vo))


def build_clock_dict(all_candles, kind: ClockKind, year: int) -> ClockMap:
    """Per-minute weights summed in a dict, ticker by ticker."""
    t0, t1 = year_bounds(year)
    total_hours = float((t1 - t0) // 3600)
    if kind is ClockKind.CLOCK:
        return ClockMap(year, kind, np.array([t0, t1], dtype=float),
                        np.array([0.0, total_hours]), total_hours)
    weights: dict[int, float] = {}
    n_seen = 0
    for series in all_candles:
        sub = series.slice_window(t0, t1)
        n_seen += len(sub)
        w = sub.dollar_weights() if kind is ClockKind.DOLLAR_WEIGHTED else sub.volume
        for ts, wi in zip(sub.timestamps.tolist(), w.tolist()):
            weights[ts] = weights.get(ts, 0.0) + wi
    if n_seen == 0:
        raise DataError(f"no candles inside year {year}")
    minutes = np.array(sorted(weights), dtype=np.int64)
    w = np.array([weights[m] for m in minutes.tolist()])
    total_w = w.sum()
    if total_w <= 0:
        raise DataError(f"zero total weight for year {year}")
    cum = np.cumsum(w)
    starts = minutes.astype(float)
    knots_c = np.empty(2 * len(minutes) + 2)
    knots_x = np.empty_like(knots_c)
    knots_c[0], knots_x[0] = float(t0), 0.0
    knots_c[1:-1:2] = starts
    knots_x[1:-1:2] = np.concatenate(([0.0], cum[:-1])) / total_w * total_hours
    knots_c[2::2] = starts + 60.0
    knots_x[2::2] = cum / total_w * total_hours
    knots_c[-1], knots_x[-1] = float(t1), total_hours
    knots_x[-2] = total_hours
    keep = np.concatenate(([True], np.diff(knots_c) > 0))
    return ClockMap(year, kind, knots_c[keep], knots_x[keep], total_hours)


def bin_coordinates_unique(coords, prices, tau):
    """Bins found by ``np.unique`` on the grid indices."""
    idx = np.floor_divide(coords, tau).astype(np.int64)
    uniq, first, counts = np.unique(idx, return_index=True, return_counts=True)
    sums_t = np.add.reduceat(coords, first)
    sums_p = np.add.reduceat(prices, first)
    return uniq, sums_t / counts, sums_p / counts, counts
