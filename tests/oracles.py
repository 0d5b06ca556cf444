"""Loop reference implementations of vectorised ``vartau`` layers.

Each function is the loop that ``vartau`` used before a whole-array
version replaced it; ``build_clock_unique`` is the whole-array clock that
the per-minute accumulation replaced. ``test_oracles.py`` requires the library to give the
same answers: equal arrays for the ingest layers, whose arithmetic is done
in the same order, and equal bytes for every CSV writer against the
``csv.writer`` row loop it replaced. ``support_hy_pair`` is the
covariance's definition: a sort-merge over two rows' return supports. The
blocked grid products must give its overlap counts exactly and its sums
within 1e-12 of the |products| behind them, since they add in another order,
and so must rho(tau) and the variances behind the ``predicted`` column of its
table, which a second binning pass makes. Shot-noise paths must agree within
the far-field series' truncation and rounding error. The block-wise backtests
must book the same trades in the same row order with equal fill prices and
skipped hours. The loops add a side's weights and an hour's pnl one trade at
a time in ledger order, as ``np.bincount`` does, so at zero cost ledgers and
equity curves must be equal bit for bit, whatever the block size; at a cost,
pnl must be within 1e-12 of the terms it subtracts and cum_pnl within 1e-12
of the summed |pnl|. ``predict_loop`` applies coefficients one ticker pair at a
time, and ``prediction_scores`` scores a prediction from each ticker's exact
sums over the hours where its return is present; ``prediction_report``, which
sums column blocks of a matrix product, must agree within 1e-12 relative in
FMSE, and in FVE, a squared correlation, within 1e-12 of that of |prediction|
and |return|.
``naive_predict_loop`` is the market-mode prediction, one ticker and hour at a
time, that ``market_mode``'s coefficients replaced; it is scored alike.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

import numpy as np

from vartau.backtest import ANNUAL_HOURS, BacktestResult, EquityCurve, TradeLedger
from vartau.candles import CSV_HEADER, CandleSeries, bin_coordinates
from vartau.clock import ClockKind, ClockMap, build_clock, hours_in_year, year_bounds
from vartau.covariance import (DEFAULT_MIN_OBS, corr_vs_tau, estimate_cov,
                               predicted_corr_ratio)
from vartau.errors import DataError
from vartau.hurst import HurstParams, PricePanel, SimConfig, _postprocess
from vartau.panel import TxnCandles, build_panel, grid_bins
from vartau.variogram import PERCENTILES, Variogram


def txn_candles(series, clocks) -> TxnCandles:
    """A lazy view of series held in memory on the clocks, its tickers sorted, as
    ``commands._CandleFiles.view`` gives one of a directory's files."""
    by_ticker = {s.ticker: s for s in series}
    return TxnCandles.on_clocks(sorted(by_ticker), clocks, by_ticker.__getitem__)


def candle_cov(candles: TxnCandles, tau: float, min_obs: int = DEFAULT_MIN_OBS):
    """``estimate_cov`` of a view's ``grid_bins`` at tau, as ``correlate`` takes it."""
    return estimate_cov(candles.tickers, grid_bins(candles, tau), sum(candles.widths(tau)),
                        min_obs)


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
    if h >= 2.0**1000:
        raise DataError(f"high {h} at or above 2**1000 at ts {t}")


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
        return ClockMap(year, np.array([t0, t1], dtype=float), np.array([0.0, total_hours]))
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
    return ClockMap(year, knots_c[keep], knots_x[keep])


def build_clock_unique(all_candles, kind: ClockKind, year: int) -> ClockMap:
    """Every in-year stamp concatenated, minutes by ``np.unique``, weights by bincount."""
    t0, t1 = year_bounds(year)
    total_hours = float((t1 - t0) // 3600)
    if kind is ClockKind.CLOCK:
        return ClockMap(year, np.array([t0, t1], dtype=float), np.array([0.0, total_hours]))
    subs = [series.slice_window(t0, t1) for series in all_candles]
    if sum(len(s) for s in subs) == 0:
        raise DataError(f"no candles inside year {year}")
    stamps = np.concatenate([s.timestamps for s in subs])
    weights = np.concatenate([s.dollar_weights() if kind is ClockKind.DOLLAR_WEIGHTED
                              else s.volume for s in subs])
    minutes, slot = np.unique(stamps, return_inverse=True)
    w = np.bincount(slot, weights=weights, minlength=len(minutes))
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
    np.minimum(knots_x, total_hours, out=knots_x)
    keep = np.concatenate(([True], np.diff(knots_c) > 0))
    return ClockMap(year, knots_c[keep], knots_x[keep])


def write_candles_csv_rows(series: CandleSeries, path) -> None:
    """The candle interchange CSV written by ``csv.writer``, one row at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_HEADER)
        for i in range(len(series)):
            w.writerow([int(series.timestamps[i]), repr(float(series.open[i])),
                        repr(float(series.high[i])), repr(float(series.low[i])),
                        repr(float(series.close[i])), repr(float(series.volume[i]))])


def write_variogram_csv_rows(v: Variogram, path) -> None:
    """One variogram written by ``csv.writer``, one row per tau."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tau_hours", "V", "n_samples"])
        for t, x, n in zip(v.tau, v.v, v.n_samples):
            w.writerow([repr(float(t)), repr(float(x)), int(n)])


def write_ensemble_csv_rows(tau, curves, path) -> None:
    """The variogram command's ensemble.csv: tau, then one column per percentile."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tau_hours"] + [f"p{int(p)}" for p in PERCENTILES])
        for i, t in enumerate(tau):
            w.writerow([repr(float(t))] + [repr(float(c[i])) for c in curves])


def write_matrix_csv_rows(tickers, m, path, as_int=False) -> None:
    """A ticker x ticker matrix (cov, n_obs, corr, coefficients) under a ticker header."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(tickers)
        for row in m:
            w.writerow([int(x) if as_int else repr(float(x)) for x in row])


def write_yearly_returns_csv_rows(p_y, path) -> None:
    """The sim-meanrev backtest's yearly_returns.csv."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["year", "net_return"])
        for y, v in enumerate(p_y):
            w.writerow([y, repr(float(v))])


def write_corr_vs_tau_csv_rows(tau_grid, perc, predicted, path) -> None:
    """The correlate command's corr_vs_tau.csv from its percentile curves."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["tau_hours", "p10", "p25", "p50", "p75", "p90", "predicted"])
        for i, t in enumerate(tau_grid):
            w.writerow([repr(float(t))] + [repr(float(c[i])) for c in perc]
                       + [repr(float(predicted[i]))])


def write_clock_csv_rows(clock: ClockMap, path) -> None:
    """The clock knots written by ``csv.writer``, one row at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["clock_unix", "txn_hours"])
        for c, x in zip(clock.knots_clock, clock.knots_txn):
            w.writerow([int(c), repr(float(x))])


def bin_coordinates_unique(coords, prices, tau):
    """Bins found by ``np.unique`` on the grid indices."""
    idx = np.floor_divide(coords, tau).astype(np.int64)
    uniq, first, counts = np.unique(idx, return_index=True, return_counts=True)
    sums_t = np.add.reduceat(coords, first)
    sums_p = np.add.reduceat(prices, first)
    return uniq, sums_t / counts, sums_p / counts, counts


def support_returns(k, p):
    """A row's grid indices and its log returns between consecutive bins."""
    return np.asarray(k), np.diff(np.log(np.asarray(p, dtype=float)))


def support_hy_pair(ka, za, kb, zb):
    """(HY sum, overlapping pairs, sum of |products|) of two rows' returns, return i
    of a row having the support [k_i, k_{i+1}]. For each return of B,
    ``searchsorted`` finds the run of A's returns whose supports overlap its
    own, and a prefix sum of A's returns adds them."""
    if not len(za) or not len(zb):
        return 0.0, 0, 0.0
    lo = np.searchsorted(ka[1:], kb[:-1])       # A's first return ending at or after B_j's start
    hi = np.maximum(np.searchsorted(ka[:-1], kb[1:], side="right"), lo)    # past its last
    csum, asum = (np.concatenate(([0.0], np.cumsum(x))) for x in (za, np.abs(za)))
    return (float(np.sum(zb * (csum[hi] - csum[lo]))), int(np.sum(hi - lo)),
            float(np.sum(np.abs(zb) * (asum[hi] - asum[lo]))))


def support_hy_loop(rows):
    """(hy, n_obs, scale) of rows of (grid indices, bin prices), pair by pair;
    scale sums the |products| behind each cell."""
    prepped = [support_returns(k, p) for k, p in rows]
    n = len(prepped)
    hy, n_obs, scale = np.zeros((n, n)), np.zeros((n, n), dtype=np.int64), np.zeros((n, n))
    for a in range(n):
        for b in range(a, n):
            hy[a, b], n_obs[a, b], scale[a, b] = support_hy_pair(*prepped[a], *prepped[b])
            hy[b, a], n_obs[b, a], scale[b, a] = hy[a, b], n_obs[a, b], scale[a, b]
    return hy, n_obs, scale


def support_cov_loop(rows, min_obs: int):
    """``estimate_cov`` of rows of (grid indices, bin prices) from
    ``support_hy_loop``: (cov, n_obs, scale, doubtful). cov and scale are
    the sums and their |products| per grid step both rows span, from its
    first to its last index; a cell is NaN below max(min_obs, 2) overlapping
    pairs and where a row has fewer than min_obs returns, and so are the row
    and column of a variance below 7 pairs or not positive. doubtful marks
    the tickers with 7 or more whose variance lies within 1e-12 of its scale
    of 0, where rounding decides the sign."""
    hy, n_obs, scale = support_hy_loop(rows)
    counted = np.diag(n_obs) >= 7
    doubtful = counted & (np.abs(np.diag(hy)) <= 1e-12 * np.diag(scale))
    steps = np.array([[min(ka[-1], kb[-1]) - max(ka[0], kb[0]) for kb, _ in rows]
                      for ka, _ in rows], dtype=float)
    steps[steps <= 0] = np.nan
    c, scale = hy / steps, scale / steps
    returns = np.array([len(k) - 1 for k, _ in rows])
    c[(n_obs < max(min_obs, 2)) | (np.minimum.outer(returns, returns) < min_obs)] = np.nan
    flat = ~((np.diag(c) > 0) & counted)
    c[flat] = c[:, flat] = np.nan
    return c, n_obs, scale, doubtful


def normalize_curve(tau_grid, values, tau0: float):
    """Divide one curve by its interpolated value at tau0, log-log when it is
    positive; a curve that vanishes there becomes NaN."""
    if np.all(values > 0):
        v0 = float(np.exp(np.interp(np.log(tau0), np.log(tau_grid), np.log(values))))
    else:
        v0 = float(np.interp(np.log(tau0), np.log(tau_grid), values))
    if v0 == 0 or not np.isfinite(v0):
        v0 = np.nan
    return values / v0


def corr_vs_tau_loop(series, clock, tau_grid, normalize_tau: float = 1.0):
    """rho(tau) from ``support_hy_pair`` one pair and tau at a time, then one
    curve at a time, and each ticker's per-return variance. Each sum is
    divided by the grid steps both tickers' bins span. A variance needs three
    returns (seven overlapping pairs) and must be positive, a pair two
    overlapping returns. Returns (pairs, curves, v)."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    tickers = sorted(series)
    pairs = [(a, b) for i, a in enumerate(tickers) for b in tickers[i + 1:]]
    coords = {t: clock.to_txn_time(series[t].timestamps) for t in tickers}
    hours = hours_in_year(clock.year)
    raw = np.full((len(pairs), len(tau_grid)), np.nan)
    v = np.full((len(tickers), len(tau_grid)), np.nan)

    def per_step(a, b):
        (ka, za), (kb, zb) = prepped[a], prepped[b]
        hy, n, _ = support_hy_pair(ka, za, kb, zb)
        if n < 2:
            return np.nan, n
        return hy / (min(ka[-1], kb[-1]) - max(ka[0], kb[0])), n

    for k, tau in enumerate(tau_grid):
        prepped, var = {}, {}
        for i, t in enumerate(tickers):
            idx, _, pbar, _ = bin_coordinates(coords[t], series[t].price, tau)
            keep = idx < math.ceil(hours / tau)         # a bin past the year's block is dropped
            prepped[t] = support_returns(idx[keep], pbar[keep])
            c, n = per_step(t, t)
            if n >= 7 and c > 0:
                var[t] = v[i, k] = c
        for p, (a, b) in enumerate(pairs):
            c, n = per_step(a, b)
            if a in var and b in var and n >= 2:
                raw[p, k] = c / np.sqrt(var[a] * var[b])
    curves = np.full_like(raw, np.nan)
    for p in range(len(pairs)):
        ok = ~np.isnan(raw[p])
        if ok.any() and tau_grid[ok][0] <= normalize_tau <= tau_grid[ok][-1]:
            curves[p, ok] = normalize_curve(tau_grid[ok], raw[p, ok], normalize_tau)
    return pairs, curves, v


def corr_vs_tau_csv_loop(series, clock, tau_grid, normalize_tau) -> np.ndarray:
    """The rows of corr_vs_tau.csv, with ``predicted`` from a second binning pass.

    rho(tau) comes from ``corr_vs_tau``; each tau's percentiles are taken
    over the pairs with a value there, one tau at a time (NaN where no pair
    has one). The median variance behind ``predicted`` is taken over the
    tickers whose ``corr_vs_tau_loop`` variance is positive at every tau.
    """
    _, curves, _ = corr_vs_tau(txn_candles(series.values(), [clock]), tau_grid, normalize_tau)
    perc = np.full((len(PERCENTILES), len(tau_grid)), np.nan)
    for k, column in enumerate(curves.T):
        present = column[~np.isnan(column)]
        if len(present):
            perc[:, k] = np.percentile(present, PERCENTILES)
    _, _, v = corr_vs_tau_loop(series, clock, tau_grid, normalize_tau)
    stack = [row for row in v if np.all(row > 0)]
    if stack:
        predicted = predicted_corr_ratio(np.median(np.stack(stack), axis=0), tau_grid,
                                         normalize_tau)
    else:
        predicted = np.full(len(tau_grid), np.nan)
    return np.column_stack([tau_grid, *perc, predicted])


def year_bins_loop(series, years, kind: ClockKind, tau: float):
    """Per year, each ticker's [(grid index, bin price), ...] on its own clock,
    tickers by name, for those with two or more candles in the year.

    A bin at or past the year's ceil(hours / tau) columns is dropped, one
    bin at a time.
    """
    out = []
    for y in years:
        clock = build_clock(series.values(), kind, y)
        width = math.ceil(hours_in_year(y) / tau)
        binned = {}
        for t in sorted(series):
            sub = series[t].slice_window(clock.year_start, clock.year_end)
            if len(sub) >= 2:
                idx, _, price, _ = bin_coordinates(clock.to_txn_time(sub.timestamps),
                                                   sub.price, tau)
                binned[t] = [(int(k), p) for k, p in zip(idx, price) if k < width]
        out.append(binned)
    return out


def multi_year_bins_loop(series, years, kind: ClockKind, tau: float = 1.0):
    """Per ticker with a bin, its (grid indices, bin prices) of the years
    chained end to end, ticker by ticker.

    Each year is binned on its own clock (``year_bins_loop``). A year's grid
    indices are offset by the summed ceil(hours / tau) of the years before
    it. At tau = 1 this is the
    merge of per-year bins that the correlate command made before it read a
    grid (which offset by round(hours / tau) and so gave two bins one index
    at other taus).
    """
    per_year, width = year_bins_loop(series, years, kind, tau), [0]
    for y in years:
        width.append(width[-1] + math.ceil(hours_in_year(y) / tau))
    out = {}
    for t in sorted(series):
        idx, price = [], []
        for i, binned in enumerate(per_year):
            for k, p in binned.get(t, []):
                idx.append(width[i] + k)
                price.append(p)
        if idx:
            out[t] = (np.array(idx, dtype=np.int64), np.array(price))
    return out


def build_panel_loop(series, years, kind: ClockKind):
    """(tickers, prices) of the hourly panel, filled one bin at a time.

    Row i is the i-th ticker by name; year j's hourly bins go to the columns
    offset by the hours of the years before it, and every other cell is NaN.
    """
    tickers = sorted(series)
    hours = [hours_in_year(y) for y in years]
    price = np.full((len(tickers), sum(hours)), np.nan)
    for j, binned in enumerate(year_bins_loop(series, years, kind, 1.0)):
        for i, t in enumerate(tickers):
            for k, p in binned.get(t, []):
                price[i, sum(hours[:j]) + k] = p
    return tickers, price


def build_then_filter(candles, min_active_fraction: float):
    """(tickers, prices) kept by the eligibility filter as it once ran: the
    panel of every ticker, then the rows with a bin in at least the share of
    every year's columns, taken as the mean of a boolean row."""
    panel = build_panel(candles)
    present = np.isfinite(panel.price)
    keep = np.logical_and.reduce([present[:, sl].mean(axis=1) >= min_active_fraction
                                  for sl in panel.blocks])
    if not keep.any():
        raise DataError("no tickers pass the eligibility filter")
    return [t for t, k in zip(panel.tickers, keep) if k], panel.price[keep]


def shot_logp_loop(params: HurstParams, n: int, times, amps) -> np.ndarray:
    """Every (hour, event) kernel value, summed one block of events at a time."""
    hours = np.arange(n, dtype=float)
    logp = np.zeros(n)
    ev_chunk = max(1, 4_000_000 // n)
    for lo in range(0, len(times), ev_chunk):
        t_i = times[lo:lo + ev_chunk]
        s_i = amps[lo:lo + ev_chunk]
        dt = hours[:, None] - t_i[None, :]
        live = dt >= params.delta
        contrib = np.where(live,
                           np.power(np.maximum(dt, params.delta) / params.delta,
                                    -params.epsilon), 0.0)
        logp += contrib @ s_i
    return logp


def simulate_shot_noise_loop(params: HurstParams, config: SimConfig) -> PricePanel:
    """The event draw of ``simulate_shot_noise`` with the exact (hour, event) sum."""
    rng = np.random.default_rng(config.seed)
    duration = float(config.n_years * config.hours_per_year)
    times = np.empty(0)
    t_last = 0.0
    while t_last < duration:
        block = rng.exponential(1.0 / params.rate, size=max(1024, int(params.rate * duration * 0.2)))
        new = t_last + np.cumsum(block)
        times = np.concatenate([times, new])
        t_last = float(times[-1])
    times = times[times < duration]
    amps = rng.normal(0.0, 1.0, size=len(times))
    n = config.n_years * config.hours_per_year
    logp = shot_logp_loop(params, n, times, amps)
    prices = _postprocess(logp.reshape(config.n_years, config.hours_per_year),
                          config.target_vol)
    return PricePanel(prices)


def write_panel_csv_rows(panel: PricePanel, path) -> None:
    """The panel CSV written by ``csv.writer``, one row at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["year", "hour", "price"])
        for y in range(panel.n_years):
            row = panel.prices[y]
            for h in range(panel.hours_per_year):
                w.writerow([y, h, repr(float(row[h]))])


# relative tolerance on sums of many fills, as the bench's ledger checks take it
BALANCE_TOL = 1e-9


@dataclass
class LedgerRows:
    """Every row of a ledger at once, as columns."""
    hour: np.ndarray
    ticker: list[str]
    side: np.ndarray
    qty: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    pnl: np.ndarray

    def __len__(self) -> int:
        return len(self.hour)

    @property
    def total_pnl(self) -> float:
        return math.fsum(self.pnl.tolist())


_NO_ROWS = (np.empty(0, np.int64), [], np.empty(0, np.int64), *[np.empty(0)] * 4)


def ledger_rows(ledger: TradeLedger) -> LedgerRows:
    """A streamed ledger's blocks concatenated."""
    hour, ticker, *cols = zip(*ledger.blocks(), _NO_ROWS)
    return LedgerRows(np.concatenate(hour), [t for part in ticker for t in part],
                      *map(np.concatenate, cols))


def _settle(p_entry, p_exit, sides, h, cost, rows) -> bool:
    """Fill every side of one hour, or none when a side cannot fill; each fill
    pays ``cost`` per round trip, as a fraction of its notional."""
    fills = []
    for members, weights, side in sides:
        ok = np.isfinite(p_entry[members]) & np.isfinite(p_exit[members])
        if not ok.any():
            return False
        fills.append((members[ok], weights[ok], side))
    for members, weights, side in fills:
        total = 0.0
        for w in weights.tolist():      # one at a time, in ledger order
            total += w
        notional = weights / total
        qty = notional / p_entry[members]
        move = p_exit[members] - p_entry[members]
        pnl = side * qty * move - cost * notional
        rows.append((h, members, side, qty, p_entry[members], p_exit[members], pnl))
    return True


def _collect(rows, tickers, n_hours) -> BacktestResult:
    hour, names, side, qty, entry, exit_, pnl = [], [], [], [], [], [], []
    pnl_by_hour = np.zeros(n_hours)
    for h, members, s, q, pe, px, pl in rows:
        for k in range(len(members)):
            hour.append(h); names.append(tickers[members[k]]); side.append(s)
            qty.append(q[k]); entry.append(pe[k]); exit_.append(px[k]); pnl.append(pl[k])
        for v in pl.tolist():           # one at a time, in ledger order
            pnl_by_hour[h] += v
    ledger = LedgerRows(np.asarray(hour, dtype=np.int64), names,
                        np.asarray(side, dtype=np.int64), np.asarray(qty),
                        np.asarray(entry), np.asarray(exit_), np.asarray(pnl))
    curve = EquityCurve(np.cumsum(pnl_by_hour))
    return BacktestResult(ledger, curve, {"notional": len(rows)})   # one row per traded side


def run_market_meanrev_loop(prices, tickers, config, long_only=False,
                            cost=0.0) -> BacktestResult:
    """``run_market_meanrev`` one decision hour at a time, at a cost per round trip."""
    prices = np.asarray(prices, dtype=float)
    n, n_hours = prices.shape
    entry_offset = 2
    rows = []
    skipped = 0
    for h in range(0, n_hours - entry_offset - 1):
        p0, p1 = prices[:, h], prices[:, h + 1]
        ok = np.isfinite(p0) & np.isfinite(p1)
        r = np.full(n, np.nan)
        r[ok] = np.log(p1[ok] / p0[ok])
        longs = np.flatnonzero(ok & (r < 0))
        shorts = np.flatnonzero(ok & (r > 0))
        if len(longs) < config.min_side_count or len(shorts) < config.min_side_count:
            skipped += 1
            continue
        sides = [(longs, np.abs(r[longs]), +1)]
        if not long_only:
            sides.append((shorts, np.abs(r[shorts]), -1))
        if not _settle(prices[:, h + entry_offset], prices[:, h + entry_offset + 1],
                       sides, h, cost, rows):
            skipped += 1
    result = _collect(rows, tickers, n_hours)
    result.info.update(skipped_hours=skipped, long_only=long_only, entry_offset=entry_offset)
    return result


def run_xcorr_strategy_loop(prices, tickers, coeffs, config, cost=0.0) -> BacktestResult:
    """``run_xcorr_strategy`` one decision hour at a time, at a cost per round trip."""
    prices = np.asarray(prices, dtype=float)
    n, n_hours = prices.shape
    if list(coeffs.tickers) != list(tickers):
        raise DataError("coefficient tickers do not match the price panel")
    b = coeffs.b
    entry_offset = 2 + config.staleness
    rows = []
    skipped = 0
    for h in range(0, n_hours - entry_offset - 1):
        p0, p1 = prices[:, h], prices[:, h + 1]
        ok = np.isfinite(p0) & np.isfinite(p1)
        n_present = int(ok.sum())
        k = max(1, int(config.top_fraction * n_present))
        if n_present < 2 * k or n_present < 2:
            skipped += 1
            continue
        r = np.zeros(n)
        r[ok] = np.log(p1[ok] / p0[ok])
        r_hat = b @ r
        delta = np.where(ok, r_hat - r, np.nan)
        present = np.flatnonzero(ok)
        order = present[np.argsort(-delta[present], kind="stable")]
        longs = order[:k]
        shorts = order[-k:]
        w = np.full(k, 1.0 / k)
        if not _settle(prices[:, h + entry_offset], prices[:, h + entry_offset + 1],
                       [(longs, w, +1), (shorts, w, -1)], h, cost, rows):
            skipped += 1
    result = _collect(rows, tickers, n_hours)
    result.info.update(skipped_hours=skipped, staleness=config.staleness,
                       entry_offset=entry_offset)
    return result


def write_ledger_csv_rows(ledger: LedgerRows, path) -> None:
    """The trade ledger written by ``csv.writer``, one row at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["hour", "ticker", "side", "qty", "entry", "exit", "pnl"])
        for i in range(len(ledger)):
            w.writerow([int(ledger.hour[i]), ledger.ticker[i],
                        "long" if ledger.side[i] > 0 else "short",
                        repr(float(ledger.qty[i])), repr(float(ledger.entry[i])),
                        repr(float(ledger.exit[i])), repr(float(ledger.pnl[i]))])


def write_equity_csv_rows(curve: EquityCurve, path) -> None:
    """The equity curve written by ``csv.writer``, one row at a time."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["txn_hour", "cum_pnl", "annualized"])
        for i, h in enumerate(range(len(curve.cum_pnl))):
            with np.errstate(over="ignore"):        # a cum_pnl near the float maximum
                ann = curve.cum_pnl[i] * ANNUAL_HOURS / max(int(h) + 1, 1)
            w.writerow([int(h), repr(float(curve.cum_pnl[i])), repr(float(ann))])


def predict_loop(b, r) -> np.ndarray:
    """Coefficients applied to a return panel one ticker pair at a time: each
    ticker's prediction adds coefficient times return over the tickers whose
    return is present."""
    r_hat = np.zeros(r.shape)
    for i in range(len(r)):
        for k in range(len(r)):
            present = ~np.isnan(r[k])
            r_hat[i, present] += b.b[i, k] * r[k, present]
    return r_hat


def prediction_scores(r_hat, r) -> dict:
    """The means over the tickers with a non-zero return of FMSE and of FVE, the
    squared correlation of prediction and return (0 for a zero prediction), from
    each ticker's exact sums over the hours where its return is present."""
    fmse_k, fve_k = [], []
    for h, z in zip(r_hat, r):
        present = ~np.isnan(z)
        h, z = h[present].tolist(), z[present].tolist()
        rr = math.fsum(x * x for x in z)
        if rr > 0:
            hh, cross = math.fsum(x * x for x in h), math.fsum(x * y for x, y in zip(h, z))
            fmse_k.append(math.fsum((x - y) * (x - y) for x, y in zip(h, z)) / rr)
            fve_k.append(cross * cross / (rr * hh) if hh > 0 else 0.0)
    if not fmse_k:
        raise DataError("no ticker has usable observations")
    return {"fve": fmean(fve_k), "fmse": fmean(fmse_k)}


def fmse(b, r) -> float:
    """The FMSE of coefficients b on a return panel r."""
    return prediction_scores(predict_loop(b, r), r)["fmse"]


def naive_predict_loop(r, variances) -> np.ndarray:
    """The market-mode prediction of each return, one ticker and hour at a time:
    the mean of the other tickers' returns over their standard deviations, a
    missing one counted as 0, times the ticker's own standard deviation."""
    n, n_hours = r.shape
    sd = np.sqrt(variances)
    r_hat = np.zeros((n, n_hours))
    for i in range(n):
        for h in range(n_hours):
            total = sum(r[k, h] / sd[k] for k in range(n) if k != i and not np.isnan(r[k, h]))
            r_hat[i, h] = total / (n - 1) * sd[i]
    return r_hat


def naive_scores(r) -> dict:
    """The ``none`` row of the predict command's fve_grid for one year's returns."""
    variances = np.nanvar(r, axis=1)
    if np.any(variances <= 0) or np.isnan(variances).any():
        raise DataError("a ticker has no return variance")
    return prediction_scores(naive_predict_loop(r, variances), r)
