"""Seeded synthetic minute-candle market for the benchmark.

Every ticker follows a log-price walk that moves once per session
minute: a common factor with a planted loading plus an own shock, so the
correlation of any two tickers' minute returns is ``loading**2``. A
market-wide lognormal activity level scales both the variance and the
volumes of each minute, so the walk is memoryless in the dollar clock as
well as in clock time. Tickers trade in a random subset of minutes: the
``dense`` ones at rates spread evenly over ``DENSE_RATE``, the rest over
``THIN_RATE``, which keeps the thin ones below the 50% hourly eligibility
floor. The rates are the same for every seed; the seed only decides which
ticker gets which, so the amount of work does not depend on it. Volumes
are lognormal whole shares, and each bar is OHLC-consistent: open and
close are the walk at the minute's ends, high and low lie outside both.

Files are written with ``vartau.candles.write_candles`` so the input is
in the program's own interchange format.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from vartau.candles import CandleSeries, write_candles

SESSION_OPEN_UTC = timedelta(hours=14, minutes=30)
MINUTES = 390                   # one-minute bars per session
DENSE_RATE = (0.8, 1.0)         # share of minutes traded by a dense ticker
THIN_RATE = (0.02, 0.3)
LOADING = 0.6                   # planted factor loading
MINUTE_VOL = 1e-3               # log-price stdev per minute at mean activity
ACTIVITY_VOL = 0.5              # log stdev of the market activity per minute


@dataclass(frozen=True)
class MarketSpec:
    tickers: int
    years: tuple[int, ...]
    sessions: int                  # trading sessions per year
    dense: int                     # tickers trading in most minutes


def session_starts(year: int, sessions: int) -> np.ndarray:
    """Unix seconds of the first ``sessions`` weekday opens of ``year``."""
    day = datetime(year, 1, 1, tzinfo=timezone.utc)
    out = []
    while len(out) < sessions:
        if day.weekday() < 5:
            out.append(int((day + SESSION_OPEN_UTC).timestamp()))
        day += timedelta(days=1)
        if day.year != year:
            raise ValueError(f"{sessions} sessions do not fit in {year}")
    return np.array(out, dtype=np.int64)


def generate(spec: MarketSpec, seed: int) -> tuple[list[CandleSeries], np.ndarray]:
    """One CandleSeries per ticker and its trade rate; same seed, same market."""
    rng = np.random.default_rng(seed)
    minute = np.arange(MINUTES, dtype=np.int64) * 60
    stamps = np.concatenate([
        (session_starts(y, spec.sessions)[:, None] + minute[None, :]).ravel()
        for y in spec.years])
    n_min = len(stamps)
    activity = rng.lognormal(-ACTIVITY_VOL ** 2 / 2, ACTIVITY_VOL, n_min)
    step = MINUTE_VOL * np.sqrt(activity)
    factor = rng.standard_normal(n_min)
    rates = rng.permutation(np.concatenate([
        np.linspace(*DENSE_RATE, spec.dense),
        np.linspace(*THIN_RATE, spec.tickers - spec.dense)]))
    out = []
    for i in range(spec.tickers):
        shocks = (LOADING * factor
                  + np.sqrt(1.0 - LOADING ** 2) * rng.standard_normal(n_min))
        walk = np.log(rng.uniform(20.0, 200.0)) + np.concatenate(
            ([0.0], np.cumsum(step * shocks)))
        traded = rng.random(n_min) < rates[i]
        o = np.exp(walk[:-1][traded])
        c = np.exp(walk[1:][traded])
        wick = np.exp(MINUTE_VOL * np.abs(rng.standard_normal((2, len(o)))))
        h = np.maximum(o, c) * wick[0]
        lo = np.minimum(o, c) / wick[1]
        vol = np.floor(activity[traded] * rng.lognormal(6.0, 0.3, size=len(o))) + 1.0
        out.append(CandleSeries(f"T{i:03d}", stamps[traded], o, h, lo, c, vol))
    return out, rates


def write_market(spec: MarketSpec, seed: int, data_dir: Path) -> dict:
    """Write one CSV per ticker into ``data_dir``; return what was written."""
    data_dir.mkdir(parents=True, exist_ok=True)
    series, rates = generate(spec, seed)
    for s in series:
        write_candles(data_dir / f"{s.ticker}.csv", s)
    return {"spec": asdict(spec), "seed": seed, "tickers": len(series),
            "candles": int(sum(len(s) for s in series)),
            "candles_by_ticker": {s.ticker: len(s) for s in series},
            "dense_tickers": [s.ticker for s, r in zip(series, rates)
                              if r >= DENSE_RATE[0]]}
