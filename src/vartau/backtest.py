"""Hourly arbitrage backtests with uncompounded accounting.

Three strategies share one fill engine:

* simulated-panel mean reversion: one synthetic stock, many years; bet
  against the previous hour's normalized return, hold one hour.
* market mean reversion: many stocks, long the decliners / short the
  gainers of the previous hour in proportion to |return|.
* correlation-discrepancy: long the stocks whose return fell most below
  its leave-one-out prediction, short the opposite tail, equal weights.

Decisions for hour h use only the average prices of hours h and h+1
(fully causal); positions open during hour h+2+S at that hour's average
price and close during hour h+3+S, where S >= 0 is the staleness. The
market mean-reversion strategy is the S=0 case, entering at h+2 and
exiting at h+3. Hourly stakes are constant: profits are never
reinvested, so yearly results are sums, not compounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
import numpy as np

from .errors import DataError
from .hurst import PricePanel

ANNUAL_HOURS = 8760.0


@dataclass
class StrategyConfig:
    staleness: int = 1                 # extra delay S before entering
    top_fraction: float = 0.05         # tail size for the discrepancy strategy
    min_side_count: int = 100          # mean reversion: skip thinner hours
    min_active_fraction: float = 0.5   # eligibility: traded share of hours
    stake: float = 1.0                 # per-side notional per hour
    cost_per_round_trip: float = 0.0   # fraction of notional charged per trade

    def __post_init__(self):
        if self.staleness < 0:
            raise DataError("staleness must be >= 0")
        if not 0 < self.top_fraction <= 0.5:
            raise DataError("top_fraction must be in (0, 0.5]")
        if self.min_side_count < 1:
            raise DataError("min_side_count must be >= 1")
        if not 0 < self.min_active_fraction <= 1:
            raise DataError("min_active_fraction must be in (0, 1]")
        if self.stake <= 0:
            raise DataError("stake must be positive")
        if self.cost_per_round_trip < 0:
            raise DataError("cost must be >= 0")


@dataclass
class TradeLedger:
    hour: np.ndarray       # decision hour of each round trip
    ticker: list[str]
    side: np.ndarray       # +1 long, -1 short
    qty: np.ndarray
    entry: np.ndarray
    exit: np.ndarray
    pnl: np.ndarray

    def __len__(self) -> int:
        return len(self.hour)

    def total_pnl(self) -> float:
        return float(self.pnl.sum())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["hour", "ticker", "side", "qty", "entry", "exit", "pnl"])
            for i in range(len(self)):
                w.writerow([int(self.hour[i]), self.ticker[i],
                            "long" if self.side[i] > 0 else "short",
                            repr(float(self.qty[i])), repr(float(self.entry[i])),
                            repr(float(self.exit[i])), repr(float(self.pnl[i]))])


@dataclass
class EquityCurve:
    hours: np.ndarray      # decision hours with activity recorded
    cum_pnl: np.ndarray    # running sum of realized pnl, booked per decision hour
    stake: float
    span_hours: int        # panel hours covered, for annualization

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["txn_hour", "cum_pnl", "annualized"])
            for i, h in enumerate(self.hours):
                ann = self.cum_pnl[i] / self.stake * ANNUAL_HOURS / max(int(h) + 1, 1)
                w.writerow([int(h), repr(float(self.cum_pnl[i])), repr(float(ann))])


@dataclass
class BacktestResult:
    ledger: TradeLedger
    curve: EquityCurve
    info: dict = field(default_factory=dict)


def annualized_yield(curve: EquityCurve) -> float:
    """End-point cumulative P&L per stake, scaled to an 8760-hour year."""
    if len(curve.cum_pnl) == 0:
        return 0.0
    return float(curve.cum_pnl[-1] / curve.stake * ANNUAL_HOURS / curve.span_hours)


def rms_hourly_return(panel: PricePanel | np.ndarray) -> float:
    """Per-year rms of hourly log returns, averaged across years."""
    prices = panel.prices if isinstance(panel, PricePanel) else np.asarray(panel, dtype=float)
    r = np.diff(np.log(prices), axis=1)
    return float(np.mean(np.sqrt(np.mean(r * r, axis=1))))


def run_sim_meanrev(panel: PricePanel | np.ndarray) -> np.ndarray:
    """Mean-reversion arbitrage on a simulated panel; yearly net returns.

    For every year y and hour h: the normalized return over (h, h+1) sets
    the share count q = -r_hat / p[h+1]; shares trade at the hour-average
    prices p[h+2] (enter) and p[h+3] (exit). The yearly figure is the
    pnl sum over hours, divided by the summed |r_hat| at stake, and
    scaled to an 8760-hour year (uncompounded).
    """
    prices = panel.prices if isinstance(panel, PricePanel) else np.asarray(panel, dtype=float)
    if prices.shape[1] < 4:
        raise DataError("need at least 4 hours per year")
    rms = rms_hourly_return(prices)
    if rms == 0:
        return np.zeros(prices.shape[0])
    r_hat = np.diff(np.log(prices), axis=1) / rms
    q = -r_hat[:, :-2] / prices[:, 1:-2]
    pnl = q * (prices[:, 3:] - prices[:, 2:-1])
    return ANNUAL_HOURS * pnl.sum(axis=1) / np.abs(r_hat[:, :-2]).sum(axis=1)


def _settle(p_entry, p_exit, sides, h, config, rows) -> bool:
    """Fill every side of one hour, or none when a side cannot fill.

    ``sides`` holds (members, weights, +1 long / -1 short). Tickers
    missing an entry or exit price are dropped and their side's stake is
    re-spread proportionally over the rest, so each side trades exactly
    the stake and long and short notionals stay equal. When a side has no
    fillable name the hour books nothing and False is returned.
    """
    fills = []
    for members, weights, side in sides:
        ok = np.isfinite(p_entry[members]) & np.isfinite(p_exit[members])
        if not ok.any():
            return False
        fills.append((members[ok], weights[ok], side))
    for members, weights, side in fills:
        notional = config.stake * (weights / weights.sum())
        qty = notional / p_entry[members]
        move = p_exit[members] - p_entry[members]
        pnl = side * qty * move - config.cost_per_round_trip * notional
        rows.append((h, members, side, qty, p_entry[members], p_exit[members], pnl))
    return True


def _collect(rows, tickers, n_hours, stake) -> BacktestResult:
    hour, names, side, qty, entry, exit_, pnl = [], [], [], [], [], [], []
    pnl_by_hour = np.zeros(n_hours)
    for h, members, s, q, pe, px, pl in rows:
        for k in range(len(members)):
            hour.append(h); names.append(tickers[members[k]]); side.append(s)
            qty.append(q[k]); entry.append(pe[k]); exit_.append(px[k]); pnl.append(pl[k])
        pnl_by_hour[h] += pl.sum()
    ledger = TradeLedger(np.asarray(hour, dtype=np.int64), names,
                         np.asarray(side, dtype=np.int64), np.asarray(qty),
                         np.asarray(entry), np.asarray(exit_), np.asarray(pnl))
    curve = EquityCurve(np.arange(n_hours, dtype=np.int64),
                        np.cumsum(pnl_by_hour), stake, n_hours)
    return BacktestResult(ledger, curve)


def run_market_meanrev(prices: np.ndarray, tickers: list[str],
                       config: StrategyConfig | None = None,
                       long_only: bool = False) -> BacktestResult:
    """Cross-sectional mean reversion on an hourly price matrix.

    Hours where either side has fewer than ``min_side_count`` candidates,
    or where a traded side has no name with both fill prices, are skipped
    entirely. Stake is split within a side proportionally to |return|;
    fills at the h+2 and h+3 hour-average prices.
    """
    config = config or StrategyConfig()
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
        sides = [(longs, np.abs(r[longs]) / np.abs(r[longs]).sum(), +1)]
        if not long_only:
            sides.append((shorts, np.abs(r[shorts]) / np.abs(r[shorts]).sum(), -1))
        if not _settle(prices[:, h + entry_offset], prices[:, h + entry_offset + 1],
                       sides, h, config, rows):
            skipped += 1
    result = _collect(rows, tickers, n_hours, config.stake)
    result.info = {"skipped_hours": skipped, "long_only": long_only,
                   "entry_offset": entry_offset}
    return result


def run_xcorr_strategy(prices: np.ndarray, tickers: list[str], coeffs,
                       config: StrategyConfig | None = None) -> BacktestResult:
    """Trade the gap between returns and their leave-one-out predictions.

    The discrepancy is prediction minus outcome; the top fraction
    (largest, stock looks cheap against its peers) is bought and the
    bottom fraction sold short, equal-weighted, entering during hour
    h+2+S and exiting one hour later. Ties break by ticker order. Hours
    with too few present names, or where a side has no name with both
    fill prices, are skipped.
    """
    config = config or StrategyConfig()
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
                       [(longs, w, +1), (shorts, w, -1)], h, config, rows):
            skipped += 1
    result = _collect(rows, tickers, n_hours, config.stake)
    result.info = {"skipped_hours": skipped, "staleness": config.staleness,
                   "entry_offset": entry_offset}
    return result
