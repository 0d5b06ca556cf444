"""Hourly arbitrage backtests with uncompounded accounting.

* simulated-panel mean reversion: one synthetic stock, many years; bet
  against the previous hour's normalized return, hold one hour.
* market mean reversion: many stocks, long the decliners / short the
  gainers of the previous hour in proportion to |return|.
* correlation-discrepancy: long the stocks whose return fell most below
  its leave-one-out prediction, short the opposite tail, equal weights.

The two market strategies share one fill engine, ``_book``, which takes
``_BLOCK_HOURS`` decision hours per step as (side x ticker x hour) arrays;
the block size bounds those temporaries. Its ledger lists trades by hour,
then longs before shorts, then ticker (mean reversion) or rank
(discrepancy). ``run_sim_meanrev`` is whole-panel arithmetic, no ledger.

Decisions for hour h use only the average prices of hours h and h+1
(fully causal); positions open during hour h+2+S at that hour's average
price and close during hour h+3+S, where S >= 0 is the staleness. The
market mean-reversion strategy is the S=0 case, entering at h+2 and
exiting at h+3. Each traded side of an hour stakes one unit of notional,
and ledger, equity and yields are per unit stake at zero cost: profits are
never reinvested, so yearly results are sums, not compounds. A cost c per
round trip would take ``c * qty * entry`` off a trade's pnl and
``c * info["notional"]`` off the total, where notional counts traded sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .candles import write_table
from .errors import DataError

ANNUAL_HOURS = 8760.0
# decision hours filled per step; bounds the (side x ticker x hour) temporaries
_BLOCK_HOURS = 1024


@dataclass
class StrategyConfig:
    staleness: int                 # extra delay S before entering
    top_fraction: float            # tail size for the discrepancy strategy
    min_side_count: int            # mean reversion: skip thinner hours

    def __post_init__(self):
        if self.staleness < 0:
            raise DataError("staleness must be >= 0")
        if not 0 < self.top_fraction <= 0.5:
            raise DataError("top_fraction must be in (0, 0.5]")
        if self.min_side_count < 1:
            raise DataError("min_side_count must be >= 1")


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
        """One row per trade, floats as their repr, tickers quoted as csv does."""
        write_table(path, ["hour", "ticker", "side", "qty", "entry", "exit", "pnl"],
                    [self.hour, self.ticker, np.where(self.side > 0, "long", "short"),
                     self.qty, self.entry, self.exit, self.pnl])


@dataclass
class EquityCurve:
    cum_pnl: np.ndarray    # running sum of realized pnl at every panel hour

    def write_csv(self, path) -> None:
        """txn_hour, cum_pnl and the yield annualized over the hours up to it."""
        hours = np.arange(len(self.cum_pnl))
        with np.errstate(over="ignore"):        # a cum_pnl near the float maximum: inf
            ann = self.cum_pnl * ANNUAL_HOURS / (hours + 1)
        write_table(path, ["txn_hour", "cum_pnl", "annualized"], [hours, self.cum_pnl, ann])


@dataclass
class BacktestResult:
    ledger: TradeLedger
    curve: EquityCurve
    info: dict = field(default_factory=dict)


def annualized_yield(curve: EquityCurve) -> float:
    """End-point cumulative P&L per unit stake, scaled to an 8760-hour year."""
    if len(curve.cum_pnl) == 0:
        return 0.0
    return float(curve.cum_pnl[-1] * ANNUAL_HOURS / len(curve.cum_pnl))


def rms_hourly_return(prices: np.ndarray) -> float:
    """Per-year rms of hourly log returns, averaged across years (rows)."""
    r = np.diff(np.log(prices), axis=1)
    return float(np.mean(np.sqrt(np.mean(r * r, axis=1))))


def run_sim_meanrev(prices: np.ndarray) -> np.ndarray:
    """Mean-reversion arbitrage on simulated (year, hour) prices; yearly net returns.

    For every year y and hour h: the normalized return over (h, h+1) sets
    the share count q = -r_hat / p[h+1]; shares trade at the hour-average
    prices p[h+2] (enter) and p[h+3] (exit). The yearly figure is the
    pnl sum over hours, divided by the summed |r_hat| at stake, and
    scaled to an 8760-hour year (uncompounded); 0 for a flat year.
    """
    if prices.shape[1] < 4:
        raise DataError("need at least 4 hours per year")
    rms = rms_hourly_return(prices)
    if rms == 0:
        return np.zeros(prices.shape[0])
    r_hat = np.diff(np.log(prices), axis=1) / rms
    q = -r_hat[:, :-2] / prices[:, 1:-2]
    pnl = q * (prices[:, 3:] - prices[:, 2:-1])
    staked = np.abs(r_hat[:, :-2]).sum(axis=1)
    # a year whose r_hat is all zero stakes nothing and returns 0
    return np.divide(ANNUAL_HOURS * pnl.sum(axis=1), staked,
                     out=np.zeros(len(staked)), where=staked != 0)


def _book(prices, tickers, entry_offset, sides) -> BacktestResult:
    """Fill every decision hour, one block of ``_BLOCK_HOURS`` hours at a time.

    ``sides(ok, r)`` gets a block's present mask and log returns (tickers x
    hours, r = 0 where a price is missing) and returns ``(members, weight,
    order)``: members is (2, slots, hours), the long and the short side of
    each hour (both empty in an hour that does not trade), weight is
    broadcast against one side, and slot s of hour j holds ticker
    ``order[s, j]`` (slot s holds ticker s when order is None). A side trades
    its fillable names, those with entry and exit prices, with its unit stake
    spread over them in proportion to weight; an hour in which a non-empty
    side has no fillable name books nothing and counts as skipped.
    """
    n_hours = prices.shape[1]
    n_decisions = max(n_hours - entry_offset - 1, 0)
    parts = [(np.empty(0, np.int64),) * 3 + (np.empty(0),) * 4]
    skipped, notional = n_decisions, 0
    for h0 in range(0, n_decisions, _BLOCK_HOURS):
        h1 = min(h0 + _BLOCK_HOURS, n_decisions)
        p0, p1 = prices[:, h0:h1], prices[:, h0 + 1:h1 + 1]
        ok = np.isfinite(p0) & np.isfinite(p1)
        r = np.zeros(ok.shape)
        np.log(np.divide(p1, p0, out=r, where=ok), out=r, where=ok)
        members, weight, order = sides(ok, r)
        entry = prices[:, h0 + entry_offset:h1 + entry_offset]
        exit_ = prices[:, h0 + entry_offset + 1:h1 + entry_offset + 1]
        if order is not None:
            entry = np.take_along_axis(entry, order, axis=0)
            exit_ = np.take_along_axis(exit_, order, axis=0)
        fill = members & np.isfinite(entry) & np.isfinite(exit_)
        book = members[0].any(axis=0) & np.all(fill.any(axis=1) | ~members.any(axis=1), axis=0)
        skipped -= int(book.sum())
        notional += int((fill.any(axis=1) & book).sum())
        j, s, slot = np.nonzero((fill & book).transpose(2, 0, 1))  # hour, long first, slot
        w = np.broadcast_to(weight, ok.shape)[slot, j]
        side_sum = np.bincount(2 * j + s, w, 2 * (h1 - h0))[2 * j + s]
        e, x = entry[slot, j], exit_[slot, j]
        side = 1 - 2 * s
        qty = w / side_sum / e
        pnl = side * qty * (x - e)
        parts.append((h0 + j, slot if order is None else order[slot, j], side, qty, e, x, pnl))
    hour, tick, side, qty, entry, exit_, pnl = (np.concatenate(col) for col in zip(*parts))
    ledger = TradeLedger(hour, np.asarray(tickers, dtype=object)[tick].tolist(),
                         side, qty, entry, exit_, pnl)
    curve = EquityCurve(np.cumsum(np.bincount(hour, pnl, n_hours)))
    return BacktestResult(ledger, curve, {"skipped_hours": skipped, "notional": notional})


def run_market_meanrev(prices: np.ndarray, tickers: list[str], config: StrategyConfig,
                       long_only: bool = False) -> BacktestResult:
    """Cross-sectional mean reversion on an hourly price matrix.

    Hours where either side has fewer than ``min_side_count`` candidates,
    or where a traded side has no name with both fill prices, are skipped
    entirely. Stake is split within a side proportionally to |return|;
    fills at the h+2 and h+3 hour-average prices.
    """

    def sides(ok, r):
        longs, shorts = r < 0, r > 0
        trade = ((longs.sum(axis=0) >= config.min_side_count)
                 & (shorts.sum(axis=0) >= config.min_side_count))
        return np.stack([longs & trade, shorts & trade & (not long_only)]), np.abs(r), None

    result = _book(np.asarray(prices, dtype=float), tickers, 2, sides)
    result.info.update(long_only=long_only, entry_offset=2)
    return result


def run_xcorr_strategy(prices: np.ndarray, tickers: list[str], coeffs,
                       config: StrategyConfig) -> BacktestResult:
    """Trade the gap between returns and their leave-one-out predictions.

    The discrepancy is prediction minus outcome; the top fraction
    (largest, stock looks cheap against its peers) is bought and the
    bottom fraction sold short, equal-weighted, entering during hour
    h+2+S and exiting one hour later. Ties break by ticker order, and the
    ledger lists a side's names in rank order. Hours with too few present
    names, or where a side has no name with both fill prices, are skipped.
    """
    if list(coeffs.tickers) != list(tickers):
        raise DataError("coefficient tickers do not match the price panel")
    b = np.asarray(coeffs.b, dtype=float)
    if not np.isfinite(b).all():
        raise DataError("prediction coefficients must be finite")
    entry_offset = 2 + config.staleness

    def sides(ok, r):
        n_present = ok.sum(axis=0)
        k = np.maximum(1, (config.top_fraction * n_present).astype(np.int64))
        trade = (n_present >= 2 * k) & (n_present >= 2)
        # a stable sort puts absent names (NaN) last and keeps ties in ticker order
        order = np.argsort(-np.where(ok, b @ r - r, np.nan), axis=0, kind="stable")
        rank = np.arange(len(r))[:, None]
        members = np.stack([rank < k, (rank >= n_present - k) & (rank < n_present)]) & trade
        return members, 1.0 / k, order

    result = _book(np.asarray(prices, dtype=float), tickers, entry_offset, sides)
    result.info.update(staleness=config.staleness, entry_offset=entry_offset)
    return result
