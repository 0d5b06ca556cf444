"""Backtest engines: fills, accounting, causality, strategy behavior."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import BALANCE_TOL, ledger_rows, run_market_meanrev_loop, txn_candles
from vartau import backtest
from vartau.backtest import (EquityCurve, StrategyConfig, annualized_yield,
                             rms_hourly_return, run_market_meanrev,
                             run_sim_meanrev, run_xcorr_strategy)
from vartau.clock import ClockKind, build_clock, year_bounds
from vartau.errors import DataError
from vartau.hurst import HurstParams, SimConfig, simulate_fbm
from vartau.panel import build_panel
from vartau.predictor import PredictionCoeffs
from vartau.synthetic import hourly_candles_from_prices, point_candles


def literal_sim_meanrev(prices):
    """Scalar re-implementation of the five-step recipe, as an oracle."""
    prices = np.asarray(prices, dtype=float)
    n_years, H = prices.shape
    rms_terms = []
    for y in range(n_years):
        r = [np.log(prices[y, h + 1] / prices[y, h]) for h in range(H - 1)]
        rms_terms.append(np.sqrt(np.mean(np.square(r))))
    rms = np.mean(rms_terms)
    out = []
    for y in range(n_years):
        total, denom = 0.0, 0.0
        for h in range(H - 3):
            r_hat = np.log(prices[y, h + 1] / prices[y, h]) / rms
            q = -r_hat / prices[y, h + 1]
            total += q * (prices[y, h + 3] - prices[y, h + 2])
            denom += abs(r_hat)
        out.append(8760 * total / denom)
    return np.array(out)


class TestRms:
    def test_constant_prices(self):
        assert rms_hourly_return(np.ones((3, 50))) == 0.0

    def test_plus_minus_a(self):
        a = 0.01
        logp = np.cumsum(np.tile([a, -a], 25))
        panel = np.exp(np.stack([logp, logp]))
        assert rms_hourly_return(panel) == pytest.approx(a, rel=1e-9)

    def test_simulated_panel_scale(self):
        # detrended years make the log series a bridge: average variance
        # H/6 per unit step variance, so the forced global std 0.15 implies
        # hourly rms 0.15 * sqrt(6/H)
        pan = simulate_fbm(HurstParams(0.0), SimConfig(100, 8760, seed=0))
        want = 0.15 * np.sqrt(6 / 8760)
        assert rms_hourly_return(pan.prices) == pytest.approx(want, rel=0.10)


class TestSimMeanrev:
    def test_alternating_sequence_closed_form(self):
        # strictly alternating prices 1, 1+a: the h+2 -> h+3 move always
        # repeats the move bet against (period two), so every trade loses;
        # hand evaluation gives P_y = -8760 * a * (2 + a) / (2 (1 + a))
        a = 0.04
        H = 40
        prices = np.where(np.arange(H) % 2 == 0, 1.0, 1.0 + a)[None, :]
        got = run_sim_meanrev(prices)
        # H-3 trade hours: ceil((H-3)/2) even-h trades lose a/(1+a), the
        # rest lose a; |r_hat| = 1 each
        n_trades = H - 3
        n_even = (n_trades + 1) // 2
        total = -(n_even * a / (1 + a) + (n_trades - n_even) * a)
        want = 8760 * total / n_trades
        assert got[0] == pytest.approx(want, rel=1e-12)
        assert np.all(got < 0)

    def test_plateau_pattern_every_trade_wins(self):
        # period-four pattern 1, 1+a, 1+a, 1: the move two hours after each
        # nonzero return is its reversal, so every position gains
        a = 0.05
        prices = np.tile([1.0, 1.0 + a, 1.0 + a, 1.0], (1, 12))
        p_y = run_sim_meanrev(prices)
        assert p_y[0] > 0
        oracle = literal_sim_meanrev(prices)
        assert p_y[0] == pytest.approx(oracle[0], rel=1e-12)

    def test_matches_literal_recipe_on_random_panel(self):
        rng = np.random.default_rng(1)
        prices = np.exp(np.cumsum(rng.normal(0, 0.004, size=(3, 200)), axis=1))
        assert np.allclose(run_sim_meanrev(prices), literal_sim_meanrev(prices),
                           rtol=1e-12)

    def test_null_epsilon_near_zero(self):
        pan = simulate_fbm(HurstParams(0.0), SimConfig(300, 8760, seed=2))
        p_y = run_sim_meanrev(pan.prices)
        se = p_y.std(ddof=1) / np.sqrt(len(p_y))
        assert abs(p_y.mean()) < 3 * se + 0.01

    def test_needs_four_hours(self):
        with pytest.raises(DataError):
            run_sim_meanrev(np.ones((1, 3)))


class TestPanelPrep:
    def make_panel(self, candles, share=None, years=(2021,)):
        """Identity-clock grid of {ticker: (hours, prices)} candles, hours counted
        from the start of the first year, kept at the given eligibility share."""
        t0, _ = year_bounds(years[0])
        series = {t: point_candles(t, t0 + 3600 * np.asarray(h, dtype=np.int64), p)
                  for t, (h, p) in candles.items()}
        clocks = [build_clock(series.values(), ClockKind.CLOCK, y) for y in years]
        return build_panel(txn_candles(series.values(), clocks), share)

    def test_price_matrix_placement(self):
        panel = self.make_panel({"T": ([0, 2, 5], [10.0, 11.0, 12.0])})
        p = panel.price
        assert panel.tickers == ["T"] and p.shape == (1, 8760)
        assert p[0, 0] == 10.0 and p[0, 2] == 11.0 and p[0, 5] == 12.0
        assert np.isnan(p[0, 1]) and np.isnan(p[0, 7])

    def test_eligibility_boundary_inclusive(self):
        panel = self.make_panel({"A": (range(8760), np.ones(8760)),      # always active
                                 "B": (range(4380), np.ones(4380)),      # exactly half
                                 "C": (range(876), np.ones(876))}, 0.5)  # 10 percent
        assert panel.tickers == ["A", "B"] and panel.price.shape == (2, 8760)

    def test_eligibility_any_year_fails(self):
        # active all of 2021, two candles in 2022
        hours = [*range(8760), 8760, 8761]
        with pytest.raises(DataError, match="eligibility"):
            self.make_panel({"T": (hours, np.ones(len(hours)))}, 0.5, years=(2021, 2022))

    def test_filter_names(self):
        candles = {"T": (range(24), np.full(24, 5.0)), "S": ([0, 1], [5.0, 5.0])}
        assert self.make_panel(candles, 20 / 8760).tickers == ["T"]
        with pytest.raises(DataError, match="eligibility"):
            self.make_panel(candles, 0.5)


def strategy_config(**kw):
    """The CLI's default settings, but a side of one name is enough."""
    return StrategyConfig(**{"staleness": 1, "top_fraction": 0.05, "min_side_count": 1, **kw})


class TestMarketMeanrev:
    def test_identical_moves_skip_every_hour(self):
        # all stocks move together: one side is always empty
        logp = np.cumsum(np.tile([0.01, 0.02, -0.01], 10))
        prices = np.exp(np.tile(logp, (6, 1)))
        res = run_market_meanrev(prices, [f"T{i}" for i in range(6)],
                                 strategy_config(min_side_count=3))
        assert len(res.ledger) == 0
        assert res.info["skipped_hours"] > 0

    def test_two_sided_notionals_balance(self):
        rng = np.random.default_rng(3)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=(12, 200)), axis=1))
        prices[3, 50:70] = np.nan    # gaps must not break the balance
        res = run_market_meanrev(prices, [f"T{i}" for i in range(12)],
                                 strategy_config(min_side_count=2))
        ledger = ledger_rows(res.ledger)
        for h in np.unique(ledger.hour):
            rows = ledger.hour == h
            for side in (1, -1):
                sel = rows & (ledger.side == side)
                if sel.any():
                    notional = np.sum(ledger.qty[sel] * ledger.entry[sel])
                    assert notional == pytest.approx(1.0, rel=1e-9)

    def test_accounting_identity(self):
        rng = np.random.default_rng(4)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=(8, 150)), axis=1))
        res = run_market_meanrev(prices, [f"T{i}" for i in range(8)],
                                 strategy_config(min_side_count=2))
        assert res.curve.cum_pnl[-1] == pytest.approx(res.ledger.total_pnl,
                                                      abs=1e-12)

    def test_long_only_has_no_shorts(self):
        rng = np.random.default_rng(5)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=(8, 100)), axis=1))
        res = run_market_meanrev(prices, [f"T{i}" for i in range(8)],
                                 strategy_config(min_side_count=2), long_only=True)
        assert np.all(ledger_rows(res.ledger).side == 1)

    def test_missing_fill_redistributes_within_side(self):
        # three decliners, one loses its entry price: its stake moves to
        # the other two in proportion, keeping the side total at stake
        prices = np.full((4, 8), np.nan)
        prices[0] = [10, 9.0, 9.1, 9.2, 9.3, 9.4, 9.5, 9.6]
        prices[1] = [10, 8.0, 8.1, 8.2, 8.3, 8.4, 8.5, 8.6]
        prices[2] = [10, 7.0, 7.1, 7.2, 7.3, 7.4, 7.5, 7.6]
        prices[3] = [10, 11.0, 11.1, 11.2, 11.3, 11.4, 11.5, 11.6]
        prices[2, 2] = np.nan        # decision hour 0 entry (h+2) missing
        res = run_market_meanrev(prices, list("ABCD"), strategy_config())
        ledger = ledger_rows(res.ledger)
        rows = (ledger.hour == 0) & (ledger.side == 1)
        names = sorted(np.array(ledger.ticker)[rows])
        assert names == ["A", "B"]
        assert np.sum(ledger.qty[rows] * ledger.entry[rows]) == \
            pytest.approx(1.0, rel=1e-12)

    def test_breakeven_cost_zeroes_the_total(self):
        rng = np.random.default_rng(6)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=(8, 120)), axis=1))
        tickers, config = [f"T{i}" for i in range(8)], strategy_config(min_side_count=2)
        free = run_market_meanrev(prices, tickers, config)
        # both sides of every traded hour stake one unit
        assert free.info["notional"] == 2 * len(np.unique(ledger_rows(free.ledger).hour)) > 0
        breakeven = free.ledger.total_pnl / free.info["notional"]
        assert breakeven != 0
        charged = run_market_meanrev_loop(prices, tickers, config, cost=breakeven).ledger
        assert abs(charged.total_pnl) <= BALANCE_TOL * np.abs(charged.pnl).sum()

    def test_causality_injection(self):
        rng = np.random.default_rng(7)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=(10, 120)), axis=1))
        base = run_market_meanrev(prices, [f"T{i}" for i in range(10)],
                                  strategy_config(min_side_count=2))
        h_prime = 60
        bumped = prices.copy()
        bumped[4, h_prime] *= 1.05
        other = run_market_meanrev(bumped, [f"T{i}" for i in range(10)],
                                   strategy_config(min_side_count=2))
        def decisions(res, h_max):
            ledger = ledger_rows(res.ledger)
            keep = ledger.hour < h_max
            return (ledger.hour[keep].tolist(),
                    np.array(ledger.ticker)[keep].tolist(),
                    ledger.side[keep].tolist(),
                    np.round(ledger.qty[keep] * ledger.entry[keep],
                             12).tolist())
        assert decisions(base, h_prime - 1) == decisions(other, h_prime - 1)


@st.composite
def gappy_prices(draw, max_n=8):
    """Hourly random-walk prices of a few tickers with random missing hours."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, hours = draw(st.integers(2, max_n)), draw(st.integers(5, 40))
    prices = np.exp(np.cumsum(rng.normal(0, 0.01, (n, hours)), axis=1))
    prices[rng.random((n, hours)) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = np.nan
    return prices


def assert_market_neutral(res, n_decisions):
    """Every traded hour books both sides at the unit stake; the rest are skipped."""
    ledger = ledger_rows(res.ledger)
    notional = ledger.qty * ledger.entry
    hours = np.unique(ledger.hour)
    for h in hours:
        for side in (1, -1):
            sel = (ledger.hour == h) & (ledger.side == side)
            assert sel.any()
            assert notional[sel].sum() == pytest.approx(1.0, rel=1e-9)
    assert len(hours) + res.info["skipped_hours"] == n_decisions


@settings(max_examples=150, deadline=None)
@given(gappy_prices())
def test_meanrev_notionals_equal_in_every_traded_hour(prices):
    tickers = [f"T{i}" for i in range(len(prices))]
    res = run_market_meanrev(prices, tickers, strategy_config())
    assert_market_neutral(res, prices.shape[1] - 3)


@settings(max_examples=150, deadline=None)
@given(gappy_prices(), st.integers(0, 2), st.sampled_from([0.2, 0.5]), st.randoms())
def test_xcorr_notionals_equal_in_every_traded_hour(prices, staleness, top, rnd):
    n = len(prices)
    b = np.array([[0.0 if i == j else rnd.uniform(-0.5, 0.5) for j in range(n)]
                  for i in range(n)])
    tickers = [f"T{i}" for i in range(n)]
    cfg = strategy_config(staleness=staleness, top_fraction=top)
    res = run_xcorr_strategy(prices, tickers, PredictionCoeffs(tickers, b), cfg)
    assert_market_neutral(res, max(prices.shape[1] - 3 - staleness, 0))


class TestXcorr:
    def test_zero_coeffs_reduce_to_meanrev_extremes(self):
        # with B = 0 the discrepancy is -r: long the biggest decliners,
        # short the biggest gainers, equal weighted
        rng = np.random.default_rng(8)
        n = 10
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, size=(n, 30)), axis=1))
        b = PredictionCoeffs([f"T{i}" for i in range(n)], np.zeros((n, n)))
        cfg = strategy_config(staleness=0, top_fraction=0.2)
        res = run_xcorr_strategy(prices, [f"T{i}" for i in range(n)], b, cfg)
        h = 0
        r = np.log(prices[:, h + 1] / prices[:, h])
        k = max(1, int(0.2 * n))
        want_long = set(np.argsort(r, kind="stable")[:k])
        want_short = set(np.argsort(-r, kind="stable")[:k])
        ledger = ledger_rows(res.ledger)
        rows = ledger.hour == h
        got_long = {int(t[1:]) for t, s in zip(np.array(ledger.ticker)[rows],
                                               ledger.side[rows]) if s == 1}
        got_short = {int(t[1:]) for t, s in zip(np.array(ledger.ticker)[rows],
                                                ledger.side[rows]) if s == -1}
        assert got_long == want_long and got_short == want_short

    def test_tie_break_by_ticker_order(self):
        prices = np.ones((4, 10))
        prices[:, 1] = [1.01, 1.01, 0.99, 0.99]   # two-way ties on both sides
        b = PredictionCoeffs(list("ABCD"), np.zeros((4, 4)))
        cfg = strategy_config(staleness=0, top_fraction=0.25)
        res = run_xcorr_strategy(prices, list("ABCD"), b, cfg)
        ledger = ledger_rows(res.ledger)
        names = np.array(ledger.ticker)
        def side_names(h, side):
            return names[(ledger.hour == h) & (ledger.side == side)].tolist()
        # hour 0: C and D fell alike, A and B rose alike; the first of each tie wins
        assert side_names(0, 1) == ["C"] and side_names(0, -1) == ["B"]
        # hour 1 ties two ways, later hours all four ways: first ticker long, last short
        for h in range(1, 7):
            assert side_names(h, 1) == ["A"] and side_names(h, -1) == ["D"]

    def test_staleness_shifts_fills(self):
        prices = np.tile(np.linspace(1, 2, 12), (4, 1))
        jitter = np.array([0.002, -0.002, 0.001, -0.001])
        prices = prices * np.exp(jitter[:, None] * np.arange(12)[None, :] % 3)
        b = PredictionCoeffs(list("ABCD"), np.zeros((4, 4)))
        for s in (0, 2):
            cfg = strategy_config(staleness=s, top_fraction=0.25)
            res = run_xcorr_strategy(prices, list("ABCD"), b, cfg)
            ledger = ledger_rows(res.ledger)
            if len(ledger):
                first = ledger.hour[0]
                entry = ledger.entry[0]
                tick = int("ABCD".index(ledger.ticker[0]))
                assert entry == pytest.approx(prices[tick, first + 2 + s])

    def test_non_finite_coeffs_rejected(self):
        b = PredictionCoeffs(list("AB"), np.array([[0.0, np.nan], [0.1, 0.0]]))
        with pytest.raises(DataError, match="finite"):
            run_xcorr_strategy(np.ones((2, 10)), list("AB"), b,
                               strategy_config())

    def test_ticker_mismatch_rejected(self):
        b = PredictionCoeffs(list("AB"), np.zeros((2, 2)))
        with pytest.raises(DataError, match="tickers"):
            run_xcorr_strategy(np.ones((2, 10)), list("BA"), b,
                               strategy_config())


class TestYield:
    def test_flat_curve(self):
        c = EquityCurve(np.zeros(10))
        assert annualized_yield(c) == 0.0

    def test_linear_gain_over_year(self):
        c = EquityCurve(np.linspace(0, 0.53, 8760))
        assert annualized_yield(c) == pytest.approx(0.53)

    def test_two_years_constant_hourly_pnl(self):
        p = 1e-4
        n = 2 * 8760
        c = EquityCurve(np.cumsum(np.full(n, p)))
        assert annualized_yield(c) == pytest.approx(8760 * p)


def test_meanrev_memory_grows_with_the_panel_not_the_trades(tmp_path):
    # the first fill pass keeps no trade and the ledger is written a block at a
    # time: six times the hours (and the trades) may raise the peak of booking
    # and writing by the panel's growth and one block, not by the trades
    n, tickers = 20, [f"T{i}" for i in range(20)]

    def peak(hours):
        rng = np.random.default_rng(1)
        prices = np.exp(np.cumsum(rng.normal(0, 0.01, (n, hours)), axis=1))
        tracemalloc.start()
        try:
            res = run_market_meanrev(prices, tickers, strategy_config())
            res.ledger.write_csv(tmp_path / f"ledger_{hours}.csv")
            return tracemalloc.get_traced_memory()[1], len(res.ledger)
        finally:
            tracemalloc.stop()

    hours = 2 * backtest._BLOCK_HOURS
    (one, trades), (six, six_trades) = peak(hours), peak(6 * hours)
    assert six_trades > 5 * trades > 5 * 10 * hours         # about 20 trades an hour
    block = 2 * n * backtest._BLOCK_HOURS * 8
    assert six - one < n * 5 * hours * 8 + block, (one, six)
