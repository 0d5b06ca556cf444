"""The vectorised layers against the loops they replaced.

``oracles.py`` keeps the loops. Parsing is compared on generated files
with shuffled rows, blank and whitespace-only lines, mixed line endings,
quoted and padded fields, exponents and signs; the clock and the binning
on generated candles and coordinates, some on bin edges and one ulp to
either side. Their results must be equal, not close. The grid covariance
and rho(tau) are compared with the pair loops on generated return series
and candles, with gaps, unequal elapsed times and pairs that never
overlap: counts and missing cells must be equal and values within 1e-12
relative, because the grid product sums in another order. The shot-noise
log price is compared with the exact sum over every (hour, event) pair on
generated parameters and events, and the panel, ledger, equity and clock
CSVs with the ``csv.writer`` rows byte for byte, the last three also with
their writers' blocks cut to 3 rows. The block-wise backtests are compared
with their hour loops on generated gappy prices with exact ties and
one-sided hours, across block boundaries. The prediction report is compared
with the per-metric scores it replaced on generated predictions with NaN
cells, tickers with no observed outcome and rows of zero predictions.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (bin_coordinates_unique, build_clock_dict, corr_vs_tau_loop,
                     estimate_cov_loop, fve, fve_plain, naive_scores, parse_candles_loop,
                     run_market_meanrev_loop,
                     run_xcorr_strategy_loop, shot_logp_loop, simulate_shot_noise_loop,
                     write_clock_csv_rows, write_equity_csv_rows, write_ledger_csv_rows,
                     write_panel_csv_rows)
from test_backtest import gappy_prices
from vartau import backtest, candles, cli
from vartau.backtest import (EquityCurve, StrategyConfig, TradeLedger, run_market_meanrev,
                             run_xcorr_strategy)
from vartau.candles import (CSV_HEADER, CandleSeries, ReturnSeries, bin_coordinates,
                            parse_candles)
from vartau.clock import ClockKind, ClockMap, build_clock, year_bounds
from vartau.covariance import corr_vs_tau, pair_stats, return_grid
from vartau.errors import DataError
from vartau.hurst import (HurstParams, PricePanel, SimConfig, _shot_logp, simulate_fbm,
                          simulate_shot_noise)
from vartau.predictor import PredictionCoeffs, fmse, naive_predict, prediction_report
from vartau.variogram import default_tau_grid

T0, T1 = year_bounds(2021)
COLUMNS = ("timestamps", "open", "high", "low", "close", "volume")

prices = st.floats(1e-3, 1e5, allow_nan=False)


@st.composite
def candle_rows(draw):
    """Valid (t, o, h, l, c, v) tuples with distinct minutes, in any order."""
    minutes = draw(st.lists(st.integers(-5, 60 * 24 * 40), min_size=1,
                            max_size=25, unique=True))
    rows = []
    for m in minutes:
        o, c = draw(prices), draw(prices)
        h = max(o, c) * draw(st.floats(1.0, 1.2))
        lo = min(o, c) * draw(st.floats(0.5, 1.0))
        v = draw(st.one_of(st.floats(0.0, 1e9), st.sampled_from([0.0, -0.0, 1.0])))
        rows.append((T0 + 60 * m, o, h, lo, c, v))
    return rows


def int_text(draw, t):
    return draw(st.sampled_from([str(t), f"+{t}", f"0{t}"]))


def float_text(draw, x):
    # every form reads back as exactly x
    return draw(st.sampled_from([repr(x), f"{x:.17e}", f"{x:+.17g}", f"{x:.17E}"]))


def decorate(draw, text):
    return draw(st.sampled_from([text, f'"{text}"', f"  {text} ", f"\t{text}",
                                 f'" {text}\t"']))


@st.composite
def layouts(draw, rows):
    """Lines of a file: a field list per row, with blank lines in between."""
    lines = []
    for t, *rest in rows:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t  "])))
        lines.append([decorate(draw, int_text(draw, t))]
                     + [decorate(draw, float_text(draw, x)) for x in rest])
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in range(len(lines) + 1)]
    if not draw(st.booleans()):
        ends[-1] = ""
    return lines, ends


def render(lines, ends) -> str:
    text = ",".join(CSV_HEADER) + ends[0]
    for line, end in zip(lines, ends[1:]):
        text += (line if isinstance(line, str) else ",".join(line)) + end
    return text


def write(tmp: str, text: str) -> Path:
    path = Path(tmp) / "T.csv"
    path.write_text(text, newline="")
    return path


def line_of(exc: DataError) -> int:
    return int(re.search(r"\.csv:(\d+): ", str(exc)).group(1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_matches_loop_on_valid_files(data):
    rows = data.draw(candle_rows())
    lines, ends = data.draw(layouts(rows))
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, render(lines, ends))
        want, got = parse_candles_loop(path), parse_candles(path)
    assert got.ticker == want.ticker
    for name in COLUMNS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert getattr(got, name).dtype == getattr(want, name).dtype


# corruptions of one row that the loop and the vectorised parser both reject;
# the first group is described by the same message in both
CHECKED = {
    "off_minute": lambda t, o, h, l, c, v: (t + 30, o, h, l, c, v),
    "high_below": lambda t, o, h, l, c, v: (t, o, min(o, c) / 2, min(o, c) / 4, c, v),
    "low_above": lambda t, o, h, l, c, v: (t, o, h, max(o, c) * 2, c, v),
    "negative_volume": lambda t, o, h, l, c, v: (t, o, h, l, c, -1.0),
    "zero_prices": lambda t, o, h, l, c, v: (t, 0.0, 0.0, 0.0, 0.0, v),
}
UNREADABLE = {
    "short": lambda f: f[:-1],
    "long": lambda f: f + ["1"],
    "text": lambda f: f[:3] + ["abc"] + f[4:],
    "empty": lambda f: f[:5] + [""],
    "float_timestamp": lambda f: [f"{T0}.0"] + f[1:],
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parse_matches_loop_on_one_bad_row(data):
    rows = data.draw(candle_rows())
    bad = data.draw(st.integers(0, len(rows) - 1))
    kind = data.draw(st.sampled_from(sorted(CHECKED) + sorted(UNREADABLE)))
    if kind in CHECKED:
        rows[bad] = CHECKED[kind](*rows[bad])
    lines, ends = data.draw(layouts(rows))
    if kind in UNREADABLE:
        k = [i for i, line in enumerate(lines) if isinstance(line, list)][bad]
        lines[k] = UNREADABLE[kind](lines[k])
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, render(lines, ends))
        with pytest.raises(DataError) as want:
            parse_candles_loop(path)
        with pytest.raises(DataError) as got:
            parse_candles(path)
    assert line_of(got.value) == line_of(want.value)
    if kind in CHECKED:
        assert str(got.value) == str(want.value)


def test_first_bad_line_wins_across_kinds(tmp_path):
    # an invariant broken before an unreadable field: the earlier line is named
    path = write(tmp_path, "timestamp,open,high,low,close,volume\n"
                 "1609459200,10,11,9,10,1\n\n1609459260,10,9,9,10,1\n"
                 "1609459320,10,x,9,10,1\n")
    with pytest.raises(DataError) as want:
        parse_candles_loop(path)
    with pytest.raises(DataError) as got:
        parse_candles(path)
    assert line_of(got.value) == line_of(want.value) == 4


@st.composite
def markets(draw):
    """A few tickers' candles, crowded into minutes at both ends of the year.

    Values come from a seeded generator rather than from hypothesis, whose
    round numbers would add exactly in any order.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    end = (T1 - T0) // 60
    pool = np.concatenate([np.arange(-30, 90), np.arange(end - 60, end + 30)])
    series = []
    for i in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 60))
        minutes = np.sort(rng.choice(pool, size=n, replace=False))
        px = rng.lognormal(3.0, 1.0, (4, n))
        vol = np.floor(rng.lognormal(5.0, 2.0, n))      # whole shares, a few zero
        series.append(CandleSeries(f"S{i}", T0 + 60 * minutes, *px, vol))
    return series


@settings(max_examples=150, deadline=None)
@given(markets(), st.sampled_from([ClockKind.DOLLAR_WEIGHTED, ClockKind.VOLUME_WEIGHTED]))
def test_build_clock_matches_dict(series, kind):
    try:
        want = build_clock_dict(series, kind, 2021)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            build_clock(series, kind, 2021)
        return
    got = build_clock(series, kind, 2021)
    assert np.array_equal(got.knots_clock, want.knots_clock)
    # build_clock clamps the knots that the dict loop let round past the
    # year's hours, which made its knots fall back at the end
    assert np.array_equal(got.knots_txn, np.minimum(want.knots_txn, want.total_txn_hours))
    assert got.total_txn_hours == want.total_txn_hours


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(0.0, 50.0), st.integers(0, 200).map(lambda k: k / 4)),
                max_size=60),
       st.sampled_from([0.25, 0.5, 1.0, 7.3, 1 / 60, 100.0]), st.randoms())
def test_bin_coordinates_matches_unique(coords, tau, rnd):
    coords = np.sort(np.asarray(coords, dtype=float))
    prices = np.array([rnd.uniform(1.0, 100.0) for _ in coords])
    got = bin_coordinates(coords, prices, tau)
    want = bin_coordinates_unique(coords, prices, tau)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


# the variogram command's default grid, the benchmark's rho(tau) grid (15
# points per decade through 1 h) and taus that are not binary fractions
BOUNDARY_TAUS = np.unique(np.concatenate([default_tau_grid(0.0333333, 200, 25),
                                          10 ** (np.arange(-15, 26) / 15),
                                          [0.1, 1 / 3, 7.3]]))


@st.composite
def boundary_coords(draw):
    """Coordinates on k * tau, one ulp to either side of it, and at 0."""
    tau = draw(st.sampled_from(BOUNDARY_TAUS))
    ks = draw(st.lists(st.integers(0, 300_000), max_size=40))
    coords = [0.0]
    for k in ks:
        on = k * tau
        coords.append(draw(st.sampled_from([on, np.nextafter(on, -np.inf),
                                            np.nextafter(on, np.inf)])))
    coords += draw(st.lists(st.floats(0.0, 10_000.0), max_size=10))
    return np.sort(np.asarray(coords, dtype=float)), tau


@settings(max_examples=300, deadline=None)
@given(boundary_coords(), st.randoms())
def test_bin_coordinates_exact_on_bin_edges(data, rnd):
    coords, tau = data
    prices = np.array([rnd.uniform(1.0, 100.0) for _ in coords])
    got = bin_coordinates(coords, prices, tau)
    want = bin_coordinates_unique(coords, prices, tau)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_bin_coordinates_rejects_unsorted():
    with pytest.raises(DataError, match="sorted"):
        bin_coordinates(np.array([0.5, 0.2, 1.5]), np.ones(3), 1.0)


@st.composite
def return_sets(draw):
    """A few tickers' return series on a shared grid of start indices.

    Each series starts from its own random subset of the grid (gaps, and
    pairs that may never meet); elapsed times straddle the dt band, some
    at or below zero.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tau = draw(st.sampled_from([1 / 60, 0.5, 1.0, 7.0]))
    out = {}
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(0, 60))
        idx = np.sort(rng.choice(np.arange(100), size=n, replace=False))
        dt = tau * rng.choice([rng.uniform(0.05, 4.0), 3.0, 1.0, 0.0], size=n,
                              p=[0.85, 0.05, 0.05, 0.05])
        out[f"T{i}"] = ReturnSeries(tau, rng.normal(0, 0.01, n), dt, idx.astype(np.int64))
    return out, tau


@settings(max_examples=200, deadline=None)
@given(return_sets(), st.integers(0, 6))
def test_grid_cov_matches_pair_loop(data, min_obs):
    returns, tau = data
    want, want_n, raw = estimate_cov_loop(returns, tau, min_obs)
    got, n_obs = pair_stats(*return_grid(returns.values(), (len(returns), 100), tau))
    got[n_obs < max(min_obs, 2)] = np.nan
    assert np.array_equal(n_obs, want_n)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got, got.T, equal_nan=True)
    scale = np.sqrt(np.abs(np.outer(np.diag(raw), np.diag(raw))))
    ok = ~np.isnan(want)
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * scale[ok])


@st.composite
def candle_sets(draw):
    """A few tickers' one-price candles at random minutes of the year's first 300 hours."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = {}
    for i in range(draw(st.integers(1, 5))):
        n = draw(st.integers(0, 400))
        minutes = np.sort(rng.choice(300 * 60, size=n, replace=False))
        p = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.003, n)))
        series[f"S{i}"] = CandleSeries(f"S{i}", T0 + 60 * minutes, p, p, p, p, np.ones(n))
    return series


@settings(max_examples=100, deadline=None)
@given(candle_sets(), st.sampled_from([1.0, 1.5, 0.1, 9.0]), st.integers(0, 30))
def test_corr_vs_tau_matches_pair_loop(series, tau0, min_obs):
    clock = build_clock(series.values(), ClockKind.CLOCK, 2021)
    grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    try:
        want_pairs, want = corr_vs_tau_loop(series, clock, grid, tau0, min_obs)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            corr_vs_tau(series, clock, grid, tau0, min_obs)
        return
    pairs, got, _ = corr_vs_tau(series, clock, grid, tau0, min_obs)
    assert pairs == want_pairs
    assert np.array_equal(np.isnan(got), np.isnan(want))
    # a cell is c = rho / rho0, rho0 = rho at tau0. Each rho is within
    # e = 1e-12 * s of the loop's, s the row's largest |rho|, so
    # |dc| <= e / |rho0| + |rho| e / rho0^2 = 1e-12 * (s / |rho0|) * (1 + |c|),
    # and s / |rho0| is the curve's largest |value|
    ok = ~np.isnan(want)
    curve_max = np.abs(np.where(ok, want, 0.0)).max(axis=1, keepdims=True)
    bound = 1e-12 * curve_max * (1 + np.abs(want))
    assert np.all(np.abs(got - want)[ok] <= bound[ok])


@settings(max_examples=30, deadline=None)
@given(st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True).filter(lambda e: e != 0),
       st.one_of(st.floats(0.05, 3.0), st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                 st.floats(32.0, 50.0, exclude_min=True)),
       st.floats(0.5, 10.0), st.integers(4, 3000), st.integers(0, 2**32 - 1))
@example(0.45, 40.5, 2.0, 200, 0)                 # K = ceil(delta) = 41
def test_shot_logp_matches_exact_sum(eps, delta, rate, n, seed):
    params = HurstParams(eps, delta=delta, rate=rate)
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, n, rng.poisson(rate * n)))
    # some events on quarter hours, so that phi = 0 and u = delta occur
    snap = rng.random(len(times)) < 0.3
    times = np.sort(np.where(snap, np.floor(times * 4) / 4, times))
    amps = rng.normal(0.0, 1.0, len(times))
    got = _shot_logp(params, n, times, amps)
    want = shot_logp_loop(params, n, times, amps)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(amps).sum()


@pytest.mark.parametrize("eps, delta, rate, years, hours", [
    (0.1, 0.5, 2.0, 1, 1000), (-0.3, 0.5, 5.0, 2, 300), (0.45, 2.5, 3.0, 3, 100),
    (0.05, 0.05, 10.0, 1, 500)])
def test_shot_noise_draws_the_same_events(eps, delta, rate, years, hours):
    params = HurstParams(eps, delta=delta, rate=rate)
    config = SimConfig(years, hours, seed=17, method="shot_noise")
    got = np.log(simulate_shot_noise(params, config).prices)
    want = np.log(simulate_shot_noise_loop(params, config).prices)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


def written(write, obj, block=None) -> bytes:
    """The bytes ``write`` gives, with ``block`` rows formatted at a time when given."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(candles, "_WRITE_ROWS", block)
        path = Path(tmp) / "out.csv"
        write(obj, path)
        return path.read_bytes()


@settings(max_examples=50, deadline=None)
@given(markets(), st.sampled_from(list(ClockKind)), st.sampled_from([3, 4096]))
def test_clock_csv_matches_rows(series, kind, block):
    try:
        clock = build_clock(series, kind, 2021)
    except DataError:                   # no candle, or no weight, in the year
        return
    assert written(ClockMap.write_csv, clock, block) == written(write_clock_csv_rows, clock)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(4, 12))))
@example(simulate_fbm(HurstParams(0.05), SimConfig(3, 4, seed=1)).prices)
@example(simulate_fbm(HurstParams(0.05), SimConfig(2, 500, seed=2)).prices)
def test_panel_csv_matches_rows(prices):
    panel = PricePanel(prices)
    assert written(PricePanel.write_csv, panel) == written(write_panel_csv_rows, panel)


@st.composite
def backtest_panels(draw):
    """``gappy_prices`` with exact ties and hours in which one side cannot fill.

    Some rows repeat others, so their returns tie exactly; in some hours every
    name that fell two hours before loses its price, so mean reversion's long
    side has nothing to enter.
    """
    prices = draw(gappy_prices(max_n=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, hours = prices.shape
    copies = rng.random(n) < draw(st.sampled_from([0.0, 0.4]))
    prices[copies] = prices[rng.integers(0, n, n)[copies]]
    for c in np.flatnonzero(rng.random(hours) < 0.15):
        if c >= 2:
            prices[prices[:, c - 1] < prices[:, c - 2], c] = np.nan
    return prices


def assert_same_backtest(got, want, cost):
    """Equal trades, fill prices and skips; quantities within their rounding.

    The loop normalizes a side's weights twice and the blocks once, and sums
    the hourly pnl in another order, so qty may differ in the last bits. A
    trade's pnl is within 1e-12 of the terms it subtracts, and cum_pnl within
    1e-12 of the summed |pnl| it adds up, since either may cancel to near zero.
    """
    g, w = got.ledger, want.ledger
    assert got.info == want.info
    assert np.array_equal(g.hour, w.hour) and g.hour.dtype == w.hour.dtype
    assert g.ticker == w.ticker
    assert np.array_equal(g.side, w.side) and g.side.dtype == w.side.dtype
    assert np.array_equal(g.entry, w.entry) and np.array_equal(g.exit, w.exit)
    assert np.all(np.abs(g.qty - w.qty) <= 1e-12 * np.abs(w.qty))
    terms = np.abs(w.qty * (w.exit - w.entry)) + cost * w.qty * w.entry
    assert np.all(np.abs(g.pnl - w.pnl) <= 1e-12 * terms)
    assert np.array_equal(got.curve.hours, want.curve.hours)
    assert np.all(np.abs(got.curve.cum_pnl - want.curve.cum_pnl)
                  <= 1e-12 * np.abs(w.pnl).sum())


@settings(max_examples=200, deadline=None)
@given(backtest_panels(), st.integers(1, 3), st.booleans(), st.sampled_from([0.0, 2e-3]),
       st.sampled_from([3, 1024]))
def test_meanrev_matches_hour_loop(prices, min_side_count, long_only, cost, block):
    tickers = [f"T{i}" for i in range(len(prices))]
    cfg = StrategyConfig(min_side_count=min_side_count, cost_per_round_trip=cost)
    want = run_market_meanrev_loop(prices, tickers, cfg, long_only)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backtest, "_BLOCK_HOURS", block)
        got = run_market_meanrev(prices, tickers, cfg, long_only)
    assert_same_backtest(got, want, cost)


@settings(max_examples=200, deadline=None)
@given(backtest_panels(), st.integers(0, 2), st.sampled_from([0.1, 0.25, 0.5]),
       st.sampled_from([0.0, 2e-3]), st.booleans(), st.integers(0, 2**32 - 1),
       st.sampled_from([3, 1024]))
def test_xcorr_matches_hour_loop(prices, staleness, top, cost, zero_b, seed, block):
    n = len(prices)
    b = np.zeros((n, n)) if zero_b else np.random.default_rng(seed).uniform(-0.5, 0.5, (n, n))
    np.fill_diagonal(b, 0.0)
    tickers = [f"T{i}" for i in range(n)]
    coeffs = PredictionCoeffs(tickers, b)
    cfg = StrategyConfig(staleness=staleness, top_fraction=top, cost_per_round_trip=cost)
    want = run_xcorr_strategy_loop(prices, tickers, coeffs, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backtest, "_BLOCK_HOURS", block)
        got = run_xcorr_strategy(prices, tickers, coeffs, cfg)
    assert_same_backtest(got, want, cost)


ticker_names = st.one_of(st.sampled_from(["A,B", 'Q"X', "T1", ""]),
                    st.text(alphabet='ab ,"\r\n\t\'', max_size=4))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(np.int64, n, elements=st.integers(0, 10**6)),
    st.lists(ticker_names, min_size=n, max_size=n),
    hnp.arrays(np.int64, n, elements=st.sampled_from([1, -1])),
    *[hnp.arrays(np.float64, n)] * 4)),
    st.sampled_from([3, 4096]))
@example((np.array([3, 3]), ["A,B", 'Q"X'], np.array([1, -1]), *[np.array([0.5, -1e-300])] * 4),
         3)
def test_ledger_csv_matches_rows(cols, block):
    ledger = TradeLedger(*cols)
    assert (written(TradeLedger.write_csv, ledger, block)
            == written(write_ledger_csv_rows, ledger))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(np.int64, n, elements=st.integers(-3, 10**6)), hnp.arrays(np.float64, n))),
    st.one_of(st.floats(1e-3, 1e3), st.integers(1, 5)), st.sampled_from([3, 4096]))
def test_equity_csv_matches_rows(cols, stake, block):
    curve = EquityCurve(*cols, stake, len(cols[0]))
    assert (written(EquityCurve.write_csv, curve, block)
            == written(write_equity_csv_rows, curve))


@st.composite
def scored_panels(draw):
    """Predictions and outcomes (tickers x hours) with NaN cells, maybe a ticker
    with no observed outcome, and maybe a row of zero predictions (hh = 0)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, hours = draw(st.integers(1, 20)), draw(st.integers(1, 30))
    r = rng.normal(0, 0.01, (n, hours))
    r_hat = rng.normal(0, 0.01, (n, hours)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    r[rng.random((n, hours)) < draw(st.sampled_from([0.0, 0.3]))] = np.nan
    r_hat[rng.random((n, hours)) < draw(st.sampled_from([0.0, 0.2]))] = np.nan
    if draw(st.booleans()):
        r[rng.integers(n)] = np.nan
    if draw(st.booleans()):
        r_hat[rng.integers(n)] = 0.0
    return r_hat, r


@settings(max_examples=300, deadline=None)
@given(scored_panels())
def test_prediction_report_matches_per_metric_scores(data):
    r_hat, r = data
    usable = (~np.isnan(r)).any(axis=1)
    if not usable.any():
        with pytest.raises(DataError):
            fve(r_hat, r)
        return
    rep = prediction_report(r_hat, r)
    got = (rep.fmse, rep.fve, rep.fve_plain)
    want = (fmse(r_hat, r), fve(r_hat, r), fve_plain(r_hat, r))
    if usable.all():
        assert got == want
    else:
        assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(scored_panels())
def test_naive_row_matches_per_metric_scores(data):
    _, r = data
    r = r[(~np.isnan(r)).sum(axis=1) >= 2]      # a variance needs two observed hours
    if len(r) < 2:
        return
    variances = np.nanvar(r, axis=1)
    assert cli._scores(naive_predict(r, variances), r) == naive_scores(r)
