"""The vectorised layers against the loops they replaced.

``oracles.py`` keeps the loops. Parsing is compared on generated files
with shuffled rows, blank and whitespace-only lines, mixed line endings,
quoted and padded fields, exponents and signs; simulated panels and
prediction coefficients in the same layouts must read back exactly as
their plain files do; the clock and the binning
on generated candles and coordinates, some on bin edges and one ulp to
either side. Their results must be equal, not close, as must each ticker's
chained grid returns and the hourly panel against loops that bin one year
at a time, on one to three years' candles. The grid covariance
and rho(tau) are compared with the pair loops on generated return series
and candles, with gaps, unequal elapsed times and pairs that never
overlap: counts and missing cells must be equal and values within 1e-12
relative, because the grid product sums in another order. The FFT
simulation's log prices, convolved a year block at a time, are compared
with ``np.convolve`` of the same normals and kernel on generated exponents
and panel shapes, within 1e-12. The shot-noise
log price is compared with the exact sum over every (hour, event) pair on
generated parameters and events, and every CSV writer with the
``csv.writer`` rows byte for byte, on generated floats with NaN, +-inf,
-0.0 and subnormals and tickers that need quoting, with ``write_table``'s
blocks cut to 3 and 20 cells as well as at their default. The block-wise
backtests are compared with their hour loops on generated gappy prices
with exact ties and one-sided hours, across block boundaries. The prediction report is compared
with exact per-ticker sums over a loop's predictions on generated coefficients and
returns with NaN cells, tickers with no observed return and rows of zero
coefficients, with its column blocks cut to 1, 7 and 40 cells as well as at their
default: within 1e-12 relative, and the plain squared correlation within 1e-12 of
its value from the |products|.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (BALANCE_TOL, LedgerRows, bin_coordinates_unique, build_clock_dict,
                     build_clock_unique, build_panel_loop, build_then_filter, candle_cov,
                     corr_vs_tau_loop, ledger_rows, multi_year_bins_loop, naive_scores,
                     parse_candles_loop, predict_loop, prediction_scores, run_market_meanrev_loop,
                     run_xcorr_strategy_loop, shot_logp_loop, simulate_shot_noise_loop,
                     support_cov_loop, support_hy_loop, txn_candles,
                     write_candles_csv_rows, write_clock_csv_rows, write_corr_vs_tau_csv_rows,
                     write_ensemble_csv_rows, write_equity_csv_rows, write_ledger_csv_rows,
                     write_matrix_csv_rows, write_panel_csv_rows, write_variogram_csv_rows,
                     write_yearly_returns_csv_rows)
from test_backtest import gappy_prices
from vartau import backtest, candles, covariance, predictor
from vartau.backtest import (EquityCurve, StrategyConfig, TradeLedger, run_market_meanrev,
                             run_xcorr_strategy)
from vartau.candles import (CSV_HEADER, CandleSeries, bin_coordinates,
                            parse_candles, write_candles, write_table)
from vartau.clock import ClockKind, ClockMap, build_clock, hours_in_year, year_bounds
from vartau.covariance import CorrMatrix, CovMatrix, corr_vs_tau, pair_stats
from vartau.errors import DataError
from vartau.hurst import (PANEL_HEADER, HurstParams, PricePanel, SimConfig, _postprocess,
                          _shot_logp, read_panel_csv, sampled_kernel, simulate_fbm,
                          simulate_shot_noise)
from vartau.panel import build_panel, grid_bins
from vartau.predictor import PredictionCoeffs, market_mode, prediction_report, read_coeffs_csv
from vartau.synthetic import point_candles
from vartau.variogram import PERCENTILES, Variogram, default_tau_grid

T0, T1 = year_bounds(2021)

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
    for row in rows:
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", " ", "\t", "  \t  "])))
        lines.append([decorate(draw, (int_text if isinstance(x, int) else float_text)(draw, x))
                      for x in row])
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in range(len(lines) + 1)]
    if not draw(st.booleans()):
        ends[-1] = ""
    return lines, ends


def render(lines, ends, header=CSV_HEADER) -> str:
    text = ",".join(header) + ends[0]
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
    assert got.open is None                     # a parsed series holds no bars
    price = (want.open + want.high + want.low + want.close) / 4.0
    for name, col in (("timestamps", want.timestamps), ("price", price),
                      ("volume", want.volume)):
        assert np.array_equal(getattr(got, name), col), name
        assert getattr(got, name).dtype == col.dtype


# corruptions of one row that the loop and the vectorised parser both reject;
# the first group is described by the same message in both
CHECKED = {
    "off_minute": lambda t, o, h, l, c, v: (t + 30, o, h, l, c, v),
    "high_below": lambda t, o, h, l, c, v: (t, o, min(o, c) / 2, min(o, c) / 4, c, v),
    "low_above": lambda t, o, h, l, c, v: (t, o, h, max(o, c) * 2, c, v),
    "negative_volume": lambda t, o, h, l, c, v: (t, o, h, l, c, -1.0),
    "zero_prices": lambda t, o, h, l, c, v: (t, 0.0, 0.0, 0.0, 0.0, v),
    "huge_high": lambda t, o, h, l, c, v: (t, o, 2.0**1000, l, c, v),
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
def panel_tables(draw):
    """A panel's header, its cells as rows in any order, and the panel."""
    ny, nh = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    p = np.array([[draw(prices) for _ in range(nh)] for _ in range(ny)])
    cells = [(y, h, float(p[y, h])) for y in range(ny) for h in range(nh)]
    return PANEL_HEADER, draw(st.permutations(cells)), PricePanel(p)


@st.composite
def coeff_tables(draw):
    """A coefficient matrix's ticker header, its rows, and the coefficients."""
    n = draw(st.integers(1, 4))
    b = np.array([[draw(st.floats(-1e3, 1e3)) for _ in range(n)] for _ in range(n)])
    tickers = [f"T{i}" for i in range(n)]
    return tickers, [tuple(map(float, row)) for row in b], PredictionCoeffs(tickers, b)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["panel", "coeffs"]))
def test_tables_read_alike_in_every_layout(data, kind):
    # one syntax for every table: what a candle file may hold, a panel or
    # coefficient file may hold too, and it reads back as the plain file does
    tables, read = {"panel": (panel_tables, read_panel_csv),
                    "coeffs": (coeff_tables, read_coeffs_csv)}[kind]
    header, rows, table = data.draw(tables())
    lines, ends = data.draw(layouts(rows))
    bom = data.draw(st.sampled_from(["", "\ufeff"]))
    with tempfile.TemporaryDirectory() as tmp:
        plain = Path(tmp) / "plain.csv"
        table.write_csv(plain)
        want, got = read(plain), read(write(tmp, bom + render(lines, ends, header)))
    for name, col in vars(table).items():
        assert np.array_equal(getattr(want, name), col), name
        assert np.array_equal(getattr(got, name), col), name


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
    assert np.array_equal(got.knots_txn, np.minimum(want.knots_txn, hours_in_year(2021)))
    assert got.knots_txn[-1] == hours_in_year(2021)


@st.composite
def year_markets(draw):
    """1-6 tickers' candles in 2020 or 2021 on a shared pool of minutes.

    The pool holds the year's first and last minutes, minutes on either
    side of the year, and a stretch every ticker may trade, so minutes
    overlap; about one candle in eight has zero volume.
    """
    year = draw(st.sampled_from([2020, 2021]))
    t0, t1 = year_bounds(year)
    end = (t1 - t0) // 60
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.concatenate([np.arange(-20, 40), np.arange(end // 2, end // 2 + 40),
                           np.arange(end - 40, end + 20)])
    series = []
    for i in range(draw(st.integers(1, 6))):
        n = draw(st.integers(0, len(pool)))
        minutes = np.sort(rng.choice(pool, size=n, replace=False))
        px = rng.lognormal(3.0, 1.0, (4, n))
        vol = np.where(rng.random(n) < 0.125, 0.0, np.floor(rng.lognormal(5.0, 2.0, n)))
        series.append(CandleSeries(f"S{i}", t0 + 60 * minutes, *px, vol))
    return series, year


@settings(max_examples=200, deadline=None)
@given(year_markets(), st.sampled_from([ClockKind.DOLLAR_WEIGHTED, ClockKind.VOLUME_WEIGHTED]))
def test_build_clock_matches_unique(market, kind):
    series, year = market
    try:
        want = build_clock_unique(series, kind, year)
    except DataError as exc:
        with pytest.raises(DataError, match=re.escape(str(exc))):
            build_clock(series, kind, year)
        return
    got = build_clock(series, kind, year)
    assert np.array_equal(got.knots_clock, want.knots_clock)
    assert np.array_equal(got.knots_txn, want.knots_txn)
    assert got.knots_txn[-1] == hours_in_year(year)


@settings(max_examples=50, deadline=None)
@given(year_markets(), st.sampled_from([ClockKind.DOLLAR_WEIGHTED, ClockKind.VOLUME_WEIGHTED]),
       st.integers(1, 59))
def test_build_clock_rejects_off_minute_stamps(market, kind, second):
    series, year = market
    t0, _ = year_bounds(year)
    odd = CandleSeries("ODD", [t0 + 3600 + second], [1.0], [1.0], [1.0], [1.0], [1.0])
    with pytest.raises(DataError, match="ODD: timestamp .* is not a minute boundary"):
        build_clock([*series, odd], kind, year)


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
def multi_year_markets(draw):
    """One to three consecutive years, 2020 among them at times, and a few tickers.

    A ticker's candles fall at random minutes of each year's first 300
    hours, with whole volumes, and it may have fewer than two in a year; T0
    has two or more in each, so every year has a clock. Half the time a year
    also gets a zero-volume candle at hour 600, after all of the year's
    weight, where the volume clock puts it at the year's last transaction hour.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    first = draw(st.sampled_from([2019, 2020, 2021]))
    years = list(range(first, first + draw(st.integers(1, 3))))
    series = {}
    for i in range(draw(st.integers(1, 4))):
        ts, vol = [], []
        for y in years:
            n = max(2 * (i == 0), draw(st.sampled_from([0, 1, 2, 5, 300])))
            minutes = np.sort(rng.choice(300 * 60, size=n, replace=False))
            end = [600 * 60] if rng.random() < 0.5 else []
            ts.append(year_bounds(y)[0] + 60 * np.append(minutes, end).astype(np.int64))
            vol.append(np.append(rng.integers(1, 100, n), np.zeros(len(end))))
        ts, vol = np.concatenate(ts), np.concatenate(vol)
        p = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.003, len(ts))))
        series[f"T{i}"] = CandleSeries(f"T{i}", ts, p, p, p, p, vol)
    return series, years


@settings(max_examples=150, deadline=None)
@given(multi_year_markets(),
       st.sampled_from([ClockKind.VOLUME_WEIGHTED, ClockKind.DOLLAR_WEIGHTED]),
       st.sampled_from([1.0, 10.0, 24.0, 7.0, 0.1]))
def test_grid_bins_match_year_loop(market, kind, tau):
    # the year's last transaction hour starts a bin past the year's block at
    # tau 1, 10 and 24 (24 in leap years too); it falls in the last bin at 7
    # and at 0.1, which as a float is a little over a tenth
    series, years = market
    want = multi_year_bins_loop(series, years, kind, tau)
    candles = txn_candles(series.values(), [build_clock(series.values(), kind, y) for y in years])
    got = {t: bins for t, bins in zip(candles.tickers, grid_bins(candles, tau)) if len(bins[0])}
    assert list(got) == list(want)
    for t, bins in got.items():
        for field, a, b in zip(("index", "time", "price"), bins, want[t]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (t, field)


@settings(max_examples=150, deadline=None)
@given(multi_year_markets(),
       st.sampled_from([ClockKind.VOLUME_WEIGHTED, ClockKind.DOLLAR_WEIGHTED]),
       st.sampled_from([1.0, 24.0, 7.0, 0.1]), st.integers(0, 8))
def test_estimate_cov_matches_pair_loop(market, kind, tau, min_obs):
    # the years chain: a ticker's return from its last bin of one year to its
    # first of the next overlaps the other tickers' returns across the boundary
    series, years = market
    bins = {t: b for t, b in multi_year_bins_loop(series, years, kind, tau).items()
            if len(b[0]) >= 2}
    want, n_obs, scale, doubtful = support_cov_loop([(k, p) for k, _, p in bins.values()],
                                                    min_obs)
    candles = txn_candles(series.values(), [build_clock(series.values(), kind, y) for y in years])
    got = candle_cov(candles, tau, min_obs)
    assert got.tickers == list(bins) and np.array_equal(got.n_obs, n_obs)
    sure = ~np.logical_or.outer(doubtful, doubtful)
    assert np.array_equal(np.isnan(got.c)[sure], np.isnan(want)[sure])
    ok = sure & ~np.isnan(want)
    assert np.all(np.abs(got.c - want)[ok] <= 1e-12 * scale[ok])


@settings(max_examples=150, deadline=None)
@given(multi_year_markets(), st.sampled_from(list(ClockKind)))
def test_build_panel_matches_year_loop(market, kind):
    # a zero-volume candle at a year's last transaction hour is dropped, and
    # a ticker with fewer than two candles in a year leaves that block NaN
    series, years = market
    tickers, want = build_panel_loop(series, years, kind)
    got = build_panel(txn_candles(series.values(), [build_clock(series.values(), kind, y)
                                           for y in years]))
    assert got.tickers == tickers and got.years == years
    assert [b.stop - b.start for b in got.blocks] == [hours_in_year(y) for y in years]
    assert got.price.dtype == want.dtype and got.price.tobytes() == want.tobytes()


@st.composite
def active_hour_markets(draw):
    """Identity-clock candles of one to four tickers over one or two years, on
    whole hours: in each year all of them, all but a few, or a few (maybe none
    or one, which leaves the year's columns empty)."""
    years = draw(st.sampled_from([[2021], [2020, 2021]]))
    series = {}
    for i in range(draw(st.integers(1, 4))):
        ts = []
        for y in years:
            width = hours_in_year(y)
            few = draw(st.sets(st.integers(0, width - 1), max_size=30))
            hours = draw(st.sampled_from([set(range(width)) - few, few]))
            ts.append(year_bounds(y)[0] + 3600 * np.array(sorted(hours), dtype=np.int64))
        ts = np.concatenate(ts)
        series[f"T{i}"] = point_candles(f"T{i}", ts, 1.0 + np.arange(len(ts)) % 7)
    clocks = [build_clock(series.values(), ClockKind.CLOCK, y) for y in years]
    return txn_candles(series.values(), clocks)


@settings(max_examples=100, deadline=None)
@given(active_hour_markets(), st.data())
def test_build_panel_share_matches_build_then_filter(candles, data):
    # the share is some ticker-year's own share of its year, or the float
    # next to it on either side, so that the ticker sits on the boundary
    full = build_panel(candles)
    counts = [(np.isfinite(full.price[:, sl]).sum(axis=1), sl.stop - sl.start)
              for sl in full.blocks]
    exact = {float(c) / w for cs, w in counts for c in cs.tolist() if c}
    shares = sorted({x for s in exact for x in (s, np.nextafter(s, 0), np.nextafter(s, 2))
                     if 0 < x <= 1} | {1.0})
    share = data.draw(st.sampled_from(shares))
    try:
        tickers, want = build_then_filter(candles, share)
    except DataError:
        with pytest.raises(DataError, match="no tickers pass the eligibility filter"):
            build_panel(candles, share)
        return
    got = build_panel(candles, share)
    assert got.tickers == tickers and got.blocks == full.blocks
    assert got.price.dtype == want.dtype and got.price.tobytes() == want.tobytes()


@st.composite
def bin_sets(draw, block=100):
    """A few tickers' rows of bins on a shared grid, as ``grid_bins`` yields them.

    Each row's grid indices are its own random subset of the grid: its first
    100 columns, the columns on and beside the first two multiples of
    ``block``, and column 4 * block + 1 (gaps, rows that never meet, and at
    the larger blocks a return that spans block 3, which holds no column).
    A row may hold no bin or one; about a third of the rows start on a
    multiple of ``block``. Returns (rows, grid width), the width at most two
    columns past the last index.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = block * np.arange(1, 3)
    pool = np.unique(np.concatenate([np.arange(100), edges - 1, edges, edges + 1,
                                     [4 * block + 1]]))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        idx = np.sort(rng.choice(pool, size=draw(st.integers(0, 60)), replace=False))
        if rng.random() < 0.35:
            e = rng.choice(edges)
            idx = np.concatenate(([e], idx[idx > e]))
        price = 50.0 * np.exp(np.cumsum(rng.normal(0, 0.01, len(idx))))
        rows.append((idx.astype(np.int64), np.zeros(len(idx)), price))
    return rows, int(pool[-1]) + 1 + draw(st.integers(0, 2))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([1, 3, 7, 100, covariance._BLOCK_BINS]))
def test_grid_cov_matches_pair_loop(data, block):
    rows, width = data.draw(bin_sets(block))
    want, want_n, scale = support_hy_loop([(k, p) for k, _, p in rows])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covariance, "_BLOCK_BINS", block)
        got, n_obs, steps = pair_stats(iter(rows), width)
    assert np.array_equal(n_obs, want_n)
    ends = np.array([(k[0], k[-1]) if len(k) >= 2 else (0, 0) for k, _, _ in rows]).reshape(-1, 2)
    want_steps = [[max(0, min(a[1], b[1]) - max(a[0], b[0])) for b in ends] for a in ends]
    assert steps.tolist() == want_steps
    assert np.array_equal(got, got.T)
    assert np.all(np.abs(got - want) <= 1e-12 * scale)


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
@given(candle_sets(), st.sampled_from([1.0, 1.5, 0.1, 9.0]))
def test_corr_vs_tau_matches_pair_loop(series, tau0):
    clock = build_clock(series.values(), ClockKind.CLOCK, 2021)
    grid = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
    want_pairs, want, want_v, doubtful = corr_vs_tau_loop(series, clock, grid, tau0)
    tickers, got, v = corr_vs_tau(txn_candles(series.values(), [clock]), grid, tau0)
    assert [(tickers[i], tickers[j])
            for i, j in zip(*np.triu_indices(len(tickers), 1))] == want_pairs
    got, want = got[~doubtful], want[~doubtful]
    assert np.array_equal(np.isnan(got), np.isnan(want))
    # a cell is c = rho / rho0, rho0 = rho at tau0. Each rho is within
    # e = 1e-12 * s of the loop's, s the row's largest |rho|, so
    # |dc| <= e / |rho0| + |rho| e / rho0^2 = 1e-12 * (s / |rho0|) * (1 + |c|),
    # and s / |rho0| is the curve's largest |value|
    ok = ~np.isnan(want)
    curve_max = np.abs(np.where(ok, want, 0.0)).max(axis=1, keepdims=True)
    bound = 1e-12 * curve_max * (1 + np.abs(want))
    assert np.all(np.abs(got - want)[ok] <= bound[ok])
    assert np.array_equal(np.isnan(v), np.isnan(want_v))
    assert np.allclose(v[~np.isnan(v)], want_v[~np.isnan(want_v)], rtol=1e-12, atol=0)


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


@settings(max_examples=50, deadline=None)
@given(st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True), st.integers(1, 30),
       st.integers(4, 300), st.integers(0, 2**32 - 1))
def test_fbm_blocks_match_direct_convolution(eps, years, hours, seed):
    params, config = HurstParams(eps), SimConfig(years, hours, seed=seed)
    n = years * hours
    normals = np.random.default_rng(seed).standard_normal(n)
    direct = np.convolve(normals, sampled_kernel(params, n))[:n].reshape(years, hours)
    want = np.log(_postprocess(direct, config.target_vol))
    got = np.log(simulate_fbm(params, config).prices)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("eps, delta, rate, years, hours", [
    (0.1, 0.5, 2.0, 1, 1000), (-0.3, 0.5, 5.0, 2, 300), (0.45, 2.5, 3.0, 3, 100),
    (0.05, 0.05, 10.0, 1, 500)])
def test_shot_noise_draws_the_same_events(eps, delta, rate, years, hours):
    params = HurstParams(eps, delta=delta, rate=rate)
    config = SimConfig(years, hours, seed=17)
    got = np.log(simulate_shot_noise(params, config).prices)
    want = np.log(simulate_shot_noise_loop(params, config).prices)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


def written(write, obj, block=None) -> bytes:
    """The bytes ``write`` gives, with ``block`` cells formatted at a time when given."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(candles, "_WRITE_CELLS", block)
        path = Path(tmp) / "out.csv"
        write(obj, path)
        return path.read_bytes()


# cells per write_table block: one row at a time, a few rows, the default
BLOCKS = st.sampled_from([3, 20, None])
ticker_names = st.one_of(st.sampled_from(["A,B", 'Q"X', "\r", "T1", ""]),
                         st.text(alphabet='ab ,"\r\n\t\'', max_size=4))


def float_cells(shape):
    """Float arrays that reach every repr: NaN, +-inf, -0.0, tiny and huge values."""
    return hnp.arrays(np.float64, shape, elements=st.one_of(
        st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324]), st.floats()))


@settings(max_examples=50, deadline=None)
@given(markets(), st.sampled_from(list(ClockKind)), BLOCKS)
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
    """Equal trades, fill prices, quantities, skips and notional; the zero-cost
    run less ``cost`` equal to the loop run at ``cost``.

    Each trade's pnl less ``cost * qty * entry`` is within 1e-12 of the terms
    it adds up, and cum_pnl less the running cost within 1e-12 of the summed
    |pnl| and cost, since either may cancel to near zero. The total less
    ``cost * notional`` is within BALANCE_TOL of the same sums.
    """
    g, w = ledger_rows(got.ledger), want.ledger
    assert got.info == want.info and len(got.ledger) == len(w)
    assert np.array_equal(g.hour, w.hour) and g.hour.dtype == w.hour.dtype
    assert g.ticker == w.ticker
    assert np.array_equal(g.side, w.side) and g.side.dtype == w.side.dtype
    assert np.array_equal(g.entry, w.entry) and np.array_equal(g.exit, w.exit)
    assert np.array_equal(g.qty, w.qty)
    charge = cost * g.qty * g.entry
    terms = np.abs(w.qty * (w.exit - w.entry)) + charge
    assert np.all(np.abs(g.pnl - charge - w.pnl) <= 1e-12 * terms)
    n_hours = len(want.curve.cum_pnl)
    assert len(got.curve.cum_pnl) == n_hours
    charged = np.cumsum(np.bincount(g.hour, charge, n_hours))
    assert np.all(np.abs(got.curve.cum_pnl - charged - want.curve.cum_pnl)
                  <= 1e-12 * terms.sum())
    assert (abs(got.ledger.total_pnl - cost * got.info["notional"] - w.total_pnl)
            <= BALANCE_TOL * terms.sum())
    assert got.ledger.total_pnl == g.total_pnl


@settings(max_examples=200, deadline=None)
@given(backtest_panels(), st.integers(1, 3), st.booleans(), st.sampled_from([0.0, 2e-3]),
       st.sampled_from([3, 1024]))
def test_meanrev_matches_hour_loop(prices, min_side_count, long_only, cost, block):
    tickers = [f"T{i}" for i in range(len(prices))]
    cfg = StrategyConfig(staleness=1, top_fraction=0.05, min_side_count=min_side_count)
    want = run_market_meanrev_loop(prices, tickers, cfg, long_only, cost)
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
    cfg = StrategyConfig(staleness=staleness, top_fraction=top, min_side_count=100)
    want = run_xcorr_strategy_loop(prices, tickers, coeffs, cfg, cost)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backtest, "_BLOCK_HOURS", block)
        got = run_xcorr_strategy(prices, tickers, coeffs, cfg)
    assert_same_backtest(got, want, cost)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(np.int64, n, elements=st.integers(0, 10**6)),
    st.lists(ticker_names, min_size=n, max_size=n),
    hnp.arrays(np.int64, n, elements=st.sampled_from([1, -1])),
    *[hnp.arrays(np.float64, n)] * 4)),
    BLOCKS)
@example((np.array([3, 3]), ["A,B", 'Q"X'], np.array([1, -1]), *[np.array([0.5, -1e-300])] * 4),
         3)
def test_ledger_csv_matches_rows(cols, block):
    # the rows streamed in blocks of one, two and three, and all at once
    rows = LedgerRows(*cols)
    want = written(write_ledger_csv_rows, rows)
    for size in (1, 2, 3, len(rows) or 1):
        blocks = lambda: ([c[lo:lo + size] for c in cols] for lo in range(0, len(rows), size))
        ledger = TradeLedger(blocks, len(rows), 0.0)       # write_csv reads no total
        assert written(TradeLedger.write_csv, ledger, block) == want, size


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("strategy", ["meanrev", "xcorr"])
def test_streamed_ledger_is_the_hour_loops_bytes(strategy, block, tmp_path):
    # trades spread over many blocks of a few hours: ledger.csv and equity.csv
    # are the loop's bytes, and so are the counts of the summary
    rng = np.random.default_rng(5)
    prices = np.exp(np.cumsum(rng.normal(0, 0.01, (9, 60)), axis=1))
    prices[rng.random(prices.shape) < 0.1] = np.nan
    tickers = [f"T{i}" for i in range(len(prices))]
    cfg = StrategyConfig(staleness=1, top_fraction=0.25, min_side_count=2)
    if strategy == "meanrev":
        want = run_market_meanrev_loop(prices, tickers, cfg)
        run = lambda: run_market_meanrev(prices, tickers, cfg)
    else:
        b = rng.uniform(-0.5, 0.5, (len(tickers),) * 2)
        np.fill_diagonal(b, 0.0)
        coeffs = PredictionCoeffs(tickers, b)
        want = run_xcorr_strategy_loop(prices, tickers, coeffs, cfg)
        run = lambda: run_xcorr_strategy(prices, tickers, coeffs, cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backtest, "_BLOCK_HOURS", block)
        got = run()
        assert (written(TradeLedger.write_csv, got.ledger)
                == written(write_ledger_csv_rows, want.ledger))
    assert written(EquityCurve.write_csv, got.curve) == written(write_equity_csv_rows, want.curve)
    assert len(got.ledger) == len(want.ledger) > 5 * block
    assert len(np.unique(want.ledger.hour // block)) > 5        # many blocks trade
    for key in ("notional", "skipped_hours"):
        assert got.info[key] == want.info[key]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: hnp.arrays(np.float64, n)), BLOCKS)
def test_equity_csv_matches_rows(cum_pnl, block):
    curve = EquityCurve(cum_pnl)
    assert (written(EquityCurve.write_csv, curve, block)
            == written(write_equity_csv_rows, curve))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    hnp.arrays(np.int64, n, elements=st.integers(-2**62, 2**62), unique=True),
    *[float_cells(n)] * 5)), BLOCKS)
def test_candles_csv_matches_rows(cols, block):
    series = CandleSeries("T", np.sort(cols[0]), *cols[1:])
    assert (written(lambda s, p: write_candles(p, s), series, block)
            == written(write_candles_csv_rows, series))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    float_cells(n), float_cells(n), hnp.arrays(np.int64, n))), BLOCKS)
def test_variogram_csv_matches_rows(cols, block):
    v = Variogram(*cols)
    assert written(Variogram.write_csv, v, block) == written(write_variogram_csv_rows, v)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.lists(ticker_names, min_size=n, max_size=n), float_cells((n, n)),
    hnp.arrays(np.int64, (n, n)))), BLOCKS)
@example((["A,B", 'Q"X', "\r", ""], np.full((4, 4), -0.0), np.zeros((4, 4), dtype=np.int64)),
         3)
def test_matrix_csvs_match_rows(data, block):
    """cov.csv and n_obs.csv, corr.csv and coeffs_*.csv: a ticker header, one row per ticker."""
    tickers, m, n_obs = data
    cmat = CovMatrix(tickers, m, n_obs)
    assert (written(lambda c, p: c.write_csv(p), cmat, block)
            == written(lambda c, p: write_matrix_csv_rows(c.tickers, c.c, p), cmat))
    # n_obs.csv, as the correlate command writes it
    assert (written(lambda c, p: write_table(p, c.tickers, c.n_obs.T), cmat, block)
            == written(lambda c, p: write_matrix_csv_rows(c.tickers, c.n_obs, p, True), cmat))
    rmat = CorrMatrix(tickers, m)
    assert (written(CorrMatrix.write_csv, rmat, block)
            == written(lambda c, p: write_matrix_csv_rows(c.tickers, c.rho, p), rmat))
    coeffs = PredictionCoeffs(tickers, m)
    assert (written(PredictionCoeffs.write_csv, coeffs, block)
            == written(lambda c, p: write_matrix_csv_rows(c.tickers, c.b, p), coeffs))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    float_cells(n), float_cells((len(PERCENTILES), n)), float_cells(n))), BLOCKS)
def test_cli_tables_match_rows(cols, block):
    """The column lists of the cli's ensemble.csv, corr_vs_tau.csv and yearly_returns.csv."""
    tau, curves, other = cols
    tables = [
        (["tau_hours"] + [f"p{p}" for p in PERCENTILES], [tau, *curves],
         lambda p: write_ensemble_csv_rows(tau, curves, p)),
        (["tau_hours", "p10", "p25", "p50", "p75", "p90", "predicted"], [tau, *curves, other],
         lambda p: write_corr_vs_tau_csv_rows(tau, curves, other, p)),
        (["year", "net_return"], [np.arange(len(other)), other],
         lambda p: write_yearly_returns_csv_rows(other, p)),
    ]
    for header, table, rows in tables:
        assert (written(lambda t, p: write_table(p, header, t), table, block)
                == written(lambda _, p: rows(p), None))


@st.composite
def scored_panels(draw):
    """Coefficients and returns (tickers x hours) with NaN cells, maybe a ticker
    with no observed return, and maybe a row of zero coefficients (hh = 0)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, hours = draw(st.integers(1, 20)), draw(st.integers(1, 30))
    r = rng.normal(0, 0.01, (n, hours))
    b = rng.normal(0, 1, (n, n)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    np.fill_diagonal(b, 0.0)
    r[rng.random((n, hours)) < draw(st.sampled_from([0.0, 0.3]))] = np.nan
    if draw(st.booleans()):
        r[rng.integers(n)] = np.nan
    if draw(st.booleans()):
        b[rng.integers(n)] = 0.0
    return PredictionCoeffs([f"T{i}" for i in range(n)], b), r


@settings(max_examples=300, deadline=None)
@given(scored_panels(), st.sampled_from([1, 7, 40, predictor._SCORE_CELLS]))
def test_prediction_report_matches_per_metric_scores(data, cells):
    b, r = data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(predictor, "_SCORE_CELLS", cells)
        if not (~np.isnan(r)).any(axis=1).any():
            with pytest.raises(DataError, match="no ticker has usable observations"):
                prediction_report(b, r)
            with pytest.raises(DataError):
                prediction_scores(predict_loop(b, r), r)
            return
        got = prediction_report(b, r)
    r_hat = predict_loop(b, r)
    want = prediction_scores(r_hat, r)
    # a squared correlation near 0 cancels in its sum of h*z: it is held to the
    # same sum of |h*z|, as the covariances are to the |products| behind them
    scale = dict(want, fve_plain=prediction_scores(np.abs(r_hat), np.abs(r))["fve_plain"])
    assert got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) <= 1e-12 * scale[k] for k in want)


@settings(max_examples=200, deadline=None)
@given(scored_panels())
def test_naive_row_matches_per_metric_scores(data):
    _, r = data
    r = r[(~np.isnan(r)).sum(axis=1) >= 2]      # a variance needs two observed hours
    if len(r) < 2:
        return
    tickers = [f"T{i}" for i in range(len(r))]
    got = prediction_report(market_mode(tickers, np.nanvar(r, axis=1)), r)
    want = naive_scores(r)
    assert got.keys() == want.keys()
    assert all(abs(got[k] - want[k]) <= 1e-12 * abs(want[k]) for k in want)
