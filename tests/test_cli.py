"""The command-line driver end to end on a small generated market."""

import json

import numpy as np
import pytest

from oracles import estimate_cov_loop, multi_year_returns_loop, write_corr_vs_tau_csv_loop
from vartau import cli
from vartau.candles import CandleSeries, parse_candles, write_candles
from vartau.clock import ClockKind, build_clock
from vartau.covariance import corr_vs_tau
from vartau.synthetic import random_walk_candles

YEARS = (2021, 2022)
# minutes between candles, one ticker each: every ticker trades up to the
# last transaction hours of a year and from the first of the next
SPACINGS = (60, 90, 120, 150, 180, 240)


def market(years=YEARS, spacings=SPACINGS) -> dict[str, CandleSeries]:
    out = {}
    for i, spacing in enumerate(spacings):
        parts = [random_walk_candles(f"T{i}", y, 525600 // spacing, spacing,
                                     vol_per_candle=2e-3, seed=10 * i + j)
                 for j, y in enumerate(years)]
        cols = ("timestamps", "open", "high", "low", "close", "volume")
        out[f"T{i}"] = CandleSeries(f"T{i}", *(np.concatenate([getattr(p, c) for p in parts])
                                               for c in cols))
    return out


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    d = tmp_path_factory.mktemp("market")
    for t, s in market().items():
        write_candles(d / f"{t}.csv", s)
    return d


def read_matrix(path):
    header = path.read_text().splitlines()[0].split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def correlate(data, out, tau):
    return cli.main(["correlate", "--data-dir", str(data), "--years",
                     ",".join(map(str, YEARS)), "--tau", repr(tau), "--out-dir", str(out)])


@pytest.mark.parametrize("tau", [1.0, 7.0])
def test_correlate_matches_pair_loop(data, tmp_path, tau):
    # 7 does not divide the 8760 hours of a year: the bins of two years
    # once shared grid indices there, and the command crashed
    assert correlate(data, tmp_path, tau) == 0
    tickers, c = read_matrix(tmp_path / "cov.csv")
    _, n_obs = read_matrix(tmp_path / "n_obs.csv")
    assert np.array_equal(c, c.T, equal_nan=True)
    series = {t: parse_candles(data / f"{t}.csv") for t in sorted(market())}
    returns = multi_year_returns_loop(series, YEARS, ClockKind.DOLLAR_WEIGHTED, tau)
    want, want_n, raw = estimate_cov_loop(returns, tau)
    assert tickers == list(returns)
    assert np.array_equal(n_obs, want_n)
    assert np.array_equal(np.isnan(c), np.isnan(want))
    scale = np.sqrt(np.abs(np.outer(np.diag(raw), np.diag(raw))))
    ok = ~np.isnan(want)
    assert ok.sum() > len(c)                    # off-diagonal cells are compared
    assert np.all(np.abs(c[ok] - want[ok]) <= 1e-12 * scale[ok])


def test_manifest_replay_checks_its_inputs(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for t, s in market(years=(2021,), spacings=(600, 900)).items():
        write_candles(data / f"{t}.csv", s)
    out = tmp_path / "out"
    assert cli.main(["clock", "--data-dir", str(data), "--year", "2021",
                     "--out-dir", str(out)]) == 0
    manifest = str(out / "run_manifest.json")
    assert sorted(json.loads((out / "run_manifest.json").read_text())["inputs"]) == \
        [str(data / "T0.csv"), str(data / "T1.csv")]
    assert cli.main(["--manifest", manifest]) == 0

    path = data / "T1.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:5] + lines[6:]))      # one candle deleted
    capsys.readouterr()
    assert cli.main(["--manifest", manifest]) == 3
    assert f"{path} has changed" in capsys.readouterr().err

    path.unlink()
    assert cli.main(["--manifest", manifest]) == 3
    assert f"{path} is missing" in capsys.readouterr().err


def test_byte_order_mark_header_is_read(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    series = market(years=(2021,), spacings=(600,))["T0"]
    write_candles(data / "T0.csv", series)
    path = data / "T0.csv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert cli.main(["clock", "--data-dir", str(data), "--year", "2021",
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert np.array_equal(parse_candles(path).close, series.close)


def test_manifest_replay_rejects_an_added_candle_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for t, s in market(years=(2021,), spacings=(600, 900, 1200)).items():
        write_candles(data / f"{t}.csv", s)
    out = tmp_path / "out"
    assert cli.main(["correlate", "--data-dir", str(data), "--years", "2021",
                     "--out-dir", str(out)]) == 0
    manifest = str(out / "run_manifest.json")
    assert cli.main(["--manifest", manifest]) == 0

    (data / "T9.csv").write_bytes((data / "T0.csv").read_bytes())
    capsys.readouterr()
    assert cli.main(["--manifest", manifest]) == 3
    assert f"{data / 'T9.csv'} was added" in capsys.readouterr().err


def test_repeated_year_is_a_usage_error(data, tmp_path, capsys):
    assert cli.main(["correlate", "--data-dir", str(data), "--years", "2021,2021",
                     "--out-dir", str(tmp_path)]) == 2
    assert "year 2021 is given more than once" in capsys.readouterr().err


def test_years_chain_in_calendar_order(data, tmp_path):
    for years in ("2021,2022", "2022,2021"):
        assert cli.main(["correlate", "--data-dir", str(data), "--years", years,
                         "--out-dir", str(tmp_path / years)]) == 0
    assert (tmp_path / "2021,2022" / "cov.csv").read_bytes() == \
        (tmp_path / "2022,2021" / "cov.csv").read_bytes()


def test_corr_vs_tau_csv_matches_second_binning_pass(tmp_path):
    # the median variogram leaves out T2, whose returns all span more than
    # 3 tau at tau 0.5, and T9, which trades in the year's first 300 hours
    # only and so has one bin at tau 1024
    data = tmp_path / "data"
    data.mkdir()
    series = market(years=(2021,), spacings=(60, 90, 120))
    series["T9"] = random_walk_candles("T9", 2021, 300, 60, vol_per_candle=2e-3, seed=99)
    for t, s in series.items():
        write_candles(data / f"{t}.csv", s)
    grid = np.array([0.5, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0])
    assert cli.main(["correlate", "--data-dir", str(data), "--years", "2021",
                     "--tau-grid", ",".join(map(repr, grid.tolist())),
                     "--out-dir", str(tmp_path / "out")]) == 0
    series = {t: parse_candles(data / f"{t}.csv") for t in sorted(series)}
    clock = build_clock(series.values(), ClockKind.DOLLAR_WEIGHTED, 2021)
    _, _, v = corr_vs_tau(series, clock, grid)
    assert np.isnan(v).any(axis=1).tolist() == [False, False, True, True]
    write_corr_vs_tau_csv_loop(series, clock, grid, 1.0, tmp_path / "want.csv")
    assert (tmp_path / "out" / "corr_vs_tau.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("row, message", [("0.0,x", "could not convert string to float: 'x'"),
                                          ("0.5", "expected 2 fields, got 1")])
def test_bad_coefficients_file_exits_3(data, tmp_path, capsys, row, message):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text(f"T0,T1\n0.0,0.5\n{row}\n")
    assert cli.main(["backtest", "--strategy", "xcorr", "--data-dir", str(data),
                     "--years", "2021", "--coeffs", str(coeffs),
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{coeffs}:3: {message}" in capsys.readouterr().err


def panel_text(cells) -> str:
    return "year,hour,price\n" + "".join(f"{y},{h},{p}\n" for y, h, p in cells)


GOOD_PANEL = [(y, h, 1.0 + 0.01 * h) for y in range(2) for h in range(4)]


@pytest.mark.parametrize("cells, message", [
    (GOOD_PANEL[:-1] + [(1, 3, "x")], ":9: cannot read '1,3,x'"),
    (GOOD_PANEL + [(1, 3, 1.0)], ":10: year 1, hour 3 repeats line 9"),
    (GOOD_PANEL[:-1] + [(-1, 3, 1.0)], ":9: want a whole year and hour from 0"),
], ids=["non_numeric", "repeated_cell", "negative_year"])
def test_bad_panel_file_exits_3(tmp_path, capsys, cells, message):
    panel = tmp_path / "panel.csv"
    panel.write_text(panel_text(cells))
    assert cli.main(["backtest", "--strategy", "sim-meanrev", "--panel", str(panel),
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{panel}{message}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--tau", "nan"], ["--tau", "inf"], ["--tau-grid", "0.5,nan,4"],
    ["--tau-grid", "0.5,1,inf"], ["--tau-grid", "0.5:inf:10"],
    ["--tau-grid", "0.5,1,2", "--normalize-at", "nan"],
    ["--tau-grid", "0.5,1,2", "--normalize-at", "-1"],
    ["--tau-grid", "0.5,1,2", "--normalize-at", "4"],
])
def test_correlate_rejects_bad_tau_flags(data, tmp_path, capsys, flags):
    assert cli.main(["correlate", "--data-dir", str(data), "--years", "2021", *flags,
                     "--out-dir", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--tau-grid", "0.5,1,inf"], ["--tau-grid", "0.5,nan,4"],
    ["--normalize-at", "nan"], ["--normalize-at", "500"],
])
def test_variogram_rejects_bad_tau_flags(data, tmp_path, capsys, flags):
    assert cli.main(["variogram", "--data-dir", str(data), "--year", "2021", *flags,
                     "--out-dir", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err
