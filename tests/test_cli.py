"""The command-line driver end to end on a small generated market."""

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (candle_cov, corr_vs_tau_csv_loop, multi_year_bins_loop, support_cov_loop,
                     txn_candles,
                     write_ensemble_csv_rows, write_yearly_returns_csv_rows)
from vartau import backtest, candles, cli, commands, covariance, hurst, predictor, variogram
from vartau import clock as clock_module
from vartau.backtest import run_sim_meanrev
from vartau.candles import CandleSeries, parse_candles, write_candles
from vartau.clock import ClockKind, build_clock, hours_in_year, year_bounds
from vartau.covariance import corr_vs_tau
from vartau.hurst import (HurstParams, SimConfig, read_panel_csv, simulate_fbm,
                          simulate_shot_noise)
from vartau.panel import build_panel
from vartau.predictor import (PredictionCoeffs, default_ridge, invert_with_ridge,
                              loo_coefficients)
from vartau.synthetic import point_candles, random_walk_candles
from vartau.variogram import (Variogram, default_tau_grid, percentile_curves, value_at,
                              variogram_diff_of_avg)

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
    bins = {t: b for t, b in multi_year_bins_loop(series, YEARS, ClockKind.DOLLAR_WEIGHTED,
                                                  tau).items() if len(b[0]) >= 2}
    want, want_n, scale, doubtful = support_cov_loop(list(bins.values()), 50)
    assert tickers == list(bins) and not doubtful.any()
    assert np.array_equal(n_obs, want_n)
    assert np.array_equal(np.isnan(c), np.isnan(want))
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


def test_manifest_records_each_file_as_it_was_parsed(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for t, s in market(years=(2021,), spacings=(600, 900)).items():
        write_candles(data / f"{t}.csv", s)
    parse = candles.parse_candles

    def parse_then_edit(path):
        series = parse(path)
        path.write_bytes(path.read_bytes() + b"\n")    # a blank line: other bytes, same candles
        return series

    monkeypatch.setattr(candles, "parse_candles", parse_then_edit)
    out = tmp_path / "out"
    assert cli.main(["clock", "--data-dir", str(data), "--year", "2021",
                     "--out-dir", str(out)]) == 0
    monkeypatch.undo()
    assert cli.main(["--manifest", str(out / "run_manifest.json")]) == 3
    assert f"{data / 'T0.csv'} has changed" in capsys.readouterr().err


def test_byte_order_mark_header_is_read(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    series = market(years=(2021,), spacings=(600,))["T0"]
    write_candles(data / "T0.csv", series)
    path = data / "T0.csv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert cli.main(["clock", "--data-dir", str(data), "--year", "2021",
                     "--out-dir", str(tmp_path / "out")]) == 0
    assert np.array_equal(parse_candles(path).price, series.price)


def test_manifest_replay_rejects_an_added_candle_file(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for t, s in market(years=(2021,), spacings=(600, 900, 1200)).items():
        write_candles(data / f"{t}.csv", s)
    out = tmp_path / "out"
    assert cli.main(["correlate", "--data-dir", str(data), "--years", "2021",
                     "--out-dir", str(out)]) == 0
    manifest = str(out / "run_manifest.json")
    # the parse cache beside the files is no candle file
    assert len(list((data / ".vartau").iterdir())) == 3
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
    # the median variance leaves out T9, which trades in the year's first 300
    # hours only and so has one bin at tau 1024; T2, whose returns all span
    # more than 3 tau at tau 0.5, is in it
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
    _, _, v = corr_vs_tau(txn_candles(series.values(), [clock]), grid, 1.0)
    assert np.isnan(v).any(axis=1).tolist() == [False, False, False, True]
    got = np.loadtxt(tmp_path / "out" / "corr_vs_tau.csv", delimiter=",", skiprows=1)
    want = corr_vs_tau_csv_loop(series, clock, grid, 1.0)
    # tau and the percentiles of the same curves are equal; the variances
    # behind predicted agree to rounding, each within 1e-12 of its scale
    assert np.array_equal(got[:, :-1], want[:, :-1])
    assert np.allclose(got[:, -1], want[:, -1], rtol=1e-10, atol=0)


@pytest.mark.parametrize("row, message", [("0.0,x", "cannot read T1 from 'x' as float64"),
                                          ("0.5", "expected 2 fields, got 1"),
                                          ("nan,0.0", "coefficients must be finite, got 'nan,0.0'"),
                                          ("0.5,0.25", "ticker 'T1' has coefficient 0.25 on itself")])
def test_bad_coefficients_file_exits_3(data, tmp_path, capsys, row, message):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text(f"T0,T1\n0.0,0.5\n{row}\n")
    assert cli.main(["backtest", "--strategy", "xcorr", "--data-dir", str(data),
                     "--years", "2021", "--coeffs", str(coeffs),
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{coeffs}:3: {message}" in capsys.readouterr().err


def test_repeated_coefficient_ticker_exits_3(data, tmp_path, capsys):
    # T0 named twice once traded T0 twice and dropped T1 without a word
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("T0,T0\n0.0,0.5\n0.5,0.0\n")
    assert cli.main(["backtest", "--strategy", "xcorr", "--data-dir", str(data),
                     "--years", "2021", "--coeffs", str(coeffs),
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{coeffs}:1: ticker 'T0' is given more than once" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (None, "cannot open"), (b"T0,T1\n0.0,0.5\n0.5,0\xe9\n", ":3: byte 0xe9 is not UTF-8"),
], ids=["missing", "non_utf8"])
def test_coefficients_are_read_before_the_market(tmp_path, capsys, content, message):
    # the market is not parsed at all: its one file is not a candle file
    data = tmp_path / "data"
    data.mkdir()
    (data / "T0.csv").write_text("not a candle file\n")
    coeffs = tmp_path / "coeffs.csv"
    if content is not None:
        coeffs.write_bytes(content)
    assert cli.main(["backtest", "--strategy", "xcorr", "--data-dir", str(data),
                     "--years", "2021", "--coeffs", str(coeffs),
                     "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert str(coeffs) in err and message in err


def test_non_utf8_manifest_exits_3(tmp_path, capsys):
    manifest = tmp_path / "run_manifest.json"
    manifest.write_bytes(b'{\n  "command": "clock\xe9"\n}\n')
    assert cli.main(["--manifest", str(manifest)]) == 3
    assert f"{manifest}:2: byte 0xe9 is not UTF-8" in capsys.readouterr().err


def panel_text(cells) -> str:
    return "year,hour,price\n" + "".join(f"{y},{h},{p}\n" for y, h, p in cells)


GOOD_PANEL = [(y, h, 1.0 + 0.01 * h) for y in range(2) for h in range(4)]


@pytest.mark.parametrize("cells, message", [
    (GOOD_PANEL[:-1] + [(1, 3, "x")], ":9: cannot read price from 'x' as float64"),
    (GOOD_PANEL + [(1, 3, 1.0)], ":10: year 1, hour 3 repeats line 9"),
    (GOOD_PANEL[:-1] + [(-1, 3, 1.0)], ":9: want a whole year and hour from 0"),
], ids=["non_numeric", "repeated_cell", "negative_year"])
def test_bad_panel_file_exits_3(tmp_path, capsys, cells, message):
    panel = tmp_path / "panel.csv"
    panel.write_text(panel_text(cells))
    assert cli.main(["backtest", "--strategy", "sim-meanrev", "--panel", str(panel),
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{panel}{message}" in capsys.readouterr().err


def test_non_utf8_panel_exits_3(tmp_path, capsys):
    panel = tmp_path / "panel.csv"
    panel.write_bytes(panel_text(GOOD_PANEL).encode() + b"1,4,1\xe9\n")
    assert cli.main(["backtest", "--strategy", "sim-meanrev", "--panel", str(panel),
                     "--out-dir", str(tmp_path / "out")]) == 3
    assert f"{panel}:10: byte 0xe9 is not UTF-8" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["correlate", "--years", "2021"],
    ["predict", "--train-years", "2021", "--predict-years", "2022"],
], ids=["correlate", "predict"])
def test_negative_min_obs_is_a_usage_error_before_any_file(tmp_path, capsys, argv):
    # --min-obs -3 once ran as 0; the data directory does not exist, so the
    # flag is rejected before any file is looked for
    out = tmp_path / "out"
    assert cli.main([*argv, "--data-dir", str(tmp_path / "none"), "--min-obs", "-3",
                     "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: --min-obs must be non-negative, got -3\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, value", [
    (["correlate", "--years", "2021", "--tau", "1e-16"], "--tau 1e-16"),
    (["correlate", "--years", "2021,2022", "--tau", "1.5e-15"], "--tau 1.5e-15"),
    (["correlate", "--years", "2021", "--tau-grid", "1e-17,1"], "--tau-grid 1e-17"),
    (["variogram", "--year", "2021", "--tau-grid", "1e-17,1"], "--tau-grid 1e-17"),
], ids=["correlate_tau", "correlate_two_years", "correlate_grid", "variogram_grid"])
def test_tau_whose_grid_overflows_int64_is_a_usage_error_before_any_file(tmp_path, capsys,
                                                                         argv, value):
    # --tau 1e-16 once warned in the cast to int64 grid indices, a traceback
    # where a RuntimeWarning is an error, and then exited 3 over row 0's
    # indices; 1.5e-15 fits one year's 8760 hours in int64, not two years'
    out = tmp_path / "out"
    assert cli.main([*argv, "--data-dir", str(tmp_path / "none"), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"usage error: {value} makes a grid of 2**63 or more columns\n"
    assert not out.exists()


def test_tau_whose_grid_fits_int64_runs(data, tmp_path):
    # 8760 / 1.5e-15 columns is under 2**63: every candle gets its own bin
    assert cli.main(["correlate", "--data-dir", str(data), "--years", "2021", "--tau", "1.5e-15",
                     "--min-obs", "0", "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("flags", [
    ["--tau-grid", "0.5,1,inf"], ["--tau-grid", "0.5,nan,4"],
    ["--normalize-at", "nan"], ["--normalize-at", "500"],
])
def test_variogram_rejects_bad_tau_flags(data, tmp_path, capsys, flags):
    assert cli.main(["variogram", "--data-dir", str(data), "--year", "2021", *flags,
                     "--out-dir", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf"])
@pytest.mark.parametrize("flag, code", [
    ("--ridge", 3), ("--cost", 3), ("--stake", 3),
    ("--vol", 3), ("--delta", 3), ("--rate", 3), ("--sigma", 3),
])
def test_non_finite_flag_is_rejected_like_a_negative_one(data, tmp_path, capsys, flag,
                                                          code, value):
    out = tmp_path / "out"
    if flag == "--ridge":
        argv = ["predict", "--data-dir", str(data), "--train-years", "2021",
                "--predict-years", "2022"]
    elif flag in ("--cost", "--stake"):
        argv = ["backtest", "--strategy", "market-meanrev", "--data-dir", str(data),
                "--years", "2021", "--min-side-count", "1"]
    else:
        argv = ["simulate", "--epsilon", "0.1", "--hours-per-year", "50",
                "--method", "shot"]
    if flag in ("--cost", "--stake", "--sigma"):    # retired: only a manifest records a value
        assert cli.main([*argv, "--out-dir", str(tmp_path / "run")]) == 0
        manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
        manifest["args"].update({flag[2:]: float(value), "out_dir": str(out)})
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--manifest", str(tmp_path / "manifest.json")]
    else:
        argv = [*argv, f"{flag}={value}", "--out-dir", str(out)]
    assert cli.main(argv) == code
    assert "data error" in capsys.readouterr().err
    written = {p.name for p in out.glob("*")} if out.exists() else set()
    assert not {"summary.json", "panel.csv"} & written
    assert not [n for n in written if n.startswith("coeffs_")]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "1.5"])
@pytest.mark.parametrize("command", [
    ["predict", "--train-years", "2021", "--predict-years", "2022"],
    ["backtest", "--strategy", "market-meanrev", "--years", "2021", "--min-side-count", "1"],
])
def test_eligibility_fraction_outside_0_1_exits_3(data, tmp_path, capsys, command, value):
    argv = [*command, "--data-dir", str(data), f"--min-active-fraction={value}"]
    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 3
    assert "min_active_fraction must be in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("method, simulate", [("fft", simulate_fbm),
                                              ("shot", simulate_shot_noise)])
def test_simulate_method_picks_the_simulator(tmp_path, method, simulate):
    assert cli.main(["simulate", "--epsilon", "0.1", "--hours-per-year", "50",
                     "--rate", "2", "--seed", "3", "--method", method,
                     "--out-dir", str(tmp_path)]) == 0
    simulate(HurstParams(0.1, rate=2.0), SimConfig(1, 50, seed=3)).write_csv(tmp_path / "want.csv")
    assert (tmp_path / "panel.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("flag, value, message", [
    ("--epsilon", "0.5", "epsilon must be in (-1/2, 1/2), got 0.5"),
    ("--years", "0", "--years must be >= 1, got 0"),
    ("--hours-per-year", "3", "--hours-per-year must be >= 4, got 3"),
    ("--vol", "-1", "--vol must be positive and finite, got -1.0"),
    ("--seed", "-1", "--seed must be >= 0, got -1"),
], ids=["--epsilon-0.5", "--years-0", "--hours-per-year-3", "--vol--1", "--seed--1"])
def test_simulate_value_it_cannot_take_exits_3_before_any_file(tmp_path, capsys, flag,
                                                               value, message):
    # --seed -1 once ended in numpy's traceback, and the others exited 2
    out = tmp_path / "out"
    assert cli.main(["simulate", "--epsilon", "0.1", "--hours-per-year", "50",
                     f"{flag}={value}", "--out-dir", str(out)]) == 3
    assert f"data error: {message}\n" == capsys.readouterr().err
    assert not out.exists()


# For each (command, mode): the base run's flags, and every setting that the
# mode reads with a value off the base run's, which must change an output file.
# The base variogram and correlate runs have a tau grid, so that
# --normalize-at has curves to act on. A cell of --min-obs needs that many
# overlapping pairs of returns of 2021 and that many returns of each ticker:
# in correlate 4000 leaves out T5 (2919 returns). A pair of tickers that
# trade all year has more pairs than either has returns, so the base predict
# run reads the partial market, where T0 and T1 overlap in 996 pairs and
# each ticker it keeps (active in 40 % of the hours) has 3783 returns or
# more, so 2000 imputes only their cell. The base market-meanrev
# run trades one-name sides, so that its other settings have trades to act
# on; the base xcorr run trades the coefficient file's five tickers, so that
# a side of the top fraction can hold two. xcorr does not read
# --min-active-fraction (see test_xcorr_does_not_read_the_eligibility_share).
SETTINGS = {
    ("clock", None): (["--data-dir", "{market}", "--year", "2021"], {
        "--data-dir": "{other}", "--year": "2022", "--kind": "volume"}),
    ("variogram", None): (
        ["--data-dir", "{market}", "--year", "2021", "--tau-grid", "0.25:32:4"], {
            "--data-dir": "{other}", "--year": "2022", "--clock": "volume",
            "--tau-grid": "0.5:32:4", "--normalize-at": "2"}),
    ("correlate", None): (
        ["--data-dir", "{market}", "--years", "2021", "--tau-grid", "0.5,1,2,4"], {
            "--data-dir": "{other}", "--years": "2021,2022", "--kind": "volume",
            "--tau": "2", "--tau-grid": "0.5,1,2,8", "--normalize-at": "2",
            "--min-obs": "4000"}),
    ("predict", None): (
        ["--data-dir", "{partial}", "--train-years", "2021", "--predict-years", "2022",
         "--min-active-fraction", "0.4"], {
            "--data-dir": "{market}", "--train-years": "2022", "--predict-years": "2021",
            "--kind": "volume", "--ridge": "1e-6", "--refine": None, "--min-obs": "2000",
            "--min-active-fraction": "0.45"}),
    ("simulate", "fft"): (["--epsilon", "0.1", "--hours-per-year", "50"], {
        "--epsilon": "0.2", "--years": "2", "--hours-per-year": "60", "--vol": "0.3",
        "--seed": "1", "--delta": "2.0"}),      # at or below 0.5, delta only rescales fft
    ("simulate", "shot"): (["--epsilon", "0.1", "--hours-per-year", "50"], {
        "--epsilon": "0.2", "--years": "2", "--hours-per-year": "60", "--vol": "0.3",
        "--seed": "1", "--delta": "2.0", "--rate": "3"}),
    ("backtest", "sim-meanrev"): (["--panel", "{panel}"], {"--panel": "{panel2}"}),
    ("backtest", "market-meanrev"): (
        ["--data-dir", "{market}", "--years", "2021", "--min-side-count", "1"], {
            "--data-dir": "{other}", "--years": "2021,2022", "--kind": "volume",
            "--min-active-fraction": "0.8", "--min-side-count": "2",
            "--long-only": None}),
    ("backtest", "xcorr"): (
        ["--data-dir", "{market}", "--years", "2021", "--coeffs", "{coeffs}"], {
            "--data-dir": "{other}", "--years": "2021,2022", "--kind": "volume",
            "--coeffs": "{coeffs2}", "--staleness": "2",
            "--top-fraction": "0.5"}),
}


@pytest.fixture(scope="module")
def setting_inputs(tmp_path_factory):
    """Paths for SETTINGS: two markets that differ in T5's spacing, the first
    with T0 cut to the first 52 % of 2021 and T1 to the last 52 % (partial),
    two simulated panels, and two coefficient files for T0-T4.

    In the module's market only T0 has, in one hour, a return and both fill
    prices, so market-meanrev never trades there; here T0, T1 and T2 do, and
    T2 is active in 76 % of the hours of 2021 on the dollar clock."""
    root = tmp_path_factory.mktemp("settings")
    paths = {}
    for name, last in (("market", 180), ("other", 150)):
        paths[name] = root / name
        paths[name].mkdir()
        for t, s in market(spacings=(60, 60, 75, 90, 120, last)).items():
            write_candles(paths[name] / f"{t}.csv", s)
    paths["partial"] = root / "partial"
    paths["partial"].mkdir()
    t0, t1 = year_bounds(2021)
    for t, s in market(spacings=(60, 60, 75, 90, 120, 180)).items():
        a, b = {"T0": (0.52, 1.0), "T1": (0.0, 0.48)}.get(t, (0.0, 0.0))
        keep = (s.timestamps < t0 + a * (t1 - t0)) | (s.timestamps >= t0 + b * (t1 - t0))
        cols = ("timestamps", "open", "high", "low", "close", "volume")
        write_candles(paths["partial"] / f"{t}.csv",
                      CandleSeries(t, *(getattr(s, c)[keep] for c in cols)))
    for name, seed in (("panel", 4), ("panel2", 5)):
        paths[name] = root / f"{name}.csv"
        simulate_fbm(HurstParams(0.1), SimConfig(3, 50, seed=seed)).write_csv(paths[name])
    b = np.random.default_rng(6).uniform(-0.5, 0.5, (5, 5))
    np.fill_diagonal(b, 0.0)
    for name, sign in (("coeffs", 1.0), ("coeffs2", -1.0)):
        paths[name] = root / f"{name}.csv"
        PredictionCoeffs([f"T{i}" for i in range(5)], sign * b).write_csv(paths[name])
    return paths


@pytest.mark.parametrize("command, mode", list(SETTINGS))
def test_every_setting_changes_a_result(setting_inputs, tmp_path, command, mode):
    base, settings = SETTINGS[command, mode]
    picks = ["--method" if command == "simulate" else "--strategy", mode] if mode else []
    head = [command, *picks, *(a.format(**setting_inputs) for a in base)]

    def outputs(*extra):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert cli.main([*head, *extra, "--out-dir", str(out)]) == 0, extra
        return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "run_manifest.json"}

    want = outputs()
    for flag, value in settings.items():
        # the last of a repeated flag wins
        extra = [flag] if value is None else [flag, value.format(**setting_inputs)]
        assert outputs(*extra) != want, f"{command} {mode} {flag} changes nothing"


def test_xcorr_does_not_read_the_eligibility_share(setting_inputs, tmp_path):
    # the share once filtered every ticker first, and at 1.0 it dropped the
    # coefficient file's tickers, so the run exited 3
    def ledger(share):
        out = tmp_path / share
        assert cli.main(["backtest", "--strategy", "xcorr", "--data-dir",
                         str(setting_inputs["market"]), "--years", "2021",
                         "--coeffs", str(setting_inputs["coeffs"]),
                         "--min-active-fraction", share, "--out-dir", str(out)]) == 0
        return (out / "ledger.csv").read_bytes()

    want = ledger("0.3")
    assert want.count(b"\n") > 1 and ledger("1.0") == want


def test_coefficient_ticker_without_a_candle_file_exits_3(data, tmp_path, capsys):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("T0,TX\n0.0,0.5\n0.5,0.0\n")
    out = tmp_path / "out"
    assert cli.main(["backtest", "--strategy", "xcorr", "--data-dir", str(data),
                     "--years", "2021", "--coeffs", str(coeffs), "--out-dir", str(out)]) == 3
    assert (f"data error: coefficient ticker TX has no candle file in {data}\n"
            == capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["sim-meanrev", "xcorr"])
def test_backtest_input_that_changes_while_read_exits_3(setting_inputs, tmp_path, monkeypatch,
                                                        capsys, strategy):
    # the manifest records the digest taken before the file was read; the
    # file once was hashed only after, so the digest could be of other bytes
    flag, module, reader = {"sim-meanrev": ("panel", hurst, "read_panel_csv"),
                            "xcorr": ("coeffs", predictor, "read_coeffs_csv")}[strategy]
    path = tmp_path / f"{flag}.csv"
    path.write_bytes(setting_inputs[flag].read_bytes())
    real = getattr(module, reader)

    def read_then_edit(p):
        got = real(p)
        path.write_bytes(path.read_bytes() + b"\n")     # a blank line: other bytes, same table
        return got

    monkeypatch.setattr(module, reader, read_then_edit)
    argv = ["backtest", "--strategy", strategy, f"--{flag}", str(path)]
    if strategy == "xcorr":
        argv += ["--data-dir", str(setting_inputs["market"]), "--years", "2021"]
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == f"data error: {path} changed while the command read it\n"
    assert not out.exists()
    monkeypatch.undo()
    assert cli.main([*argv, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["inputs"][str(path)] == candles.sha256_file(path)


def test_settings_table_covers_every_option():
    parsers = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    assert set(parsers) == {c for c, _ in SETTINGS}
    for command, parser in parsers.items():
        options = {a.option_strings[-1] for a in parser._actions if a.option_strings}
        covered = set().union(*(flags for (c, _), (_, flags) in SETTINGS.items() if c == command))
        assert options - {"--help", "--out-dir", "--method", "--strategy"} == covered, command


@pytest.mark.parametrize("share", ["0.5", "0.4"])
@pytest.mark.parametrize("train", ["2021", "2021,2022"], ids=["one", "two"])
def test_predict_fits_the_candle_paths_covariances(data, tmp_path, train, share):
    # each training year's covariance is read off its block of the panel; the
    # coefficients are those of a pass over that year's candles of the same tickers
    out = tmp_path / "out"
    assert cli.main(["predict", "--data-dir", str(data), "--train-years", train,
                     "--predict-years", "2022", "--min-active-fraction", share,
                     "--out-dir", str(out)]) == 0
    stream = commands._CandleFiles(str(data))
    view = stream.view([build_clock(stream, ClockKind.DOLLAR_WEIGHTED, y) for y in YEARS])
    tickers = build_panel(view, float(share)).tickers
    assert len(tickers) == (3 if share == "0.5" else 4)      # of 6
    for ty in map(int, train.split(",")):
        cmat = candle_cov(view.select(tickers, ty), 1.0).filled()
        loo_coefficients(invert_with_ridge(cmat, default_ridge(cmat))).write_csv(tmp_path / "want")
        assert (out / f"coeffs_{ty}.csv").read_bytes() == (tmp_path / "want").read_bytes()


def test_refine_does_not_validate_on_a_predict_year(data, tmp_path):
    # a copy of the market whose 2022 prices repeat 2021's: validating on
    # 2022 there picked other coefficients for 2021
    copy = tmp_path / "copy"
    copy.mkdir()
    t0, t1 = year_bounds(2021)
    for t, s in market().items():
        a = s.slice_window(t0, t1)
        bars = [np.tile(getattr(a, c), 2) for c in ("open", "high", "low", "close", "volume")]
        ts = np.concatenate([a.timestamps, a.timestamps + (year_bounds(2022)[0] - t0)])
        write_candles(copy / f"{t}.csv", CandleSeries(t, ts, *bars))
    for d in (data, copy):
        assert cli.main(["predict", "--data-dir", str(d), "--train-years", "2021",
                         "--predict-years", "2022", "--refine",
                         "--out-dir", str(tmp_path / d.name)]) == 0
    assert ((tmp_path / data.name / "coeffs_2021.csv").read_bytes()
            == (tmp_path / copy.name / "coeffs_2021.csv").read_bytes())


@pytest.fixture(scope="module")
def outputs(data, tmp_path_factory):
    """Every command's output directory: the candle commands on the module's
    market, and a simulated panel with its sim-meanrev backtest."""
    root = tmp_path_factory.mktemp("outputs")
    years = ",".join(map(str, YEARS))
    runs = {
        "clock": ["clock", "--data-dir", str(data), "--year", "2021"],
        "variogram": ["variogram", "--data-dir", str(data), "--year", "2021",
                      "--tau-grid", "0.25:32:4"],
        "correlate": ["correlate", "--data-dir", str(data), "--years", years,
                      "--tau-grid", "0.25,0.5,1,2,4,8"],
        "predict": ["predict", "--data-dir", str(data), "--train-years", "2021",
                    "--predict-years", "2022"],
        "meanrev": ["backtest", "--strategy", "market-meanrev", "--data-dir", str(data),
                    "--years", years, "--min-side-count", "1", "--long-only"],
        "xcorr": ["backtest", "--strategy", "xcorr", "--data-dir", str(data),
                  "--years", years, "--coeffs", str(root / "predict" / "coeffs_2021.csv")],
        "simulate": ["simulate", "--epsilon", "0.1", "--years", "3",
                     "--hours-per-year", "200", "--seed", "4"],
        "sim": ["backtest", "--strategy", "sim-meanrev",
                "--panel", str(root / "simulate" / "panel.csv")],
    }
    for name, argv in runs.items():
        assert cli.main([*argv, "--out-dir", str(root / name)]) == 0, name
    return root


def test_every_csv_reads_back_as_its_table(outputs):
    """Each row has the header's field count and each float field is its own repr."""
    files = sorted(outputs.glob("*/*.csv"))
    assert {p.parent.name for p in files} == {"clock", "variogram", "correlate", "predict",
                                              "meanrev", "xcorr", "simulate", "sim"}
    for path in files:
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, path
        for row in rows:
            assert len(row) == len(header), path
            for s in row:
                try:
                    x = int(s) if s.lstrip("-").isdigit() else float(s)
                except ValueError:
                    continue                    # a ticker or a side
                assert repr(x) == s, (path, s)


def test_cli_tables_match_row_loops(outputs, tmp_path):
    """ensemble.csv and yearly_returns.csv against the loops that wrote them."""
    curves = [np.loadtxt(p, delimiter=",", skiprows=1, usecols=1, ndmin=1)
              for p in sorted((outputs / "variogram").glob("variogram_*.csv"))]
    grid = np.loadtxt(outputs / "variogram" / "ensemble.csv", delimiter=",", skiprows=1,
                      usecols=0)
    full = np.stack([v for v in curves if len(v) == len(grid)])
    write_ensemble_csv_rows(grid, percentile_curves(full), tmp_path / "ensemble.csv")
    assert ((outputs / "variogram" / "ensemble.csv").read_bytes()
            == (tmp_path / "ensemble.csv").read_bytes())
    p_y = run_sim_meanrev(read_panel_csv(outputs / "simulate" / "panel.csv").prices)
    write_yearly_returns_csv_rows(p_y, tmp_path / "yearly.csv")
    assert ((outputs / "sim" / "yearly_returns.csv").read_bytes()
            == (tmp_path / "yearly.csv").read_bytes())


def test_flat_year_of_sim_meanrev_returns_zero(tmp_path):
    # year 0 is flat, so nothing is staked in it: 0, not 0/0
    panel = tmp_path / "panel.csv"
    panel.write_text(panel_text([(0, h, 1.0) for h in range(6)]
                                + [(1, h, 1.0 + 0.01 * (-1) ** h * h) for h in range(6)]))
    out = tmp_path / "out"
    assert cli.main(["backtest", "--strategy", "sim-meanrev", "--panel", str(panel),
                     "--out-dir", str(out)]) == 0
    assert (out / "yearly_returns.csv").read_text().splitlines()[1] == "0,0.0"
    summary = json.loads((out / "summary.json").read_text())
    assert np.isfinite(summary["mean"]) and np.isfinite(summary["stderr"])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_outputs_are_strict(tmp_path, value):
    # the JSON is rendered when the writer is made, so a NaN raises before any write
    with pytest.raises(cli.NumericalError, match="summary.json: Out of range float"):
        cli._json("summary.json", {"n": 1, "x": [0.5, value]})
    path = tmp_path / "summary.json"
    cli._json("summary.json", {"n": 1, "x": [0.5, 2.0]})(path)
    assert path.read_text() == json.dumps({"n": 1, "x": [0.5, 2.0]}, indent=2) + "\n"


def test_one_year_commands_ignore_the_other_years(data, tmp_path):
    # the same market with its 2022 rows removed gives the same files
    only = tmp_path / "only2021"
    only.mkdir()
    t0, t1 = year_bounds(2021)
    for t, s in market().items():
        write_candles(only / f"{t}.csv", s.slice_window(t0, t1))
    # the mapped candles are the year's own copies, so each file's columns are freed
    mapped, _ = commands._mapped(str(data), [2021], "dollar")
    assert mapped.tickers == sorted(market())
    for s, ((hours, price),) in zip(market().values(), mapped):
        assert len(hours) == len(price) == len(s.slice_window(t0, t1))
        assert hours.base is None and price.base is None
    runs = {
        "clock": ["clock", "--year", "2021"],
        "variogram": ["variogram", "--year", "2021", "--tau-grid", "0.25:32:4"],
        "correlate": ["correlate", "--years", "2021", "--tau-grid", "0.25,0.5,1,2,4,8"],
    }
    for name, argv in runs.items():
        for d in (data, only):
            assert cli.main([*argv, "--data-dir", str(d),
                             "--out-dir", str(tmp_path / d.name / name)]) == 0
        got = sorted((tmp_path / data.name / name).glob("*.csv"))
        assert got, name
        for path in got:
            assert path.read_bytes() == (tmp_path / only.name / name / path.name).read_bytes()


@pytest.mark.parametrize("years", [[2021], [2021, 2022]], ids=["cut", "whole"])
def test_loaded_candles_hold_24_bytes_each(data, years):
    # a loaded series holds timestamps, representative price and volume, 8
    # bytes each a candle, and a later pass holds one file's series at a time;
    # held mapped to the years' clocks, as correlate --tau-grid holds them, a
    # candle of the years holds 16 bytes (its transaction hour and its
    # price), and the other years' candles none
    stream = commands._CandleFiles(str(data))
    clocks = [build_clock(stream, ClockKind.DOLLAR_WEIGHTED, y) for y in years]
    tracemalloc.start()
    try:
        for s in stream:
            held, _ = tracemalloc.get_traced_memory()
            assert held <= 24 * len(s) + (64 << 10), (held, len(s))
            del s
        mapped = stream.view(clocks).held()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = sum(len(xp[0]) for per_year in mapped for xp in per_year)
    assert n == sum(len(s.slice_window(year_bounds(years[0])[0], year_bounds(years[-1])[1]))
                    for s in market().values())
    assert held <= 16 * n + (64 << 10), (held, n)


def test_clock_holds_one_file_at_a_time(tmp_path):
    # k copies of one ticker's file: the year's minute arrays and one file, whatever k
    walk = market(years=(2021,), spacings=(60,))["T0"]

    def peak(k):
        d = tmp_path / str(k)
        d.mkdir()
        for i in range(k):
            write_candles(d / f"T{i}.csv", walk)
        argv = ["clock", "--data-dir", str(d), "--year", "2021"]
        assert cli.main([*argv, "--out-dir", str(d / "warm")]) == 0      # fills the cache
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--out-dir", str(d / "out")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, six = peak(1), peak(6)
    assert one > 8 * 525600                  # the year's minute weights, at least
    assert six - one < 8 * len(walk), (one, six, len(walk))


STREAMED = {
    "correlate": ["correlate", "--years", "2021"],
    "predict": ["predict", "--train-years", "2021", "--predict-years", "2021"],
    "backtest": ["backtest", "--strategy", "market-meanrev", "--years", "2021",
                 "--min-side-count", "1"],
}


@pytest.fixture(scope="module")
def copies(tmp_path_factory):
    """Directories of 2 and of 7 copies of one dense ticker's file (5-minute
    candles through 2021), each command run once on each to warm the cache."""
    walk = market(years=(2021,), spacings=(5,))["T0"]
    root = tmp_path_factory.mktemp("copies")
    write_candles(root / "walk.csv", walk)
    for k in (2, 7):
        (root / str(k)).mkdir()
        for i in range(k):
            shutil.copy(root / "walk.csv", root / str(k) / f"T{i}.csv")
        for name, argv in STREAMED.items():
            assert cli.main([*argv, "--data-dir", str(root / str(k)),
                             "--out-dir", str(root / "warm" / str(k) / name)]) == 0
    return root, len(walk)


@pytest.mark.parametrize("command", sorted(STREAMED))
def test_streaming_commands_hold_one_file_at_a_time(copies, command, monkeypatch, capsys):
    # once the clock is built, a command that streams its candles holds each
    # ticker's bins and panel row, not its mapped candles: five more copies of
    # the file add their rows and returns, 8760 hours each, not 16 bytes a candle
    root, n = copies
    real = clock_module.build_clock

    def clock_then_reset(*args, **kwargs):
        clock = real(*args, **kwargs)
        tracemalloc.reset_peak()        # the peak from here on: the year's minutes are gone
        return clock

    monkeypatch.setattr(clock_module, "build_clock", clock_then_reset)

    def peak(k):
        tracemalloc.start()
        try:
            assert cli.main([*STREAMED[command], "--data-dir", str(root / str(k)),
                             "--out-dir", str(root / "out" / str(k) / command)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two, seven = peak(2), peak(7)
    capsys.readouterr()
    # rows and returns: up to 32 bytes an hour for each added ticker, plus one
    # file's series (24 bytes a candle); five tickers' held candles would be 80n
    assert seven - two < 5 * 32 * 8760 + 24 * n, (two, seven, n)


@pytest.fixture(scope="module")
def stems(tmp_path_factory):
    """Three tickers whose file paths sort A-B.csv, A.csv, AB.csv and whose
    stems sort A, A-B, AB."""
    d = tmp_path_factory.mktemp("stems")
    for stem, s in zip(("A-B", "A", "AB"), market(spacings=(60, 60, 60)).values()):
        write_candles(d / f"{stem}.csv", s)
    assert [p.name for p in candles.candle_files(d)] == ["A-B.csv", "A.csv", "AB.csv"]
    return d


def test_commands_list_tickers_in_stem_order(stems, tmp_path):
    order = ["A", "A-B", "AB"]
    runs = {"correlate": ["correlate", "--years", "2021,2022"],
            "predict": ["predict", "--train-years", "2021", "--predict-years", "2022"],
            "backtest": ["backtest", "--strategy", "market-meanrev", "--years", "2021,2022",
                         "--min-side-count", "1"]}
    for name, argv in runs.items():
        assert cli.main([*argv, "--data-dir", str(stems), "--out-dir", str(tmp_path / name)]) == 0
    for path in ("correlate/cov.csv", "correlate/corr.csv", "predict/coeffs_2021.csv"):
        assert read_matrix(tmp_path / path)[0] == order, path
    assert json.loads((tmp_path / "predict" / "report.json").read_text())["tickers"] == order
    # an hour's trades on one side are listed in ticker order
    with open(tmp_path / "backtest" / "ledger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    sides: dict[tuple, list] = {}
    for row in rows:
        sides.setdefault((row["hour"], row["side"]), []).append(order.index(row["ticker"]))
    assert any(len(ranks) > 1 for ranks in sides.values())
    assert all(ranks == sorted(ranks) for ranks in sides.values())


@pytest.mark.parametrize("argv", [
    ["clock", "--year", "2021"],
    ["variogram", "--year", "2021", "--tau-grid", "0.25:32:4"],
    ["correlate", "--years", "2021"],
    ["correlate", "--years", "2021", "--tau-grid", "0.5,1,2"],
    ["predict", "--train-years", "2021", "--predict-years", "2022"],
    ["backtest", "--strategy", "market-meanrev", "--years", "2021,2022"],
], ids=["clock", "variogram", "correlate", "rho_tau", "predict", "backtest"])
def test_a_bad_file_is_reported_by_the_first_pass(stems, tmp_path, capsys, argv):
    # the first pass in file order (the first clock's) parses every file and
    # names the first bad one; no later pass, in stem order, reaches it first
    d = tmp_path / "data"
    shutil.copytree(stems, d, ignore=shutil.ignore_patterns(".vartau"))
    for stem in ("A-B", "AB"):
        with open(d / f"{stem}.csv", "a") as fh:
            fh.write(f"{year_bounds(2021)[0] + 30},1,1,1,1,1\n")     # not on a minute
    with pytest.raises(cli.DataError) as first:
        parse_candles(d / "A-B.csv")
    capsys.readouterr()
    assert cli.main([*argv, "--data-dir", str(d), "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"data error: {first.value}\n"
    assert not (tmp_path / "out").exists()


def test_summaries_do_not_import_numpy_ma(data, tmp_path):
    # np.nanpercentile and np.median import numpy.ma, 1-2 MB of a command's
    # peak RSS; the ensemble and rho(tau) summaries are taken without them
    runs = [["variogram", "--data-dir", str(data), "--year", "2021", "--tau-grid", "0.25:32:4",
             "--out-dir", str(tmp_path / "variogram")],
            ["correlate", "--data-dir", str(data), "--years", "2021",
             "--tau-grid", "0.25,0.5,1,2,4,8", "--out-dir", str(tmp_path / "correlate")]]
    script = ("import sys\n"
              "from vartau import cli\n"
              f"assert [cli.main(argv) for argv in {runs!r}] == [0, 0]\n"
              "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", script],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "correlate" / "corr_vs_tau.csv").is_file()
    assert (tmp_path / "variogram" / "ensemble.csv").is_file()


def test_each_candle_file_is_hashed_once_per_command(data, tmp_path, monkeypatch):
    # the first pass hashes each file; later passes load it by that digest.
    # The cache is warm: a parse would hash the file once more, to check it
    real, hashed = candles.sha256_file, []
    monkeypatch.setattr(candles, "sha256_file", lambda path: hashed.append(path) or real(path))
    files = sorted(data.glob("*.csv"))
    for argv in (["clock", "--year", "2021"],
                 ["variogram", "--year", "2021", "--tau-grid", "0.25:32:4"],
                 ["correlate", "--years", "2021,2022"],
                 ["predict", "--train-years", "2021", "--predict-years", "2022"],
                 ["backtest", "--strategy", "market-meanrev", "--years", "2021,2022",
                  "--min-side-count", "1"]):
        assert cli.main([*argv, "--data-dir", str(data),
                         "--out-dir", str(tmp_path / argv[0])]) == 0
        assert sorted(map(Path, hashed)) == files, argv[0]
        hashed.clear()


# Each run of the command line goes through ``python -m vartau.cli``'s runpy in
# a fresh interpreter, which then writes its exit codes and the numpy and
# vartau modules it loaded to the file named by its first argument.
LOADED_SCRIPT = """\
import json, runpy, sys
report, runs, codes = sys.argv[1], json.loads(sys.argv[2]), []
for argv in runs:
    sys.argv = ["vartau", *argv]
    try:
        runpy.run_module("vartau.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        codes.append(exc.code)
with open(report, "w") as fh:
    json.dump({"codes": codes, "modules": [m for m in sys.modules
                                           if m.split(".")[0] in ("numpy", "vartau")]}, fh)
"""


def loaded_modules(runs: list[list[str]], tmp_path) -> tuple[list, set[str]]:
    """The exit codes of the runs, made in turn in one new process, and the
    numpy and vartau modules loaded by them all."""
    report = tmp_path / "loaded.json"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, str(report), json.dumps(runs)],
                         env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    got = json.loads(report.read_text())
    return got["codes"], set(got["modules"])


def test_help_and_usage_errors_load_no_numpy(tmp_path):
    # the shell imports the standard library and vartau.errors only
    codes, loaded = loaded_modules([["--help"], ["clock", "--help"], ["clock", "--year", "2021"],
                                    ["predict", "--data-dir", "d", "--train-years", "2021",
                                     "--predict-years", "2022"]], tmp_path)
    assert codes == [0, 0, 2, 2]
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("vartau")} <= {"vartau", "vartau.cli",
                                                            "vartau.errors"}


def test_a_command_usage_error_exits_2_under_python_m(data, tmp_path):
    # run as __main__, the cli module is the one whose UsageError the commands raise
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "vartau.cli", "correlate", "--data-dir", str(data),
                          "--years", "0", "--out-dir", str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (
        2, "usage error: bad year list '0': '0' is not a year the clocks can span\n")


# each command's run, and the library modules it must not load
STARTUP = {
    "clock": (["clock", "--year", "2021"],
              {"variogram", "covariance", "predictor", "backtest", "hurst"}),
    "variogram": (["variogram", "--year", "2021", "--tau-grid", "0.25:32:4"],
                  {"covariance", "predictor", "backtest", "hurst"}),
    "correlate": (["correlate", "--years", "2021", "--tau-grid", "0.5,1,2"],
                  {"predictor", "backtest", "hurst"}),
    "predict": (["predict", "--train-years", "2021", "--predict-years", "2022"],
                {"backtest", "hurst"}),
    "market-meanrev": (["backtest", "--strategy", "market-meanrev", "--years", "2021",
                        "--min-side-count", "1"],
                       {"hurst", "predictor", "covariance", "variogram"}),
    "simulate": (["simulate", "--epsilon", "0.1", "--hours-per-year", "50"],
                 {"clock", "panel", "variogram", "covariance", "predictor", "backtest"}),
    "sim-meanrev": (["backtest", "--strategy", "sim-meanrev", "--panel", "{panel}"],
                    {"clock", "panel", "covariance", "predictor"}),
}


@pytest.mark.parametrize("run", list(STARTUP))
def test_each_command_loads_only_the_layers_on_its_path(data, tmp_path, run):
    argv, absent = STARTUP[run]
    if run == "sim-meanrev":
        panel = tmp_path / "panel.csv"
        simulate_fbm(HurstParams(0.1), SimConfig(2, 50, 0.15, 0)).write_csv(panel)
        argv = [a.format(panel=panel) for a in argv]
    elif run != "simulate":
        argv = [*argv, "--data-dir", str(data)]
    codes, loaded = loaded_modules([[*argv, "--out-dir", str(tmp_path / "out")]], tmp_path)
    assert codes == [0]
    assert "vartau.commands" in loaded
    assert loaded.isdisjoint(f"vartau.{m}" for m in absent), sorted(loaded)


def test_the_parser_agrees_with_the_library(capsys):
    # the shell writes out what the library defines, so that parsing loads no numpy
    parsers = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices

    def option(command, flag):
        return next(a for a in parsers[command]._actions if flag in a.option_strings)

    kinds = [k.value for k in ClockKind]
    for command, flag in [("clock", "--kind"), ("variogram", "--clock"), ("backtest", "--kind"),
                          ("predict", "--kind"), ("correlate", "--kind")]:
        assert option(command, flag).choices == kinds
    for command in ("predict", "correlate"):
        assert option(command, "--min-obs").default == covariance.DEFAULT_MIN_OBS
    assert f"({predictor.RIDGE_SCALE:g})" in option("predict", "--ridge").help
    # a year is one that year_bounds spans, as --year and as a year of a list
    for year in (1, 9998):
        year_bounds(year)
        assert cli.build_parser().parse_args(["clock", "--data-dir", "d", "--year", str(year),
                                              "--out-dir", "o"]).year == year
        assert cli._parse_years(f"{year}") == [year]
    for year in (0, 9999):
        with pytest.raises(ValueError):
            year_bounds(year)
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["clock", "--data-dir", "d", "--year", str(year),
                                           "--out-dir", "o"])
        assert (f"argument --year: '{year}' is not a year the clocks can span"
                in capsys.readouterr().err)
        with pytest.raises(cli.UsageError, match=f"^bad year list '{year}': '{year}' is not a "
                                                 "year the clocks can span$"):
            cli._parse_years(f"{year}")


@pytest.mark.parametrize("command", [
    ["variogram", "--year", "2021", "--tau-grid", "0.25:32:4"],
    ["correlate", "--years", "2021"]], ids=["variogram", "correlate"])
def test_a_file_that_changes_between_passes_exits_3(tmp_path, monkeypatch, capsys, command):
    # with no cache entry to load, a later pass parses the file again and
    # must find the bytes that the first pass parsed
    data = tmp_path / "data"
    data.mkdir()
    for t, s in market(years=(2021,), spacings=(60, 90, 120)).items():
        write_candles(data / f"{t}.csv", s)

    def unwritable(*args):
        raise OSError("read-only file system")

    monkeypatch.setattr(candles, "_write_entry", unwritable)
    argv = [*command, "--data-dir", str(data)]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "unedited")]) == 0
    assert not (data / ".vartau").exists()
    monkeypatch.undo()
    assert cli.main([*argv, "--out-dir", str(tmp_path / "cached")]) == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "unedited").glob("*.csv")} == \
        {p.name: p.read_bytes() for p in (tmp_path / "cached").glob("*.csv")}
    shutil.rmtree(data / ".vartau")

    parse = candles.parse_candles

    def parse_then_edit(path):
        series = parse(path)
        if path.stem == "T1":
            path.write_bytes(path.read_bytes() + b"\n")    # other bytes, same candles
        return series

    monkeypatch.setattr(candles, "_write_entry", unwritable)
    monkeypatch.setattr(candles, "parse_candles", parse_then_edit)
    capsys.readouterr()
    out = tmp_path / "out"
    assert cli.main([*argv, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == \
        f"data error: {data / 'T1.csv'} changed while the command read it\n"
    assert not out.exists()


def constant_price_market(tmp_path, years=(2021,)):
    """Three random walks and TC, whose every candle is priced 50.0."""
    data = tmp_path / "data"
    data.mkdir()
    series = market(years=years, spacings=(60, 90, 120))
    walk = series["T0"]
    flat = np.full(len(walk), 50.0)
    series["TC"] = CandleSeries("TC", walk.timestamps, flat, flat, flat, flat, walk.volume)
    for t, s in series.items():
        write_candles(data / f"{t}.csv", s)
    return data


def test_constant_price_ticker_is_left_out_of_variogram(tmp_path):
    # TC's V is 0 at every tau, which cannot be normalized: the command once
    # exited 3 for the whole market
    data = constant_price_market(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["variogram", "--data-dir", str(data), "--year", "2021",
                     "--tau-grid", "0.25:32:4", "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.glob("variogram_*.csv")) == \
        ["variogram_T0.csv", "variogram_T1.csv", "variogram_T2.csv"]
    assert (out / "ensemble.csv").is_file()


def test_constant_price_ticker_gets_nan_correlations(tmp_path):
    # TC's variance is 0: the command once exited 3 for the whole market. On
    # the plain clock, which TC's trades do not move, rho(tau) and the median
    # variogram are those of the market without TC
    data = constant_price_market(tmp_path)
    argv = ["correlate", "--data-dir", str(data), "--years", "2021", "--kind", "clock",
            "--tau-grid", "1,2,4,8"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "with")]) == 0
    tickers, rho = read_matrix(tmp_path / "with" / "corr.csv")
    assert tickers == ["T0", "T1", "T2", "TC"]
    assert np.array_equal(np.diag(rho), np.ones(4))
    off = ~np.eye(4, dtype=bool)
    assert np.isnan(rho[3, off[3]]).all() and np.isnan(rho[off[:, 3], 3]).all()
    assert np.isfinite(rho[:3, :3]).all()
    (data / "TC.csv").unlink()
    assert cli.main([*argv, "--out-dir", str(tmp_path / "without")]) == 0
    curves = (tmp_path / "with" / "corr_vs_tau.csv").read_text()
    assert "nan" not in curves
    assert curves == (tmp_path / "without" / "corr_vs_tau.csv").read_text()


def test_predict_names_the_ticker_with_no_return_variance(tmp_path, capsys):
    # TC's returns are all 0: the naive predictor cannot scale by its variance
    data = constant_price_market(tmp_path, YEARS)
    out = tmp_path / "out"
    assert cli.main(["predict", "--data-dir", str(data), "--train-years", "2021",
                     "--predict-years", "2022", "--out-dir", str(out)]) == 3
    assert (f"data error: {data / 'TC.csv'}: ticker TC has no return variance in year 2022"
            in capsys.readouterr().err)
    # no coeffs_2021.csv is left for backtest --coeffs without a report beside it
    assert not list(out.glob("coeffs_*.csv")) and not out.exists()


def test_predict_names_the_ticker_with_a_non_positive_variance(tmp_path):
    # TA's hourly price alternates between 50 and 51 all through 2021, so its
    # returns are +a, -a, ... and their lag-1 kernel is negative; in 2022 it
    # walks, so the predicted year's check passes. The command stops before
    # any fit, with no RuntimeWarning on the way
    data = tmp_path / "data"
    data.mkdir()
    series = market(spacings=(60, 60, 90))
    hours = year_bounds(2021)[0] + 3600 * np.arange(8760, dtype=np.int64)
    walk = random_walk_candles("TA", 2022, 8760, 60, seed=5)
    series["TA"] = point_candles("TA", np.concatenate([hours, walk.timestamps]),
                                 np.concatenate([50.0 + np.arange(8760) % 2, walk.price]))
    for t, s in series.items():
        write_candles(data / f"{t}.csv", s)
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "vartau.cli",
                          "predict", "--data-dir", str(data), "--kind", "clock",
                          "--train-years", "2021", "--predict-years", "2022",
                          "--out-dir", str(out)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 3, run.stderr
    assert run.stderr == (f"data error: {data / 'TA.csv'}: ticker TA has a non-positive hourly "
                          "return variance in training year 2021\n")
    assert not out.exists()


def test_predict_names_a_ticker_with_no_return_in_a_predicted_year(tmp_path, capsys):
    # on the wall clock T2's bars, two hours apart, leave no two adjacent
    # active hours: np.nanvar of its all-NaN row warned, which under
    # -W error::RuntimeWarning ended the command with a traceback (exit 1)
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    for t, s in market(spacings=(60, 90, 120)).items():
        write_candles(data / f"{t}.csv", s)
    assert cli.main(["predict", "--data-dir", str(data), "--train-years", "2021",
                     "--predict-years", "2022", "--kind", "clock", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == (f"data error: {data / 'T2.csv'}: ticker T2 has no "
                                       "return variance in year 2022\n")
    assert not out.exists()


def test_predict_names_the_ticker_below_min_obs(setting_inputs, tmp_path, capsys):
    # T4 has 4379 hourly returns of 2021, the fewest, so at 5000 its variance
    # is missing; the command once said only that a diagonal entry could not
    # be imputed
    data, out = setting_inputs["market"], tmp_path / "out"
    assert cli.main(["predict", "--data-dir", str(data), "--train-years", "2021",
                     "--predict-years", "2022", "--min-obs", "5000", "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"data error: {data / 'T4.csv'}: ticker T4 has 4379 hourly returns in training year "
        "2021, fewer than the 5000 a variance needs at --min-obs 5000\n")
    assert not out.exists()


def test_predict_that_fails_on_a_later_training_year_writes_nothing(tmp_path, capsys):
    # T3 trades at one price all through 2022, so that year's covariance has
    # no variance for it; the command once left coeffs_2021.csv with no report
    # or manifest, and backtest xcorr --coeffs traded it. The variance is now
    # checked for every training year before any fit
    data = tmp_path / "data"
    data.mkdir()
    series = market(spacings=(60, 90, 120, 60))
    t3 = series["T3"]
    flat = t3.timestamps >= year_bounds(2022)[0]
    bars = [np.where(flat, 50.0, getattr(t3, c)) for c in ("open", "high", "low", "close")]
    series["T3"] = CandleSeries("T3", t3.timestamps, *bars, t3.volume)
    for t, s in series.items():
        write_candles(data / f"{t}.csv", s)

    def predict(train_years, out):
        return cli.main(["predict", "--data-dir", str(data), "--train-years", train_years,
                         "--predict-years", "2021", "--ridge", "0", "--out-dir", str(out)])

    out = tmp_path / "out"
    assert predict("2021,2022", out) == 3
    assert (f"data error: {data / 'T3.csv'}: ticker T3 has a non-positive hourly return "
            "variance in training year 2022\n") == capsys.readouterr().err
    assert not out.exists()
    assert predict("2021", out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["coeffs_2021.csv", "report.json",
                                                     "run_manifest.json"]


@pytest.mark.parametrize("argv, module, name", [
    (["clock", "--year", "2021"], clock_module, "build_clock"),
    (["variogram", "--year", "2021", "--tau-grid", "0.25:32:4"], variogram, "percentile_curves"),
    (["correlate", "--years", "2021", "--tau-grid", "0.5,1,2"], covariance,
     "predicted_corr_ratio"),
    (["predict", "--train-years", "2021", "--predict-years", "2022"], predictor,
     "prediction_report"),
    (["backtest", "--strategy", "market-meanrev", "--years", "2021", "--min-side-count", "1"],
     backtest, "annualized_yield"),
    (["simulate", "--epsilon", "0.1", "--hours-per-year", "50"], hurst, "simulate_fbm"),
], ids=["clock", "variogram", "correlate", "predict", "backtest", "simulate"])
def test_command_that_fails_at_its_last_library_call_writes_nothing(
        data, tmp_path, monkeypatch, capsys, argv, module, name):
    real, calls, fail_at = getattr(module, name), [], [0]

    def counted(*args, **kwargs):
        calls.append(name)
        if len(calls) == fail_at[0]:
            raise cli.NumericalError(f"{name} failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    if argv[0] != "simulate":
        argv = [*argv, "--data-dir", str(data)]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "ok")]) == 0
    fail_at[0], calls[:] = len(calls), []       # the last call of the run that succeeded
    capsys.readouterr()
    assert cli.main([*argv, "--out-dir", str(tmp_path / "failed")]) == 4
    assert capsys.readouterr() == ("", f"numerical error: {name} failed\n")
    assert not (tmp_path / "failed").exists()


def test_summary_holding_a_nan_writes_nothing(data, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(backtest, "annualized_yield", lambda curve: float("nan"))
    out = tmp_path / "out"
    assert cli.main(["backtest", "--strategy", "market-meanrev", "--data-dir", str(data),
                     "--years", "2021", "--min-side-count", "1", "--out-dir", str(out)]) == 4
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("numerical error: summary.json: Out of range float values")
    assert not out.exists()


def test_renamed_candle_file_leaves_no_cache_entry(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    for t, s in market(years=(2021,), spacings=(600, 900)).items():
        write_candles(data / f"{t}.csv", s)

    def clock(name):
        out = tmp_path / name
        assert cli.main(["clock", "--data-dir", str(data), "--year", "2021",
                         "--out-dir", str(out)]) == 0
        stems = sorted(p.name.split(".")[0] for p in (data / ".vartau").iterdir())
        return stems, (out / "clock_2021_dollar.csv").read_bytes()

    stems, want = clock("before")
    assert stems == ["T0", "T1"]
    (data / "T1.csv").rename(data / "T2.csv")
    assert clock("after") == (["T0", "T2"], want)


@pytest.mark.parametrize("strategy", ["xcorr", "sim-meanrev"])
def test_long_only_is_rejected_where_it_does_nothing(data, tmp_path, capsys, strategy):
    # both strategies trade both sides; the flag was once ignored without a word
    coeffs, panel = tmp_path / "coeffs.csv", tmp_path / "panel.csv"
    coeffs.write_text("T0,T1\n0.0,0.5\n0.5,0.0\n")
    panel.write_text(panel_text(GOOD_PANEL))
    inputs = {"xcorr": ["--data-dir", str(data), "--years", "2021", "--coeffs", str(coeffs)],
              "sim-meanrev": ["--panel", str(panel)]}
    out = tmp_path / "out"
    assert cli.main(["backtest", "--strategy", strategy, *inputs[strategy], "--long-only",
                     "--out-dir", str(out)]) == 2
    assert f"--long-only applies to market-meanrev only, not {strategy}" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["predict", "--train-years", "2021", "--predict-years", "2022"],
    ["backtest", "--strategy", "market-meanrev", "--years", "2021", "--min-side-count", "1"],
])
def test_eligibility_fraction_is_checked_before_the_market(tmp_path, capsys, command):
    # the market is not parsed at all: its one file is not a candle file
    data = tmp_path / "data"
    data.mkdir()
    (data / "T0.csv").write_text("not a candle file\n")
    argv = [*command, "--data-dir", str(data), "--min-active-fraction=0"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "out")]) == 3
    assert "min_active_fraction must be in (0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("ridge", ["-1", "nan"])
def test_ridge_is_checked_before_the_market(tmp_path, capsys, ridge):
    # the market is not parsed at all: its one file is not a candle file
    data = tmp_path / "data"
    data.mkdir()
    (data / "T0.csv").write_text("not a candle file\n")
    argv = ["predict", "--train-years", "2021", "--predict-years", "2021",
            "--data-dir", str(data), f"--ridge={ridge}", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 3
    assert f"ridge must be non-negative and finite, got {float(ridge)}" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_variogram_has_no_method_flag(data, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["variogram", "--data-dir", str(data), "--year", "2021",
                  "--method", "diff_of_avg", "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_backtest_reports_the_notional_and_the_breakeven_cost(data, setting_inputs, tmp_path):
    def run(market, *flags):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        return cli.main(["backtest", "--strategy", "market-meanrev", "--data-dir", str(market),
                         "--years", "2021", "--min-side-count", "1", *flags,
                         "--out-dir", str(out)]), out

    code, out = run(setting_inputs["market"])
    summary = json.loads((out / "summary.json").read_text())
    with open(out / "ledger.csv", newline="") as fh:
        sides = {(row["hour"], row["side"]) for row in csv.DictReader(fh)}
    assert code == 0 and summary["notional"] == len(sides) > 0
    assert summary["breakeven_cost"] == summary["total_pnl"] / summary["notional"]
    # the module's market books no hour, so no cost breaks even: null, not 0/0
    code, out = run(data)
    summary = json.loads((out / "summary.json").read_text())
    assert code == 0 and summary["notional"] == summary["n_trades"] == 0
    assert summary["breakeven_cost"] is None
    with pytest.raises(SystemExit) as exc:      # the cost is not a setting
        run(data, "--cost", "0.0")
    assert exc.value.code == 2


def test_retired_variogram_method_replays_only_as_diff_of_avg(data, tmp_path, capsys):
    # manifests written while a command had a flag that is now gone record it;
    # the one value that is still the command's behaviour replays, any other is refused
    meanrev = ["backtest", "--strategy", "market-meanrev", "--data-dir", str(data),
               "--years", "2021", "--min-side-count", "1"]
    runs = {
        "variogram": (["variogram", "--data-dir", str(data), "--year", "2021",
                       "--tau-grid", "0.25:32:4"], "method", "diff_of_avg", "two_point_grid"),
        "simulate": (["simulate", "--epsilon", "0.1", "--hours-per-year", "50",
                      "--method", "shot"], "sigma", 1.0, 2.0),
        "stake": (meanrev, "stake", 1.0, 2.0),
        "cost": (meanrev, "cost", 0.0, 0.001),
    }
    for case, (argv, flag, kept, gone) in runs.items():
        run = tmp_path / case / "run"
        assert cli.main([*argv, "--out-dir", str(run)]) == 0
        manifest = json.loads((run / "run_manifest.json").read_text())

        def replay(value):
            out = tmp_path / case / str(value)
            manifest["args"].update({flag: value, "out_dir": str(out)})
            path = tmp_path / case / f"{value}.json"
            path.write_text(json.dumps(manifest))
            return cli.main(["--manifest", str(path)]), path, out

        code, _, out = replay(kept)
        assert code == 0
        written = sorted(p.name for p in run.iterdir())
        assert written == sorted(p.name for p in out.iterdir())
        for name in written:
            if name != "run_manifest.json":
                assert (run / name).read_bytes() == (out / name).read_bytes(), name
        capsys.readouterr()
        code, path, out = replay(gone)
        assert code == 3
        err = capsys.readouterr().err
        assert str(path) in err and f"--{flag} {gone}" in err
        assert not out.exists()


@pytest.mark.parametrize("text", [
    '[]', '{"command": 5}', '{"command": "clock", "args": [1]}',
    '{"command": "clock", "inputs": []}', '{"command": "clock", "args": {"data_dir": 3}}',
])
def test_malformed_manifest_exits_3(tmp_path, capsys, text):
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(text)
    assert cli.main(["--manifest", str(manifest)]) == 3
    assert f"manifest {str(manifest)!r}" in capsys.readouterr().err


def test_manifest_with_a_flag_or_command_the_program_lacks_exits_3(data, tmp_path, capsys):
    assert cli.main(["clock", "--data-dir", str(data), "--year", "2021",
                     "--out-dir", str(tmp_path / "run")]) == 0
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    manifest["args"].update(bogus=1, out_dir=str(tmp_path / "replay"))
    # a recorded help once printed the command's usage and replayed nothing, exiting 0
    # an abbreviated flag once replayed as the flag it abbreviates, exiting 0
    abbreviated = {"data": str(data), "year": 2021, "out_dir": str(tmp_path / "replay")}
    cases = {"flag": (manifest, "--bogus 1"), "command": ({"command": "bogus"}, "'bogus'"),
             "help": ({"command": "clock", "args": {"help": True}}, "--help"),
             "abbreviation": ({"command": "clock", "args": abbreviated}, "--data-dir")}
    for name, (written, named) in cases.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(written))
        assert cli.main(["--manifest", str(path)]) == 3
        out, err = capsys.readouterr()
        assert f"data error: manifest {str(path)!r}" in err and named in err
        assert out == ""
    assert not (tmp_path / "replay").exists()


@pytest.mark.parametrize("command", [
    ["clock", "--year", "0"],
    ["variogram", "--year", "9999"],
    ["correlate", "--years", "0"],
    ["predict", "--train-years", "2021", "--predict-years", "10000"],
    ["backtest", "--strategy", "market-meanrev", "--years", "2021,0"],
], ids=["clock", "variogram", "correlate", "predict", "backtest"])
def test_year_the_clock_cannot_span_is_a_usage_error(tmp_path, capsys, command):
    # the market is not parsed at all: its one file is not a candle file
    data = tmp_path / "data"
    data.mkdir()
    (data / "T0.csv").write_text("not a candle file\n")
    argv = [*command, "--data-dir", str(data), "--out-dir", str(tmp_path / "out")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:          # --year is checked by the argument parser
        code = exc.code
    assert code == 2
    assert "is not a year the clocks can span" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["volume", "clock"])
def test_variogram_clock_flag_picks_the_clock(data, outputs, tmp_path, kind):
    # each ticker's variogram on the --clock kind's transaction time, which
    # moves it off the default dollar clock's
    out = tmp_path / "out"
    assert cli.main(["variogram", "--data-dir", str(data), "--year", "2021", "--clock", kind,
                     "--tau-grid", "0.25:32:4", "--out-dir", str(out)]) == 0
    series = {t: parse_candles(data / f"{t}.csv") for t in sorted(market())}
    clock = build_clock(series.values(), ClockKind(kind), 2021)
    grid = default_tau_grid(0.25, 32.0, 4)
    written = sorted(p.name for p in out.glob("variogram_*.csv"))
    assert len(written) >= 3
    for name in written:
        t = name[len("variogram_"):-len(".csv")]
        ((mapped,),) = txn_candles([series[t]], [clock])
        v = variogram_diff_of_avg(mapped, hours_in_year(2021), grid)
        v0 = value_at(v.tau, v.v[None], 1.0)[0]
        Variogram(v.tau, v.v / v0, v.n_samples).write_csv(tmp_path / "want.csv")
        got = (out / name).read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got != (outputs / "variogram" / name).read_bytes()


def test_rho_tau_percentiles_take_each_tau_over_the_pairs_there(outputs):
    # a pair that misses one tau still counts at the others, so the fan has width
    rows = np.loadtxt(outputs / "correlate" / "corr_vs_tau.csv", delimiter=",", skiprows=1)
    assert (rows[:, 1] < rows[:, 5]).any()
