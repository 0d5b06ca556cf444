"""Command-line pipeline driver.

Subcommands cover the full analysis chain: build transaction-time
clocks, estimate variograms, simulate Hurst panels, run the arbitrage
backtests, compute correlation matrices and rho(tau) curves, and
fit/evaluate leave-one-out predictors. Every command writes
machine-readable CSV/JSON plus a run manifest sufficient to replay it
bit-identically via ``vartau --manifest <file>``.

Each ``cmd_*`` validates, loads and computes, and returns ``(inputs, files,
stdout)``: the sha256 of each file read, by path; a writer of each output
file, by name; and the object to print as JSON, or None. Only once it has
returned does ``_run`` make ``--out-dir``, write the files, then the
manifest, and print, so a command that fails (a NaN in its JSON included)
writes nothing.

A candle command reads its data directory through ``_CandleFiles``, a
stream that loads one file's ``CandleSeries`` at a time and can be iterated
more than once, so no command holds two files' series at once. The first
pass calls ``parse_candles`` once per file, which hashes the file and
records the digest of the content parsed (the manifest's input digest). Each
later pass loads the file's parse-cache entry by that digest through
``load_parsed``, with no second hash. ``build_clock`` takes one pass per
year. Every other pass is one of ``_CandleFiles.view``, a lazy
``panel.TxnCandles`` in sorted-stem order that lets each file go once it is
binned; only ``correlate --tau-grid`` holds mapped candles, 16 bytes a candle.

Each candle file is parsed once: ``parse_candles`` caches its columns in
``<data-dir>/.vartau/``, keyed on the file's content and on the parser's
code, so a later pass or command on the same files loads them instead. The
entries of a file that is gone are deleted when a command next lists the
directory. The cache is safe to delete. A data directory that cannot be
written is parsed on every pass of every run: a later pass parses each file
again and hashes it, and raises DataError if the file changed since the
first. Replay ignores the cache, as it reads only ``*.csv``.

Exit codes: 0 success, 2 usage, 3 data error (such as a manifest that does not
replay, or a value a simulation cannot take), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import backtest as bt
from . import covariance as cov
from . import hurst
from . import panel as pn
from . import predictor as pred
from . import variogram as vg
from .candles import (CandleSeries, candle_files, load_parsed, not_utf8, parse_candles,
                      read_hashed, sha256_file, write_table)
from .clock import ClockKind, build_clock, hours_in_year, year_bounds
from .errors import DataError, NumericalError

CLOCK_KINDS = [k.value for k in ClockKind]


class UsageError(Exception):
    """Bad flag values detected after parsing."""


class _RaisingParser(argparse.ArgumentParser):
    """The replay parser: a manifest's flags must be spelt out in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs, allow_abbrev=False)

    def error(self, message):       # raise, where argparse would exit
        raise UsageError(message)

    def print_help(self, file=None):        # a replayed --help would print and exit 0
        raise UsageError("--help runs no command")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _json(name: str, obj):
    """A writer of ``obj`` as strict JSON, rendered now, so a NaN raises before any write."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalError(f"{name}: {exc}") from None
    return lambda path: path.write_text(text)


class _CandleFiles:
    """Every candle file of a data directory as a ``CandleSeries``, one at a
    time, in file order; each iteration, or one of a ``view``, is a pass.

    The first pass over a file parses it with ``parse_candles`` and records
    the sha256 of the content parsed; a later pass loads the same series by
    that digest with ``load_parsed`` or, with no cache entry (an unwritable
    directory), parses and hashes it again. Each command takes one pass per
    year (all of predict's) for the clocks, then one more: ``correlate``'s is
    held across ``--tau-grid``, and ``predict``'s builds the hourly panel,
    whose year blocks give every training year's covariance.
    """

    def __init__(self, data_dir: str):
        d = Path(data_dir)
        if not d.is_dir():
            raise DataError(f"data directory {data_dir!r} does not exist")
        self.files = candle_files(d)
        if not self.files:
            raise DataError(f"no .csv candle files in {data_dir!r}")
        self.digests: dict[Path, str] = {}

    def __iter__(self) -> Iterator[CandleSeries]:
        return map(self._load, self.files)

    def _load(self, path: Path) -> CandleSeries:
        if path in self.digests:
            return load_parsed(path, self.digests[path])
        series = parse_candles(path)
        self.digests[path] = series.sha256
        return series

    def view(self, clocks) -> pn.TxnCandles:
        """The files' candles on the clocks' transaction-hour axes, as a lazy
        ``panel.TxnCandles`` whose tickers are the file stems, sorted."""
        paths = {p.stem: p for p in self.files}
        return pn.TxnCandles(sorted(paths), clocks, lambda t: self._load(paths[t]))

    def inputs(self) -> dict[Path, str]:
        """Each file read, with the sha256 of the content parsed; a file that no
        pass has reached yet (the plain clock reads none) is parsed now."""
        for path in self.files:
            if path not in self.digests:
                self._load(path)
        return self.digests


def _year(text: str) -> int:
    """A year that the clocks can span; the type of ``--year`` and of each year in a list."""
    try:
        year = int(text)
        year_bounds(year)
    except (ValueError, OverflowError):
        msg = f"{text.strip()!r} is not a year the clocks can span"
        raise argparse.ArgumentTypeError(msg) from None
    return year


def _parse_years(text: str) -> list[int]:
    """Distinct comma-separated years, ascending so year blocks chain in order."""
    try:
        years = [_year(x) for x in str(text).split(",") if x.strip()]
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"bad year list {text!r}: {exc}") from None
    if not years:
        raise UsageError("empty year list")
    repeated = sorted({y for y in years if years.count(y) > 1})
    if repeated:
        raise UsageError(f"year {repeated[0]} is given more than once in {text!r}")
    return sorted(years)


def _parse_tau_grid(text: str, normalize_at: float) -> np.ndarray:
    """Either 'min:max:points_per_decade' or a comma list of hours; it must span normalize_at."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad tau grid {text!r}, want min:max:ppd")
        try:
            lo, hi, ppd = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise UsageError(f"bad tau grid {text!r}") from None
        if not 0 < lo < hi < np.inf or ppd < 1:
            raise UsageError(f"bad tau grid {text!r}")
        grid = vg.default_tau_grid(lo, hi, ppd)
    else:
        try:
            grid = np.array([float(x) for x in text.split(",") if x.strip()])
        except ValueError:
            raise UsageError(f"bad tau grid {text!r}") from None
        if len(grid) == 0 or not (grid[0] > 0 and np.all(np.diff(grid) > 0) and grid[-1] < np.inf):
            raise UsageError("tau grid must be positive, finite and increasing")
    if not grid[0] <= normalize_at <= grid[-1]:
        raise UsageError(f"--normalize-at {normalize_at} is outside the tau grid "
                         f"[{grid[0]:g}, {grid[-1]:g}]")
    return grid


def _mapped(data_dir: str, years: list[int], kind: str) -> tuple[pn.TxnCandles, dict[Path, str]]:
    """The candles as a lazy view on the years' clocks of the given kind, and
    the files read with their digests (the clocks read every file)."""
    stream = _CandleFiles(data_dir)
    clocks = [build_clock(stream, ClockKind(kind), y) for y in years]
    return stream.view(clocks), stream.inputs()


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_clock(args):
    stream = _CandleFiles(args.data_dir)
    clock = build_clock(stream, ClockKind(args.kind), args.year)
    return stream.inputs(), {f"clock_{args.year}_{args.kind}.csv": clock.write_csv}, None


def cmd_variogram(args):
    grid = _parse_tau_grid(args.tau_grid, args.normalize_at)
    candles, inputs = _mapped(args.data_dir, [args.year], args.clock)
    # one ticker loaded, mapped and estimated at a time; a ticker with fewer
    # than two candles omits every tau
    curves = {t: vg.variogram_diff_of_avg(candles.select([t]), grid) for t in candles.tickers}
    files, full = {}, []
    for t, v in sorted(curves.items()):
        # a ticker whose V cannot be read at --normalize-at is left out
        v0 = vg.value_at(v.tau, v.v[None], args.normalize_at)[0] if len(v) else np.nan
        if not np.isnan(v0):
            v.v /= v0
            files[f"variogram_{t}.csv"] = v.write_csv
            if len(v) == len(grid):     # the ensemble takes the tickers that kept every tau
                full.append(v.v)
    if not files:
        raise DataError("no ticker produced a usable variogram")
    if full:
        cols = [grid, *vg.percentile_curves(np.stack(full))]
        files["ensemble.csv"] = lambda path: write_table(
            path, ["tau_hours", *(f"p{p}" for p in vg.PERCENTILES)], cols)
    return inputs, files, None


def cmd_simulate(args):
    params = hurst.HurstParams(args.epsilon, delta=args.delta, rate=args.rate)
    config = hurst.SimConfig(args.years, args.hours_per_year, args.vol, args.seed)
    simulate = hurst.simulate_fbm if args.method == "fft" else hurst.simulate_shot_noise
    return {}, {"panel.csv": simulate(params, config).write_csv}, None


def cmd_backtest(args):
    if args.long_only and args.strategy != "market-meanrev":
        raise UsageError(f"--long-only applies to market-meanrev only, not {args.strategy}")
    inputs: dict[Path, str] = {}
    if args.strategy == "sim-meanrev":
        if not args.panel:
            raise UsageError("sim-meanrev needs --panel")
        panel, inputs[Path(args.panel)] = read_hashed(args.panel, hurst.read_panel_csv)
        p_y = bt.run_sim_meanrev(panel.prices)
        summary = {
            "mean": float(p_y.mean()),
            "stderr": float(p_y.std(ddof=1) / np.sqrt(len(p_y))) if len(p_y) > 1 else 0.0,
            "n_years": int(len(p_y)),
            "rms_hourly_return": bt.rms_hourly_return(panel.prices),
        }
        files = {"yearly_returns.csv": lambda path: write_table(
            path, ["year", "net_return"], [np.arange(len(p_y)), p_y])}
    else:
        if not args.data_dir or not args.years:
            raise UsageError(f"{args.strategy} needs --data-dir and --years")
        years = _parse_years(args.years)
        coeffs = None
        if args.strategy == "xcorr":
            if not args.coeffs:
                raise UsageError("xcorr needs --coeffs")
            # before the market is parsed
            coeffs, inputs[Path(args.coeffs)] = read_hashed(args.coeffs, pred.read_coeffs_csv)
        config = bt.StrategyConfig(staleness=args.staleness, top_fraction=args.top_fraction,
                                   min_side_count=args.min_side_count)
        pn.check_active_fraction(args.min_active_fraction)    # before the market is parsed
        candles, digests = _mapped(args.data_dir, years, args.kind)
        inputs.update(digests)
        if coeffs is not None:      # xcorr trades the coefficient file's tickers, in its order
            have = set(candles.tickers)
            missing = [t for t in coeffs.tickers if t not in have]
            if missing:
                raise DataError(f"coefficient ticker {missing[0]} has no candle file in "
                                f"{args.data_dir}")
            candles = candles.select(coeffs.tickers)
        panel = pn.build_panel(candles, args.min_active_fraction if coeffs is None else None)
        del candles     # the view holds the clocks' knots
        tickers, prices = panel.tickers, panel.price
        result = (bt.run_xcorr_strategy(prices, tickers, coeffs, config) if coeffs else
                  bt.run_market_meanrev(prices, tickers, config, long_only=args.long_only))
        total, notional = result.ledger.total_pnl, result.info["notional"]
        summary = {"annualized_yield": bt.annualized_yield(result.curve), "total_pnl": total,
                   "breakeven_cost": total / notional if notional else None,
                   "n_trades": len(result.ledger), **result.info}
        files = {"ledger.csv": result.ledger.write_csv, "equity.csv": result.curve.write_csv}
    files["summary.json"] = _json("summary.json", summary)
    return inputs, files, summary


def cmd_predict(args):
    train_years = _parse_years(args.train_years)
    predict_years = _parse_years(args.predict_years)
    all_years = sorted(set(train_years) | set(predict_years))
    if args.min_obs < 0:        # these before the market is parsed
        raise UsageError(f"--min-obs must be non-negative, got {args.min_obs}")
    pn.check_active_fraction(args.min_active_fraction)
    if args.ridge is not None:
        pred.check_ridge(args.ridge)
    candles, inputs = _mapped(args.data_dir, all_years, args.kind)
    panel = pn.build_panel(candles, args.min_active_fraction)
    del candles         # the view holds the clocks' knots
    tickers = panel.tickers
    # before training, so a ticker with no return variance is named before any
    # fit; each year's returns are made when they are used and let go after
    grid: dict[str, dict] = {"none": {}}
    for py in predict_years:
        r = panel.adjacent_returns(py)
        variances = np.array([0.0 if np.isnan(x).all() else np.nanvar(x) for x in r])
        flat = np.flatnonzero(~(variances > 0))     # 0 with no return, where nanvar warns
        if len(flat):
            t = tickers[flat[0]]
            raise DataError(f"{Path(args.data_dir) / t}.csv: ticker {t} has no "
                            f"return variance in year {py}")
        grid["none"][str(py)] = pred.prediction_report(pred.market_mode(tickers, variances), r)
        del r
    need = max(args.min_obs, (cov.MIN_VARIANCE_OBS + 2) // 3)     # returns
    cmats = {}
    for ty in train_years:
        # the year's hourly bins are its block of the panel: no pass over the files
        cmat = cmats[ty] = cov.estimate_cov(tickers, panel.bins(ty), hours_in_year(ty),
                                            min_obs=args.min_obs)
        if cmat.tickers != tickers:
            raise DataError(f"year {ty}: an eligible ticker has no hourly return")
        missing = np.flatnonzero(np.isnan(np.diag(cmat.c)))
        if len(missing):        # a missing variance cannot be imputed
            t, m = tickers[missing[0]], (cmat.n_obs[missing[0], missing[0]] + 2) // 3
            raise DataError(f"{Path(args.data_dir) / t}.csv: ticker {t} has " + (
                f"{m} hourly returns in training year {ty}, fewer than the {need} "
                f"a variance needs at --min-obs {args.min_obs}" if m < need
                else f"a non-positive hourly return variance in training year {ty}"))
    files, fits = {}, {}
    for ty in train_years:
        cmat = cmats.pop(ty).filled()
        ridge = args.ridge if args.ridge is not None else pred.default_ridge(cmat)
        a = pred.invert_with_ridge(cmat, ridge)
        b = pred.loo_coefficients(a)
        if args.refine:
            train = panel.adjacent_returns(ty)
            others = [panel.adjacent_returns(y) for y in train_years if y != ty] or [train]
            b, _ = pred.gradient_refine(train, others, b)
            del train, others
        files[f"coeffs_{ty}.csv"] = b.write_csv
        fits[str(ty)], grid[str(ty)] = b, {}
    for py in predict_years:
        r = panel.adjacent_returns(py)
        for ty, b in fits.items():
            grid[ty][str(py)] = pred.prediction_report(b, r)
        del r
    files["report.json"] = _json("report.json", {"tickers": tickers, "fve_grid": grid})
    return inputs, files, grid


def cmd_correlate(args):
    years = _parse_years(args.years)
    if not 0 < args.tau < np.inf:
        raise UsageError(f"--tau must be positive and finite, got {args.tau}")
    if args.min_obs < 0:
        raise UsageError(f"--min-obs must be non-negative, got {args.min_obs}")
    grid = _parse_tau_grid(args.tau_grid, args.normalize_at) if args.tau_grid else None
    candles, inputs = _mapped(args.data_dir, years, args.kind)
    if grid is not None:        # held once, for the covariances and every tau of rho(tau)
        candles = candles.held()

    cmat = cov.estimate_cov(candles.tickers, pn.grid_bins(candles, args.tau),
                            sum(candles.widths(args.tau)), min_obs=args.min_obs)
    if not cmat.tickers:
        raise DataError("no ticker has enough bins at the requested tau")
    files = {"cov.csv": cmat.write_csv,
             "n_obs.csv": lambda path: write_table(path, cmat.tickers, cmat.n_obs.T),
             "corr.csv": cov.cov_to_corr(cmat).write_csv}

    if grid is not None:
        # rho(tau) curves use the first requested year; the others are let go
        candles = candles.select(cmat.tickers, years[0])
        _, curves, v = cov.corr_vs_tau(candles, grid, args.normalize_at)
        perc = vg.percentile_curves(curves)     # each tau over the pairs with a value there
        # the median V of the tickers with a positive V at every tau, not a constant price
        full = v[(v > 0).all(axis=1)]
        predicted = (cov.predicted_corr_ratio(vg.column_quantiles(full), grid, args.normalize_at)
                     if len(full) else np.full(len(grid), np.nan))
        files["corr_vs_tau.csv"] = lambda path: write_table(
            path, ["tau_hours", *(f"p{p}" for p in vg.PERCENTILES), "predicted"],
            [grid, *perc, predicted])
    return inputs, files, None


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    p = parser_class(prog="vartau", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--manifest", help="replay a prior run from its manifest")
    grid_help = "tau hours: 'min:max:points_per_decade', log-spaced, or an increasing comma list"
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("clock", help="build a transaction-time clock")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--year", type=_year, required=True)
    sp.add_argument("--kind", choices=CLOCK_KINDS, default="dollar")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_clock)

    sp = sub.add_parser("variogram", help="per-ticker and ensemble variograms")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--year", type=_year, required=True)
    sp.add_argument("--clock", choices=CLOCK_KINDS, default="dollar")
    sp.add_argument("--tau-grid", default="0.0333333:200:25", help=grid_help)
    sp.add_argument("--normalize-at", type=float, default=1.0,
                    help="tau (hours) where each V is 1, read log-log if V > 0, else linearly "
                         "in log tau; a ticker whose V does not reach it is left out")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_variogram)

    sp = sub.add_parser("simulate", help="simulate a Hurst price panel")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--years", type=int, default=1)
    sp.add_argument("--hours-per-year", type=int, default=8760)
    sp.add_argument("--vol", type=float, default=0.15)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--method", choices=["fft", "shot"], default="fft")
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--rate", type=float, default=10.0, help="impulses per hour; shot only")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("backtest", help="run a trading strategy", description=(
        "Fills are booked at zero transaction cost, per unit stake. For market-meanrev and "
        "xcorr, summary.json gives the notional traded, one unit per traded side of an hour, and "
        "breakeven_cost = total_pnl / notional, null when nothing trades: a cost c per round "
        "trip would take c * notional off total_pnl and c * qty * entry off each row's pnl."))
    sp.add_argument("--strategy", choices=["sim-meanrev", "market-meanrev",
                                           "xcorr"], required=True)
    both = "market-meanrev and xcorr"
    sp.add_argument("--panel", help="simulated panel CSV; sim-meanrev only")
    sp.add_argument("--data-dir", help=f"candle directory; {both}")
    sp.add_argument("--years", help=f"comma-separated calendar years; {both}")
    sp.add_argument("--kind", choices=CLOCK_KINDS, default="dollar", help=f"price clock; {both}")
    sp.add_argument("--coeffs", help="prediction coefficients CSV; xcorr only")
    sp.add_argument("--staleness", type=int, default=1,
                    help="enter at h+2+S; xcorr only (market-meanrev always enters at h+2)")
    sp.add_argument("--top-fraction", type=float, default=0.05,
                    help="share of the present names bought, and sold; xcorr only")
    sp.add_argument("--min-side-count", type=int, default=100,
                    help="fewest decliners and gainers an hour trades; market-meanrev only")
    sp.add_argument("--min-active-fraction", type=float, default=0.5,
                    help="share of each year's hours a kept ticker trades in; "
                         "market-meanrev only (xcorr trades its coefficient file's tickers)")
    sp.add_argument("--long-only", action="store_true", help="no shorts; market-meanrev only")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_backtest)

    sp = sub.add_parser("predict", help="leave-one-out prediction grid")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--train-years", required=True,
                    help="comma-separated years; each fits one coeffs_<year>.csv")
    sp.add_argument("--predict-years", required=True,
                    help="comma-separated years on which every fit is scored")
    sp.add_argument("--kind", choices=CLOCK_KINDS, default="dollar", help="price clock")
    sp.add_argument("--ridge", type=float, default=None,
                    help="added to the covariance diagonal; by default RIDGE_SCALE "
                         f"({pred.RIDGE_SCALE:g}) times the mean variance")
    sp.add_argument("--refine", action="store_true",
                    help="refine each fit by gradient descent, stopped early on the other "
                         "training years; with one training year, on that year, in sample")
    sp.add_argument("--min-obs", type=int, default=cov.DEFAULT_MIN_OBS,
                    help="overlapping pairs of hourly returns a pair of tickers needs, "
                         "and hourly returns each of them needs; below it a cell is imputed")
    sp.add_argument("--min-active-fraction", type=float, default=0.5,
                    help="share of each year's hours a kept ticker trades in")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("correlate", help="correlation matrix and rho(tau)")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--years", required=True)
    sp.add_argument("--kind", choices=CLOCK_KINDS, default="dollar")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--tau-grid", default=None,
                    help=grid_help + "; rho(tau) uses only the first of --years")
    sp.add_argument("--normalize-at", type=float, default=1.0,
                    help="with --tau-grid, tau (hours) where each rho(tau) and the prediction "
                         "are 1, read log-log if positive, else linearly in log tau; a pair "
                         "whose curve does not reach it is left out")
    sp.add_argument("--min-obs", type=int, default=cov.DEFAULT_MIN_OBS,
                    help="overlapping pairs of returns a pair of tickers needs in cov.csv "
                         "and corr.csv, and returns each of them needs; the rho(tau) "
                         "curves keep every pair with at least 2")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_correlate)
    return p


def _run(args) -> int:
    """Run a command; then make --out-dir, write its files and manifest, and print."""
    inputs, files, stdout = args.func(args)
    flags = {k: v for k, v in vars(args).items() if k not in ("func", "command", "manifest")}
    files["run_manifest.json"] = _json("run_manifest.json", {
        "tool": "vartau", "version": __version__, "command": args.command, "args": flags,
        "inputs": {str(p): inputs[p] for p in sorted(inputs)},
        "created_utc": datetime.now(timezone.utc).isoformat()})
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, write in files.items():
        write(out / name)
    if stdout is not None:
        print(json.dumps(stdout, sort_keys=True))
    return 0


# flags that a command no longer has, each with the one value that a manifest
# may still record: the behaviour the command now always has
_RETIRED_FLAGS = {"variogram": {"method": "diff_of_avg"}, "simulate": {"sigma": 1.0},
                  "backtest": {"stake": 1.0, "cost": 0.0}}


def _replay(manifest_path: str) -> int:
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except UnicodeDecodeError:
        raise not_utf8(manifest_path) from None
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {manifest_path!r}: {exc}") from exc

    def bad(what: str) -> DataError:
        return DataError(f"manifest {manifest_path!r} {what}")

    if not isinstance(manifest, dict):
        raise bad("is not a JSON object")
    command = manifest.get("command")
    if not command or not isinstance(command, str):
        raise bad("has no command")
    inputs, args = manifest.get("inputs", {}), manifest.get("args", {})
    if not isinstance(inputs, dict) or not all(isinstance(d, str) for d in inputs.values()):
        raise bad("has inputs that are not an object of file paths to digests")
    if not isinstance(args, dict) or not all(isinstance(v, (str, int, float, type(None)))
                                             for v in args.values()):
        raise bad("has args that are not an object of flag values")
    if not isinstance(args.get("data_dir", ""), (str, type(None))):
        raise bad(f"has a data_dir that is not a path: {args['data_dir']!r}")
    for flag, kept in _RETIRED_FLAGS.get(command, {}).items():
        if (value := args.pop(flag, kept)) != kept:
            raise bad(f"records {command} --{flag.replace('_', '-')} {value}, "
                      f"which is gone; only {kept} replays")
    for path, digest in sorted(inputs.items()):
        if not Path(path).is_file():
            raise DataError(f"manifest input {path} is missing")
        if sha256_file(Path(path)) != digest:
            raise DataError(f"manifest input {path} has changed since the run")
    data_dir = args.get("data_dir")
    if data_dir:
        # the command reads every *.csv in the directory, not only the inputs
        recorded = set(map(Path, inputs))
        for path in candle_files(data_dir):
            if path not in recorded:
                raise DataError(f"{path} was added to {data_dir} after the run")
    argv = [command]
    for key, val in sorted(args.items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        elif val is not None:
            argv += [flag, str(val)]
    try:        # a command or flag that the program does not have
        replayed = build_parser(_RaisingParser).parse_args(argv)
    except UsageError as exc:
        raise bad(f"does not replay: {exc}") from None
    return _run(replayed)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.manifest:
            return _replay(args.manifest)
        if not getattr(args, "command", None):
            parser.print_help()
            return 2
        return _run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
