"""Command-line pipeline driver.

Subcommands cover the full analysis chain: build transaction-time
clocks, estimate variograms, simulate Hurst panels, run the arbitrage
backtests, compute correlation matrices and rho(tau) curves, and
fit/evaluate leave-one-out predictors. Every command writes
machine-readable CSV/JSON plus a run manifest sufficient to replay it
bit-identically via ``vartau --manifest <file>``.

Exit codes: 0 success, 2 usage, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
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
from .candles import parse_candles
from .clock import ClockKind, build_clock
from .errors import DataError, NumericalError

CLOCK_KINDS = {"clock": ClockKind.CLOCK, "dollar": ClockKind.DOLLAR_WEIGHTED,
               "volume": ClockKind.VOLUME_WEIGHTED}
_NON_FLAG_KEYS = ("func", "command", "manifest")


class UsageError(Exception):
    """Bad flag values detected after parsing."""


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, args, inputs: list[Path]) -> None:
    flags = {k: v for k, v in vars(args).items() if k not in _NON_FLAG_KEYS}
    manifest = {
        "tool": "vartau",
        "version": __version__,
        "command": command,
        "args": flags,
        "inputs": {str(p): _sha256(p) for p in sorted(set(map(Path, inputs)))},
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out_dir / "run_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_dir(data_dir: str) -> dict:
    d = Path(data_dir)
    if not d.is_dir():
        raise DataError(f"data directory {data_dir!r} does not exist")
    files = sorted(d.glob("*.csv"))
    if not files:
        raise DataError(f"no .csv candle files in {data_dir!r}")
    return {f.stem: parse_candles(f) for f in files}


def _data_inputs(data_dir: str, series: dict) -> list[Path]:
    return [Path(data_dir) / f"{t}.csv" for t in series]


def _parse_years(text: str) -> list[int]:
    """Distinct comma-separated years, ascending so year blocks chain in order."""
    try:
        years = [int(x) for x in str(text).split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad year list {text!r}") from None
    if not years:
        raise UsageError("empty year list")
    repeated = sorted({y for y in years if years.count(y) > 1})
    if repeated:
        raise UsageError(f"year {repeated[0]} is given more than once in {text!r}")
    return sorted(years)


def _parse_tau_grid(text: str) -> np.ndarray:
    """Either 'min:max:points_per_decade' or a comma list of hours."""
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
        return vg.default_tau_grid(lo, hi, ppd)
    try:
        grid = np.array([float(x) for x in text.split(",") if x.strip()])
    except ValueError:
        raise UsageError(f"bad tau grid {text!r}") from None
    if len(grid) == 0 or not (grid[0] > 0 and np.all(np.diff(grid) > 0) and grid[-1] < np.inf):
        raise UsageError("tau grid must be positive, finite and increasing")
    return grid


def _check_normalize_at(value: float, grid: np.ndarray) -> None:
    if not grid[0] <= value <= grid[-1]:
        raise UsageError(f"--normalize-at {value} is outside the tau grid "
                         f"[{grid[0]:g}, {grid[-1]:g}]")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _clocks(series: dict, years: list[int], kind: ClockKind) -> list:
    return [build_clock(series.values(), kind, y) for y in years]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_clock(args) -> int:
    series = _load_dir(args.data_dir)
    clock = build_clock(series.values(), CLOCK_KINDS[args.kind], args.year)
    out = _out_dir(args)
    clock.write_csv(out / f"clock_{args.year}_{args.kind}.csv")
    _write_manifest(out, "clock", args, _data_inputs(args.data_dir, series))
    return 0


def cmd_variogram(args) -> int:
    grid = _parse_tau_grid(args.tau_grid)
    _check_normalize_at(args.normalize_at, grid)
    series = _load_dir(args.data_dir)
    clock = build_clock(series.values(), CLOCK_KINDS[args.clock], args.year)
    results = {}
    for t in sorted(series):
        sub = series[t].slice_window(clock.year_start, clock.year_end)
        if len(sub) < 2:
            continue
        if args.method == "diff_of_avg":
            v = vg.variogram_diff_of_avg(sub, clock, grid)
        elif args.method == "two_point_grid":
            v = vg.variogram_two_point(sub, clock, grid, mode="grid_points")
        else:
            v = vg.variogram_two_point(sub, clock, grid, mode="full_resolution")
        if len(v) >= 2 and v.tau[0] <= args.normalize_at <= v.tau[-1]:
            results[t] = vg.normalize_at(v, args.normalize_at)
    if not results:
        raise DataError("no ticker produced a usable variogram")
    out = _out_dir(args)
    for t, v in results.items():
        v.write_csv(out / f"variogram_{t}.csv")
    # the ensemble takes the tickers that kept every tau of the grid
    full = [v.v for v in results.values() if len(v) == len(grid)]
    if full:
        vg.write_ensemble_csv(out / "ensemble.csv", grid, vg.percentile_curves(np.stack(full)))
    _write_manifest(out, "variogram", args, _data_inputs(args.data_dir, series))
    return 0


def cmd_simulate(args) -> int:
    if not -0.5 < args.epsilon < 0.5:
        raise UsageError(f"--epsilon must be in (-0.5, 0.5), got {args.epsilon}")
    if args.years < 1 or args.hours_per_year < 4 or args.vol <= 0:
        raise UsageError("--years >= 1, --hours-per-year >= 4, --vol > 0 required")
    params = hurst.HurstParams(args.epsilon, delta=args.delta,
                               rate=args.rate, sigma=args.sigma)
    method = {"fft": "fft_gaussian", "shot": "shot_noise"}[args.method]
    config = hurst.SimConfig(args.years, args.hours_per_year, args.vol,
                             args.seed, method)
    panel = hurst.simulate(params, config)
    out = _out_dir(args)
    panel.write_csv(out / "panel.csv")
    _write_manifest(out, "simulate", args, [])
    return 0


def cmd_backtest(args) -> int:
    inputs: list[Path] = []
    if args.strategy == "sim-meanrev":
        if not args.panel:
            raise UsageError("sim-meanrev needs --panel")
        panel = hurst.read_panel_csv(args.panel)
        inputs.append(Path(args.panel))
        p_y = bt.run_sim_meanrev(panel)
        summary = {
            "mean": float(p_y.mean()),
            "stderr": float(p_y.std(ddof=1) / np.sqrt(len(p_y))) if len(p_y) > 1 else 0.0,
            "n_years": int(len(p_y)),
            "rms_hourly_return": bt.rms_hourly_return(panel),
        }
        out = _out_dir(args)
        with open(out / "yearly_returns.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["year", "net_return"])
            for y, v in enumerate(p_y):
                w.writerow([y, repr(float(v))])
    else:
        if not args.data_dir or not args.years:
            raise UsageError(f"{args.strategy} needs --data-dir and --years")
        years = _parse_years(args.years)
        series = _load_dir(args.data_dir)
        inputs += _data_inputs(args.data_dir, series)
        config = bt.StrategyConfig(
            staleness=args.staleness, top_fraction=args.top_fraction,
            min_side_count=args.min_side_count, stake=args.stake,
            min_active_fraction=args.min_active_fraction,
            cost_per_round_trip=args.cost)
        clocks = _clocks(series, years, CLOCK_KINDS[args.kind])
        panel = pn.build_panel(series, clocks).eligible(config.min_active_fraction)
        tickers, prices = panel.tickers, panel.price
        if args.strategy == "market-meanrev":
            result = bt.run_market_meanrev(prices, tickers, config,
                                           long_only=args.long_only)
        else:
            if not args.coeffs:
                raise UsageError("xcorr needs --coeffs")
            coeffs = pred.read_coeffs_csv(args.coeffs)
            inputs.append(Path(args.coeffs))
            missing = [t for t in coeffs.tickers if t not in tickers]
            if missing:
                raise DataError(f"coefficient tickers missing from panel: {missing[:5]}")
            idx = [tickers.index(t) for t in coeffs.tickers]
            result = bt.run_xcorr_strategy(prices[idx], list(coeffs.tickers),
                                           coeffs, config)
        summary = {"annualized_yield": bt.annualized_yield(result.curve),
                   "total_pnl": result.ledger.total_pnl(),
                   "n_trades": len(result.ledger), **result.info}
        out = _out_dir(args)
        result.ledger.write_csv(out / "ledger.csv")
        result.curve.write_csv(out / "equity.csv")
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "backtest", args, inputs)
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_predict(args) -> int:
    train_years = _parse_years(args.train_years)
    predict_years = _parse_years(args.predict_years)
    all_years = sorted(set(train_years) | set(predict_years))
    series = _load_dir(args.data_dir)
    clocks = _clocks(series, all_years, CLOCK_KINDS[args.kind])
    panel = pn.build_panel(series, clocks).eligible(args.min_active_fraction)
    tickers = panel.tickers
    returns = panel.adjacent_returns()
    out = _out_dir(args)
    grid: dict[str, dict] = {}
    for ty in train_years:
        cmat = cov.estimate_cov(panel.year(ty), min_obs=args.min_obs).filled()
        ridge = args.ridge if args.ridge is not None else pred.default_ridge(cmat)
        a = pred.invert_with_ridge(cmat, ridge)
        b = pred.loo_coefficients(a)
        if args.refine:
            others = [returns[y] for y in all_years if y != ty] or [returns[ty]]
            b, _ = pred.gradient_refine(returns[ty], others, b)
        b.write_csv(out / f"coeffs_{ty}.csv")
        grid[str(ty)] = {}
        for py in predict_years:
            grid[str(ty)][str(py)] = _scores(pred.predict(b, returns[py]), returns[py])
    grid["none"] = {}
    for py in predict_years:
        r = returns[py]
        variances = np.nanvar(r, axis=1)
        if np.any(variances <= 0) or np.isnan(variances).any():
            raise DataError(f"year {py}: a ticker has no return variance")
        grid["none"][str(py)] = _scores(pred.naive_predict(r, variances), r)
    with open(out / "report.json", "w") as fh:
        json.dump({"tickers": tickers, "fve_grid": grid}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    _write_manifest(out, "predict", args, _data_inputs(args.data_dir, series))
    print(json.dumps(grid, sort_keys=True))
    return 0


def _scores(r_hat: np.ndarray, r: np.ndarray) -> dict:
    rep = pred.prediction_report(r_hat, r)
    return {"fve": rep.fve, "fmse": rep.fmse, "fve_plain": rep.fve_plain}


def cmd_correlate(args) -> int:
    years = _parse_years(args.years)
    if not 0 < args.tau < np.inf:
        raise UsageError(f"--tau must be positive and finite, got {args.tau}")
    grid = _parse_tau_grid(args.tau_grid) if args.tau_grid else None
    if grid is not None:
        _check_normalize_at(args.normalize_at, grid)
    series = _load_dir(args.data_dir)
    out = _out_dir(args)

    clocks = _clocks(series, years, CLOCK_KINDS[args.kind])
    panel = pn.build_panel(series, clocks, args.tau)
    panel = panel.select(np.isfinite(panel.price).sum(axis=1) >= 2)
    if not panel.tickers:
        raise DataError("no ticker has enough bins at the requested tau")
    cmat = cov.estimate_cov(panel, min_obs=args.min_obs)
    rmat = cov.cov_to_corr(cmat)
    cmat.write_csv(out / "cov.csv", out / "n_obs.csv")
    rmat.write_csv(out / "corr.csv")

    if grid is not None:
        clock = clocks[0]  # rho(tau) curves use the first requested year
        sub = {t: series[t].slice_window(clock.year_start, clock.year_end)
               for t in panel.tickers}
        sub = {t: s for t, s in sub.items() if len(s) >= 2}
        _, curves, v = cov.corr_vs_tau(sub, clock, grid, normalize_tau=args.normalize_at)
        ok_rows = ~np.isnan(curves).any(axis=1)
        perc = (vg.percentile_curves(curves[ok_rows]) if ok_rows.any()
                else np.full((5, len(grid)), np.nan))
        # the median variogram of the tickers that have V at every tau
        full = v[~np.isnan(v).any(axis=1)]
        if len(full):
            med_v = vg.Variogram(grid, np.median(full, axis=0),
                                 np.ones(len(grid), dtype=int))
            predicted = cov.predicted_corr_ratio(med_v, grid, args.normalize_at)
        else:
            predicted = np.full(len(grid), np.nan)
        with open(out / "corr_vs_tau.csv", "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["tau_hours", "p10", "p25", "p50", "p75", "p90", "predicted"])
            for i, t in enumerate(grid):
                w.writerow([repr(float(t))] + [repr(float(c[i])) for c in perc]
                           + [repr(float(predicted[i]))])
    _write_manifest(out, "correlate", args, _data_inputs(args.data_dir, series))
    return 0


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vartau", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--manifest", help="replay a prior run from its manifest")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("clock", help="build a transaction-time clock")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--year", type=int, required=True)
    sp.add_argument("--kind", choices=sorted(CLOCK_KINDS), default="dollar")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_clock)

    sp = sub.add_parser("variogram", help="per-ticker and ensemble variograms")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--year", type=int, required=True)
    sp.add_argument("--clock", choices=sorted(CLOCK_KINDS), default="dollar")
    sp.add_argument("--method", choices=["diff_of_avg", "two_point_grid",
                                         "two_point_full"], default="diff_of_avg")
    sp.add_argument("--tau-grid", default="0.0333333:200:25")
    sp.add_argument("--normalize-at", type=float, default=1.0)
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
    sp.add_argument("--rate", type=float, default=10.0)
    sp.add_argument("--sigma", type=float, default=1.0)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("backtest", help="run a trading strategy")
    sp.add_argument("--strategy", choices=["sim-meanrev", "market-meanrev",
                                           "xcorr"], required=True)
    sp.add_argument("--panel", help="panel CSV (sim-meanrev)")
    sp.add_argument("--data-dir")
    sp.add_argument("--years", help="comma-separated calendar years")
    sp.add_argument("--kind", choices=sorted(CLOCK_KINDS), default="dollar")
    sp.add_argument("--coeffs", help="prediction coefficients CSV (xcorr)")
    sp.add_argument("--staleness", type=int, default=1)
    sp.add_argument("--top-fraction", type=float, default=0.05)
    sp.add_argument("--min-side-count", type=int, default=100)
    sp.add_argument("--min-active-fraction", type=float, default=0.5)
    sp.add_argument("--stake", type=float, default=1.0)
    sp.add_argument("--cost", type=float, default=0.0)
    sp.add_argument("--long-only", action="store_true")
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_backtest)

    sp = sub.add_parser("predict", help="leave-one-out prediction grid")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--train-years", required=True)
    sp.add_argument("--predict-years", required=True)
    sp.add_argument("--kind", choices=sorted(CLOCK_KINDS), default="dollar")
    sp.add_argument("--ridge", type=float, default=None)
    sp.add_argument("--refine", action="store_true")
    sp.add_argument("--min-obs", type=int, default=cov.DEFAULT_MIN_OBS)
    sp.add_argument("--min-active-fraction", type=float, default=0.5)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("correlate", help="correlation matrix and rho(tau)")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--years", required=True)
    sp.add_argument("--kind", choices=sorted(CLOCK_KINDS), default="dollar")
    sp.add_argument("--tau", type=float, default=1.0)
    sp.add_argument("--tau-grid", default=None)
    sp.add_argument("--normalize-at", type=float, default=1.0)
    sp.add_argument("--min-obs", type=int, default=cov.DEFAULT_MIN_OBS)
    sp.add_argument("--out-dir", required=True)
    sp.set_defaults(func=cmd_correlate)
    return p


def _replay(manifest_path: str) -> int:
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read manifest {manifest_path!r}: {exc}") from exc
    command = manifest.get("command")
    if not command:
        raise DataError(f"manifest {manifest_path!r} has no command")
    for path, digest in sorted(manifest.get("inputs", {}).items()):
        if not Path(path).is_file():
            raise DataError(f"manifest input {path} is missing")
        if _sha256(Path(path)) != digest:
            raise DataError(f"manifest input {path} has changed since the run")
    data_dir = manifest.get("args", {}).get("data_dir")
    if data_dir:
        # the command reads every *.csv in the directory, not only the inputs
        recorded = set(map(Path, manifest.get("inputs", {})))
        for path in sorted(Path(data_dir).glob("*.csv")):
            if path not in recorded:
                raise DataError(f"{path} was added to {data_dir} after the run")
    argv = [command]
    for key, val in sorted(manifest.get("args", {}).items()):
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        elif val is not None:
            argv += [flag, str(val)]
    return main(argv)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.manifest:
            return _replay(args.manifest)
        if not getattr(args, "command", None):
            parser.print_help()
            return 2
        return args.func(args)
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
