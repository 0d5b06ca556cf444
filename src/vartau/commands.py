"""The bodies of the ``vartau`` commands, which ``cli._run`` imports to run one.

Each ``cmd_*`` validates, loads and computes, and returns ``(inputs, files,
stdout)``: the sha256 of each file read, by path; a writer of each output
file, by name; and the object to print as JSON, or None. Only once it has
returned does ``_run`` make ``--out-dir``, write the files, then the
manifest, and print, so a command that fails (a NaN in its JSON included)
writes nothing.

Each command imports the library modules on its own path when it runs and
calls their functions as module attributes, so ``simulate`` loads no clock
or panel, and a function replaced on its module (by a test, or by the bench's
tracer) is the one a command calls.

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
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import candles
from .cli import UsageError, _json, _parse_years
from .errors import DataError


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
        self.files = candles.candle_files(d)
        if not self.files:
            raise DataError(f"no .csv candle files in {data_dir!r}")
        self.digests: dict[Path, str] = {}

    def __iter__(self) -> Iterator[candles.CandleSeries]:
        return map(self._load, self.files)

    def _load(self, path: Path) -> candles.CandleSeries:
        if path in self.digests:
            return candles.load_parsed(path, self.digests[path])
        series = candles.parse_candles(path)
        self.digests[path] = series.sha256
        return series

    def view(self, clocks):
        """The files' candles on the clocks' transaction-hour axes, as a lazy
        ``panel.TxnCandles`` whose tickers are the file stems, sorted."""
        from . import panel
        paths = {p.stem: p for p in self.files}
        return panel.TxnCandles.on_clocks(sorted(paths), clocks, lambda t: self._load(paths[t]))

    def inputs(self) -> dict[Path, str]:
        """Each file read, with the sha256 of the content parsed; a file that no
        pass has reached yet (the plain clock reads none) is parsed now."""
        for path in self.files:
            if path not in self.digests:
                self._load(path)
        return self.digests


def _check_width(flag: str, taus, years: list[int]) -> None:
    """Grid indices are int64: no tau may make a grid of 2**63 columns over the years."""
    from .clock import hours_in_year
    for tau in taus:
        if sum(math.ceil(min(hours_in_year(y) / tau, 2.0**63)) for y in years) >= 2**63:
            raise UsageError(f"{flag} {tau:g} makes a grid of 2**63 or more columns")


def _parse_tau_grid(text: str, normalize_at: float, years: list[int]) -> np.ndarray:
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
        from . import variogram as vg
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
    _check_width("--tau-grid", grid, years)
    return grid


def _mapped(data_dir: str, years: list[int], kind: str):
    """The candles as a lazy ``panel.TxnCandles`` view on the years' clocks of
    the given kind, and the files read with their digests (the clocks read
    every file)."""
    from . import clock
    stream = _CandleFiles(data_dir)
    clocks = [clock.build_clock(stream, clock.ClockKind(kind), y) for y in years]
    return stream.view(clocks), stream.inputs()


def cmd_clock(args):
    from . import clock
    stream = _CandleFiles(args.data_dir)
    built = clock.build_clock(stream, clock.ClockKind(args.kind), args.year)
    return stream.inputs(), {f"clock_{args.year}_{args.kind}.csv": built.write_csv}, None


def cmd_variogram(args):
    from . import variogram as vg
    from .clock import hours_in_year
    grid = _parse_tau_grid(args.tau_grid, args.normalize_at, [args.year])
    mapped, inputs = _mapped(args.data_dir, [args.year], args.clock)
    # one pass, each ticker let go once estimated; fewer than two candles omit every tau
    curves = dict(zip(mapped.tickers, map(lambda per_year: vg.variogram_diff_of_avg(
        per_year[0], hours_in_year(args.year), grid), mapped)))
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
        files["ensemble.csv"] = lambda path: candles.write_table(
            path, ["tau_hours", *(f"p{p}" for p in vg.PERCENTILES)], cols)
    return inputs, files, None


def cmd_simulate(args):
    from . import hurst
    params = hurst.HurstParams(args.epsilon, delta=args.delta, rate=args.rate)
    config = hurst.SimConfig(args.years, args.hours_per_year, args.vol, args.seed)
    simulate = hurst.simulate_fbm if args.method == "fft" else hurst.simulate_shot_noise
    return {}, {"panel.csv": simulate(params, config).write_csv}, None


def cmd_backtest(args):
    from . import backtest as bt
    if args.long_only and args.strategy != "market-meanrev":
        raise UsageError(f"--long-only applies to market-meanrev only, not {args.strategy}")
    inputs: dict[Path, str] = {}
    if args.strategy == "sim-meanrev":
        from . import hurst
        if not args.panel:
            raise UsageError("sim-meanrev needs --panel")
        panel, inputs[Path(args.panel)] = candles.read_hashed(args.panel, hurst.read_panel_csv)
        p_y = bt.run_sim_meanrev(panel.prices)
        summary = {
            "mean": float(p_y.mean()),
            "stderr": float(p_y.std(ddof=1) / np.sqrt(len(p_y))) if len(p_y) > 1 else 0.0,
            "n_years": int(len(p_y)),
            "rms_hourly_return": bt.rms_hourly_return(panel.prices),
        }
        files = {"yearly_returns.csv": lambda path: candles.write_table(
            path, ["year", "net_return"], [np.arange(len(p_y)), p_y])}
    else:
        from . import panel as pn
        if not args.data_dir or not args.years:
            raise UsageError(f"{args.strategy} needs --data-dir and --years")
        years = _parse_years(args.years)
        coeffs = None
        if args.strategy == "xcorr":
            from . import predictor as pred
            if not args.coeffs:
                raise UsageError("xcorr needs --coeffs")
            # before the market is parsed
            coeffs, inputs[Path(args.coeffs)] = candles.read_hashed(args.coeffs,
                                                                    pred.read_coeffs_csv)
        config = bt.StrategyConfig(staleness=args.staleness, top_fraction=args.top_fraction,
                                   min_side_count=args.min_side_count)
        pn.check_active_fraction(args.min_active_fraction)    # before the market is parsed
        mapped, digests = _mapped(args.data_dir, years, args.kind)
        inputs.update(digests)
        if coeffs is not None:      # xcorr trades the coefficient file's tickers, in its order
            have = set(mapped.tickers)
            missing = [t for t in coeffs.tickers if t not in have]
            if missing:
                raise DataError(f"coefficient ticker {missing[0]} has no candle file in "
                                f"{args.data_dir}")
            mapped = mapped.select(coeffs.tickers)
        panel = pn.build_panel(mapped, args.min_active_fraction if coeffs is None else None)
        del mapped      # the view holds the clocks' knots
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
    from . import covariance as cov, panel as pn, predictor as pred
    from .clock import hours_in_year
    train_years = _parse_years(args.train_years)
    predict_years = _parse_years(args.predict_years)
    all_years = sorted(set(train_years) | set(predict_years))
    if args.min_obs < 0:        # these before the market is parsed
        raise UsageError(f"--min-obs must be non-negative, got {args.min_obs}")
    pn.check_active_fraction(args.min_active_fraction)
    if args.ridge is not None:
        pred.check_ridge(args.ridge)
    mapped, inputs = _mapped(args.data_dir, all_years, args.kind)
    panel = pn.build_panel(mapped, args.min_active_fraction)
    del mapped          # the view holds the clocks' knots
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
    from . import covariance as cov, panel as pn, variogram as vg
    years = _parse_years(args.years)
    if not 0 < args.tau < np.inf:
        raise UsageError(f"--tau must be positive and finite, got {args.tau}")
    _check_width("--tau", [args.tau], years)
    if args.min_obs < 0:
        raise UsageError(f"--min-obs must be non-negative, got {args.min_obs}")
    grid = _parse_tau_grid(args.tau_grid, args.normalize_at, years) if args.tau_grid else None
    mapped, inputs = _mapped(args.data_dir, years, args.kind)
    if grid is not None:        # held once, for the covariances and every tau of rho(tau)
        mapped = mapped.held()

    cmat = cov.estimate_cov(mapped.tickers, pn.grid_bins(mapped, args.tau),
                            sum(mapped.widths(args.tau)), min_obs=args.min_obs)
    if not cmat.tickers:
        raise DataError("no ticker has enough bins at the requested tau")
    files = {"cov.csv": cmat.write_csv,
             "n_obs.csv": lambda path: candles.write_table(path, cmat.tickers, cmat.n_obs.T),
             "corr.csv": cov.cov_to_corr(cmat).write_csv}

    if grid is not None:
        # rho(tau) curves use the first requested year; the others are let go
        mapped = mapped.select(cmat.tickers, years[0]).held()
        _, curves, v = cov.corr_vs_tau(mapped, grid, args.normalize_at)
        perc = vg.percentile_curves(curves)     # each tau over the pairs with a value there
        # the median V of the tickers with a positive V at every tau, not a constant price
        full = v[(v > 0).all(axis=1)]
        predicted = (cov.predicted_corr_ratio(vg.column_quantiles(full), grid, args.normalize_at)
                     if len(full) else np.full(len(grid), np.nan))
        files["corr_vs_tau.csv"] = lambda path: candles.write_table(
            path, ["tau_hours", *(f"p{p}" for p in vg.PERCENTILES), "predicted"],
            [grid, *perc, predicted])
    return inputs, files, None
