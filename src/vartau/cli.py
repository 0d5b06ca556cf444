"""Command-line pipeline driver.

Subcommands cover the full analysis chain: build transaction-time
clocks, estimate variograms, simulate Hurst panels, run the arbitrage
backtests, compute correlation matrices and rho(tau) curves, and
fit/evaluate leave-one-out predictors. Every command writes
machine-readable CSV/JSON plus a run manifest sufficient to replay it
bit-identically via ``vartau --manifest <file>``.

This module is the shell: the parser, manifest replay and exit codes. It
imports only the standard library and ``vartau.errors``, so ``--help`` and
a usage error load no NumPy. A command's body is in ``vartau.commands``,
which ``_run`` imports when a command runs; each command there imports the
library modules on its own path and looks their functions up at call time,
so ``simulate`` loads no clock, panel or covariance and ``clock`` no
variogram. Each command of a batch pipeline is a process of its own, and on
a small input its start-up is most of its wall time.

Exit codes: 0 success, 2 usage, 3 data error (such as a manifest that does not
replay, or a value a simulation cannot take), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import DataError, NumericalError

# The parser's values that the library defines, written out so that parsing
# imports no NumPy module; tests/test_cli.py checks that they agree.
CLOCK_KINDS = ["clock", "dollar", "volume"]     # clock.ClockKind's values
_MIN_OBS = 50                                   # covariance.DEFAULT_MIN_OBS
_RIDGE_SCALE = 1e-4                             # predictor.RIDGE_SCALE
_YEARS = range(1, 9999)     # clock.year_bounds': Jan 1 of the next year is a datetime


def __getattr__(name: str):
    """``cli.parse_candles``, which perfbench's tracer test reads, is the candle
    parser that ``vartau.candles`` holds when it is read; nothing here binds it."""
    if name == "parse_candles":
        from . import candles
        return candles.parse_candles
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _year(text: str) -> int:
    """A year that the clocks can span; the type of ``--year`` and of each year in a list."""
    try:
        year = int(text)
        if year not in _YEARS:
            raise ValueError(year)
    except ValueError:
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

    sp = sub.add_parser("variogram", help="per-ticker and ensemble variograms")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--year", type=_year, required=True)
    sp.add_argument("--clock", choices=CLOCK_KINDS, default="dollar")
    sp.add_argument("--tau-grid", default="0.0333333:200:25", help=grid_help)
    sp.add_argument("--normalize-at", type=float, default=1.0,
                    help="tau (hours) where each V is 1, read log-log if V > 0, else linearly "
                         "in log tau; a ticker whose V does not reach it is left out")
    sp.add_argument("--out-dir", required=True)

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
                    help="fewest decliners and gainers an hour trades; market-meanrev "
                         "only. The default of 100 trades no hour below about 200 "
                         "eligible tickers")
    sp.add_argument("--min-active-fraction", type=float, default=0.5,
                    help="share of each year's hours a kept ticker trades in; "
                         "market-meanrev only (xcorr trades its coefficient file's tickers)")
    sp.add_argument("--long-only", action="store_true", help="no shorts; market-meanrev only")
    sp.add_argument("--out-dir", required=True)

    sp = sub.add_parser("predict", help="leave-one-out prediction grid")
    sp.add_argument("--data-dir", required=True)
    sp.add_argument("--train-years", required=True,
                    help="comma-separated years; each fits one coeffs_<year>.csv")
    sp.add_argument("--predict-years", required=True,
                    help="comma-separated years on which every fit is scored")
    sp.add_argument("--kind", choices=CLOCK_KINDS, default="dollar", help="price clock")
    sp.add_argument("--ridge", type=float, default=None,
                    help="added to the covariance diagonal; by default RIDGE_SCALE "
                         f"({_RIDGE_SCALE:g}) times the mean variance")
    sp.add_argument("--refine", action="store_true",
                    help="refine each fit by gradient descent, stopped early on the other "
                         "training years; with one training year, on that year, in sample")
    sp.add_argument("--min-obs", type=int, default=_MIN_OBS,
                    help="overlapping pairs of hourly returns a pair of tickers needs, "
                         "and hourly returns each of them needs; below it a cell is imputed")
    sp.add_argument("--min-active-fraction", type=float, default=0.5,
                    help="share of each year's hours a kept ticker trades in")
    sp.add_argument("--out-dir", required=True)

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
    sp.add_argument("--min-obs", type=int, default=_MIN_OBS,
                    help="overlapping pairs of returns a pair of tickers needs in cov.csv "
                         "and corr.csv, and returns each of them needs; the rho(tau) "
                         "curves keep every pair with at least 2")
    sp.add_argument("--out-dir", required=True)
    return p


def _run(args) -> int:
    """Run a command; then make --out-dir, write its files and manifest, and print."""
    from . import commands
    inputs, files, stdout = getattr(commands, f"cmd_{args.command}")(args)
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "manifest")}
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
    from .candles import candle_files, not_utf8, sha256_file
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
    # run as ``python -m vartau.cli``, this module is ``__main__``; under its own
    # name too, ``vartau.commands``' ``from .cli import ...`` finds it here
    # rather than compiling and running this file a second time
    sys.modules.setdefault("vartau.cli", sys.modules[__name__])
    sys.exit(main())
