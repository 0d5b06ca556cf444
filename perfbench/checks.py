"""Output checks and fingerprints for the benchmark's vartau commands.

Each check reads one command's output directory and returns a list of
problems, empty when the output is right. The tolerances follow from what
the generated inputs plant:

* the market is a memoryless walk, so the ensemble variogram is linear in
  tau and ``fit_power_law`` over the whole grid gives an exponent near 1;
* every pair of tickers has minute-return correlation ``loading**2``;
* a simulated Hurst panel has variogram exponent ``1 - 2*epsilon`` (the
  shot-noise panel only roughly; see ``SHOT_EXPONENT``).

A problem that a known program defect explains names that defect; it is
reported with the defect but does not make the run incorrect. The defect
explains at most the share of hours it causes in the current program
(``ONE_SIDED_MAX``); anything beyond that is an unexplained failure, so a
fix shows as the share falling and a regression as a failure.

A fingerprint records, for every output file, its row count and the
full-precision (``math.fsum``) sum of every numeric column, so that two
results can be compared at ``REL_TOL``.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from vartau import hurst
from vartau import variogram as vg

EXPONENT_TOL = 0.1          # absolute, on a fitted variogram exponent
# The shot-noise impulse rises over delta = 0.5 h, so over the 1-300 h lags
# of panel_variogram the model's own slope at epsilon 0.1 is about 0.83, not
# 0.8: the mean over 40 seeds of one rate-2 year is 0.831, with standard
# deviation 0.039. The tolerance is about 4 of those deviations, so a
# correct simulator fails about one seed in 10^4; one simulated year cannot
# resolve an epsilon error much below 0.07, which the FFT panel check does.
SHOT_EXPONENT = 0.83
SHOT_EXPONENT_TOL = 0.15
# Largest share of traded hours in which only one side trades, per ledger,
# that the one_sided_fill defect explains. Over seeds 1-30 of the wide
# workload the current program gives 0.51-1.14% (mean 0.83%, standard
# deviation 0.17%) for market-meanrev and 23.9-27.0% (mean 25.3%, standard
# deviation 0.64%) for xcorr; each cap is about 7 deviations above the mean.
ONE_SIDED_MAX = {"meanrev": 0.02, "xcorr": 0.30}
CORR_TOL = 0.1              # absolute, on the median off-diagonal correlation
EXACT_TOL = 1e-12           # relative, on quantities the code sets exactly
BALANCE_TOL = 1e-9          # relative, on sums of many fills
REL_TOL = 1e-12             # fingerprint comparison
MANIFEST = "run_manifest.json"

KNOWN_DEFECTS = {
    "one_sided_fill": "backtest._settle_side books no trades for a side whose "
                      "names all lack an entry or exit price while the other side "
                      "still trades, so that hour is not market-neutral",
}


@dataclass(frozen=True)
class Problem:
    text: str
    defect: str = ""        # key of the KNOWN_DEFECTS entry that explains it


def _matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _close(a: float, b: float, rel: float, scale: float | None = None) -> bool:
    return abs(a - b) <= rel * (scale if scale is not None else max(abs(a), abs(b)))


def check_clock(out: Path, ctx: dict) -> list[Problem]:
    files = sorted(out.glob("clock_*.csv"))
    if len(files) != 1:
        return [Problem(f"expected one clock file, found {len(files)}")]
    k = _matrix(files[0])
    problems = []
    if np.any(np.diff(k[:, 0]) <= 0):
        problems.append(Problem("clock knots not strictly increasing"))
    if np.any(np.diff(k[:, 1]) < 0) or k[0, 1] != 0.0:
        problems.append(Problem("transaction hours not non-decreasing from 0"))
    if k[-1, 1] != ctx["hours_in_year"]:
        problems.append(Problem(f"clock ends at {k[-1, 1]}, want {ctx['hours_in_year']}"))
    return problems


def check_variogram(out: Path, ctx: dict) -> list[Problem]:
    path = out / "ensemble.csv"
    if not path.is_file():
        return [Problem("no ensemble.csv")]
    e = _matrix(path)
    fit = vg.fit_power_law(vg.Variogram(e[:, 0], e[:, 3], np.ones(len(e))))
    if abs(fit.exponent - 1.0) > EXPONENT_TOL:
        return [Problem(f"ensemble p50 exponent {fit.exponent:.4f}, want 1 +- {EXPONENT_TOL}")]
    return []


def check_correlate(out: Path, ctx: dict) -> list[Problem]:
    problems = []
    c = _matrix(out / "cov.csv")
    if not np.array_equal(c, c.T, equal_nan=True):
        problems.append(Problem("cov.csv is not symmetric"))
    d = np.diag(c)
    if not np.all(d[~np.isnan(d)] > 0):     # NaN marks a variance below min_obs
        problems.append(Problem("cov.csv has a non-positive diagonal entry"))
    rho = _matrix(out / "corr.csv")
    off = rho[~np.eye(len(rho), dtype=bool)]
    med = float(np.nanmedian(off))
    if abs(med - ctx["planted_corr"]) > CORR_TOL:
        problems.append(Problem(f"median correlation {med:.4f}, planted "
                                f"{ctx['planted_corr']:.4f} +- {CORR_TOL}"))
    curve = out / "corr_vs_tau.csv"
    if curve.is_file():
        r = _matrix(curve)
        at = np.flatnonzero(r[:, 0] == ctx["normalize_at"])
        if len(at) != 1 or not _close(r[at[0], 3], 1.0, EXACT_TOL):
            problems.append(Problem(f"corr_vs_tau p50 is not 1 at tau={ctx['normalize_at']}"))
    return problems


def check_predict(out: Path, ctx: dict) -> list[Problem]:
    b = _matrix(out / f"coeffs_{ctx['years'][0]}.csv")
    problems = []
    if np.any(np.diag(b) != 0) or not np.all(np.isfinite(b)):
        problems.append(Problem("coefficients not finite with a zero diagonal"))
    report = json.loads((out / "report.json").read_text())
    if not all(math.isfinite(x) for x in _numbers(report["fve_grid"]).values()):
        problems.append(Problem("non-finite value in the fve grid"))
    return problems


def check_ledger(out: Path, ctx: dict, one_sided_max: float) -> list[Problem]:
    problems = []
    notional: dict[tuple[int, str], float] = {}
    pnl = []
    with open(out / "ledger.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["hour"]), row["side"])
            notional[key] = notional.get(key, 0.0) + float(row["qty"]) * float(row["entry"])
            pnl.append(float(row["pnl"]))
    hours = sorted({h for h, _ in notional})
    two_sided = [h for h in hours if (h, "long") in notional and (h, "short") in notional]
    one_sided = sorted(set(hours) - set(two_sided))
    unbalanced = [h for h in two_sided
                  if not _close(notional[h, "long"], notional[h, "short"], BALANCE_TOL)]
    if one_sided:
        text = (f"only one side traded in {len(one_sided)} of {len(hours)} traded "
                f"hours, first at hour {one_sided[0]}")
        if len(one_sided) <= one_sided_max * len(hours):
            problems.append(Problem(text, "one_sided_fill"))
        else:
            problems.append(Problem(f"{text}: more than the {one_sided_max:.1%} "
                                    f"that one_sided_fill explains"))
    if unbalanced:
        problems.append(Problem(f"long and short notionals differ in {len(unbalanced)} "
                                f"of {len(hours)} two-sided hours, first at hour "
                                f"{unbalanced[0]}"))
    equity = _matrix(out / "equity.csv")
    last = float(equity[-1, 1]) if len(equity) else 0.0
    if not _close(last, math.fsum(pnl), BALANCE_TOL, sum(map(abs, pnl)) + 1e-300):
        problems.append(Problem(f"equity ends at {last!r}, ledger pnl sums to "
                                f"{math.fsum(pnl)!r}"))
    return problems


def check_sim_backtest(out: Path, ctx: dict) -> list[Problem]:
    y = _matrix(out / "yearly_returns.csv")
    summary = json.loads((out / "summary.json").read_text())
    if len(y) != summary["n_years"] or not np.all(np.isfinite(y[:, 1])):
        return [Problem("yearly returns missing or not finite")]
    return []


def check_panel(out: Path, ctx: dict, want: float | None = None,
                tol: float = EXPONENT_TOL) -> list[Problem]:
    d = _matrix(out / "panel.csv")
    years = d[:, 0].astype(int)
    prices = d[:, 2].reshape(years.max() + 1, -1)
    problems = []
    ends = prices[:, [0, -1]]
    if np.any(np.abs(ends - 1.0) > EXACT_TOL):
        problems.append(Problem("a simulated year does not start and end at 1.0"))
    fit = vg.fit_power_law(hurst.panel_variogram(hurst.PricePanel(prices)))
    if want is None:
        want = 1.0 - 2.0 * ctx["epsilon"]
    if abs(fit.exponent - want) > tol:
        problems.append(Problem(f"panel exponent {fit.exponent:.4f}, want {want} +- {tol}"))
    return problems


CHECKS = {
    "clock": check_clock,
    "variogram": check_variogram,
    "correlate": check_correlate,
    "predict": check_predict,
    "meanrev_ledger": functools.partial(check_ledger,
                                        one_sided_max=ONE_SIDED_MAX["meanrev"]),
    "xcorr_ledger": functools.partial(check_ledger, one_sided_max=ONE_SIDED_MAX["xcorr"]),
    "sim_backtest": check_sim_backtest,
    "panel": check_panel,
    "shot_panel": functools.partial(check_panel, want=SHOT_EXPONENT,
                                    tol=SHOT_EXPONENT_TOL),
}


def _numbers(obj, prefix="") -> dict[str, float]:
    """Numeric leaves of a JSON value, keyed by their path."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_numbers(v, f"{prefix}/{k}"))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(_numbers(v, f"{prefix}/{i}"))
        return out
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return {prefix: float(obj)}
    return {}


def _csv_fingerprint(path: Path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    columns = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in body]
        try:
            values = [float(x) for x in cells]
        except ValueError:
            digest = hashlib.sha256("\n".join(cells).encode()).hexdigest()[:16]
            columns[f"{j}:{name}"] = digest
            continue
        finite = [v for v in values if math.isfinite(v)]
        columns[f"{j}:{name}"] = {"sum": math.fsum(finite),
                                  "nonfinite": len(values) - len(finite)}
    return {"rows": len(body), "columns": columns}


def fingerprint(out: Path) -> dict:
    """Row counts and exact column sums of every output file but the manifest."""
    fp = {}
    for path in sorted(out.iterdir()):
        if path.name == MANIFEST:
            continue
        if path.suffix == ".csv":
            fp[path.name] = _csv_fingerprint(path)
        elif path.suffix == ".json":
            fp[path.name] = {"numbers": _numbers(json.loads(path.read_text()))}
    return fp


def digests(out: Path) -> dict[str, str]:
    """sha256 of every output file but the manifest, which holds a timestamp."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != MANIFEST}


def compare(a, b, path="") -> list[str]:
    """Differences between two fingerprints beyond REL_TOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        out = []
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append(f"{path}/{k}: only in {'second' if k in b else 'first'}")
            else:
                out.extend(compare(a[k], b[k], f"{path}/{k}"))
        return out
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)) or _close(a, b, REL_TOL):
            return []
        return [f"{path}: {a!r} != {b!r}"]
    return [] if a == b else [f"{path}: {a!r} != {b!r}"]
