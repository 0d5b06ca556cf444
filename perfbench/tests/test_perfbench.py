"""The benchmark's own checks, at a size that runs in seconds."""

import functools
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, run, tracing
from perfbench.market import LOADING, MarketSpec, write_market
from perfbench.workloads import LAYER_TABLE, TAU_GRID, WORKLOADS
from vartau import candles, cli

SMALL = MarketSpec(tickers=4, years=(2021,), sessions=24, dense=4)
CTX = {"planted_corr": LOADING ** 2, "normalize_at": 1.0, "epsilon": 0.1,
       "years": SMALL.years, "hours_in_year": 8760.0}


def commands(data: Path, out: Path) -> dict[str, list[str]]:
    d = str(data)
    return {
        "clock": ["clock", "--data-dir", d, "--year", "2021", "--out-dir", f"{out}/clock"],
        # this market has few minutes per transaction hour, so the grid
        # starts well above one bar's span
        "variogram": ["variogram", "--data-dir", d, "--year", "2021",
                      "--tau-grid", "0.5:200:25", "--out-dir", f"{out}/variogram"],
        "correlate": ["correlate", "--data-dir", d, "--years", "2021", "--tau-grid",
                      TAU_GRID, "--out-dir", f"{out}/correlate"],
        "meanrev_ledger": ["backtest", "--strategy", "market-meanrev", "--data-dir", d,
                           "--years", "2021", "--min-side-count", "1",
                           "--out-dir", f"{out}/meanrev_ledger"],
        "panel": ["simulate", "--epsilon", "0.1", "--years", "4", "--hours-per-year",
                  "2000", "--out-dir", f"{out}/panel"],
    }


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Good outputs of one small market, made once; tests corrupt copies."""
    root = tmp_path_factory.mktemp("bench")
    write_market(SMALL, 7, root / "data")
    for argv in commands(root / "data", root / "out").values():
        assert cli.main(argv) == 0
    return root / "out"


@pytest.fixture
def out(outputs, tmp_path):
    shutil.copytree(outputs, tmp_path / "out")
    return tmp_path / "out"


# Four tickers leave a side with no fill far more often than the wide
# workload's 32: in about 9% of this market's traded hours.
SMALL_CHECKS = {**checks.CHECKS, "meanrev_ledger": functools.partial(
    checks.check_ledger, one_sided_max=0.1)}


def unexpected(name, path):
    return [p for p in SMALL_CHECKS[name](path, CTX) if not p.defect]


def rewrite_matrix(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    m = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    edit(m)
    rows = [",".join(repr(float(x)) for x in row) for row in m]
    path.write_text("\n".join([lines[0]] + rows) + "\n")


def test_market_is_byte_identical_for_one_seed(tmp_path):
    a = write_market(SMALL, 3, tmp_path / "a")
    write_market(SMALL, 3, tmp_path / "b")
    write_market(SMALL, 4, tmp_path / "c")
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == a["tickers"] == SMALL.tickers
    for n in names:
        assert (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in names)


def test_market_bars_parse_and_activity_is_uneven(tmp_path):
    spec = MarketSpec(tickers=6, years=(2021,), sessions=3, dense=2)
    info = write_market(spec, 5, tmp_path)
    series = {p.stem: candles.parse_candles(p) for p in sorted(tmp_path.glob("*.csv"))}
    counts = {t: len(s) for t, s in series.items()}
    assert counts == info["candles_by_ticker"]
    dense = info["dense_tickers"]
    assert len(dense) == 2
    assert min(counts[t] for t in dense) > 2 * max(counts[t] for t in counts if t not in dense)


@pytest.mark.parametrize("name", ["clock", "variogram", "correlate", "meanrev_ledger", "panel"])
def test_good_outputs_pass(out, name):
    assert unexpected(name, out / name) == []


def test_asymmetric_cov_is_rejected(out):
    rewrite_matrix(out / "correlate" / "cov.csv", lambda m: m.__setitem__((0, 1), 2 * m[0, 1]))
    assert unexpected("correlate", out / "correlate")


def test_rho_tau_not_one_at_normalisation_is_rejected(out):
    def edit(m):
        m[m[:, 0] == 1.0, 3] = 1.01
    rewrite_matrix(out / "correlate" / "corr_vs_tau.csv", edit)
    assert unexpected("correlate", out / "correlate")


def test_wrong_correlation_level_is_rejected(out):
    rewrite_matrix(out / "correlate" / "corr.csv", lambda m: m.__imul__(0.1))
    assert unexpected("correlate", out / "correlate")


def test_non_linear_variogram_is_rejected(out):
    def edit(m):
        m[:, 3] = m[:, 0] ** 0.5
    rewrite_matrix(out / "variogram" / "ensemble.csv", edit)
    assert unexpected("variogram", out / "variogram")


def test_non_monotone_clock_is_rejected(out):
    path = next((out / "clock").glob("clock_*.csv"))
    rewrite_matrix(path, lambda m: m.__setitem__((slice(1, 3), 0), m[[2, 1], 0]))
    assert unexpected("clock", out / "clock")


def _ledger(out):
    lines = (out / "meanrev_ledger" / "ledger.csv").read_text().splitlines()
    return lines[0], [r.split(",") for r in lines[1:]]


def _write_ledger(out, header, rows):
    (out / "meanrev_ledger" / "ledger.csv").write_text(
        "\n".join([header] + [",".join(r) for r in rows]) + "\n")


def test_unbalanced_ledger_is_rejected(out):
    header, rows = _ledger(out)
    rows[0][3] = repr(2 * float(rows[0][3]))       # double one fill's quantity
    _write_ledger(out, header, rows)
    problems = unexpected("meanrev_ledger", out / "meanrev_ledger")
    assert any("notionals differ" in p.text for p in problems)


def _one_sided(out, share):
    found = checks.check_ledger(out / "meanrev_ledger", CTX, one_sided_max=share)
    return [p.defect for p in found if "one side" in p.text]


def test_one_sided_hours_name_the_known_defect_up_to_its_share(out):
    header, rows = _ledger(out)
    hour, side = rows[0][0], rows[0][2]
    rows = [r for r in rows if not (r[0] == hour and r[2] != side)]
    _write_ledger(out, header, rows)
    sides = {}
    for r in rows:
        sides.setdefault(r[0], set()).add(r[2])
    share = sum(len(s) == 1 for s in sides.values()) / len(sides)
    assert _one_sided(out, share) == ["one_sided_fill"]
    assert _one_sided(out, share - 0.5 / len(sides)) == [""]


@pytest.mark.parametrize("name", ["meanrev_ledger", "xcorr_ledger"])
def test_one_sided_hours_beyond_the_known_share_are_rejected(out, name):
    header, rows = _ledger(out)
    _write_ledger(out, header, [r for r in rows if r[2] == "long"])
    assert unexpected(name, out / "meanrev_ledger")


def test_equity_not_matching_ledger_is_rejected(out):
    rewrite_matrix(out / "meanrev_ledger" / "equity.csv",
                   lambda m: m.__setitem__((-1, 1), m[-1, 1] + 1.0))
    assert unexpected("meanrev_ledger", out / "meanrev_ledger")


def test_panel_year_not_ending_at_one_is_rejected(out):
    def edit(m):
        m[1999, 2] *= 1.01
    rewrite_matrix(out / "panel" / "panel.csv", edit)
    assert unexpected("panel", out / "panel")


def test_fingerprint_compare_tolerance(out):
    fp = checks.fingerprint(out / "correlate")
    assert checks.compare(fp, fp) == []
    near = json.loads(json.dumps(fp))
    col = near["cov.csv"]["columns"]
    key = next(iter(col))
    col[key]["sum"] *= 1 + 1e-13
    assert checks.compare(fp, near) == []
    col[key]["sum"] *= 1 + 1e-9
    assert len(checks.compare(fp, near)) == 1


def test_spans_nest_and_self_time_fits_in_wall(outputs, tmp_path):
    data = outputs.parent / "data"
    original = candles.parse_candles
    tracer = tracing.Tracer()
    with tracer:
        for name, argv in commands(data, tmp_path).items():
            root = tracer.begin(f"cli.{name}")
            assert cli.main(argv) == 0
            tracer.end(root)
    assert cli.parse_candles is original and candles.parse_candles is original
    spans = tracer.spans
    for s in spans:
        assert s.end >= s.start and s.self_s >= -1e-9
        if s.parent is not None:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end
    roots = [_root_of(spans, i) for i in range(len(spans))]
    for i, root in enumerate(spans):
        if root.parent is None:
            self_s = sum(s.self_s for s, r in zip(spans, roots) if r == i)
            assert self_s <= root.end - root.start + 1e-9
    summary = tracer.summary()
    assert summary["candles.parse_candles.calls"] == 4 * SMALL.tickers
    names = set(run.units("per_layer"))
    assert {k for k in summary if not k.startswith("cli.")} <= names


def _root_of(spans, i):
    while spans[i].parent is not None:
        i = spans[i].parent
    return i


def test_every_per_layer_metric_is_reported():
    spec = run.spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    reported = {f"cli.{c.name}.{q}" for w in WORKLOADS.values() for c in w.commands
                for q in ("self_s", "cpu_s", "wall_s")}
    for (module, qualname), (counts, _) in tracing.TRACED.items():
        reported |= {f"{module}.{qualname}.{q}" for q in ("self_s", "calls", *counts)}
    reported |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "market.tickers", "market.candles", *run.RATIOS}
    layers = set(run.units("per_layer"))
    assert layers <= reported
    assert {f"{span}.self_s" for span, *_ in LAYER_TABLE} <= layers


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = np.ones(25_000_000)            # 200 MB in this process
    res = run.run_child(["--help"], tmp_path / "help.err")
    assert res["rc"] == 0
    assert res["rss_mb"] < ballast.nbytes / 2**20 / 2
