"""Benchmark of every vartau CLI command on a seeded synthetic market.

Run from anywhere inside a checkout that holds ``src/vartau``:

    python3 perfbench/run.py --workload deep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --compare RESULT_A.json RESULT_B.json

A run sets up its inputs at least ``SETUP_REPEATS`` times and for at least
``SETUP_SECONDS`` (``setup_s`` is the median; on ``sim``, which has no
market to write, it is the start-up of one ``vartau.cli`` child), then
repeats the workload's command list for ``--seconds``. With ``--trace 0``
each command runs in its own child process, as a user would run it;
``wall_s`` sums each command's median wall time over the passes and
``peak_rss_mb`` is the median over passes of the largest child RSS. With
``--trace 1`` the same commands run in this process through
``vartau.cli.main``, alternating passes with and without spans around the
library functions, and the per-layer metrics are medians over the traced
passes. Every command's outputs are checked on the first pass and must be
byte-identical on later ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the environment, per-command times, check problems and output
fingerprints, is written under ``.perfbench/results``; ``--compare``
diffs the fingerprints of two such files at 1e-12 relative.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = Path(".perfbench")          # under ROOT, which main() makes the cwd
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
# BLAS/OpenMP threads of this process and of every child; at most nproc.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# useful-to-attempted ratios: name -> (count, base), both per-layer metrics
RATIOS = {
    "ratio.pairs_below_min_obs": ("covariance.estimate_cov.pairs_below_min_obs",
                                  "covariance.estimate_cov.pairs"),
    "ratio.meanrev_hours_skipped": ("backtest.run_market_meanrev.hours_skipped",
                                    "backtest.run_market_meanrev.hours"),
    "ratio.xcorr_hours_skipped": ("backtest.run_xcorr_strategy.hours_skipped",
                                  "backtest.run_xcorr_strategy.hours"),
    "ratio.eligible": ("predictor.invert_with_ridge.n", "market.tickers"),
}


def spec() -> dict:
    """BENCHMARK.json: the workloads' reasons and every metric's unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _wall(passes: list[list[dict]]) -> float:
    """Sum over the command list of each command's median wall time."""
    return sum(_median([p[i]["wall"] for p in passes]) for i in range(len(passes[0])))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# A child's peak RSS counts the memory of the process it was forked from, so
# each command is started by this small launcher rather than by the
# benchmark process; the launcher times the command and reports its usage.
LAUNCHER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(time.perf_counter() - t0, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def run_child(argv: list[str], log: Path) -> dict:
    """One vartau command in its own process: wall, exit code, peak RSS."""
    with open(log, "wb") as err:
        proc = subprocess.run([sys.executable, "-S", "-c", LAUNCHER,
                               "-m", "vartau.cli", *argv],
                              stdout=subprocess.PIPE, stderr=err, env=_child_env(),
                              cwd=ROOT, check=True)
    wall, maxrss_kb, rc = proc.stdout.split()
    return {"wall": float(wall), "rc": int(rc), "rss_mb": int(maxrss_kb) / 1024.0}


def run_inprocess(argv: list[str], log: Path) -> dict:
    """One vartau command through ``vartau.cli.main`` in this process."""
    from vartau import cli
    with open(log, "w") as err, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:       # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return {"wall": wall, "rc": rc, "cpu": cpu}


class Run:
    """One workload at one seed: inputs, passes, checks and metrics."""

    def __init__(self, name: str, seed: int):
        from perfbench.workloads import WORKLOADS
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.dir = WORK / name
        self.data, self.out, self.logs = self.dir / "data", self.dir / "out", self.dir / "logs"
        self.market: dict = {}
        self.reference: dict = {}        # command -> digests/fingerprint/problems
        self.failures: list[str] = []   # make the run incorrect
        self.defects: list[str] = []    # problems a known program defect explains
        self.attempted = 0

    def setup(self) -> float:
        """Generate and write the inputs and start the program once."""
        from perfbench.market import write_market
        t0 = time.perf_counter()
        shutil.rmtree(self.dir, ignore_errors=True)
        for d in (self.data, self.out, self.logs):
            d.mkdir(parents=True)
        if self.workload.market:
            self.market = write_market(self.workload.market, self.seed, self.data)
        warm = run_child(["--help"], self.logs / "warmup.err")
        if warm["rc"] != 0:
            raise RuntimeError("vartau.cli does not start: "
                               + (self.logs / "warmup.err").read_text()[-500:])
        return time.perf_counter() - t0

    def argv(self, cmd) -> list[str]:
        return [a.format(data=self.data, out=self.out, seed=self.seed) for a in cmd.argv]

    def command(self, cmd, runner, tracer=None) -> dict:
        """Run one command, under a ``cli.<name>`` span when traced."""
        out = self.out / cmd.name
        shutil.rmtree(out, ignore_errors=True)
        span = tracer.begin(f"cli.{cmd.name}") if tracer else None
        res = runner(self.argv(cmd), self.logs / f"{cmd.name}.err")
        if tracer:
            tracer.end(span)
            tracer.counts[f"cli.{cmd.name}.cpu_s"] += res["cpu"]
            tracer.counts[f"cli.{cmd.name}.wall_s"] += span.end - span.start
        res["ok"] = self.verify(cmd, out, res["rc"])
        res["defect"] = any(p.defect for p in self.reference.get(cmd.name, {})
                            .get("problems", ()))
        self.attempted += 1
        return res

    def verify(self, cmd, out: Path, rc: int) -> bool:
        """Check the first outputs; later passes must reproduce them exactly."""
        from perfbench import checks
        if rc != 0:
            tail = (self.logs / f"{cmd.name}.err").read_text()[-300:].strip()
            self.failures.append(f"{cmd.name}: exit {rc}: {tail}")
            return False
        if cmd.name not in self.reference:
            problems = checks.CHECKS[cmd.check](out, self.workload.context())
            self.reference[cmd.name] = {
                "problems": problems, "digests": checks.digests(out),
                "fingerprint": checks.fingerprint(out)}
            for p in problems:
                if p.defect:
                    self.defects.append(f"{cmd.name}: {p.text} "
                                        f"[{p.defect}: {checks.KNOWN_DEFECTS[p.defect]}]")
                else:
                    self.failures.append(f"{cmd.name}: {p.text}")
        elif checks.digests(out) != self.reference[cmd.name]["digests"]:
            self.failures.append(f"{cmd.name}: outputs differ from the first pass")
            return False
        return not any(not p.defect for p in self.reference[cmd.name]["problems"])

    def one_pass(self, runner, tracer=None) -> list[dict]:
        return [self.command(c, runner, tracer) for c in self.workload.commands]


def repeat(seconds: float, pass_fns) -> list:
    """Cycle through ``pass_fns``, each at least once, within ``seconds``.

    A pass is not started when the last one, run again, would end after
    the deadline, so a run measures for at most ``seconds`` past its
    first round of passes.
    """
    done = []
    t0 = last = time.perf_counter()
    while True:
        done.append(pass_fns[len(done) % len(pass_fns)]())
        now = time.perf_counter()
        if len(done) >= len(pass_fns) and now + (now - last) - t0 > seconds:
            return done
        last = now


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    from perfbench.tracing import Tracer
    run = Run(name, seed)
    setups = []
    t0 = time.perf_counter()
    while len(setups) < SETUP_REPEATS or time.perf_counter() - t0 < SETUP_SECONDS:
        setups.append(run.setup())
    cmds = [c.name for c in run.workload.commands]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "env": environment(), "market": run.market, "setup_s": setups,
        "why": next(w["why"] for w in spec()["workloads"] if w["name"] == name),
    }
    if not traced:
        passes = repeat(seconds, [lambda: run.one_pass(run_child)])
        result["commands"] = {
            c: {"wall_s": [p[i]["wall"] for p in passes],
                "median_wall_s": _median([p[i]["wall"] for p in passes]),
                "rss_mb": [p[i]["rss_mb"] for p in passes]}
            for i, c in enumerate(cmds)}
        kind = "end_to_end"
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _wall(passes),
            "peak_rss_mb": _median([max(r["rss_mb"] for r in p) for p in passes]),
        }
    else:
        tracers: list[Tracer] = []

        def traced_pass():
            tracers.append(Tracer())
            with tracers[-1]:
                return run.one_pass(run_inprocess, tracer=tracers[-1])

        passes = repeat(seconds, [lambda: run.one_pass(run_inprocess), traced_pass])
        summaries = [t.summary() for t in tracers]
        kind = "per_layer"
        metrics = {k: _median([s.get(k, 0.0) for s in summaries]) for k in units(kind)}
        metrics["trace.wall_s"] = _wall(passes[1::2])
        metrics["trace.untraced_wall_s"] = _wall(passes[0::2])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        metrics["market.tickers"] = run.market.get("tickers", 0)
        metrics["market.candles"] = run.market.get("candles", 0)
        for key, (num, den) in RATIOS.items():
            metrics[key] = metrics[num] / metrics[den] if metrics[den] else 0.0
        result["spans"] = summaries
    result["failures"] = run.failures
    result["known_defects"] = run.defects
    result["checks"] = {c: [p.text for p in r["problems"]] for c, r in run.reference.items()}
    result["fingerprints"] = {c: r["fingerprint"] for c, r in run.reference.items()}
    result["attempted"] = run.attempted
    result["failed"] = sum(not r["ok"] for p in passes for r in p)
    result["failed_frac"] = (sum(not r["ok"] or r["defect"] for p in passes for r in p)
                             / run.attempted)
    result["passes"] = len(passes)
    report_json = run.out / "predict" / "report.json"
    if report_json.is_file():
        result["eligible"] = json.loads(report_json.read_text())["tickers"]
    result["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in units(kind).items()}
    return result


def environment() -> dict:
    import numpy
    return {"threads": THREADS, "nproc": os.cpu_count(), "numpy": numpy.__version__,
            "python": sys.version.split()[0]}


def save(result: dict) -> Path:
    path = WORK / "results" / (f"{result['workload']}-seed{result['seed']}"
                               f"-trace{result['trace']}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def report(result: dict) -> None:
    """Human-readable lines; the contract's JSON line is printed separately."""
    env, market = result["env"], result["market"]
    inputs = f"{market['tickers']} tickers, {market['candles']} candles" if market else "none"
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"passes={result['passes']} threads={env['threads']} nproc={env['nproc']} "
          f"numpy={env['numpy']} inputs: {inputs}")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:5s} {name:48s} {m['value']:14.6g} {m['unit']}")
    for name, c in result.get("commands", {}).items():
        print(f"{result['workload']:5s} {name + '_s':48s} {c['median_wall_s']:14.6g} s")
    print(f"{result['workload']:5s} {'failed_frac':48s} {result['failed_frac']:14.6g} ratio")
    for f in result["failures"]:
        print(f"FAILED {result['workload']}: {f}")
    for f in result["known_defects"]:
        print(f"FAILED (known defect) {result['workload']}: {f}")


def contract_line(results: list[dict]) -> str:
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): v
               for r in results for k, v in r["metrics"].items()}
    return json.dumps({"correct": all(not r["failures"] for r in results),
                       "attempted": sum(r["attempted"] for r in results),
                       "failed": sum(r["failed"] for r in results),
                       "metrics": metrics})


def confirm_layer_table(traced: dict[str, dict]) -> list[str]:
    """Check each layer is a larger share of traced wall_s where it is loaded."""
    from perfbench.workloads import LAYER_TABLE
    lines = []
    for span, loaded, light, moves in LAYER_TABLE:
        share = {w: r["metrics"][f"{span}.self_s"]["value"]
                 / r["metrics"]["trace.wall_s"]["value"] for w, r in traced.items()}
        ok = all(share[a] > share[b] for a in loaded for b in light
                 if a in share and b in share)
        text = ", ".join(f"{w} {share[w]:.2%}" for w in share)
        lines.append(f"{'ok  ' if ok else 'FAIL'} {span}: loaded in {'/'.join(loaded)}, "
                     f"light in {'/'.join(light)}; share of traced wall_s: {text}; "
                     f"moves {moves}")
    return lines


def compare_results(path_a: str, path_b: str) -> int:
    from perfbench.checks import compare
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    diffs = compare(a["fingerprints"], b["fingerprints"])
    for d in diffs:
        print(d)
    print(f"{len(diffs)} fingerprint differences beyond 1e-12 relative")
    return 1 if diffs else 0


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--compare", nargs=2, metavar="RESULT")
    args = p.parse_args(argv)
    if args.compare:
        return compare_results(*args.compare)
    if not args.workload:
        p.error("--workload or --compare is required")
    os.chdir(ROOT)
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        report(result)
        print(f"# result: {save(result)}")
        print(contract_line([result]))
        return 0
    untraced, traced = [], {}
    for name in WORKLOADS:
        untraced.append(measure(name, args.seed, args.seconds, False))
        traced[name] = measure(name, args.seed, args.seconds, True)
        for r in (untraced[-1], traced[name]):
            report(r)
            print(f"# result: {save(r)}")
    for line in confirm_layer_table(traced):
        print(line)
    for name, r in traced.items():
        wall = r["metrics"]["trace.untraced_wall_s"]["value"]
        print(f"{name:5s} tracing overhead {r['metrics']['trace.overhead_s']['value']:.4f} s "
              f"on {wall:.4f} s in-process")
    print(contract_line(untraced + list(traced.values())))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:     # before anything imports numpy
        os.environ[var] = str(THREADS)
    if not (SRC / "vartau" / "cli.py").is_file():
        print(f"perfbench: no vartau sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[0:1] = [str(SRC), str(ROOT)]
    sys.exit(main())
