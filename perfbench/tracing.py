"""Spans around vartau's public functions, installed from outside the program.

``Tracer.install`` replaces each traced function (or method) with a wrapper
that records a span, wherever the name is looked up: the cli and the library
modules import names directly (``from .candles import bin_coordinates``), so
every module binding of the original object is patched, and ``uninstall``
puts the originals back. A span's self time is its duration minus the time
covered by its child spans. Work counts are read from return values and
arguments after the call; the time spent counting is in no span's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from vartau.clock import year_bounds


def _upper_pairs(m):
    return m[np.triu_indices(len(m), 1)]


def _in_year_candles(series, year):
    t0, t1 = year_bounds(year)
    return sum(int(np.count_nonzero((s.timestamps >= t0) & (s.timestamps < t1)))
               for s in series)


def _decision_hours(result, prices):
    return np.shape(prices)[1] - result.info["entry_offset"] - 1


# (module, qualified name) -> (names of its work counts, reader of their
# values from (result, *args)). Every span also reports calls and self_s.
TRACED = {
    ("candles", "parse_candles"): (
        ("rows", "bytes"), lambda r, path, *a, **k: (len(r), os.path.getsize(path))),
    ("clock", "build_clock"): (
        ("candles", "knots"),
        lambda r, series, kind, year, *a, **k: (_in_year_candles(series, year),
                                                len(r.knots_clock))),
    ("candles", "bin_series"): (("bins",), lambda r, *a, **k: (len(r),)),
    ("candles", "bin_coordinates"): ((), None),
    ("variogram", "variogram_diff_of_avg"): (
        ("taus", "taus_omitted"), lambda r, *a, **k: (len(r.tau), len(r.omitted))),
    ("covariance", "corr_vs_tau"): (
        ("pair_taus", "cells_nan"),
        lambda r, *a, **k: (r[1].size, int(np.isnan(r[1]).sum()))),
    ("covariance", "estimate_cov"): (
        ("pairs", "pairs_below_min_obs", "joint_obs"),
        lambda r, *a, **k: (len(_upper_pairs(r.c)),
                            int(np.isnan(_upper_pairs(r.c)).sum()),
                            int(_upper_pairs(r.n_obs).sum()))),
    ("covariance", "pair_stats"): ((), None),
    ("predictor", "invert_with_ridge"): (("n",), lambda r, *a, **k: (len(r.tickers),)),
    ("predictor", "gradient_refine"): (
        ("iterations",), lambda r, *a, **k: (r[1]["iterations"],)),
    ("predictor", "prediction_report"): ((), None),
    ("backtest", "run_market_meanrev"): (
        ("trades", "hours_skipped", "hours"),
        lambda r, prices, *a, **k: (len(r.ledger), r.info["skipped_hours"],
                                    _decision_hours(r, prices))),
    ("backtest", "run_xcorr_strategy"): (
        ("trades", "hours_skipped", "hours"),
        lambda r, prices, *a, **k: (len(r.ledger), r.info["skipped_hours"],
                                    _decision_hours(r, prices))),
    ("backtest", "TradeLedger.write_csv"): (
        ("rows",), lambda r, ledger, *a, **k: (len(ledger),)),
    ("backtest", "run_sim_meanrev"): ((), None),
    ("hurst", "simulate_fbm"): ((), None),
    ("hurst", "simulate_shot_noise"): (("hours",), lambda r, *a, **k: (r.prices.size,)),
    ("hurst", "PricePanel.write_csv"): (
        ("rows",), lambda r, panel, *a, **k: (panel.prices.size,)),
    ("hurst", "read_panel_csv"): ((), None),
}


@dataclass
class Span:
    name: str
    parent: int | None      # index into Tracer.spans of the enclosing span
    start: float
    end: float = 0.0
    covered: float = 0.0    # time inside child spans and uncharged counting

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.covered


class Tracer:
    """Collects spans and counts; owns the patches it installs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()
        if span.parent is not None:
            self.spans[span.parent].covered += span.end - span.start

    def _wrap(self, name, fn, counts):
        keys, read = counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if read is not None:
                t0 = time.perf_counter()
                for key, value in zip(keys, read(result, *args, **kwargs)):
                    self.counts[f"{name}.{key}"] += value
                if span.parent is not None:
                    self.spans[span.parent].covered += time.perf_counter() - t0
            return result
        return traced

    def install(self) -> None:
        """Patch every binding of each TRACED object in the vartau modules."""
        importlib.import_module("vartau.cli")     # binds names from every layer
        for (mod_name, qualname), counts in TRACED.items():
            module = importlib.import_module(f"vartau.{mod_name}")
            name = f"{mod_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, orig, counts))
                continue
            orig = getattr(module, qualname)
            wrapper = self._wrap(name, orig, counts)
            for mod in [m for k, m in sys.modules.items() if k.startswith("vartau.")]:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self) -> dict[str, float]:
        """``<span>.calls``, ``<span>.self_s`` and every count, summed."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += s.self_s
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)
