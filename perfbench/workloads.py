"""The benchmark's workloads: a generated market and a list of vartau commands.

Each workload's reason is its ``why`` in BENCHMARK.json. In short:
``deep`` loads the per-candle layers (parse, clock, variogram, per-tau
binning inside ``corr_vs_tau``) while its per-pair matrix work stays tiny.
``wide`` loads the n-squared pair loop, the inversion, the hourly fills
and the ledger, while ``corr_vs_tau`` and the variogram do not run.
``sim`` has no candle input: it is the only workload that reaches
``hurst`` and the panel CSV round trip.

Command arguments may name ``{data}`` (the market directory), ``{out}``
(the output root) and ``{seed}``; each command writes to ``{out}/<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass

from vartau.clock import hours_in_year

from .market import LOADING, MarketSpec

NORMALIZE_AT = 1.0
# rho(tau) grid: 15 points per decade from 6 minutes to 46 hours, built so
# that the normalisation point 1 h is on it exactly
TAU_GRID = ",".join(repr(10 ** (k / 15)) for k in range(-15, 26))
EPSILON = 0.1


@dataclass(frozen=True)
class Command:
    name: str                  # metric stem: <name>_s
    argv: tuple[str, ...]
    check: str                 # key into checks.CHECKS


@dataclass(frozen=True)
class Workload:
    market: MarketSpec | None
    commands: tuple[Command, ...]

    def context(self) -> dict:
        """What the output checks need to know about the planted inputs."""
        years = self.market.years if self.market else ()
        return {"planted_corr": LOADING ** 2,
                "normalize_at": NORMALIZE_AT, "epsilon": EPSILON, "years": years,
                "hours_in_year": float(hours_in_year(years[0])) if years else None}


def _deep() -> Workload:
    market = MarketSpec(tickers=4, years=(2021,), sessions=100, dense=4)
    y = str(market.years[0])
    return Workload(
        market=market,
        commands=(
            Command("clock", ("clock", "--data-dir", "{data}", "--year", y,
                              "--out-dir", "{out}/clock"), "clock"),
            Command("variogram", ("variogram", "--data-dir", "{data}", "--year", y,
                                  "--out-dir", "{out}/variogram"), "variogram"),
            Command("correlate", ("correlate", "--data-dir", "{data}", "--years", y,
                                  "--tau-grid", TAU_GRID,
                                  "--normalize-at", repr(NORMALIZE_AT),
                                  "--out-dir", "{out}/correlate"), "correlate"),
        ))


def _wide() -> Workload:
    # an eligible ticker needs a bar in half the 8760 transaction hours of
    # each year, about 4400 bars, so most tickers are thin and fail the floor
    market = MarketSpec(tickers=32, years=(2021, 2022), sessions=20, dense=10)
    y1, y2 = map(str, market.years)
    both = f"{y1},{y2}"
    # the default of 100 per side skips every hour below 200 eligible tickers
    side = str(market.tickers // 16)
    return Workload(
        market=market,
        commands=(
            Command("correlate", ("correlate", "--data-dir", "{data}", "--years", both,
                                  "--out-dir", "{out}/correlate"), "correlate"),
            Command("predict", ("predict", "--data-dir", "{data}", "--train-years", y1,
                                "--predict-years", y2, "--refine",
                                "--out-dir", "{out}/predict"), "predict"),
            Command("backtest_meanrev", ("backtest", "--strategy", "market-meanrev",
                                         "--data-dir", "{data}", "--years", both,
                                         "--min-side-count", side,
                                         "--out-dir", "{out}/backtest_meanrev"),
                    "meanrev_ledger"),
            Command("backtest_xcorr", ("backtest", "--strategy", "xcorr",
                                       "--data-dir", "{data}", "--years", both,
                                       "--coeffs", f"{{out}}/predict/coeffs_{y1}.csv",
                                       "--out-dir", "{out}/backtest_xcorr"),
                    "xcorr_ledger"),
        ))


def _sim() -> Workload:
    eps = repr(EPSILON)
    return Workload(
        market=None,
        commands=(
            Command("simulate_fft", ("simulate", "--epsilon", eps, "--years", "50",
                                     "--seed", "{seed}",
                                     "--out-dir", "{out}/simulate_fft"), "panel"),
            Command("backtest_sim", ("backtest", "--strategy", "sim-meanrev",
                                     "--panel", "{out}/simulate_fft/panel.csv",
                                     "--out-dir", "{out}/backtest_sim"), "sim_backtest"),
            Command("simulate_shot", ("simulate", "--epsilon", eps, "--years", "1",
                                      "--method", "shot", "--rate", "2",
                                      "--seed", "{seed}",
                                      "--out-dir", "{out}/simulate_shot"), "shot_panel"),
        ))


WORKLOADS = {"deep": _deep(), "wide": _wide(), "sim": _sim()}

# The layer table: a span's self time should be a larger share of the traced
# wall time on each "loaded in" workload than on each "light or absent in"
# one. Rows: (span, loaded in, light or absent in, end-to-end metrics it moves).
LAYER_TABLE = (
    ("candles.parse_candles", ("deep", "wide"), ("sim",),
     "every candle command's *_s, wall_s, peak_rss_mb"),
    ("clock.build_clock", ("deep",), ("sim",), "clock_s and every candle command"),
    ("candles.bin_series", ("wide",), ("sim",),
     "correlate_s, predict_s, backtest_meanrev_s"),
    ("candles.bin_coordinates", ("deep",), ("wide", "sim"), "variogram_s, correlate_s"),
    ("variogram.variogram_diff_of_avg", ("deep",), ("wide", "sim"),
     "variogram_s, correlate_s"),
    ("covariance.corr_vs_tau", ("deep",), ("wide",), "correlate_s"),
    ("covariance.estimate_cov", ("wide",), ("deep",), "correlate_s, predict_s"),
    # corr_vs_tau calls pair_stats three times per pair per tau, so the
    # pair work of deep's rho(tau) outweighs wide's covariance matrices
    ("covariance.pair_stats", ("deep", "wide"), ("sim",), "correlate_s, predict_s"),
    ("predictor.invert_with_ridge", ("wide",), ("deep", "sim"), "predict_s"),
    ("predictor.gradient_refine", ("wide",), ("deep", "sim"), "predict_s"),
    ("predictor.prediction_report", ("wide",), ("deep", "sim"), "predict_s"),
    ("backtest.run_market_meanrev", ("wide",), ("sim",), "backtest_meanrev_s"),
    ("backtest.TradeLedger.write_csv", ("wide",), ("sim",), "backtest_meanrev_s"),
    ("backtest.run_xcorr_strategy", ("wide",), ("deep", "sim"), "backtest_xcorr_s"),
    ("hurst.simulate_fbm", ("sim",), ("deep", "wide"), "simulate_fft_s"),
    ("hurst.PricePanel.write_csv", ("sim",), ("deep", "wide"), "simulate_fft_s"),
    ("hurst.simulate_shot_noise", ("sim",), ("deep", "wide"), "simulate_shot_s"),
    ("hurst.read_panel_csv", ("sim",), ("deep", "wide"), "backtest_sim_s"),
    ("backtest.run_sim_meanrev", ("sim",), ("deep", "wide"), "backtest_sim_s"),
)
