"""Invariants of the transaction clock and of binning on generated candles."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vartau.candles import CandleSeries, bin_series
from vartau.clock import ClockKind, build_clock, year_bounds

T0, T1 = year_bounds(2021)
WEIGHTED = st.sampled_from([ClockKind.DOLLAR_WEIGHTED, ClockKind.VOLUME_WEIGHTED])


@st.composite
def markets(draw):
    """One to four tickers' candles at random minutes of 2021, some with zero volume.

    At least one candle has volume, so the weighted clock exists.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = draw(st.sampled_from([120, 60 * 24 * 7, (T1 - T0) // 60]))
    series = []
    for i in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 300))
        minutes = np.sort(rng.choice(span, size=min(n, span), replace=False))
        px = rng.lognormal(3.0, 1.0, len(minutes))
        vol = np.where(rng.random(len(minutes)) < 0.2, 0.0,
                       rng.lognormal(5.0, 2.0, len(minutes)))
        series.append(CandleSeries(f"S{i}", T0 + 60 * minutes, px, px * 1.01, px * 0.99,
                                   px, vol))
    series[0].volume[0] = 1.0
    return series


@settings(max_examples=100, deadline=None)
@given(markets(), WEIGHTED, st.integers(0, 2**32 - 1))
def test_txn_time_is_non_decreasing(series, kind, seed):
    clock = build_clock(series, kind, 2021)
    t = np.sort(np.concatenate([
        np.random.default_rng(seed).uniform(T0, T1, 500), clock.knots_clock,
        np.concatenate([s.timestamps for s in series]) + 30.0]))
    assert np.all(np.diff(clock.to_txn_time(t)) >= 0)


@settings(max_examples=100, deadline=None)
@given(markets(), st.sampled_from(list(ClockKind)),
       st.sampled_from([1 / 60, 0.1, 0.5, 1.0, 7.0, 100.0]))
def test_bins_hold_every_candle_inside_their_bounds(series, kind, tau):
    clock = build_clock(series, kind, 2021)
    for s in series:
        b = bin_series(s, clock, tau)
        assert b.n_candles.sum() == len(s)
        assert np.all(b.index * tau <= b.time)
        assert np.all(b.time <= (b.index + 1) * tau)
