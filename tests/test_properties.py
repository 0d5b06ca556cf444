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
@given(markets(), WEIGHTED, st.integers(0, 2**32 - 1))
def test_clock_time_inverts_txn_time_where_rising(series, kind, seed):
    clock = build_clock(series, kind, 2021)
    c, x = clock.knots_clock, clock.knots_txn
    rising = np.flatnonzero(np.diff(x) > 0)
    rng = np.random.default_rng(seed)
    seg = rng.choice(rising, 200)
    t = c[seg] + rng.uniform(0.0, 1.0, len(seg)) * (c[seg + 1] - c[seg])
    q = clock.to_txn_time(t)
    # an hour that rounds onto a segment's end level is also held by the
    # flat span there, and resolves to that span's start as documented
    inside = (x[seg] < q) & (q < x[seg + 1])
    back = clock.to_clock_time(q[inside])
    # rounding of t and of the transaction hour, the latter stretched by
    # the segment's clock seconds per transaction hour
    slope = ((x[seg + 1] - x[seg]) / (c[seg + 1] - c[seg]))[inside]
    tol = 8 * (np.spacing(t[inside]) + np.spacing(clock.total_txn_hours) / slope)
    assert np.all(np.abs(back - t[inside]) <= tol)


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
