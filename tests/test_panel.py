"""The grid of each ticker's bins, the hourly panel, and their boundary rules."""

import numpy as np

from oracles import txn_candles
from vartau.candles import bin_series
from vartau.clock import ClockKind, build_clock, year_bounds
from vartau.panel import build_panel, grid_bins
from vartau.synthetic import point_candles

T21, _ = year_bounds(2021)
T22, _ = year_bounds(2022)


def clocks_of(candles, years=(2021, 2022), kind=ClockKind.CLOCK):
    return [build_clock(candles.values(), kind, y) for y in years]


def panel_of(candles, years=(2021, 2022)):
    return build_panel(txn_candles(candles.values(), clocks_of(candles, years)))


def test_blocks_do_not_share_columns_when_tau_does_not_divide_the_year():
    # 8760 / 7 = 1251.4: each year gets 1252 columns
    ts = np.array([T22 - 3600, T22 - 1800, T22, T22 + 60, T22 + 7 * 3600], dtype=np.int64)
    candles = txn_candles([point_candles("A", ts, [1.0, 2.0, 3.0, 4.0, 5.0])],
                          clocks_of({}))
    assert candles.widths(7.0) == [1252, 1252]
    assert panel_of({}, years=(2020, 2021)).blocks == [slice(0, 8784), slice(8784, 17544)]
    ((k, p),) = grid_bins(candles, 7.0)
    assert k.tolist() == [1251, 1252, 1253]             # last of 2021, first two of 2022
    assert np.allclose(np.diff(np.log(p)), np.log([3.5 / 1.5, 5.0 / 3.5]))


def test_bin_at_the_year_end_is_dropped():
    # all of the year's volume trades in its first minute, so the later
    # zero-volume candle sits at transaction hour 8760, bin 8760 at tau = 1
    ts = np.array([T21, T21 + 60, T21 + 7200], dtype=np.int64)
    s = point_candles("A", ts, [1.0, 2.0, 3.0], volume=np.array([1.0, 1.0, 0.0]))
    clocks = clocks_of({"A": s}, (2021,), ClockKind.VOLUME_WEIGHTED)
    candles = txn_candles([s], clocks)
    p = build_panel(candles)
    assert p.price.shape == (1, 8760)
    assert np.flatnonzero(np.isfinite(p.price[0])).tolist() == [0, 4380]
    ((k, _),) = grid_bins(candles, 1.0)
    assert k.tolist() == [0, 4380]
    ((hours_and_prices,),) = candles        # the year's bins, with their mean hours
    b = bin_series(*hours_and_prices, 1.0, 8760)
    assert b.index.tolist() == [0, 4380] and np.diff(b.time).tolist() == [4380.0]


def test_returns_span_the_year_boundary_and_adjacent_returns_do_not():
    ts = np.array([T21, T21 + 3600, T22 - 3600, T22, T22 + 7200], dtype=np.int64)
    prices = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    candles = {"A": point_candles("A", ts, prices)}
    both = txn_candles(candles.values(), clocks_of(candles))
    ((k, p),) = grid_bins(both, 1.0)
    assert k.tolist() == [0, 1, 8759, 8760, 8762]
    assert np.allclose(np.diff(np.log(p)), np.log(2.0))
    # each year's candles on its own clock's hours; the grid chains the blocks
    assert [xp[0].tolist() for per_year in both for xp in per_year] == [[0, 1, 8759], [0, 2]]
    panel = panel_of(dict(candles))
    adj = {y: panel.adjacent_returns(y) for y in panel.years}
    assert adj[2021].shape == adj[2022].shape == (1, 8759)
    assert np.flatnonzero(np.isfinite(adj[2021][0])).tolist() == [0]
    assert np.flatnonzero(np.isfinite(adj[2022][0])).tolist() == []
    one = txn_candles(candles.values(), clocks_of(candles, (2022,)))
    ((k22, _),) = grid_bins(one, 1.0)
    assert k22.tolist() == [0, 2] and [xp[0].tolist() for (xp,) in one] == [[0, 2]]


def test_rows_are_sorted_tickers_with_two_candles_in_a_year():
    ts = np.array([T21, T21 + 3600], dtype=np.int64)
    p = panel_of({"B": point_candles("B", ts, [1.0, 1.0]),
                  "A": point_candles("A", ts[:1], [1.0])}, years=(2021,))
    assert p.tickers == ["A", "B"]
    assert not np.isfinite(p.price[0]).any() and np.isfinite(p.price[1]).sum() == 2


def test_a_years_bins_are_its_block_of_the_panel():
    # the tau = 1 bins of a view of one year, read off that year's block
    ts = np.array([T21, T21 + 60, T21 + 5400, T22 - 60, T22, T22 + 3600, T22 + 3660],
                  dtype=np.int64)
    candles = {"A": point_candles("A", ts, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
               "B": point_candles("B", ts[2:5], [1.5, 2.5, 3.5])}
    panel = panel_of(candles)
    for y in panel.years:
        one = txn_candles(candles.values(), clocks_of(candles, (y,)))
        for (k, p), (want_k, want_p) in zip(panel.bins(y), grid_bins(one, 1.0), strict=True):
            assert k.tolist() == want_k.tolist() and p.tobytes() == want_p.tobytes()
