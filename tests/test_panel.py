"""The grid of each ticker's returns, the hourly panel, and their boundary rules."""

import numpy as np

from vartau.clock import ClockKind, build_clock, year_bounds
from vartau.panel import build_panel, grid_returns, map_candles
from vartau.synthetic import point_candles

T21, _ = year_bounds(2021)
T22, _ = year_bounds(2022)


def clocks_of(candles, years=(2021, 2022), kind=ClockKind.CLOCK):
    return [build_clock(candles.values(), kind, y) for y in years]


def panel_of(candles, years=(2021, 2022)):
    return build_panel(map_candles(candles.values(), clocks_of(candles, years)))


def test_blocks_do_not_share_columns_when_tau_does_not_divide_the_year():
    # 8760 / 7 = 1251.4: each year gets 1252 columns
    ts = np.array([T22 - 3600, T22 - 1800, T22, T22 + 60, T22 + 7 * 3600], dtype=np.int64)
    candles = map_candles([point_candles("A", ts, [1.0, 2.0, 3.0, 4.0, 5.0])],
                          clocks_of({}))
    assert candles.widths(7.0) == [1252, 1252]
    assert panel_of({}, years=(2020, 2021)).blocks == [slice(0, 8784), slice(8784, 17544)]
    (rs,) = grid_returns(candles, 7.0)
    assert rs.start_index.tolist() == [1251, 1252]       # last of 2021, first of 2022
    assert np.allclose(rs.r, np.log([3.5 / 1.5, 5.0 / 3.5]))


def test_bin_at_the_year_end_is_dropped():
    # all of the year's volume trades in its first minute, so the later
    # zero-volume candle sits at transaction hour 8760, bin 8760 at tau = 1
    ts = np.array([T21, T21 + 60, T21 + 7200], dtype=np.int64)
    s = point_candles("A", ts, [1.0, 2.0, 3.0], volume=np.array([1.0, 1.0, 0.0]))
    clocks = clocks_of({"A": s}, (2021,), ClockKind.VOLUME_WEIGHTED)
    candles = map_candles([s], clocks)
    p = build_panel(candles)
    assert p.price.shape == (1, 8760)
    assert np.flatnonzero(np.isfinite(p.price[0])).tolist() == [0, 4380]
    (rs,) = grid_returns(candles, 1.0)
    assert rs.start_index.tolist() == [0] and rs.dt.tolist() == [4380.0]


def test_returns_span_the_year_boundary_and_adjacent_returns_do_not():
    ts = np.array([T21, T21 + 3600, T22 - 3600, T22, T22 + 7200], dtype=np.int64)
    prices = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    candles = {"A": point_candles("A", ts, prices)}
    (rs,) = grid_returns(map_candles(candles.values(), clocks_of(candles)), 1.0)
    assert rs.start_index.tolist() == [0, 1, 8759, 8760]
    assert np.allclose(rs.r, np.log(2.0))
    assert rs.dt.tolist() == [1.0, 8758.0, 1.0, 2.0]     # one chained hour axis
    adj = panel_of(dict(candles)).adjacent_returns()
    assert adj[2021].shape == adj[2022].shape == (1, 8759)
    assert np.flatnonzero(np.isfinite(adj[2021][0])).tolist() == [0]
    assert np.flatnonzero(np.isfinite(adj[2022][0])).tolist() == []
    (rs22,) = grid_returns(map_candles(candles.values(), clocks_of(candles, (2022,))), 1.0)
    assert rs22.start_index.tolist() == [0] and rs22.dt.tolist() == [2.0]


def test_rows_are_sorted_tickers_with_two_candles_in_a_year():
    ts = np.array([T21, T21 + 3600], dtype=np.int64)
    p = panel_of({"B": point_candles("B", ts, [1.0, 1.0]),
                  "A": point_candles("A", ts[:1], [1.0])}, years=(2021,))
    assert p.tickers == ["A", "B"]
    assert not np.isfinite(p.price[0]).any() and np.isfinite(p.price[1]).sum() == 2
