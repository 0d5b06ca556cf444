"""Transaction clock construction, evaluation and inversion."""

import tracemalloc

import numpy as np
import pytest

from vartau.clock import ClockKind, ClockMap, build_clock, hours_in_year, year_bounds
from vartau.errors import DataError
from vartau.synthetic import point_candles

T0, T1 = year_bounds(2021)


def make_series(ticker, minute_offsets, prices, volumes):
    ts = T0 + 60 * np.asarray(minute_offsets, dtype=np.int64)
    return point_candles(ticker, ts, prices, volumes)


class TestBuild:
    def test_uniform_volume_is_identity_up_to_scale(self):
        # one share at price 1 in every minute of a full day window
        n = 1440
        s = make_series("U", np.arange(n), np.ones(n), 1.0)
        clock = build_clock([s], ClockKind.DOLLAR_WEIGHTED, 2021)
        t = T0 + 60 * np.arange(n + 1)
        got = clock.to_txn_time(t)
        # uniform weights: txn time grows linearly over the traded span
        want = np.arange(n + 1) / n * 8760
        assert np.allclose(got, want, atol=1e-9 * 8760)

    def test_two_minute_cumulative_weights(self):
        # dollar weights 3 then 1: the first minute's end sits at 3/4 of the year
        s = make_series("D", [0, 1], [1.0, 1.0], [3.0, 1.0])
        clock = build_clock([s], ClockKind.DOLLAR_WEIGHTED, 2021)
        assert clock.to_txn_time(T0 + 60) == pytest.approx(0.75 * 8760)
        assert clock.to_txn_time(T0 + 120) == pytest.approx(8760)
        assert clock.to_txn_time(T1) == pytest.approx(8760)
        # linear inside the first minute
        assert clock.to_txn_time(T0 + 30) == pytest.approx(0.5 * 0.75 * 8760)

    def test_dollar_uses_representative_price(self):
        # same volume, price 9 vs 1: dollar clock weights 9:1, volume clock 1:1
        a = make_series("A", [0], [9.0], [1.0])
        b = make_series("B", [1], [1.0], [1.0])
        dollar = build_clock([a, b], ClockKind.DOLLAR_WEIGHTED, 2021)
        volume = build_clock([a, b], ClockKind.VOLUME_WEIGHTED, 2021)
        assert dollar.to_txn_time(T0 + 60) == pytest.approx(0.9 * 8760)
        assert volume.to_txn_time(T0 + 60) == pytest.approx(0.5 * 8760)

    def test_clock_kind_identity(self):
        s = make_series("C", [0], [1.0], [1.0])
        clock = build_clock([s], ClockKind.CLOCK, 2021)
        for t in (T0, T0 + 12345 * 60, T1):
            assert clock.to_txn_time(t) == pytest.approx((t - T0) / 3600)

    def test_leap_year_total(self):
        t0_leap, _ = year_bounds(2020)
        s = point_candles("L", np.array([t0_leap], dtype=np.int64), [1.0], 2.0)
        clock = build_clock([s], ClockKind.VOLUME_WEIGHTED, 2020)
        assert hours_in_year(2020) == 8784
        assert clock.knots_txn[-1] == 8784
        assert clock.to_txn_time(clock.year_end) == pytest.approx(8784)

    def test_knots_never_pass_the_year_end(self):
        # added one by one, fifteen 0.1-share minutes exceed their pairwise
        # sum, so the knots once rose to 8760.000000000002 and then fell
        s = make_series("R", np.arange(16), np.ones(16), [0.1] * 15 + [0.0])
        clock = build_clock([s], ClockKind.VOLUME_WEIGHTED, 2021)
        assert np.all(np.diff(clock.knots_txn) >= 0)
        assert clock.knots_txn.max() == 8760

    def test_empty_and_zero_weight(self):
        with pytest.raises(DataError, match="no candles"):
            build_clock([], ClockKind.DOLLAR_WEIGHTED, 2021)
        s = make_series("Z", [0], [1.0], [0.0])
        with pytest.raises(DataError, match="zero total weight"):
            build_clock([s], ClockKind.VOLUME_WEIGHTED, 2021)

    def test_candles_outside_year_ignored(self):
        prev = point_candles("P", np.array([T0 - 60], dtype=np.int64), [5.0], 7.0)
        cur = make_series("P2", [10], [1.0], [1.0])
        clock = build_clock([prev, cur], ClockKind.VOLUME_WEIGHTED, 2021)
        assert clock.to_txn_time(T0 + 10 * 60) == pytest.approx(0.0)
        assert clock.to_txn_time(T0 + 11 * 60) == pytest.approx(8760)

    @pytest.mark.parametrize("kind", [ClockKind.DOLLAR_WEIGHTED, ClockKind.VOLUME_WEIGHTED])
    def test_off_minute_stamp_rejected(self, kind):
        s = point_candles("M", np.array([T0, T0 + 90], dtype=np.int64), [1.0, 2.0])
        with pytest.raises(DataError, match="M: timestamp 1609459290 is not a minute"):
            build_clock([make_series("A", [0], [1.0], [1.0]), s], kind, 2021)
        # outside the year it is ignored, as every out-of-year candle is
        late = point_candles("L", np.array([T0, T1 + 30], dtype=np.int64), [1.0, 2.0])
        assert len(build_clock([late], kind, 2021).knots_clock) == 3

    def test_working_memory_does_not_grow_with_candles(self):
        # every series trades the same 20,000 minutes, so 50 series have ten
        # times the candles of 5 and the same knots
        ts = T0 + 60 * np.arange(0, 40_000, 2, dtype=np.int64)
        rng = np.random.default_rng(3)

        def peak(n_series):
            series = [point_candles(f"S{i}", ts, rng.uniform(1.0, 2.0, len(ts)),
                                    rng.uniform(0.0, 9.0, len(ts))) for i in range(n_series)]
            tracemalloc.start()
            try:
                build_clock(series, ClockKind.DOLLAR_WEIGHTED, 2021)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(50) <= peak(5) + 2**20


class TestEvaluate:
    def setup_method(self):
        rng = np.random.default_rng(11)
        minutes = np.sort(rng.choice(300000, size=400, replace=False))
        self.weights = rng.uniform(0.1, 5.0, size=400)
        self.series = make_series("R", minutes, np.ones(400), self.weights)
        self.clock = build_clock([self.series], ClockKind.VOLUME_WEIGHTED, 2021)
        self.minutes = minutes

    def test_boundaries(self):
        assert self.clock.to_txn_time(T0) == 0.0
        assert self.clock.to_txn_time(T1) == pytest.approx(8760)

    def test_monotone(self):
        rng = np.random.default_rng(12)
        t = np.sort(rng.integers(T0, T1, size=2000))
        x = self.clock.to_txn_time(t)
        assert np.all(np.diff(x) >= 0)

    def test_segment_midpoint_linearity(self):
        m = int(self.minutes[5])
        lo, hi = T0 + 60 * m, T0 + 60 * m + 60
        mid = self.clock.to_txn_time((lo + hi) / 2)
        want = 0.5 * (self.clock.to_txn_time(lo) + self.clock.to_txn_time(hi))
        assert mid == pytest.approx(want, rel=1e-12)

    def test_weight_proportionality(self):
        # elapsed txn time over any traded window is proportional to its weight
        c = self.clock
        m = self.minutes
        w = self.weights
        span1 = (T0 + 60 * int(m[10]), T0 + 60 * int(m[50]) + 60)
        span2 = (T0 + 60 * int(m[200]), T0 + 60 * int(m[320]) + 60)
        el1 = c.to_txn_time(span1[1]) - c.to_txn_time(span1[0])
        el2 = c.to_txn_time(span2[1]) - c.to_txn_time(span2[0])
        w1 = w[10:51].sum()
        w2 = w[200:321].sum()
        assert el1 / el2 == pytest.approx(w1 / w2, rel=1e-9)

    def test_out_of_domain(self):
        with pytest.raises(DataError):
            self.clock.to_txn_time(T0 - 1)
        with pytest.raises(DataError):
            self.clock.to_txn_time(T1 + 1)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        s = make_series("C", [0, 5, 6], [1.0, 2.0, 3.0], [1.0, 2.0, 1.0])
        clock = build_clock([s], ClockKind.DOLLAR_WEIGHTED, 2021)
        path = tmp_path / "clock.csv"
        clock.write_csv(path)
        knots = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        back = ClockMap(2021, knots[:, 0], knots[:, 1])
        t = np.linspace(T0, T1, 50)
        assert np.allclose(back.to_txn_time(t), clock.to_txn_time(t))
