"""Candle parsing and its cache, representative prices, binning and log returns."""

import math
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import parse_candles_loop
from test_oracles import candle_rows, layouts, render, write
from vartau import candles, cli
from vartau.candles import CandleSeries, bin_series, parse_candles, sha256_file, write_candles
from vartau.clock import ClockKind, ClockMap, build_clock, hours_in_year, year_bounds
from vartau.errors import DataError
from vartau.panel import grid_returns, map_candles
from vartau.synthetic import point_candles

T0, _ = year_bounds(2021)


def write_csv(tmp_path, rows, name="TEST.csv"):
    path = tmp_path / name
    path.write_text("timestamp,open,high,low,close,volume\n"
                    + "".join(r + "\n" for r in rows))
    return path


def identity_clock(year=2021):
    return build_clock([point_candles("X", [year_bounds(year)[0]], [1.0])],
                       ClockKind.CLOCK, year)


def year_bins(s, clock, tau):
    """The bins of a series' candles at tau on its clock's year block."""
    return bin_series(clock.to_txn_time(s.timestamps), s.price, tau,
                      math.ceil(hours_in_year(clock.year) / tau))


def panel_returns(s, tau=1.0):
    """The log returns a one-ticker grid gives, as the multi-ticker commands read them."""
    return next(grid_returns(map_candles([s], [identity_clock()]), tau))


class TestParse:
    def test_direct_field_mapping(self, tmp_path):
        p = write_csv(tmp_path, ["1609459200,10,11,9,10.5,1000"])
        s = parse_candles(p)
        row = [s.timestamps[0], s.price[0], s.volume[0]]
        assert len(s) == 1 and row == [1609459200, 10.125, 1000.0]
        assert s.ticker == "TEST"

    def test_high_below_open_reports_line(self, tmp_path):
        p = write_csv(tmp_path, ["1609459200,10,11,9,10.5,1000",
                                 "1609459260,10,9.5,9,9.2,50"])
        with pytest.raises(DataError, match=":3:"):
            parse_candles(p)

    def test_out_of_order_rows_sorted(self, tmp_path):
        p = write_csv(tmp_path, ["1609459260,10,10,10,10,1",
                                 "1609459200,11,11,11,11,1"])
        s = parse_candles(p)
        assert list(s.timestamps) == [1609459200, 1609459260]
        assert list(s.price) == [11.0, 10.0]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        p = write_csv(tmp_path, ["1609459200,10,10,10,10,1",
                                 "1609459200,11,11,11,11,1"])
        with pytest.raises(DataError, match="duplicate"):
            parse_candles(p)

    def test_duplicate_timestamp_names_both_lines(self, tmp_path):
        p = write_csv(tmp_path, ["1609459260,10,10,10,10,1", "1609459200,10,10,10,10,1",
                                 "", "1609459260,11,11,11,11,1"])
        with pytest.raises(DataError, match=r"TEST\.csv:5: duplicate timestamp 1609459260 "
                                            r"repeats line 2"):
            parse_candles(p)

    def test_non_positive_price_rejected(self, tmp_path):
        p = write_csv(tmp_path, ["1609459200,0,0,0,0,1"])
        with pytest.raises(DataError):
            parse_candles(p)

    def test_off_minute_timestamp_rejected(self, tmp_path):
        p = write_csv(tmp_path, ["1609459230,10,10,10,10,1"])
        with pytest.raises(DataError, match="minute"):
            parse_candles(p)

    def test_bad_field_count_and_header(self, tmp_path):
        p = write_csv(tmp_path, ["1609459200,10,10,10,10"])
        with pytest.raises(DataError, match="6 fields"):
            parse_candles(p)
        q = tmp_path / "BAD.csv"
        q.write_text("time,o,h,l,c,v\n1,2,3,4,5,6\n")
        with pytest.raises(DataError, match="header"):
            parse_candles(q)

    @pytest.mark.parametrize("row", ["1609459200,nan,11,9,10.5,1000",
                                     "1609459200,10,inf,9,10.5,1000",
                                     "1609459200,10,11,9,10.5,nan"])
    def test_non_finite_rejected(self, tmp_path, row):
        p = write_csv(tmp_path, ["1609459140,10,11,9,10.5,1000", "", row])
        with pytest.raises(DataError, match=r":4: non-finite"):
            parse_candles(p)

    @pytest.mark.parametrize("row", [
        "1609459200,1.5e308,1.5e308,1e308,1e308,1",     # the OHLC sum passes the float maximum
        "1609459200,4e307,4e307,4e307,4e307,1",         # five in one bin pass it when binned
    ], ids=["ohlc_sum", "bin_sum"])
    def test_price_whose_sums_overflow_is_rejected(self, tmp_path, row):
        # such a row once parsed to an inf price, or to bins with an inf mean,
        # and the clock wrote NaN knots
        p = write_csv(tmp_path, ["1609459140,10,11,9,10.5,1000", row])
        with pytest.raises(DataError, match=r":3: high .* at or above 2\*\*1000"):
            parse_candles(p)
        assert cli.main(["clock", "--data-dir", str(tmp_path), "--year", "2021",
                         "--out-dir", str(tmp_path / "out")]) == 3

    def test_bin_of_the_largest_accepted_prices_has_a_finite_mean(self, tmp_path):
        top = float(np.nextafter(2.0**1000, 0))
        p = write_csv(tmp_path, [f"1609459200,{top!r},{top!r},{top!r},{top!r},0"])
        price = parse_candles(p).price
        # a ticker-year's every minute in one bin
        n = 366 * 1440
        _, _, means, counts = candles.bin_coordinates(np.zeros(n), np.repeat(price, n), 1.0)
        assert counts[0] == n and means[0] == pytest.approx(price[0], rel=1e-12)

    def test_digit_separators_rejected(self, tmp_path):
        p = write_csv(tmp_path, ["1609459200,1_0,11,9,10.5,1000"])
        with pytest.raises(DataError, match=":2:.*open"):
            parse_candles(p)

    def test_timestamp_outside_int64(self, tmp_path):
        p = write_csv(tmp_path, ["1609459200,10,11,9,10.5,1000",
                                 "99999999999999999960,10,11,9,10.5,1000"])
        with pytest.raises(DataError, match=":3:.*timestamp"):
            parse_candles(p)
        assert cli.main(["clock", "--data-dir", str(tmp_path), "--year", "2021",
                         "--kind", "dollar", "--out-dir", str(tmp_path / "out")]) == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open .*NOPE.csv"):
            parse_candles(tmp_path / "NOPE.csv")

    def test_byte_order_mark_before_header(self, tmp_path):
        # spreadsheet exports often start a UTF-8 file with a byte-order mark
        p = tmp_path / "BOM.csv"
        p.write_bytes("\ufefftimestamp,open,high,low,close,volume\n"
                      "1609459200,10,11,9,10.5,1000\n".encode())
        s = parse_candles(p)
        assert s.timestamps.tolist() == [1609459200] and s.price.tolist() == [10.125]

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        ts = T0 + 60 * np.sort(rng.choice(10000, size=50, replace=False)).astype(np.int64)
        base = np.exp(rng.normal(0, 0.01, 50)) * 50
        s = point_candles("RT", ts, base, volume=3.0)
        path = tmp_path / "RT.csv"
        write_candles(path, s)
        back = parse_candles(path)
        assert np.array_equal(back.timestamps, s.timestamps)
        assert np.array_equal(back.price, s.price)
        assert np.array_equal(back.volume, s.volume)

    @pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("lines, where", [
        ([b"timestamp,open,high,low,close,volume\xff", b"1609459200,10,11,9,10.5,1000"],
         r":1: byte 0xff"),
        ([b"timestamp,open,high,low,close,volume", b"1609459200,10,11,9,10.5,1000",
          b"1609459260,10,11,9,10.5,1\xe9"], r":3: byte 0xe9"),
        ([b"\xef\xbb\xbftimestamp,open,high,low,close,volume",
          b"1609459200,10,11\xe9,9,10.5,1000"], r":2: byte 0xe9"),
    ], ids=["header", "row", "after_bom"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, end, lines, where):
        p = tmp_path / "BAD.csv"
        p.write_bytes(end.join(lines) + end)
        with pytest.raises(DataError, match=rf"BAD\.csv{where} is not UTF-8"):
            parse_candles(p)
        assert cli.main(["clock", "--data-dir", str(tmp_path), "--year", "2021",
                         "--out-dir", str(tmp_path / "out")]) == 3

    def test_parsed_series_holds_no_bars_to_write(self, tmp_path):
        s = parse_candles(write_csv(tmp_path, ["1609459200,10,11,9,10.5,1000"]))
        assert s.open is None and s.high is None and s.low is None and s.close is None
        with pytest.raises(DataError, match="no bars"):
            write_candles(tmp_path / "OUT.csv", s)
        assert not (tmp_path / "OUT.csv").exists()


# three valid candles out of order, one with a volume of -0.0
CACHED_ROWS = ["1609459260,10,11,9,10.5,1000", "1609459200,11,12,10,11,-0.0",
               "1609459320,9.5,9.75,9.25,9.5,3.5"]


def entries(d):
    cache = d / ".vartau"
    return sorted(cache.iterdir()) if cache.is_dir() else []


def bits(s):
    """A series' three columns, floats as their bit patterns."""
    return [s.timestamps, s.price.view(np.int64), s.volume.view(np.int64)]


def same_bits(a, b):
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(bits(a), bits(b)))


def parsed_by_loop(path):
    """``oracles.parse_candles_loop``'s series, in the three columns a parse keeps."""
    want = parse_candles_loop(path)
    price = (want.open + want.high + want.low + want.close) / 4.0
    return CandleSeries.from_prices(want.ticker, want.timestamps, price, want.volume)


def no_parse():
    """Within it, a parse_candles that reads its CSV fails the test."""
    return mock.patch.object(candles, "read_table", side_effect=AssertionError("parsed"))


class TestCache:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_hit_is_bit_identical_to_a_parse(self, data):
        lines, ends = data.draw(layouts(data.draw(candle_rows())))
        with tempfile.TemporaryDirectory() as tmp:
            path = write(tmp, render(lines, ends))
            cold = parse_candles(path)
            assert len(entries(Path(tmp))) == 1
            with no_parse():
                hit = parse_candles(path)
            want = parsed_by_loop(path)
        assert same_bits(hit, cold) and same_bits(hit, want)
        assert hit.ticker == cold.ticker == want.ticker

    def test_a_changed_byte_misses(self, tmp_path):
        p = write_csv(tmp_path, CACHED_ROWS)
        assert parse_candles(p).volume.tolist() == [-0.0, 1000.0, 3.5]
        p.write_text(p.read_text().replace(",3.5\n", ",4.5\n"))
        assert parse_candles(p).volume.tolist() == [-0.0, 1000.0, 4.5]
        [entry] = entries(tmp_path)         # the older entry is deleted
        assert entry.name.startswith(f"TEST.{sha256_file(p)}.")

    @pytest.mark.parametrize("corrupt", [
        lambda e: e.write_bytes(e.read_bytes()[:-1]),
        lambda e: e.write_bytes(e.read_bytes() + b"\0" * 8),
        lambda e: e.write_bytes(b"not an entry"),
        lambda e: e.write_bytes(b""),
        lambda e: np.save(e, np.load(e).view(np.float64)),
        lambda e: np.save(e, np.load(e)[:2]),
        lambda e: np.save(e, np.load(e).T.copy()),
        lambda e: np.save(e, np.asfortranarray(np.load(e))),
        lambda e: np.save(e, np.load(e)[:, ::-1].copy()),
    ], ids=["truncated", "trailing", "text", "empty", "dtype", "rows", "transposed",
            "fortran", "unsorted"])
    def test_an_unreadable_entry_is_parsed_again_and_replaced(self, tmp_path, corrupt):
        p = write_csv(tmp_path, CACHED_ROWS)
        want = parse_candles(p)
        [entry] = entries(tmp_path)
        good = entry.read_bytes()
        corrupt(entry)
        assert same_bits(parse_candles(p), want)
        assert entries(tmp_path) == [entry] and entry.read_bytes() == good

    @pytest.mark.parametrize("blocked", ["read_only", "cache_is_a_file"])
    def test_a_directory_that_cannot_be_written_parses_and_writes_nothing(self, tmp_path,
                                                                           blocked):
        d = tmp_path / "data"
        d.mkdir()
        p = write_csv(d, CACHED_ROWS)
        if blocked == "cache_is_a_file":
            (d / ".vartau").write_text("x")
        files = {q: q.read_bytes() for q in d.iterdir()}
        if blocked == "read_only":
            d.chmod(0o555)
        try:
            if os.access(d, os.W_OK) and blocked == "read_only":
                pytest.skip("this user may write to a read-only directory")
            for _ in range(2):
                assert same_bits(parse_candles(p), parsed_by_loop(p))
                assert candles.candle_files(d) == [p]
        finally:
            d.chmod(0o755)
        assert {q: q.read_bytes() for q in d.iterdir()} == files

    def test_a_bad_row_raises_on_every_run_and_leaves_no_entry(self, tmp_path):
        p = write_csv(tmp_path, ["1609459200,10,11,9,10.5,1000", "1609459260,10,9.5,9,9.2,50"])
        for _ in range(2):
            with pytest.raises(DataError, match=r"TEST\.csv:3: high"):
                parse_candles(p)
        assert entries(tmp_path) == []

    def test_a_file_that_changes_while_it_is_parsed_raises_and_leaves_no_entry(self, tmp_path):
        # the series would once have come back with the digest of other bytes
        p = write_csv(tmp_path, CACHED_ROWS)
        real = candles._parse

        def parse_then_edit(path):
            got = real(path)
            path.write_bytes(path.read_bytes() + b"\n")    # a blank line: other bytes, same rows
            return got

        changed = rf"^{re.escape(str(p))} changed while the command read it$"
        with mock.patch.object(candles, "_parse", parse_then_edit):
            with pytest.raises(DataError, match=changed):
                parse_candles(p)
        assert entries(tmp_path) == []
        assert parse_candles(p).sha256 == sha256_file(p)

    def test_load_parsed_reads_the_entry_without_hashing(self, tmp_path):
        p = write_csv(tmp_path, CACHED_ROWS)
        want = parse_candles(p)
        with no_parse(), mock.patch.object(candles, "sha256_file",
                                           side_effect=AssertionError("hashed")):
            got = candles.load_parsed(p, want.sha256)
        assert same_bits(got, want) and got.sha256 == want.sha256
        # with no entry, the file is parsed and hashed again, and must be unchanged
        entries(tmp_path)[0].unlink()
        assert same_bits(candles.load_parsed(p, want.sha256), want)
        assert entries(tmp_path) == []
        p.write_text(p.read_text() + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(p))} changed while the command"):
            candles.load_parsed(p, want.sha256)

    def test_an_entry_of_other_parser_code_is_not_read(self, tmp_path):
        p = write_csv(tmp_path, CACHED_ROWS)
        want = parse_candles(p)
        [entry] = entries(tmp_path)
        stem, digest, tag, _ = entry.name.split(".")
        other = entry.with_name(f"{stem}.{digest}.{'0' * len(tag)}.npy")
        shifted = np.load(entry)
        shifted[0] += 60
        np.save(other, shifted)
        entry.unlink()
        assert same_bits(parse_candles(p), want)
        assert entries(tmp_path) == [entry]     # the other code's entry is replaced

    def test_a_stem_keeps_the_entries_of_a_longer_stem(self, tmp_path):
        a = write_csv(tmp_path, CACHED_ROWS, "A.csv")
        parse_candles(write_csv(tmp_path, CACHED_ROWS, "A.B.csv"))
        parse_candles(a)
        a.write_text(a.read_text() + "1609459380,9,9,9,9,1\n")
        parse_candles(a)
        names = {".".join(e.name.split(".")[:2]) for e in entries(tmp_path)}
        assert names == {"A.B", f"A.{sha256_file(a)}"}

    def test_loaded_columns_are_separate_allocations(self, tmp_path):
        # a column that map_candles drops must free its memory
        p = write_csv(tmp_path, CACHED_ROWS)
        parse_candles(p)
        with no_parse():
            s = parse_candles(p)
        assert all(c.base is None and c.flags.owndata for c in (s.timestamps, s.price, s.volume))


class TestRepresentativePrice:
    @pytest.mark.parametrize("ohlc,want", [
        ((10, 11, 9, 10.5), 10.125),
        ((5, 5, 5, 5), 5.0),
        ((1, 3, 1, 3), 2.0),
    ])
    def test_values(self, ohlc, want):
        o, h, l, c = ohlc
        s = CandleSeries("R", [T0], [o], [h], [l], [c], [1])
        assert s.price[0] == want


class TestBinning:
    def test_constant_hour(self):
        ts = T0 + 60 * np.arange(60, dtype=np.int64)
        s = point_candles("C", ts, np.full(60, 7.0))
        b = year_bins(s, identity_clock(), 1.0)
        assert len(b) == 1
        assert b.price[0] == pytest.approx(7.0)
        # mean of the 60 minute coordinates inside the hour
        assert b.time[0] == pytest.approx(np.mean(np.arange(60) / 60))
        assert b.n_candles[0] == 60

    def test_missing_bin_gives_long_dt(self):
        # candles only in hours 0 and 2: two bins, the return spans 2 hours
        ts = np.concatenate([T0 + 60 * np.arange(10),
                             T0 + 2 * 3600 + 60 * np.arange(10)]).astype(np.int64)
        s = point_candles("G", ts, np.concatenate([np.full(10, 5.0), np.full(10, 6.0)]))
        b = year_bins(s, identity_clock(), 1.0)
        assert list(b.index) == [0, 2]
        r = panel_returns(s)
        assert len(r) == 1
        assert r.dt[0] > 1.0

    def test_boundary_goes_to_later_bin(self):
        ts = np.array([T0, T0 + 3600], dtype=np.int64)
        s = point_candles("B", ts, [1.0, 2.0])
        b = year_bins(s, identity_clock(), 1.0)
        assert list(b.index) == [0, 1]

    def test_two_segment_clock_hand_assignment(self):
        # map: first clock hour -> 1 txn hour, next clock hour -> 2 more
        clock = ClockMap(2021, np.array([T0, T0 + 3600, T0 + 7200], dtype=float),
                         np.array([0.0, 1.0, 3.0]))
        ts = np.array([T0, T0 + 1800, T0 + 5400], dtype=np.int64)
        # hand evaluation: coords 0.0, 0.5 (half of first segment),
        # 2.0 (half of the second segment: 1 + 0.5*2)
        s = point_candles("H", ts, [1.0, 2.0, 3.0])
        coords = clock.to_txn_time(s.timestamps)
        assert np.allclose(coords, [0.0, 0.5, 2.0])
        b = bin_series(coords, s.price, 1.0, 3)
        assert list(b.index) == [0, 2]
        assert b.n_candles[0] == 2 and b.n_candles[1] == 1
        assert b.price[0] == pytest.approx(1.5)
        assert b.time[0] == pytest.approx(0.25)

    def test_bins_past_the_width_are_dropped(self):
        coords, prices = np.array([0.5, 2.0, 2.5, 3.0]), np.array([1.0, 2.0, 4.0, 8.0])
        b = bin_series(coords, prices, 1.0, 3)
        assert list(b.index) == [0, 2] and list(b.price) == [1.0, 3.0]
        assert list(b.n_candles) == [1, 2] and list(b.time) == [0.5, 2.25]
        assert len(bin_series(coords, prices, 1.0, 2)) == 1
        assert list(bin_series(coords, prices, 1.0, 4).index) == [0, 2, 3]

    def test_partition_preserves_counts(self):
        rng = np.random.default_rng(1)
        ts = T0 + 60 * np.sort(rng.choice(50000, size=800, replace=False)).astype(np.int64)
        s = point_candles("P", ts, np.exp(rng.normal(0, 0.01, 800)))
        clock = identity_clock()
        for tau in (0.5, 1.0, 2.0, 7.3):
            b = year_bins(s, clock, tau)
            assert b.n_candles.sum() == len(s)
            assert np.all(np.diff(b.index) > 0)
            assert np.all(b.n_candles >= 1)

    def test_tau_doubling_preserves_weighted_mean(self):
        rng = np.random.default_rng(2)
        ts = T0 + 60 * np.sort(rng.choice(30000, size=500, replace=False)).astype(np.int64)
        s = point_candles("W", ts, np.exp(rng.normal(0, 0.01, 500)) * 20)
        clock = identity_clock()
        b1 = year_bins(s, clock, 1.0)
        b2 = year_bins(s, clock, 2.0)
        m1 = np.sum(b1.price * b1.n_candles) / b1.n_candles.sum()
        m2 = np.sum(b2.price * b2.n_candles) / b2.n_candles.sum()
        assert m1 == pytest.approx(m2, rel=1e-12)
        assert b1.n_candles.sum() == b2.n_candles.sum()

    def test_no_interpolation_on_candle_removal(self):
        rng = np.random.default_rng(3)
        ts = T0 + 60 * np.sort(rng.choice(5000, size=60, replace=False)).astype(np.int64)
        prices = np.exp(rng.normal(0, 0.01, 60))
        s = point_candles("N", ts, prices)
        clock = identity_clock()
        b_full = year_bins(s, clock, 1.0)
        drop = 17
        s2 = point_candles("N", np.delete(ts, drop), np.delete(prices, drop))
        b_less = year_bins(s2, clock, 1.0)
        assert set(b_less.index).issubset(set(b_full.index))
        touched = int(clock.to_txn_time(int(ts[drop])) // 1.0)
        for idx, price in zip(b_less.index, b_less.price):
            if idx != touched:
                k = np.nonzero(b_full.index == idx)[0][0]
                assert price == b_full.price[k]


class TestLogReturns:
    def test_log_identity(self):
        r = panel_returns(point_candles("L", T0 + 3600 * np.arange(2, dtype=np.int64),
                                        [1.0, np.e]))
        assert r.r[0] == pytest.approx(1.0)
        assert r.dt[0] == pytest.approx(1.0)
        assert r.start_index[0] == 0

    def test_constant_prices(self):
        r = panel_returns(point_candles("K", T0 + 3600 * np.arange(5, dtype=np.int64),
                                        np.full(5, 3.0)))
        assert len(r) == 4 and np.allclose(r.r, 0.0)

    def test_small_sequence(self):
        r = panel_returns(point_candles("S", T0 + 3600 * np.arange(3, dtype=np.int64),
                                        [100.0, 101.0, 99.0]))
        assert np.allclose(r.r, [np.log(1.01), np.log(99 / 101)])

    def test_cumsum_roundtrip(self):
        rng = np.random.default_rng(4)
        prices = np.exp(np.cumsum(rng.normal(0, 0.02, 300))) * 40
        s = point_candles("R", T0 + 3600 * np.arange(300, dtype=np.int64), prices)
        b = year_bins(s, identity_clock(), 1.0)
        rebuilt = np.exp(np.cumsum(panel_returns(s).r))
        assert np.allclose(rebuilt, b.price[1:] / b.price[0], rtol=1e-12)

    def test_needs_two_bins(self):
        # two candles in one bin: a price, and no return
        s = point_candles("E", np.array([T0, T0 + 60], dtype=np.int64), [1.0, 2.0])
        assert len(year_bins(s, identity_clock(), 1.0)) == 1
        assert len(panel_returns(s)) == 0
