"""One-minute candle ingestion and resolution binning.

A candle is one traded minute: unix timestamp (start of minute), four
prices (open/high/low/close) and a share volume. Minutes in which a stock
did not trade are simply absent; prices are never held over or
interpolated. The representative price of a minute is the plain mean of
its four prices. After validation nothing reads the four prices on their
own, so a loaded ``CandleSeries`` holds three columns: timestamps, the
representative price and the volume.

Coarser resolutions are built by sorting candles into consecutive
half-open bins of length tau along a transaction-time axis (see
``vartau.clock``), averaging representative prices and coordinates within
each bin. ``bin_series`` bins one ticker-year into its year's block of grid
columns, the step that ``panel.grid_bins`` chains into each ticker's returns
and its row of the hourly panel. Returns are log differences of consecutive
known bin prices, each carrying its actual elapsed transaction time.

``parse_candles`` reads a candle file and caches what it parsed, keyed on
the file's sha256; ``load_parsed`` reads that series again by the digest
that ``parse_candles`` recorded, without hashing the file again, so a
command can pass over its files more than once while it holds one at a
time.

``read_table`` owns the CSV syntax of every table vartau reads (candles,
simulated panels, prediction coefficients) and its ``path:line`` errors, as
``write_table`` owns the format of every table vartau writes; only
``PricePanel.write_csv`` formats its own rows, for speed.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

CSV_HEADER = ["timestamp", "open", "high", "low", "close", "volume"]
_ROW = np.dtype([("timestamp", np.int64)] + [(n, np.float64) for n in CSV_HEADER[1:]])
# cells that write_table formats at a time, bounding its Python lists
_WRITE_CELLS = 1 << 15
# the parse cache beside each candle file, and its rows as stored: the
# timestamps, then the bit patterns of the prices and of the volumes
_CACHE_DIR = ".vartau"
_ENTRY_COLUMNS = ("<i8", "<f8", "<f8")


class CandleSeries:
    """All candles of one ticker, held as column arrays, sorted by time.

    Every series holds ``timestamps`` (int64), ``price``, the representative
    (OHLC-mean) price of each candle, and ``volume``: 24 bytes a candle. A
    series built from bars, ``CandleSeries(ticker, timestamps, open, high,
    low, close, volume)``, also keeps its ``open``, ``high``, ``low`` and
    ``close`` columns, so ``write_candles`` can write it back. A series read
    by ``parse_candles`` holds no bars: those four attributes are None, and
    ``sha256`` is the digest of the file content it was read from (None for
    any other series).
    """

    def __init__(self, ticker, timestamps, open_, high, low, close, volume):
        self.open, self.high, self.low, self.close = bars = [
            np.asarray(a, dtype=float) for a in (open_, high, low, close)]
        if len({len(b) for b in bars}) != 1:
            raise DataError("candle column arrays have mismatched lengths")
        with np.errstate(invalid="ignore", over="ignore"):   # non-finite bars: no price
            price = (bars[0] + bars[1] + bars[2] + bars[3]) / 4.0
        self._hold(ticker, timestamps, price, volume)

    @classmethod
    def from_prices(cls, ticker, timestamps, price, volume) -> "CandleSeries":
        """A series of representative prices and volumes, with no bars."""
        s = cls.__new__(cls)
        s.open = s.high = s.low = s.close = None
        s._hold(ticker, timestamps, price, volume)
        return s

    def _hold(self, ticker, timestamps, price, volume) -> None:
        self.ticker = str(ticker)
        self.sha256 = None
        self.timestamps = np.asarray(timestamps, dtype=np.int64)
        self.price = np.asarray(price, dtype=float)
        self.volume = np.asarray(volume, dtype=float)
        if len({len(self.timestamps), len(self.price), len(self.volume)}) != 1:
            raise DataError("candle column arrays have mismatched lengths")
        if np.any(self.timestamps[1:] <= self.timestamps[:-1]):    # np.diff can overflow
            raise DataError(f"{self.ticker}: timestamps not strictly increasing")

    def __len__(self) -> int:
        return len(self.timestamps)

    def dollar_weights(self) -> np.ndarray:
        """Per-minute dollar volume: representative price times shares."""
        return self.price * self.volume

    def slice_window(self, t0: int, t1: int) -> "CandleSeries":
        """Candles with t0 <= timestamp < t1, as views of this series' columns."""
        i = np.searchsorted(self.timestamps, t0, side="left")
        j = np.searchsorted(self.timestamps, t1, side="left")
        sub = CandleSeries.from_prices(self.ticker, self.timestamps[i:j],
                                       self.price[i:j], self.volume[i:j])
        if self.open is not None:
            sub.open, sub.high, sub.low, sub.close = (
                b[i:j] for b in (self.open, self.high, self.low, self.close))
        return sub


@dataclass
class BinnedSeries:
    """Bin-averaged prices of one ticker at resolution tau.

    ``index`` is the bin's position on the tau grid anchored at
    transaction time 0 of the year (bin k covers [k*tau, (k+1)*tau)).
    Bins with no candles are absent.
    """

    index: np.ndarray         # int64, strictly increasing grid indices
    time: np.ndarray          # mean transaction-time coordinate per bin
    price: np.ndarray         # mean representative price per bin
    n_candles: np.ndarray     # candles per bin, >= 1

    def __len__(self) -> int:
        return len(self.index)


@dataclass
class ReturnSeries:
    """Log returns of consecutive known bin prices.

    Entry i is the return from bin i to bin i+1 of a ticker's bins in
    ``panel.grid_bins``; ``dt`` is the elapsed transaction time between the
    two bin mean times and ``start_index`` the grid index of the earlier bin.
    """

    tau: float
    r: np.ndarray
    dt: np.ndarray
    start_index: np.ndarray

    def __len__(self) -> int:
        return len(self.r)


def parse_candles(path) -> CandleSeries:
    """Read one ticker's candle CSV, named by its file stem, into timestamps,
    representative prices and volumes.

    The file is a ``read_table`` table under the header
    ``timestamp,open,high,low,close,volume``, one candle per row, in any
    order (rows are sorted). The timestamp is a signed decimal integer of
    ASCII digits within int64; prices and volume are finite decimal floats
    with an optional sign, fraction and exponent, and no ``_`` digit
    separators. A row that breaks an OHLC invariant, or whose high is at or
    above 2**1000, is rejected with its line number, a repeated timestamp
    with both of its lines.

    Once every row is checked, the representative price ``(open + high +
    low + close) / 4.0`` is computed, and only it, the timestamps and the
    volumes are kept, in time order: the returned series holds no bars.

    Each file is parsed once. The result is cached beside it, in
    ``<dir>/.vartau/<stem>.<sha256>.<tag>.npy``: one (3, n) int64 array of
    the timestamps and the bit patterns of the prices and volumes, so a
    cached series is bit-identical to a parsed one. The key is the file's
    content (its sha256, taken before the file is read) and the parser
    (``tag``, a digest of this module's source), so an entry never goes stale
    and the directory is safe to delete. A parse is followed by a second
    hash, and a file whose bytes changed while it was parsed raises DataError
    ``<path> changed while the command read it``. An entry is written only
    for a file that passed every check; it replaces the stem's older entries.
    An entry that cannot be read is parsed again and rewritten, and a
    directory that cannot be written is parsed every time, without error.
    ``load_parsed`` reads the same series again by its digest.
    """
    path = Path(path)
    digest = _sha256_of_input(path)
    entry = _entry(path, digest)
    series = _read_entry(entry, path.stem)
    if series is None:
        series = _read_unchanged(path, digest, _parse)
        with contextlib.suppress(OSError):      # unwritable
            _write_entry(entry, path.stem, series)
    series.sha256 = digest
    return series


def load_parsed(path, digest: str) -> CandleSeries:
    """The series that ``parse_candles`` read from ``path`` when its content had
    sha256 ``digest``, loaded from the parse cache without hashing the file.

    This is how a command reads a file a second time. Only when the entry is
    missing (the directory cannot be written) is the file parsed again and
    hashed, and a file whose digest is no longer ``digest`` raises DataError
    ``<path> changed while the command read it``.
    """
    path = Path(path)
    series = _read_entry(_entry(path, digest), path.stem)
    if series is None:
        series = _read_unchanged(path, digest, _parse)
    series.sha256 = digest
    return series


def read_hashed(path, read):
    """``read(path)`` and the sha256 of the bytes it read.

    The file is hashed before it is read and again after; a file that changed
    in between raises DataError ``<path> changed while the command read it``,
    as does one that ``read`` rejected if it changed meanwhile.
    """
    digest = _sha256_of_input(path)
    return _read_unchanged(path, digest, read), digest


def _sha256_of_input(path) -> str:
    try:
        return sha256_file(path)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def _read_unchanged(path, digest: str, read):
    """``read(path)``, checked to have read the bytes of sha256 ``digest``."""
    try:
        result = read(path)
    except DataError:
        _check_unchanged(path, digest)      # an error of bytes that changed names the change
        raise
    _check_unchanged(path, digest)
    return result


def _check_unchanged(path, digest: str) -> None:
    try:
        same = sha256_file(path) == digest
    except OSError:
        same = False
    if not same:
        raise DataError(f"{path} changed while the command read it")


def sha256_file(path) -> str:
    """The hex sha256 of a file's bytes, read through one reused buffer."""
    h, buf = hashlib.sha256(), bytearray(1 << 20)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


@functools.cache
def _parser_tag() -> str:
    """A digest of this module's source, in every cache entry's name, so that
    no entry written by other parser code is read."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def _entry(path: Path, digest: str) -> Path:
    return path.parent / _CACHE_DIR / f"{path.stem}.{digest}.{_parser_tag()}.npy"


def _read_entry(entry: Path, ticker: str) -> CandleSeries | None:
    """The series cached in ``entry``, or None if it is missing or not a
    whole entry of this format.

    Nothing is unpickled: the header must describe a C-order (3, n) ``<i8``
    array and the file must hold exactly its 24n bytes. Each column is read
    into its own array, so a column that a caller drops is freed.
    """
    try:
        with open(entry, "rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype != np.dtype("<i8") or fortran or len(shape) != 2 or shape[0] != 3:
                return None
            n = shape[1]
            if n < 1 or os.fstat(fh.fileno()).st_size != fh.tell() + 24 * n:
                return None
            cols = [np.empty(n, kind) for kind in _ENTRY_COLUMNS]
            if any(fh.readinto(c) != c.nbytes for c in cols):
                return None
        return CandleSeries.from_prices(ticker, *cols)
    except (OSError, ValueError, DataError):     # DataError: timestamps out of order
        return None


def _write_entry(entry: Path, stem: str, series: CandleSeries) -> None:
    """Write ``series`` to ``entry`` through a temporary file, then delete the
    stem's other entries. An OSError is raised with no temporary file left."""
    tmp = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    try:
        entry.parent.mkdir(exist_ok=True)
        with open(tmp, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "<i8", "fortran_order": False, "shape": (3, len(series))})
            for col, kind in zip((series.timestamps, series.price, series.volume),
                                 _ENTRY_COLUMNS):
                fh.write(col.astype(kind, copy=False).data)
        os.replace(tmp, entry)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    for p in entry.parent.iterdir():
        parts = p.name.rsplit(".", 3)       # stem, sha256, tag, "npy"
        if p != entry and len(parts) == 4 and parts[0] == stem and parts[3] == "npy":
            p.unlink(missing_ok=True)


def candle_files(data_dir) -> list[Path]:
    """Every ``*.csv`` of a directory, sorted. The parse-cache entries of a stem
    with no file left are deleted; a cache that cannot be written keeps them."""
    files = sorted(Path(data_dir).glob("*.csv"))
    stems = {f.stem for f in files}
    with contextlib.suppress(OSError):
        for p in (Path(data_dir) / _CACHE_DIR).glob("*.npy"):
            if p.name.rsplit(".", 3)[0] not in stems:      # <stem>.<sha256>.<tag>.npy
                p.unlink()
    return files


def _parse(path: Path) -> CandleSeries:
    """``parse_candles`` without its cache."""
    _, rows = read_table(path, _ROW, CSV_HEADER, _candle_faults)
    if len(rows) == 0:
        raise DataError(f"{path}: no candles")
    order = np.argsort(rows["timestamp"], kind="stable")
    ts = rows["timestamp"][order]
    check_unique(path, ts, order, lambda i: f"duplicate timestamp {rows['timestamp'][i]}")
    price = (rows["open"] + rows["high"] + rows["low"] + rows["close"]) / 4.0
    volume = rows["volume"][order]
    del rows                    # the six parsed columns, freed before the last gather
    return CandleSeries.from_prices(path.stem, ts, price[order], volume)


def _candle_faults(rows) -> dict:
    """Every per-candle invariant as one mask, in the order a row is
    described when it breaks several."""
    t, o, h, l, c, v = (rows[n] for n in CSV_HEADER)
    finite = np.isfinite(o) & np.isfinite(h) & np.isfinite(l) & np.isfinite(c)
    return {
        "timestamp {timestamp} is not a minute boundary": t % 60 != 0,
        "non-finite price or volume at ts {timestamp}": ~(finite & np.isfinite(v)),
        "low {low} above open/close at ts {timestamp}": l > np.minimum(o, c),
        "high {high} below open/close at ts {timestamp}": h < np.maximum(o, c),
        "negative volume at ts {timestamp}": v < 0,
        "non-positive price at ts {timestamp}": np.minimum(np.minimum(o, h), np.minimum(l, c)) <= 0,
        # a ticker-year holds under 2**20 minute candles, so no OHLC or bin sum overflows
        "high {high} at or above 2**1000 at ts {timestamp}": h >= 2.0**1000,
    }


def read_table(path, dtype=None, header=None, faults=None):
    """The header fields and the rows of one CSV table that vartau reads.

    Accepted syntax: UTF-8 text, optionally starting with a byte-order mark;
    one header line, which must equal ``header`` (case and surrounding spaces
    ignored) when that is given; then one row per line with as many
    comma-separated fields as the header, each optionally in double quotes
    and padded with spaces or tabs. Lines end in LF, CRLF or CR; empty and
    whitespace-only lines are skipped. A structured ``dtype`` reads one named
    column per field; the default, float64, reads a 2-d array with one row
    per line.

    ``faults(rows)`` gives ``{message: mask}``, each mask marking the rows
    that break one rule; a message is formatted with the row's fields by
    name and its ``line`` text. The first bad row in file order, whether it
    cannot be read or a mask marks it, raises DataError ``path:line: ...``;
    so does a byte that is not UTF-8. A file that cannot be opened, is empty
    or has a bad header raises DataError too.

    The rows are parsed in one ``np.loadtxt`` call on the path (given an
    open file, ``loadtxt`` reads it as Python lines, which is slower). Only
    when that call fails is the file read again, by ``_reparse``.
    """
    path = Path(path)
    dtype = np.dtype(float if dtype is None else dtype)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        fields = next(csv.reader([first]), [])
        if header is not None and [h.strip().lower() for h in fields] != header:
            raise DataError(f"{path}: bad header {fields!r}, want {header}")
        if not fields:
            raise DataError(f"{path}:1: empty header")
        names = dtype.names or fields
        try:
            rows = _load(path, dtype, len(names), skiprows=1)
        except ValueError:      # also a byte that is not UTF-8: _reparse reads it again
            rows = _reparse(path, dtype, names, faults)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    _check(path, rows, names, faults)
    return fields, rows


def _row_lines(path) -> list[tuple[int, str]]:
    """(line number, text) of each row ``read_table`` returns, in order:
    the non-blank lines after the header.

    Error paths only: the file is read again once a row is known bad.
    """
    lines = Path(path).read_text(encoding="utf-8-sig").split("\n")
    return [(n, line) for n, line in enumerate(lines[1:], start=2) if line.strip()]


def check_unique(path, key, order, describe) -> None:
    """Raise for the first two rows of equal ``key``, naming both lines.

    ``key`` is sorted and holds row ``order[k]``'s key at k, as a stable sort
    gives it; ``describe(i)`` says what row i repeats.
    """
    dup = np.flatnonzero(key[1:] == key[:-1])
    if dup.size:
        first, again = order[dup[0]], order[dup[0] + 1]
        lines = _row_lines(path)
        raise DataError(f"{path}:{lines[again][0]}: {describe(again)} "
                        f"repeats line {lines[first][0]}")


def not_utf8(path) -> DataError:
    """The DataError for a file that is not UTF-8, naming the line of its
    first bad byte (lines end in LF, CRLF or CR)."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
        return DataError(f"{path}: not UTF-8 text")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return DataError(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 text")


def _load(source, dtype, ncols, skiprows=0, usecols=None) -> np.ndarray:
    """One ``np.loadtxt`` call; a 2-d result must have ``ncols`` columns."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # no rows: the caller decides
        rows = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', skiprows=skiprows, usecols=usecols,
                          ndmin=1 if dtype.names else 2, encoding="utf-8-sig")
    if rows.ndim == 2 and rows.shape[1] != ncols:
        if len(rows):
            raise ValueError(f"want {ncols} columns, got {rows.shape[1]}")
        rows = rows.reshape(0, ncols)
    return rows


def _check(path, rows, names, faults, numbered=None) -> None:
    """Raise for the first row that a ``faults`` mask marks.

    ``numbered`` is ``_row_lines(path)`` when the caller already has it.
    """
    if faults is None or len(rows) == 0:
        return
    fails = faults(rows)
    bad = np.logical_or.reduce(list(fails.values()))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    msg = next(m for m, mask in fails.items() if mask[i])
    lineno, line = (numbered or _row_lines(path))[i]
    values = rows[i].item() if rows.dtype.names else rows[i].tolist()
    raise DataError(f"{path}:{lineno}: "
                    + msg.format_map({**dict(zip(names, values)), "line": line}))


def _reparse(path: Path, dtype, names, faults) -> np.ndarray:
    """Rows of a file that the one-call parse rejected (error path only).

    ``loadtxt`` skips empty lines but not whitespace-only ones, so the
    non-blank lines are parsed again. If that fails too, the first line
    ``loadtxt`` cannot read is found by bisection with the same call (so
    numpy's own rules decide, and its message is never parsed). The rows
    before it are checked first, so the first bad line in file order is
    the one reported.
    """
    numbered = _row_lines(path)
    lines = [line for _, line in numbered]
    try:
        return _load(lines, dtype, len(names))
    except ValueError:
        pass
    lo, hi = 0, len(lines)      # lines[:lo] parse; the first failure is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _load(lines[lo:mid], dtype, len(names))
            lo = mid
        except ValueError:
            hi = mid
    if lo:
        _check(path, _load(lines[:lo], dtype, len(names)), names, faults, numbered)
    lineno, line = numbered[lo]
    fields = next(csv.reader([line]), [])
    if len(fields) != len(names):
        raise DataError(f"{path}:{lineno}: expected {len(names)} fields, "
                        f"got {len(fields)}")
    for col, (name, field) in enumerate(zip(names, fields)):
        kind = dtype[col] if dtype.names else dtype
        try:
            _load([line], kind, 1, usecols=[col])
        except ValueError:
            raise DataError(f"{path}:{lineno}: cannot read {name} from "
                            f"{field!r} as {kind}") from None
    raise DataError(f"{path}:{lineno}: cannot read line {line!r}")


def write_candles(path, series: CandleSeries) -> None:
    """Write a CandleSeries built from bars back to the interchange CSV format.

    A parsed series holds no bars and raises DataError.
    """
    if series.open is None:
        raise DataError(f"{series.ticker}: a parsed series holds no bars to write")
    write_table(path, CSV_HEADER, [series.timestamps, series.open, series.high,
                                   series.low, series.close, series.volume])


def write_table(path, header: list[str], cols) -> None:
    """Write ``header``, then row i of the column list (or 2-d array) ``cols`` for each i.

    Integer arrays are written in decimal, float arrays as each value's repr,
    and text (a list or a string array) as ``csv.writer`` quotes a field of a
    longer row. Lines end in LF. Rows are formatted _WRITE_CELLS cells at a
    time; a matrix ``m`` is written row by row as ``m.T``.
    """
    # text as Python strings, which hash and compare faster than NumPy's
    cols = [c.tolist() if isinstance(c, np.ndarray) and c.dtype.kind == "U" else c
            for c in cols]
    fields = [_field_format(c) for c in cols]
    step = max(1, _WRITE_CELLS // max(1, len(cols)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, len(cols[0]) if len(cols) else 0, step):
            block = (f(c[lo:lo + step]) for f, c in zip(fields, cols))
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")


def _field_format(col):
    """The function that turns a slice of ``col`` into its CSV fields."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "fiu":
        return lambda part: map(repr if col.dtype.kind == "f" else str, part.tolist())
    buf, quoted = io.StringIO(), {}
    w = csv.writer(buf, lineterminator="\n")
    for t in set(col):          # each distinct text is quoted once
        buf.seek(0), buf.truncate()
        w.writerow([t, ""])
        quoted[t] = buf.getvalue()[:-2]
    return lambda part: map(quoted.__getitem__, part)


def bin_coordinates(coords: np.ndarray, prices: np.ndarray, tau: float):
    """Core binning: sorted transaction coordinates -> per-bin means.

    Returns (grid index, mean coord, mean price, count) arrays with empty
    bins absent. Bins are half-open [k*tau, (k+1)*tau), anchored at 0.
    ``coords`` must be non-decreasing, as clock coordinates of a
    time-sorted series are: each bin is read off as one run of equal grid
    index. Unsorted coordinates raise DataError.

    The grid index is floor(coords/tau) exactly, as ``np.floor_divide`` gives
    it: the floor of the rounded quotient is exact unless the quotient rounded
    up onto an integer, so only exact-integer quotients use ``floor_divide``.
    """
    if tau <= 0:
        raise DataError(f"tau must be positive, got {tau}")
    if np.any(coords[1:] < coords[:-1]):
        raise DataError("bin coordinates are not sorted")
    idx = coords / tau
    exact = np.flatnonzero(np.floor(idx) == idx)
    np.floor(idx, out=idx)
    idx[exact] = np.floor_divide(coords[exact], tau)
    first = np.flatnonzero(idx[1:] != idx[:-1]) + 1
    if len(idx):
        first = np.concatenate(([0], first))
    counts = np.diff(np.append(first, len(idx)))
    sums_t = np.add.reduceat(coords, first)
    sums_p = np.add.reduceat(prices, first)
    return idx[first].astype(np.int64), sums_t / counts, sums_p / counts, counts


def bin_series(coords: np.ndarray, prices: np.ndarray, tau: float, width: int) -> BinnedSeries:
    """One ticker-year's bins on its year block of ``width`` grid columns.

    The bins are ``bin_coordinates``' bins of the year's sorted transaction
    coordinates, minus any bin at or past ``width``: a candle at the year's
    last transaction hour starts such a bin when tau divides the year.
    """
    idx, times, means, counts = bin_coordinates(coords, prices, tau)
    n = np.searchsorted(idx, width)     # the indices increase: dropped bins end the year
    return BinnedSeries(idx[:n], times[:n], means[:n], counts[:n])
