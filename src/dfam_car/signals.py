"""Raw motion time series: ingestion, filtering, segmentation and spectra.

All operations are pure functions over immutable values; arrays are stored
read-only, so a value is never changed by whoever else holds it.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np
from scipy import signal as _sps

from .errors import AlignmentError, ConfigError, DataQualityError, NotEnoughDataError, ParseError

DEVICES = ("phone", "watch")
SENSORS = ("acc", "gyr")
AXES = ("x", "y", "z")

DEFAULT_SAMPLE_RATE_HZ = 50.0
DEFAULT_CUTOFF_HZ = 10.0  # every command filters at it: model files do not record a cutoff

CSV_FIELDS = ("timestamp_ms", "device", "sensor", "x", "y", "z")


class Channel(NamedTuple):
    """One (device, sensor, axis) stream. Tuple order gives the canonical sort."""

    device: str
    sensor: str
    axis: str

    @property
    def key(self) -> str:
        return f"{self.device}_{self.sensor}_{self.axis}"


def all_channels(sensors: Sequence[str] = SENSORS) -> tuple[Channel, ...]:
    """Canonical channel ordering: device-major, then sensor, then axis."""
    for s in sensors:
        if s not in SENSORS:
            raise ConfigError(f"unknown sensor {s!r}, expected one of {SENSORS}")
    return tuple(
        Channel(d, s, a) for d in DEVICES for s in SENSORS if s in sensors for a in AXES
    )


CHANNEL_BY_KEY = {ch.key: ch for ch in all_channels()}


def _readonly(values, dtype=np.float64) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    channel: Channel
    sample_rate_hz: float
    values: np.ndarray

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ConfigError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1:
            raise DataQualityError("series values must be one-dimensional")
        if not np.all(np.isfinite(self.values)):
            raise DataQualityError(f"non-finite sample in channel {self.channel.key}")

    def __len__(self) -> int:
        return len(self.values)


# Rows of a read-only block become frozen Windows and Spectra without
# __post_init__'s read-only copy: object.__new__, then one object.__setattr__
# per attribute, written out. That keeps an instance's compact attribute
# storage, which a single obj.__dict__.update would replace with a dict of its
# own (152 -> 280 bytes a window on CPython 3.11, and windows are held by the
# thousand).
_new, _set = object.__new__, object.__setattr__


class _Block:
    """The windows of one segmented series as rows of one read-only (n, W)
    array, with the magnitude spectra of all rows computed together the first
    time any of them is asked for."""

    __slots__ = ("values", "_magnitudes")

    def __init__(self, values: np.ndarray):
        self.values = values
        self._magnitudes = None

    def magnitudes(self) -> np.ndarray:
        mags = self._magnitudes
        if mags is None:
            mags = np.abs(np.fft.rfft(self.values, axis=-1))
            mags.setflags(write=False)
            self._magnitudes = mags
        return mags


@dataclass(frozen=True, eq=False)
class Window:
    """W consecutive samples of one channel. Windows from `segment` are
    read-only views into their series; one built directly copies its values."""

    values: np.ndarray
    index: int
    channel: Channel

    def __post_init__(self):
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_block", _Block(values[np.newaxis]))
        object.__setattr__(self, "_row", 0)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One-sided magnitude spectrum of a window, bins k = 0 .. W/2.

    A spectrum from `spectrum` is a read-only row of the magnitudes of its
    window's whole block, so holding it (or any window of that block) keeps
    the magnitudes of every window of the series in memory.
    """

    bin_magnitudes: np.ndarray
    bin_width_hz: float

    def __post_init__(self):
        object.__setattr__(self, "bin_magnitudes", _readonly(self.bin_magnitudes))

    @property
    def n_bins(self) -> int:
        return len(self.bin_magnitudes)

    @property
    def window_size(self) -> int:
        return 2 * (self.n_bins - 1)

    @property
    def sample_rate_hz(self) -> float:
        return self.bin_width_hz * self.window_size


@functools.lru_cache(maxsize=64)
def _butter_low_pass(cutoff_hz: float, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """The (b, a) of low_pass_filter, designed once per (cutoff, rate); read-only
    because every caller shares them."""
    b, a = _sps.butter(2, cutoff_hz, btype="low", fs=sample_rate_hz)
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a


def low_pass_filter(series: TimeSeries, cutoff_hz: float = DEFAULT_CUTOFF_HZ) -> TimeSeries:
    """Second-order Butterworth low-pass (biquad), zero initial state.

    DC gain is unity; roll-off is monotone above the cutoff.
    """
    if not (0.0 < cutoff_hz < series.sample_rate_hz / 2.0):
        raise ConfigError(f"low-pass cutoff {cutoff_hz} Hz must be positive and below half"
                          f" the {series.sample_rate_hz} Hz sample rate")
    b, a = _butter_low_pass(cutoff_hz, series.sample_rate_hz)
    filtered = _sps.lfilter(b, a, series.values)
    return TimeSeries(series.channel, series.sample_rate_hz, filtered)


def segment(series: TimeSeries, window_size: int) -> list[Window]:
    """Split into consecutive non-overlapping windows; trailing remainder is dropped.

    The windows are read-only row views of one (n, W) reshape of the series.
    """
    if int(window_size) != window_size or window_size < 2:
        raise ConfigError(f"window_size must be an integer >= 2, got {window_size}")
    window_size = int(window_size)
    n = len(series) // window_size
    if n == 0:
        raise NotEnoughDataError(
            f"series of length {len(series)} is shorter than one window of {window_size}"
        )
    block = _Block(series.values[: n * window_size].reshape(n, window_size))
    windows = []
    for i, row in enumerate(block.values):
        window = _new(Window)
        _set(window, "values", row)
        _set(window, "index", i)
        _set(window, "channel", series.channel)
        _set(window, "_block", block)
        _set(window, "_row", i)
        windows.append(window)
    return windows


def spectrum(window: Window, sample_rate_hz: float) -> Spectrum:
    """Magnitude of the DFT at frequencies k*fs/W for k = 0 .. W/2.

    Magnitudes are unnormalized, so Parseval reads
    sum(x**2) == sum(|X_k|**2 over all W bins) / W. The first call for any
    window of a block transforms the whole block in one batched rfft, bitwise
    equal to one rfft per window, so it costs as much as the whole series;
    later calls only read their row.
    """
    w = len(window.values)
    if w < 2 or (w & (w - 1)) != 0:
        raise ConfigError(f"window length must be a power of two, got {w}")
    if sample_rate_hz <= 0:
        raise ConfigError(f"sample_rate_hz must be positive, got {sample_rate_hz}")
    sp = _new(Spectrum)
    _set(sp, "bin_magnitudes", window._block.magnitudes()[window._row])
    _set(sp, "bin_width_hz", sample_rate_hz / w)
    return sp


def window_bundles(
    series_by_channel: Mapping[Channel, TimeSeries], window_size: int
) -> list[dict[Channel, Window]]:
    """Segment every channel and zip windows by time index.

    Channels are ordered canonically; all channels must yield the same
    number of windows.
    """
    if not series_by_channel:
        raise AlignmentError("no channels to bundle")
    channels = sorted(series_by_channel)
    per_channel = {}
    counts = set()
    for ch in channels:
        wins = segment(series_by_channel[ch], window_size)
        per_channel[ch] = wins
        counts.add(len(wins))
    if len(counts) != 1:
        raise AlignmentError(f"channels yield differing window counts: {sorted(counts)}")
    n = counts.pop()
    return [{ch: per_channel[ch][i] for ch in channels} for i in range(n)]


def read_utf8(path) -> str:
    """A whole file as text; a byte that is not UTF-8 is a ParseError at its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"byte {data[exc.start]:#04x} is not UTF-8", line, path) from None


def _header_checked(path, header: tuple[str, ...]) -> str:
    """The whole text of a CSV file whose first line is `header`."""
    text = read_utf8(path)
    if not text:
        raise ParseError("empty file", 1, path)
    first = text.partition("\n")[0]
    if tuple(f.strip() for f in first.split(",")) != header:
        raise ParseError(f"bad header {first!r}, expected {','.join(header)}", 1, path)
    return text


def _body_rows(text: str, n: int, path):
    lines = text.split("\n")
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.removesuffix("\r")
        if not line:
            continue
        if '"' in line:
            raise ParseError("quoted field; fields are never quoted", lineno, path)
        fields = line.split(",")
        if len(fields) != n:
            raise ParseError(f"expected {n} fields, got {len(fields)}", lineno, path)
        yield lineno, fields


def csv_rows(path, header: tuple[str, ...]):
    """Yield (lineno, fields) for every non-blank row after the header.

    The format is the one this package writes: UTF-8, comma-separated, no
    quoting; LF or CRLF line endings. Each ParseError names file and line.
    """
    yield from _body_rows(_header_checked(path, header), len(header), path)


def _parse_float(text: str, what: str, line: int, path) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", line, path) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} {text!r}", line, path)
    return value


def _row_streams(text: str, path) -> dict[tuple[str, str], np.ndarray]:
    """Each (device, sensor) stream's (n, 3) samples, read row by row with
    float(); the first bad row is a ParseError naming its line."""
    last_ts: dict[tuple[str, str], float] = {}
    samples: dict[tuple[str, str], list[float]] = {}
    for lineno, (ts, device, sensor, x, y, z) in _body_rows(text, len(CSV_FIELDS), path):
        ts = _parse_float(ts, "timestamp", lineno, path)
        device, sensor = device.strip(), sensor.strip()
        key = (device, sensor)
        if device not in DEVICES:
            raise ParseError(f"unknown device {device!r}", lineno, path)
        if sensor not in SENSORS:
            raise ParseError(f"unknown sensor {sensor!r}", lineno, path)
        xyz = (
            _parse_float(x, "sample", lineno, path),
            _parse_float(y, "sample", lineno, path),
            _parse_float(z, "sample", lineno, path),
        )
        if ts < last_ts.get(key, ts):
            raise ParseError(f"timestamp went backwards for {device}/{sensor}", lineno, path)
        last_ts[key] = ts
        samples.setdefault(key, []).extend(xyz)
    return {key: np.array(flat, dtype=np.float64).reshape(-1, 3) for key, flat in samples.items()}


# Every byte of a recording body that numpy's reader may parse: numbers
# (nan and inf included), the four stream names, commas and LF. Any other
# byte could read differently there than in the row loop: numpy drops a
# string's trailing NULs, and ends a row at \r as well as \n.
_BULK_ALPHABET = b"0123456789.+-eE,\n" + bytes(sorted(set(b"phonewatchaccgyrnaninf")))
# One character wider than the longest device and sensor name, since numpy
# cuts a longer field down to the width of its dtype.
_BULK_ROW = np.dtype([("ts", "f8"), ("device", "U6"), ("sensor", "U4"), ("xyz", "f8", (3,))])


def _bulk_streams(body: str) -> dict[tuple[str, str], np.ndarray] | None:
    """What _row_streams returns for this body, parsed by numpy's C reader
    and checked in bulk; None when that cannot vouch for the body, which is
    then for the row loop to accept or to name its bad line."""
    if not body.isascii() or body.encode("ascii").translate(None, _BULK_ALPHABET):
        return None
    if not body.strip("\n"):  # no row, on which numpy would warn
        return None
    try:
        rows = np.loadtxt(
            io.StringIO(body), dtype=_BULK_ROW, delimiter=",", comments=None, ndmin=1
        )
    except ValueError:
        return None
    ts, xyz = rows["ts"], rows["xyz"]
    if not (np.isfinite(ts).all() and np.isfinite(xyz).all()):
        return None
    streams = {}
    for device in DEVICES:
        for sensor in SENSORS:
            mask = (rows["device"] == device) & (rows["sensor"] == sensor)
            stream_ts = ts[mask]
            if (stream_ts[1:] < stream_ts[:-1]).any():
                return None
            if len(stream_ts):
                streams[(device, sensor)] = xyz[mask]
    if sum(map(len, streams.values())) != len(rows):  # an unknown device or sensor
        return None
    return streams


def read_recording(
    path,
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ,
    sensors: Sequence[str] = SENSORS,
) -> dict[Channel, TimeSeries]:
    """Read one recording session CSV into per-channel series.

    Header: timestamp_ms,device,sensor,x,y,z. Timestamps within one
    (device, sensor) stream must be non-decreasing. Samples are assumed
    uniform at the declared rate (no resampling). A body of plain LF rows is
    parsed in one pass of numpy's reader; any other goes through the row loop.
    """
    text = _header_checked(path, CSV_FIELDS)
    streams = _bulk_streams(text.partition("\n")[2])
    if streams is None:
        streams = _row_streams(text, path)
    out: dict[Channel, TimeSeries] = {}
    for (device, sensor), arr in sorted(streams.items()):
        if sensor not in sensors:
            continue
        for j, axis in enumerate(AXES):
            ch = Channel(device, sensor, axis)
            out[ch] = TimeSeries(ch, sample_rate_hz, arr[:, j])
    if not out:
        raise ParseError(f"no sample rows for the sensors {','.join(sensors)}", path=path)
    return out


def write_recording(path, series_by_channel: Mapping[Channel, TimeSeries]) -> None:
    """Write per-channel series as one session CSV (LF line endings, UTF-8)."""
    groups: dict[tuple[str, str], dict[str, TimeSeries]] = {}
    for ch, series in series_by_channel.items():
        groups.setdefault((ch.device, ch.sensor), {})[ch.axis] = series
    rows = []
    for (device, sensor), by_axis in sorted(groups.items()):
        if set(by_axis) != set(AXES):
            raise AlignmentError(f"{device}/{sensor} is missing an axis")
        if len({len(s) for s in by_axis.values()}) != 1:
            raise AlignmentError(f"{device}/{sensor} axes have differing lengths")
        rate = by_axis["x"].sample_rate_hz
        samples = zip(*(by_axis[axis].values.tolist() for axis in AXES))
        rows += ((round(i * 1000.0 / rate), device, sensor, *xyz) for i, xyz in enumerate(samples))
    rows.sort(key=lambda r: r[:3])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_FIELDS) + "\n")
        for ts, device, sensor, x, y, z in rows:
            fh.write(f"{ts},{device},{sensor},{x!r},{y!r},{z!r}\n")
