import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from conftest import dft_magnitudes, rfft_spectrum, series, tone
from dfam_car.errors import (
    AlignmentError,
    ConfigError,
    DataQualityError,
    NotEnoughDataError,
    ParseError,
)
from dfam_car.signals import (
    Channel,
    _butter_low_pass,
    TimeSeries,
    Window,
    all_channels,
    low_pass_filter,
    read_recording,
    segment,
    spectrum,
    window_bundles,
    write_recording,
)

FS = 50.0


def test_all_channels_canonical_order():
    chans = all_channels()
    assert len(chans) == 12
    assert chans[0] == Channel("phone", "acc", "x")
    assert chans[-1] == Channel("watch", "gyr", "z")
    assert list(chans) == sorted(chans)
    assert len(all_channels(("acc",))) == 6


def test_all_channels_keeps_the_devices_in_canonical_order():
    assert all_channels(("gyr",), devices=("watch", "phone")) == tuple(
        ch for ch in all_channels() if ch.sensor == "gyr")
    assert all_channels(devices=("watch",)) == all_channels()[6:]


def test_timeseries_rejects_non_finite():
    with pytest.raises(DataQualityError):
        series([1.0, np.nan, 2.0])
    with pytest.raises(DataQualityError):
        series([1.0, np.inf])
    with pytest.raises(ConfigError):
        TimeSeries(Channel("phone", "acc", "x"), 0.0, np.zeros(4))


@pytest.mark.parametrize("rate", [0.0, -50.0, np.nan, np.inf, -np.inf])
def test_timeseries_rejects_a_rate_that_is_not_positive_and_finite(rate):
    with pytest.raises(ConfigError, match="is not positive and finite"):
        TimeSeries(Channel("phone", "acc", "x"), rate, np.zeros(4))


def test_low_pass_dc_gain_unity():
    src = series(np.full(256, 3.0))
    out = low_pass_filter(src, cutoff_hz=10.0)
    assert len(out) == len(src) and out.channel == src.channel
    settled = out.values[int(FS) :]  # one second of settling
    assert np.all(np.abs(settled - 3.0) <= 0.01 * 3.0)


def test_low_pass_tone_attenuation():
    # oracle: evaluate the realized filter's frequency response numerically
    b, a = sps.butter(2, 10.0, btype="low", fs=FS)
    gains = np.abs(sps.freqz(b, a, worN=[2.0, 5.0, 20.0], fs=FS)[1])

    def rms_ratio(freq):
        x = tone(freq, 512)
        y = low_pass_filter(series(x), cutoff_hz=10.0).values
        return np.sqrt(np.mean(y**2)) / np.sqrt(np.mean(x**2))

    assert rms_ratio(2.0) >= 0.9
    assert rms_ratio(20.0) <= 0.3
    assert abs(rms_ratio(2.0) - gains[0]) < 0.01
    # monotone roll-off: a tone above cutoff is attenuated strictly more
    # than one at half the cutoff
    assert gains[2] < gains[1]


@settings(max_examples=50, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.floats(0.01, 0.99), st.sampled_from([20.0, 50.0, 100.0])),
        min_size=1, max_size=5,
    )
)
@example(pairs=[(0.4, 50.0), (0.2, 50.0), (0.2, 100.0)])  # 10 Hz at 50 Hz, the default
def test_cached_low_pass_matches_a_fresh_design(pairs):
    rng = np.random.default_rng(4)
    pairs = [(frac * fs / 2.0, fs) for frac, fs in pairs]
    for cutoff, fs in pairs + pairs[::-1]:  # the second pass reads cached designs
        x = rng.normal(size=300)
        b, a = sps.butter(2, cutoff, btype="low", fs=fs)
        got = low_pass_filter(series(x, fs=fs), cutoff_hz=cutoff).values
        assert got.tobytes() == sps.lfilter(b, a, x).tobytes()
    for coeffs in _butter_low_pass(10.0, 50.0):  # shared by every caller
        with pytest.raises(ValueError):
            coeffs[0] = 0.0


def test_low_pass_invalid_cutoff():
    s = series(np.zeros(64))
    for cutoff in (0.0, -1.0, 25.0, 30.0):
        with pytest.raises(ConfigError):
            low_pass_filter(s, cutoff_hz=cutoff)


def test_low_pass_linearity():
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=200), rng.normal(size=200)
    a, b = 1.7, -0.4
    lhs = low_pass_filter(series(a * x + b * y)).values
    rhs = a * low_pass_filter(series(x)).values + b * low_pass_filter(series(y)).values
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_segment_counts():
    assert len(segment(series(np.arange(256.0)), 64)) == 4
    wins = segment(series(np.arange(250.0)), 64)
    assert len(wins) == 3
    assert wins[-1].values[-1] == 191.0  # last 58 samples dropped


def test_segment_identity_window():
    s = series(np.arange(64.0))
    wins = segment(s, 64)
    assert len(wins) == 1
    assert np.array_equal(wins[0].values, s.values)
    assert wins[0].index == 0


def test_segment_is_partition():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=333)
    wins = segment(series(vals), 32)
    joined = np.concatenate([w.values for w in wins])
    assert np.array_equal(joined, vals[: (333 // 32) * 32])
    assert [w.index for w in wins] == list(range(len(wins)))


def test_segment_errors():
    with pytest.raises(NotEnoughDataError):
        segment(series(np.zeros(10)), 64)
    with pytest.raises(ConfigError):
        segment(series(np.zeros(10)), 1)


def test_spectrum_pure_tone_bin():
    wins = segment(series(tone(6.25, 64)), 64)
    sp = spectrum(wins[0], FS)
    assert sp.n_bins == 33
    assert sp.bin_width_hz == FS / 64
    assert int(np.argmax(sp.bin_magnitudes)) == 8  # 6.25 Hz = bin 8 exactly


def test_spectrum_zeros_and_dc():
    sp = spectrum(segment(series(np.zeros(64)), 64)[0], FS)
    assert np.all(sp.bin_magnitudes == 0.0)
    sp = spectrum(segment(series(np.full(32, 5.0)), 32)[0], FS)
    assert int(np.argmax(sp.bin_magnitudes)) == 0
    assert np.all(sp.bin_magnitudes[1:] <= 1e-9 * sp.bin_magnitudes[0])


def test_spectrum_requires_power_of_two():
    with pytest.raises(ConfigError):
        spectrum(segment(series(np.zeros(96)), 48)[0], FS)


@pytest.mark.parametrize("w", [32, 64, 128, 256, 512])
def test_spectrum_matches_direct_dft(w):
    rng = np.random.default_rng(w)
    for _ in range(5):
        vals = rng.normal(size=w)
        sp = spectrum(segment(series(vals), w)[0], FS)
        oracle = dft_magnitudes(vals)
        assert np.allclose(sp.bin_magnitudes, oracle, rtol=1e-9, atol=1e-9)


@settings(max_examples=150)
@given(
    log2_w=st.integers(1, 10),
    n_windows=st.integers(1, 300),
    remainder=st.integers(0, 1023),
    kind=st.sampled_from(["zero", "constant", "normal"]),
    scale=st.sampled_from([1e-100, 1e-6, 1.0, 1e6, 1e100]),
    seed=st.integers(0, 2**32 - 1),
)
@example(log2_w=10, n_windows=300, remainder=0, kind="normal", scale=1e100, seed=0)
@example(log2_w=1, n_windows=1, remainder=1, kind="constant", scale=1e-100, seed=0)
def test_block_spectra_bitwise_equal_per_window_rfft(
    log2_w, n_windows, remainder, kind, scale, seed
):
    w = 2**log2_w
    rng = np.random.default_rng(seed)
    length = n_windows * w + remainder % w
    vals = {"zero": np.zeros(length), "constant": np.full(length, scale),
            "normal": scale * rng.normal(size=length)}[kind]
    wins = segment(series(vals), w)
    assert len(wins) == n_windows
    # the block is transformed by whichever window asks first
    for i in rng.permutation(n_windows):
        sp, oracle = spectrum(wins[i], FS), rfft_spectrum(wins[i], FS)
        assert sp.bin_magnitudes.tobytes() == oracle.bin_magnitudes.tobytes()
        assert sp.bin_width_hz == oracle.bin_width_hz
    direct = Window(vals[:w], 5, Channel("watch", "gyr", "z"))
    assert spectrum(direct, FS).bin_magnitudes.tobytes() == (
        rfft_spectrum(direct, FS).bin_magnitudes.tobytes()
    )


def test_segment_windows_are_read_only_views_of_their_series():
    s = series(np.arange(256.0))
    wins = segment(s, 64)
    assert all(np.shares_memory(win.values, s.values) for win in wins)
    sp = spectrum(wins[2], FS)
    for arr in (wins[2].values, sp.bin_magnitudes, spectrum(wins[0], FS).bin_magnitudes):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert np.array_equal(wins[2].values, np.arange(128.0, 192.0))


def test_direct_window_does_not_follow_its_source_array():
    src = np.arange(64.0)
    win = Window(src, 3, Channel("phone", "gyr", "y"))
    expected = rfft_spectrum(win, FS).bin_magnitudes
    src[:] = 0.0  # written after the window was built, before its spectrum
    assert np.array_equal(win.values, np.arange(64.0))
    assert not np.shares_memory(win.values, src)
    sp = spectrum(win, FS)
    assert np.array_equal(sp.bin_magnitudes, expected)
    for arr in (win.values, sp.bin_magnitudes):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_parseval():
    rng = np.random.default_rng(4)
    for w in (32, 128):
        vals = rng.normal(size=w)
        sp = spectrum(segment(series(vals), w)[0], FS)
        mags = sp.bin_magnitudes
        full = np.concatenate([mags, mags[1:-1][::-1]])
        assert np.isclose(np.sum(vals**2), np.sum(full**2) / w, rtol=1e-9)


def test_window_bundles_alignment():
    chans = all_channels()
    by_ch = {ch: series(np.arange(130.0) + i, ch) for i, ch in enumerate(chans)}
    bundles = window_bundles(by_ch, 64)
    assert len(bundles) == 2
    assert list(bundles[0]) == sorted(chans)
    assert all(w.index == 1 for w in bundles[1].values())
    bad = dict(by_ch)
    bad[chans[0]] = series(np.arange(300.0), chans[0])
    with pytest.raises(AlignmentError):
        window_bundles(bad, 64)
    with pytest.raises(AlignmentError):
        window_bundles({}, 64)


def test_recording_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    by_ch = {ch: series(rng.normal(size=40), ch) for ch in all_channels()}
    path = tmp_path / "rec.csv"
    write_recording(path, by_ch)
    back = read_recording(path)
    assert set(back) == set(by_ch)
    for ch in by_ch:
        assert np.array_equal(back[ch].values, by_ch[ch].values)
        assert back[ch].sample_rate_hz == FS  # from the stamps write_recording gives
    acc_only = {ch: by_ch[ch] for ch in all_channels(("acc",))}
    write_recording(path, acc_only)  # read_recording returns every stream a file holds
    assert list(read_recording(path)) == list(acc_only)


def test_crlf_recording_reads_like_lf(tmp_path):
    rng = np.random.default_rng(4)
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_recording(lf, {ch: series(rng.normal(size=20), ch) for ch in all_channels()})
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    a, b = read_recording(lf), read_recording(crlf)
    assert list(a) == list(b)
    for ch in a:
        assert np.array_equal(a[ch].values, b[ch].values)
        assert a[ch].sample_rate_hz == b[ch].sample_rate_hz == FS


def test_read_recording_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n", encoding="utf-8")
    with pytest.raises(ParseError) as e:
        read_recording(path)
    assert e.value.line == 1

    path.write_text(
        "timestamp_ms,device,sensor,x,y,z\n0,phone,acc,1.0,2.0,oops\n", encoding="utf-8"
    )
    with pytest.raises(ParseError) as e:
        read_recording(path)
    assert e.value.line == 2

    path.write_text(
        "timestamp_ms,device,sensor,x,y,z\n0,tablet,acc,1,2,3\n", encoding="utf-8"
    )
    with pytest.raises(ParseError):
        read_recording(path)

    path.write_text(
        "timestamp_ms,device,sensor,x,y,z\n"
        "20,phone,acc,1,2,3\n0,phone,acc,1,2,3\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as e:
        read_recording(path)
    assert e.value.line == 3

    path.write_text("timestamp_ms,device,sensor,x,y,z\n0,phone,acc,1,2\n", encoding="utf-8")
    with pytest.raises(ParseError) as e:
        read_recording(path)
    assert e.value.line == 2

    path.write_text('timestamp_ms,device,sensor,x,y,z\n0,phone,acc,"1",2,3\n', encoding="utf-8")
    with pytest.raises(ParseError) as e:
        read_recording(path)
    assert e.value.line == 2

    path.write_bytes(
        b"timestamp_ms,device,sensor,x,y,z\n0,phone,acc,1,2,3\n20,phone,acc,1,2,\xff\n"
    )
    with pytest.raises(ParseError) as e:
        read_recording(path)
    assert e.value.line == 3
    assert str(path) in str(e.value)


@pytest.mark.parametrize("fs", [50.0, 100.0, 20.0, 48.0, 200.0 / 3.0])
@pytest.mark.parametrize("n", [2, 3, 500, 1501])
def test_the_rate_of_written_stamps_is_the_rate_written(tmp_path, fs, n):
    """write_recording stamps sample i at round(i * 1000 / fs) ms. Where the
    period is a whole number of ms the derived rate is fs exactly; elsewhere
    it is within half a ms over the stream's span."""
    path = tmp_path / "rec.csv"
    rng = np.random.default_rng(n)
    write_recording(path, {ch: TimeSeries(ch, fs, rng.normal(size=n)) for ch in all_channels()})
    last = round((n - 1) * 1000.0 / fs)
    for got in read_recording(path).values():
        assert type(got.sample_rate_hz) is float
        assert got.sample_rate_hz == 1000.0 * (n - 1) / last
        if 1000.0 / fs == round(1000.0 / fs):
            assert got.sample_rate_hz == fs
        assert abs(1000.0 * (n - 1) / got.sample_rate_hz - 1000.0 * (n - 1) / fs) <= 0.5


@pytest.mark.parametrize("rows", [
    "0,phone,acc,1,2,3\n",  # one sample
    "20,phone,acc,1,2,3\n20,phone,acc,1,2,3\n20,phone,acc,1,2,3\n",  # no time passes
    "-1e308,phone,acc,1,2,3\n1e308,phone,acc,1,2,3\n",  # a span that overflows
    "0,phone,acc,1,2,3\n1e-320,phone,acc,1,2,3\n",  # a rate that overflows
])
def test_timestamps_that_give_no_rate_are_an_error(tmp_path, rows):
    path = tmp_path / "rec.csv"
    path.write_text("timestamp_ms,device,sensor,x,y,z\n0,watch,gyr,1,2,3\n20,watch,gyr,1,2,3\n"
                    + rows, encoding="utf-8")
    with pytest.raises(DataQualityError) as e:
        read_recording(path)
    assert str(e.value) == f"{path}: the phone/acc timestamps give no sample rate"


def test_each_stream_has_its_own_rate(tmp_path):
    """The phone and the watch streams of one file may differ; the commands
    then refuse the stream that differs from the model's rate."""
    path = tmp_path / "rec.csv"
    path.write_text("timestamp_ms,device,sensor,x,y,z\n"
                    + "".join(f"{10 * i},phone,acc,1,2,3\n" for i in range(5))
                    + "".join(f"{20 * i},watch,acc,1,2,3\n" for i in range(5)),
                    encoding="utf-8")
    rates = {ch.device: s.sample_rate_hz for ch, s in read_recording(path).items()}
    assert rates == {"phone": 100.0, "watch": 50.0}
