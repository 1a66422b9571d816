import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid

from dfam_car.classifiers import FeatureDataset
from dfam_car.errors import AlignmentError, DataQualityError, TrainingError
from dfam_car.features import AXIS_FEATURES, extract_features, spectral_entropy
from dfam_car.signals import AXES, Channel, Window, all_channels

FS = 50.0


# ----------------------------- scalar oracles of the batched extract_features


def fft_energy(values: np.ndarray) -> float:
    """Mean squared magnitude over the full spectrum, folded from the
    one-sided bins; by Parseval this equals sum(x**2)."""
    mags2 = np.abs(np.fft.rfft(values)) ** 2
    w = len(values)
    total = mags2[0] + 2.0 * np.sum(mags2[1 : (w + 1) // 2])
    if w % 2 == 0:
        total += mags2[-1]
    return float(total / w)


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    # zero-variance axes correlate as 0 by convention
    sa, sb = np.std(a), np.std(b)
    if sa == 0.0 or sb == 0.0:
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def instantaneous_speed(magnitude: np.ndarray, sample_rate_hz: float) -> np.ndarray:
    """Trapezoidal integral of the mean-subtracted magnitude signal,
    zero initial velocity per window."""
    return cumulative_trapezoid(
        magnitude - magnitude.mean(), dx=1.0 / sample_rate_hz, initial=0.0
    )


def bundle_from(arrays_by_channel, index=0):
    return {
        ch: Window(np.asarray(vals, dtype=np.float64), index, ch)
        for ch, vals in arrays_by_channel.items()
    }


def phone_acc_bundle(x, y=None, z=None, index=0):
    y = x if y is None else y
    z = x if z is None else z
    return bundle_from(
        {
            Channel("phone", "acc", "x"): x,
            Channel("phone", "acc", "y"): y,
            Channel("phone", "acc", "z"): z,
        },
        index,
    )


def full_bundle(rng, w=64):
    return bundle_from({ch: rng.normal(size=w) for ch in all_channels()})


def feat(vec, name, key):
    return vec.values[vec.schema.index((name, key))]


def test_constant_window_features():
    vec = extract_features(phone_acc_bundle(np.full(64, 2.5)), FS)
    for axis in AXES:
        key = f"phone_acc_{axis}"
        assert feat(vec, "mean", key) == 2.5
        assert feat(vec, "min", key) == 2.5
        assert feat(vec, "max", key) == 2.5
        assert feat(vec, "std", key) == 0.0
        assert feat(vec, "var", key) == 0.0
        assert feat(vec, "spectral_entropy", key) < 1e-6
        # zero-variance axes correlate as 0 by convention
    assert feat(vec, "corr_xy", "phone_acc") == 0.0


def test_sine_window_symmetry():
    # 6.25 Hz over 256 samples is exactly 32 periods and hits the peak grid
    t = np.arange(256) / FS
    vec = extract_features(phone_acc_bundle(np.sin(2 * np.pi * 6.25 * t)), FS)
    assert abs(feat(vec, "mean", "phone_acc_x")) < 1e-9
    assert feat(vec, "max", "phone_acc_x") == pytest.approx(1.0, abs=1e-12)
    # 5 Hz needs 250 samples for whole periods; the sampled max is sin(0.4*pi)
    t = np.arange(250) / FS
    vec = extract_features(phone_acc_bundle(np.sin(2 * np.pi * 5.0 * t)), FS)
    assert abs(feat(vec, "mean", "phone_acc_x")) < 1e-9
    assert 0.9 < feat(vec, "max", "phone_acc_x") <= 1.0


def test_variance_matches_two_pass_oracle():
    rng = np.random.default_rng(12)
    x = rng.normal(size=256)
    vec = extract_features(phone_acc_bundle(x), FS)
    mean = math.fsum(x) / len(x)
    oracle = math.fsum((v - mean) ** 2 for v in x) / len(x)
    assert feat(vec, "var", "phone_acc_x") == pytest.approx(oracle, rel=1e-9)
    assert feat(vec, "std", "phone_acc_x") == pytest.approx(math.sqrt(oracle), rel=1e-9)


def test_fft_energy_parseval():
    rng = np.random.default_rng(13)
    # even, non-power-of-two and odd lengths; an odd one folds without a Nyquist bin
    for w in (64, 250, 63):
        x = rng.normal(size=w)
        assert fft_energy(x) == pytest.approx(np.sum(x**2), rel=1e-9)
        vec = extract_features(phone_acc_bundle(x), FS)
        assert feat(vec, "fft_energy", "phone_acc_x") == pytest.approx(np.sum(x**2), rel=1e-9)


def test_spectral_entropy_bounds():
    assert spectral_entropy(np.zeros(64)) == 0.0
    assert spectral_entropy(np.full(64, 3.0)) < 1e-6  # single DC line
    impulse = np.zeros(64)
    impulse[0] = 1.0  # flat magnitude spectrum
    assert spectral_entropy(impulse) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(14)
    for _ in range(10):
        h = spectral_entropy(rng.normal(size=128))
        assert 0.0 <= h <= 1.0


def test_pearson_properties():
    rng = np.random.default_rng(15)
    x = rng.normal(size=128)
    vec = extract_features(phone_acc_bundle(x, x, rng.normal(size=128)), FS)
    assert feat(vec, "corr_xy", "phone_acc") == pytest.approx(1.0, abs=1e-12)
    assert -1.0 <= feat(vec, "corr_yz", "phone_acc") <= 1.0


def test_rms_magnitude():
    vec = extract_features(phone_acc_bundle(np.full(32, 3.0), np.zeros(32), np.full(32, 4.0)), FS)
    assert feat(vec, "rms_mag", "phone_acc") == pytest.approx(5.0)


def test_speed_and_roll_features():
    rng = np.random.default_rng(16)
    gx = rng.normal(size=64)
    b = bundle_from(
        {
            Channel("phone", "gyr", "x"): gx,
            Channel("phone", "gyr", "y"): rng.normal(size=64),
            Channel("phone", "gyr", "z"): rng.normal(size=64),
        }
    )
    vec = extract_features(b, FS)
    assert feat(vec, "roll_mean", "phone_gyr") == pytest.approx(gx.mean())
    assert feat(vec, "roll_median", "phone_gyr") == pytest.approx(np.median(gx))
    assert feat(vec, "roll_max", "phone_gyr") == pytest.approx(gx.max())

    mag = np.sqrt(3 * np.ones(64))  # constant magnitude -> zero speed after detrend
    speed = instantaneous_speed(mag, FS)
    assert np.allclose(speed, 0.0, atol=1e-12)
    vec = extract_features(phone_acc_bundle(np.ones(64)), FS)
    for name in ("speed_mean", "speed_median", "speed_max"):
        assert feat(vec, name, "phone_acc") == pytest.approx(0.0, abs=1e-12)


def test_schema_full_configuration():
    rng = np.random.default_rng(17)
    vec = extract_features(full_bundle(rng), FS)
    # 12 axes x 7 + 4 sensor groups x 4 + 2 accelerometers x 3 + 2 gyroscopes x 3
    assert len(vec.values) == 12 * 7 + 4 * 4 + 2 * 3 + 2 * 3
    assert vec.schema[0] == ("mean", "phone_acc_x")


def test_schema_stable_and_deterministic():
    rng = np.random.default_rng(18)
    arrays = {ch: rng.normal(size=64) for ch in all_channels()}
    a = extract_features(bundle_from(arrays), FS)
    b = extract_features(bundle_from(arrays), FS)
    assert a.schema == b.schema
    assert np.array_equal(a.values, b.values)


def test_alignment_errors():
    rng = np.random.default_rng(19)
    incomplete = bundle_from(
        {
            Channel("phone", "acc", "x"): rng.normal(size=64),
            Channel("phone", "acc", "y"): rng.normal(size=64),
        }
    )
    with pytest.raises(AlignmentError):
        extract_features(incomplete, FS)
    mixed = phone_acc_bundle(rng.normal(size=64))
    mixed[Channel("phone", "acc", "z")] = Window(
        rng.normal(size=64), 1, Channel("phone", "acc", "z")
    )
    with pytest.raises(AlignmentError):
        extract_features(mixed, FS)
    with pytest.raises(AlignmentError):
        extract_features({}, FS)
    unknown = bundle_from({Channel("phone", "mag", a): rng.normal(size=64) for a in AXES})
    with pytest.raises(AlignmentError):
        extract_features(unknown, FS)


def test_overflowing_samples_never_reach_training():
    rng = np.random.default_rng(51)
    # finite samples whose variance overflows: std is the first feature that does
    huge = bundle_from({ch: 1e200 * rng.normal(size=128) for ch in all_channels()}, index=7)
    with pytest.raises(DataQualityError) as e:
        extract_features(huge, FS)
    assert str(e.value) == "window 7: non-finite feature std:phone_acc_x"
    vec = extract_features(full_bundle(rng), FS)
    for bad in (np.inf, -np.inf, np.nan):
        X = np.stack([vec.values, vec.values])
        X[1, 40] = bad
        with pytest.raises(TrainingError):
            FeatureDataset(X, ("a", "b"), vec.schema)


def per_axis_reference(arrays_by_channel, fs):
    """extract_features' schema and values, assembled one axis and one
    sensor at a time from the scalar helpers."""
    names, values = [], []
    channels = sorted(arrays_by_channel)
    for i in range(0, len(channels), 3):
        x, y, z = (arrays_by_channel[ch] for ch in channels[i : i + 3])
        for ch, a in zip(channels[i : i + 3], (x, y, z)):
            names += [(f, ch.key) for f in AXIS_FEATURES]
            values += [a.mean(), a.min(), a.max(), a.std(), a.var(), fft_energy(a),
                       spectral_entropy(a)]
        key = f"{channels[i].device}_{channels[i].sensor}"
        mag = np.sqrt(x**2 + y**2 + z**2)
        names += [(f, key) for f in ("rms_mag", "corr_xy", "corr_yz", "corr_xz")]
        values += [np.sqrt(np.mean(mag**2)), pearson(x, y), pearson(y, z), pearson(x, z)]
        if channels[i].sensor == "acc":
            names += [(f, key) for f in ("speed_mean", "speed_median", "speed_max")]
            motion = instantaneous_speed(mag, fs)
        else:
            names += [(f, key) for f in ("roll_mean", "roll_median", "roll_max")]
            motion = x
        values += [motion.mean(), np.median(motion), motion.max()]
    return tuple(names), np.array(values, dtype=np.float64)


CHANNEL_SETS = {
    "phone": all_channels()[:6],
    "acc": all_channels(["acc"]),
    "all": all_channels(),
}


@st.composite
def axis_values(draw, w):
    """One axis of w samples: noise, a tone, a few repeated levels, a
    constant or all zeros (the last two give zero spectral bins and zero
    variance)."""
    kind = draw(st.sampled_from(["normal", "tone", "levels", "constant", "zero"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-6, 6))
    if kind == "normal":
        return scale * rng.normal(size=w)
    if kind == "tone":
        return scale * np.cos(2 * np.pi * rng.integers(0, w // 2 + 1) * np.arange(w) / w)
    if kind == "levels":
        return scale * rng.integers(-2, 3, size=w).astype(np.float64)
    if kind == "constant":
        return np.full(w, scale * rng.normal())
    return np.zeros(w)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(CHANNEL_SETS)).flatmap(
        lambda name: st.integers(4, 512).flatmap(
            lambda w: st.tuples(
                st.just(CHANNEL_SETS[name]),
                st.lists(axis_values(w), min_size=len(CHANNEL_SETS[name]),
                         max_size=len(CHANNEL_SETS[name])),
            )
        )
    ),
    st.sampled_from([50.0, 25.0, 7.3]),
    st.randoms(use_true_random=False),
)
def test_extract_features_matches_per_axis_reference(channels_and_values, fs, random):
    channels, values = channels_and_values
    arrays = dict(zip(channels, values))
    shuffled = list(channels)
    random.shuffle(shuffled)  # bundle order must not matter
    vec = extract_features(bundle_from({ch: arrays[ch] for ch in shuffled}), fs)
    schema, expected = per_axis_reference(arrays, fs)
    assert vec.schema == schema
    # bit for bit, so a signed zero counts as a difference too
    assert np.array_equal(vec.values.view(np.int64), expected.view(np.int64))

    w = len(values[0])
    misaligned = bundle_from(arrays)
    misaligned[channels[-1]] = Window(arrays[channels[-1]], 1, channels[-1])
    with pytest.raises(AlignmentError):
        extract_features(misaligned, fs)
    short = bundle_from(arrays)
    short[channels[0]] = Window(arrays[channels[0]][: w - 1], 0, channels[0])
    with pytest.raises(AlignmentError):
        extract_features(short, fs)
    missing = bundle_from(arrays)
    del missing[random.choice(channels)]
    with pytest.raises(AlignmentError):
        extract_features(missing, fs)
