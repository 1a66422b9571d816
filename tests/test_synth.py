import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfam_car.dfam import ActivityLabel, BinLayout
from dfam_car.errors import ConfigError
from dfam_car.pipeline import prepare_bundles, signature_instances
from dfam_car.signals import AXES, DEVICES, SENSORS, Channel, all_channels, segment, spectrum
from dfam_car.synth import (
    ActivityProfile,
    Component,
    build_profile,
    default_activity_set,
    generate,
    make_corpus,
    write_corpus,
)

FS = 50.0


def test_default_activity_set():
    labels = default_activity_set()
    assert len(labels) == 20
    simple = [l for l in labels if l.distraction is None]
    concurrent = [l for l in labels if l.distraction is not None]
    assert len(simple) == 6 and len(concurrent) == 14
    assert len(set(map(str, labels))) == 20


def test_generate_deterministic():
    profile = build_profile(ActivityLabel("walking", "eating"), noise_std=0.4)
    a = generate(profile, 10.0, FS, seed=99)
    b = generate(profile, 10.0, FS, seed=99)
    assert set(a) == set(b) == set(all_channels())
    for ch in a:
        assert np.array_equal(a[ch].values, b[ch].values)
    c = generate(profile, 10.0, FS, seed=100)
    assert not np.array_equal(a[Channel("phone", "acc", "x")].values,
                              c[Channel("phone", "acc", "x")].values)


def per_block_generate(profile, duration_s, fs, seed, jitter_block):
    """generate() as first written: one np.sin call per jitter block."""
    n = int(round(duration_s * fs))
    n_blocks = math.ceil(n / jitter_block)
    t = np.arange(n) / fs
    rng = np.random.default_rng(seed)
    out = {}
    for device in DEVICES:
        for sensor in SENSORS:
            base = np.zeros(n)
            for comp in profile.components.get((device, sensor), ()):
                phi0 = rng.uniform(0.0, 2.0 * np.pi)
                jitters = rng.normal(0.0, comp.phase_jitter_std, n_blocks)
                for b in range(n_blocks):
                    sl = slice(b * jitter_block, min(n, (b + 1) * jitter_block))
                    base[sl] += comp.amplitude * np.sin(
                        2.0 * np.pi * comp.frequency_hz * t[sl] + phi0 + jitters[b]
                    )
            for axis, w in zip(AXES, profile.axis_weights[(device, sensor)]):
                out[Channel(device, sensor, axis)] = w * base + rng.normal(0.0, profile.noise_std, n)
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(default_activity_set()),
    st.sampled_from(["RR", "LL", "RL", "LR"]),
    st.floats(0.02, 30.0),
    st.sampled_from([50.0, 64.0, 100.0]),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
def test_generate_bitwise_equal_per_block_oracle(label, placement, duration, fs, block, seed):
    profile = build_profile(label, placement, noise_std=0.3, amplitude_scale=1.1)
    got = generate(profile, duration, fs, seed=seed, jitter_block=block)
    want = per_block_generate(profile, duration, fs, seed, block)
    assert list(got) == list(want)
    for ch, series in got.items():
        assert series.values.tobytes() == want[ch].tobytes()


def test_generate_rejects_nyquist_component():
    label = ActivityLabel("walking")
    profile = ActivityProfile(
        label,
        "RR",
        {("phone", "acc"): (Component(25.0, 1.0),)},
        {(d, s): (1.0, 1.0, 1.0) for d in ("phone", "watch") for s in ("acc", "gyr")},
        0.0,
    )
    with pytest.raises(ConfigError):
        generate(profile, 5.0, FS, seed=0)
    with pytest.raises(ConfigError):
        generate(build_profile(label), 0.0, FS, seed=0)


def test_single_walking_component_dominant_bin():
    # noise-free single 2 Hz component: every phone-axis window peaks at the
    # DFT bin nearest 2 Hz
    label = ActivityLabel("walking")
    comps = {
        (d, s): (Component(2.0, 1.0, 0.3),)
        for d in ("phone", "watch")
        for s in ("acc", "gyr")
    }
    weights = {k: (1.0, 0.8, 0.65) for k in comps}
    profile = ActivityProfile(label, "RR", comps, weights, 0.0)
    series = generate(profile, 30.0, FS, seed=5)
    w = 128
    expected = round(2.0 * w / FS)  # bin 5
    for ch in all_channels():
        if ch.device != "phone":
            continue
        for win in segment(series[ch], w):
            mags = spectrum(win, FS).bin_magnitudes
            assert int(np.argmax(mags[1:])) + 1 == expected


def test_placement_mirror_swaps_channels():
    label = ActivityLabel("walking", "drinking")
    rl = generate(build_profile(label, "RL"), 8.0, FS, seed=3)
    lr = generate(build_profile(label, "LR"), 8.0, FS, seed=3)
    # mirroring swaps the x and y amplitude weights on both devices
    assert np.array_equal(
        rl[Channel("watch", "acc", "x")].values, lr[Channel("watch", "acc", "y")].values
    )
    assert np.array_equal(
        rl[Channel("phone", "gyr", "x")].values, lr[Channel("phone", "gyr", "y")].values
    )
    assert np.array_equal(
        rl[Channel("phone", "acc", "z")].values, lr[Channel("phone", "acc", "z")].values
    )


def test_profile_validation():
    with pytest.raises(ConfigError):
        build_profile(ActivityLabel("walking"), placement="XX")
    with pytest.raises(ConfigError):
        ActivityProfile(ActivityLabel("walking"), "RR", {}, {}, noise_std=-1.0)
    with pytest.raises(ConfigError):
        make_corpus(participants=0)


def test_channel_components_accessor():
    profile = build_profile(ActivityLabel("walking", "eating"), "RR")
    assert len(profile.components[("phone", "acc")]) == 3  # locomotion stack only
    assert len(profile.components[("watch", "acc")]) == 6  # locomotion + distraction overlay
    # watch y weight is 0.8 of x on the right side
    x_weight, y_weight, _ = profile.axis_weights[("watch", "acc")]
    assert y_weight == pytest.approx(0.8 * x_weight)


def test_corpus_shape_and_sidecar(tmp_path):
    recs = make_corpus(participants=2, duration_s=6.0, seed=1)
    assert len(recs) == 2 * 20
    assert {r.placement for r in recs} == {"RR", "LL"}
    write_corpus(recs, tmp_path)
    labels = (tmp_path / "labels.csv").read_text(encoding="utf-8").splitlines()
    assert labels[0] == "recording_id,participant_id,label,placement"
    assert len(labels) == 41
    assert sorted(labels[1:]) == labels[1:]
    first = labels[1].split(",")
    assert (tmp_path / f"{first[0]}.csv").exists()


def test_noise_free_signature_collision_rate():
    # disjoint per-class dominant frequencies keep cross-class collisions rare
    recs = make_corpus(participants=2, duration_s=20.0, noise_std=0.0, seed=11)
    layout = BinLayout.equal_width(3, FS)
    inst = signature_instances(recs, 128, layout)
    cross = 0
    collide = 0
    for i in range(len(inst)):
        for j in range(i + 1, len(inst)):
            if inst[i].label != inst[j].label:
                cross += 1
                if inst[i].payload.axes == inst[j].payload.axes:
                    collide += 1
    assert cross > 0
    assert collide / cross < 0.01


def test_class_conditional_feature_means_differ():
    from dfam_car.features import extract_features

    recs = make_corpus(
        participants=1,
        activities=(ActivityLabel("walking"), ActivityLabel("running")),
        duration_s=15.0,
        seed=13,
    )
    means = []
    for rec in recs:
        vecs = [
            extract_features(b, FS).values
            for b in prepare_bundles(rec.series, 128)
        ]
        means.append(np.mean(vecs, axis=0))
    assert np.linalg.norm(means[0] - means[1]) > 1.0
