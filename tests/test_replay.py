"""pipeline.replay, the one driver of a recording through the S1/S2/S3
machine, against the loop `dfam-car replay` ran before it existed."""

import dataclasses

import numpy as np
import pytest

from dfam_car import pipeline
from dfam_car.dfam import ActivityLabel, BinLayout
from dfam_car.errors import CarError, ConfigError
from dfam_car.hierarchy import EVENT_MOTION, EVENT_SMARTPHONE, HierarchicalCar
from dfam_car.signals import SENSORS, TimeSeries, all_channels
from dfam_car.synth import build_profile, generate, make_corpus

FS = 50.0
W = 64


def replay_oracle(series, s1, s3, reset, flags, s1_channels):
    """The body of `dfam-car replay` before pipeline.replay: window the
    recording, check each model's channels, then feed the machine one window
    at a time. Returns the machine's trace and events."""
    bundles = pipeline.prepare_bundles(series, s3.window_size)
    channels = sorted(bundles[0]) if bundles else []
    s1_axes = None
    if s1_channels == "phone":
        s1_axes = [i for i, ch in enumerate(channels) if ch.device == "phone"]
    s1_fed = channels if s1_axes is None else [channels[i] for i in s1_axes]
    for state, model, fed in (("S1", s1, s1_fed), ("S3", s3, channels)):
        if model.channels is not None and list(model.channels) != fed:
            raise ConfigError(
                f"the {state} model reads channels {','.join(ch.key for ch in model.channels)}"
                f" but replay feeds it {','.join(ch.key for ch in fed)}"
            )
    machine = HierarchicalCar(s1, s3, reset, s1_axes=s1_axes)
    for i, bundle in enumerate(bundles):
        machine.process(pipeline.bundle_spectra(bundle, FS), flags.get(i, False))
    return machine.trace, machine.events


def driven(series, s1, s3, reset, flags):
    """pipeline.replay called as `dfam-car replay` calls it, its steps split
    into the trace and the events."""
    steps = list(pipeline.replay(series, s1, s3, reset, lambda n: flags))
    for i, (_, event) in enumerate(steps):
        assert event is None or event.window_index == i
    return [state for state, _ in steps], [event for _, event in steps if event is not None]


def outcome(run, *args):
    try:
        return run(*args)
    except CarError as exc:
        return type(exc).__name__, str(exc)


def keys(channels):
    return ",".join(ch.key for ch in channels)


def only(series, sensors):
    """The series of the given sensors, as `--sensors` reads a recording."""
    return {ch: s for ch, s in series.items() if ch.sensor in sensors}


def train(recordings, relabel, devices=("phone", "watch"), sensors=SENSORS):
    channels = all_channels(sensors, devices)
    spec = pipeline.ModelSpec.parse("dfam")
    layout = BinLayout.equal_width(2, FS)
    instances = relabel(pipeline.instances_for(spec, recordings, W, layout, channels))
    train_fn, _ = pipeline.trainer_for(spec, layout, W, 0, channels)
    return train_fn(instances)


@pytest.fixture(scope="module")
def models():
    recordings = make_corpus(
        participants=1,
        activities=tuple(ActivityLabel.parse(t) for t in (
            "standing", "sitting", "walking", "running", "walking+eating", "walking+drinking")),
        duration_s=20.0,
        seed=5,
    )
    return {
        "s1": train(recordings, pipeline.relabel_moving),
        "s1_phone": train(recordings, pipeline.relabel_moving, devices=("phone",)),
        "s1_phone_acc": train(recordings, pipeline.relabel_moving, devices=("phone",),
                              sensors=("acc",)),
        "s3": train(recordings, pipeline.relabel_distracted),
        "s3_acc": train(recordings, pipeline.relabel_distracted, sensors=("acc",)),
    }


@pytest.fixture(scope="module")
def stream():
    """One recording that stands, walks, then walks while eating."""
    parts = [generate(build_profile(ActivityLabel.parse(text)), 12.8, FS, seed=seed)
             for seed, text in enumerate(("standing", "walking", "walking+eating", "standing"))]
    return {ch: TimeSeries(ch, FS, np.concatenate([p[ch].values for p in parts]))
            for ch in parts[0]}


@pytest.mark.parametrize("reset", [1, 5, 30])
@pytest.mark.parametrize("with_flags", [False, True])
@pytest.mark.parametrize("s1_channels", ["all", "phone"])
def test_replay_matches_the_cli_loop(models, stream, s1_channels, with_flags, reset):
    """S1 is fed the channels its model records: the oracle's "phone" for the
    phone model, "all" for the model of all twelve axes."""
    s1 = models["s1_phone" if s1_channels == "phone" else "s1"]
    n = len(pipeline.prepare_bundles(stream, W))
    flags = {i: i % 5 == 1 for i in range(n)} if with_flags else {}
    trace, events = driven(stream, s1, models["s3"], reset, flags)
    assert (trace, events) == replay_oracle(stream, s1, models["s3"], reset, flags, s1_channels)
    assert len(trace) == n
    if reset == 1:
        assert set(trace) == {"S1"} and events == []
    if reset == 30:  # the comparison covers every state and the flags' event
        assert set(trace) == {"S1", "S2", "S3"}
        kinds = {event.event_type for event in events}
        assert kinds == ({EVENT_SMARTPHONE, EVENT_MOTION} if with_flags else {EVENT_MOTION})


def test_replay_checks_channels_as_the_cli_loop_did(models, stream):
    """S3 windows the channels its model records, and S1 reads those its
    model records among them: the CLI loop's result on a recording holding
    S3's channels alone."""
    s1, s1_phone, s3, s3_acc = (models[k] for k in ("s1", "s1_phone", "s3", "s3_acc"))
    # S1 reads the channels its model records, whichever they are
    assert driven(stream, s1_phone, s3, 30, {}) == replay_oracle(
        stream, s1_phone, s3, 30, {}, "phone")
    assert driven(stream, s1, s3, 30, {}) == replay_oracle(stream, s1, s3, 30, {}, "all")
    # an S3 model on a sensor subset is fed that subset of every recording
    acc = only(stream, ("acc",))
    assert driven(stream, models["s1_phone_acc"], s3_acc, 30, {}) == replay_oracle(
        acc, models["s1_phone_acc"], s3_acc, 30, {}, "phone")
    cases = [  # S1 reads no channel S3 does not; S3 none the recording lacks
        (stream, s1_phone, s3_acc, "ConfigError",
         f"the S1 model reads channels {keys(s1_phone.channels)};"
         f" replay windows only the S3 model's {keys(s3_acc.channels)}"),
        (acc, s1_phone, s3, "AlignmentError",
         f"the model reads channels {keys(ch for ch in s3.channels if ch.sensor == 'gyr')},"
         " which the recording lacks"),
    ]
    for series, s1_model, s3_model, error, message in cases:
        assert outcome(driven, series, s1_model, s3_model, 30, {}) == (error, message)
    # models that record no channels are not checked: a v1 S3 model gets
    # every channel, a v1 S1 model every channel S3 gets, and one trained on
    # the phone alone then fails when it classifies
    unchecked = dataclasses.replace(s1, channels=None), dataclasses.replace(s3, channels=None)
    assert driven(stream, *unchecked, 30, {}) == replay_oracle(stream, *unchecked, 30, {}, "all")
    assert driven(stream, s1_phone, unchecked[1], 30, {}) == replay_oracle(
        stream, s1_phone, unchecked[1], 30, {}, "phone")
    v1_phone = dataclasses.replace(s1_phone, channels=None)
    assert outcome(driven, stream, v1_phone, s3, 30, {}) == outcome(
        replay_oracle, stream, v1_phone, s3, 30, {}, "all") == (
        "AlignmentError", "test signature is 12x2, model expects 6x2")
    # a recording shorter than one window fails before any check
    short = {ch: TimeSeries(ch, FS, s.values[: W - 1]) for ch, s in stream.items()}
    assert outcome(driven, short, s1_phone, s3, 30, {}) == outcome(
        replay_oracle, short, s1_phone, s3, 30, {}, "all") == (
        "NotEnoughDataError", f"series of length {W - 1} is shorter than one window of {W}")


def test_replay_reads_the_context_with_the_window_count_then_checks_at_the_call(models, stream):
    seen = []

    def in_use(n):
        seen.append(n)
        return {}

    with pytest.raises(ConfigError, match="the S1 model reads channels"):
        pipeline.replay(stream, models["s1_phone"], models["s3_acc"], 30,
                        in_use)  # raised without taking a step
    assert seen == [len(pipeline.prepare_bundles(stream, W))]
