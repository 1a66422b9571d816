import json

import pytest

from conftest import spectrum_with_peak
from dfam_car.dfam import BinLayout, Signature, train_from_signatures
from dfam_car.errors import ConfigError
from dfam_car.hierarchy import (
    DISTRACTED_LABEL,
    EVENT_MOTION,
    EVENT_SMARTPHONE,
    MOVING_LABEL,
    NOT_DISTRACTED_LABEL,
    NOT_MOVING_LABEL,
    HierarchicalCar,
    HierarchicalState,
    write_events_jsonl,
)

FS = 50.0
LAYOUT = BinLayout.equal_width(1, FS)

# two-axis spectra with a single peak; bins code the situation
STILL, MOVE, DISTRACT = 1, 5, 7


def spectra_at(k):
    return [spectrum_with_peak(k, 9, FS), spectrum_with_peak(k, 9, FS)]


def sig_at(k):
    return Signature(((k,), (k,)))


def make_models():
    s1 = train_from_signatures(
        [(NOT_MOVING_LABEL, sig_at(STILL)), (MOVING_LABEL, sig_at(MOVE)),
         (MOVING_LABEL, sig_at(DISTRACT))],
        LAYOUT,
        16,
        seed=0,
    )
    s3 = train_from_signatures(
        [(NOT_DISTRACTED_LABEL, sig_at(MOVE)), (DISTRACTED_LABEL, sig_at(DISTRACT))],
        LAYOUT,
        16,
        seed=0,
    )
    return s1, s3


def test_standing_stream_stays_in_s1():
    s1, s3 = make_models()
    car = HierarchicalCar(s1, s3, reset_period=10)
    for _ in range(25):
        car.process(spectra_at(STILL))
    assert car.trace == ["S1"] * 25
    assert car.events == []
    assert car.s3_invocations == 0
    assert car.s1_invocations == 25


def test_smartphone_flag_emits_event_in_s2():
    s1, s3 = make_models()
    car = HierarchicalCar(s1, s3, reset_period=30)
    car.process(spectra_at(MOVE), smartphone_in_use=True)   # S1 -> S2
    event = car.process(spectra_at(MOVE), smartphone_in_use=True)  # S2 emits
    assert event is not None
    assert event.event_type == EVENT_SMARTPHONE
    assert event.window_index == 1 and event.state == "S2"
    assert car.state.state == "S1"
    assert car.s3_invocations == 0


def test_distracted_flow_reaches_s3_and_emits():
    s1, s3 = make_models()
    car = HierarchicalCar(s1, s3, reset_period=30)
    events = car.run([(spectra_at(DISTRACT), False)] * 12)
    # S1 at window 0, S2 at window 1, S3 from window 2 on
    assert car.trace == ["S1", "S2"] + ["S3"] * 10
    assert car.s3_invocations == 10
    assert len(events) == 10
    assert all(e.event_type == EVENT_MOTION and e.label == DISTRACTED_LABEL for e in events)
    assert car.watch_windows_processed == 10


def test_s3_not_distracted_emits_nothing():
    s1, s3 = make_models()
    car = HierarchicalCar(s1, s3, reset_period=30)
    car.run([(spectra_at(MOVE), False)] * 8)
    assert car.trace == ["S1", "S2"] + ["S3"] * 6
    assert car.events == []


def test_periodic_reset_returns_to_s1():
    s1, s3 = make_models()
    car = HierarchicalCar(s1, s3, reset_period=5)
    car.run([(spectra_at(DISTRACT), False)] * 11)
    # reset fires after every 5th window regardless of state
    assert car.trace == ["S1", "S2", "S3", "S3", "S3", "S1", "S2", "S3", "S3", "S3", "S1"]


def test_s3_never_runs_without_motion_or_with_flag():
    s1, s3 = make_models()
    still = HierarchicalCar(s1, s3, reset_period=7)
    still.run([(spectra_at(STILL), False)] * 40)
    assert still.s3_invocations == 0
    flagged = HierarchicalCar(s1, s3, reset_period=7)
    flagged.run([(spectra_at(MOVE), True)] * 40)
    assert flagged.s3_invocations == 0
    assert all(e.event_type == EVENT_SMARTPHONE for e in flagged.events)


def test_trace_deterministic():
    s1, s3 = make_models()
    stream = [(spectra_at(k), flag) for k, flag in
              [(STILL, False), (MOVE, False), (DISTRACT, False), (MOVE, True)] * 10]
    a = HierarchicalCar(s1, s3, reset_period=6)
    a.run(stream)
    b = HierarchicalCar(s1, s3, reset_period=6)
    b.run(stream)
    assert a.trace == b.trace
    assert a.events == b.events


def test_binary_model_validation():
    s1, s3 = make_models()
    with pytest.raises(ConfigError):
        HierarchicalCar(s3, s3)  # wrong label set for S1
    with pytest.raises(ConfigError):
        HierarchicalCar(s1, s1)
    three = train_from_signatures(
        [(MOVING_LABEL, sig_at(1)), (NOT_MOVING_LABEL, sig_at(2)), ("walking", sig_at(3))],
        LAYOUT,
        16,
    )
    with pytest.raises(ConfigError):
        HierarchicalCar(three, s3)
    with pytest.raises(ConfigError):
        HierarchicalCar(None, s3)


def test_state_validation():
    with pytest.raises(ConfigError):
        HierarchicalState("S9", 0, 10)
    with pytest.raises(ConfigError):
        HierarchicalState("S1", 0, 0)


def test_axis_subset_selection():
    s1_full, s3 = make_models()
    # S1 model trained on the first axis only
    s1_one = train_from_signatures(
        [(NOT_MOVING_LABEL, Signature(((STILL,),))), (MOVING_LABEL, Signature(((MOVE,),))),
         (MOVING_LABEL, Signature(((DISTRACT,),)))],
        LAYOUT,
        16,
    )
    car = HierarchicalCar(s1_one, s3, reset_period=30, s1_axes=(0,))
    car.run([(spectra_at(DISTRACT), False)] * 5)
    assert car.trace == ["S1", "S2", "S3", "S3", "S3"]


def test_events_jsonl(tmp_path):
    s1, s3 = make_models()
    car = HierarchicalCar(s1, s3, reset_period=30)
    car.run([(spectra_at(DISTRACT), False)] * 5)
    path = tmp_path / "events.jsonl"
    write_events_jsonl(car.events, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(car.events)
    first = json.loads(lines[0])
    assert set(first) == {"window_index", "state", "event_type", "label", "score"}
    assert first["state"] == "S3"
