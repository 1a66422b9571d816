"""The one channel rule: instances_for windows exactly the channels it is
given, through pipeline.model_series."""

import dataclasses

import pytest

from dfam_car import pipeline
from dfam_car.dfam import ActivityLabel, BinLayout
from dfam_car.errors import AlignmentError
from dfam_car.signals import all_channels
from dfam_car.synth import make_corpus

W = 64
LAYOUT = BinLayout.equal_width(2, 50.0)


@pytest.fixture(scope="module")
def recordings():
    activities = tuple(ActivityLabel.parse(t) for t in ("standing", "walking"))
    return make_corpus(participants=2, activities=activities, duration_s=4.0)


@pytest.mark.parametrize("streams", [("phone_acc",), ("phone_gyr", "watch_acc"), ("watch_gyr",)])
def test_instances_for_windows_exactly_the_given_channels(recordings, monkeypatch, streams):
    """Whole streams, since a feature model reads a sensor's three axes together;
    ("phone_gyr", "watch_acc") is a set no --sensors and --devices name."""
    channels = tuple(ch for ch in all_channels() if ch.key[:-2] in streams)
    windowed = []
    payload = pipeline.window_payload

    def spy(kind, bundle, fs, layout):
        windowed.append(tuple(bundle))
        return payload(kind, bundle, fs, layout)

    monkeypatch.setattr(pipeline, "window_payload", spy)
    for spec in ("dfam", "nb"):
        windowed.clear()
        instances = pipeline.instances_for(pipeline.ModelSpec.parse(spec), recordings, W,
                                           LAYOUT, channels)
        assert len(instances) == len(windowed) > 0
        assert set(windowed) == {channels}


def test_instances_for_names_a_recording_that_lacks_a_channel(recordings):
    first = recordings[0]
    lacking = [dataclasses.replace(first, series={ch: s for ch, s in first.series.items()
                                                 if ch.key != "watch_gyr_y"}), *recordings[1:]]
    with pytest.raises(AlignmentError) as e:
        pipeline.instances_for(pipeline.ModelSpec.parse("nb"), lacking, W, LAYOUT, all_channels())
    assert str(e.value) == (f"{first.recording_id}: the model reads channels watch_gyr_y,"
                            " which the recording lacks")


def test_signature_instances_read_every_sensor_of_their_devices(recordings):
    """perfbench trains its S1 model through signature_instances(devices=)."""
    dfam = pipeline.ModelSpec.parse("dfam")
    phone = tuple(ch for ch in all_channels() if ch.device == "phone")
    assert pipeline.signature_instances(recordings, W, LAYOUT, devices=("phone",)) == (
        pipeline.instances_for(dfam, recordings, W, LAYOUT, phone))
    assert pipeline.signature_instances(recordings, W, LAYOUT) == (
        pipeline.instances_for(dfam, recordings, W, LAYOUT, all_channels()))
    assert pipeline.signature_instances([], W, LAYOUT) == []
