"""The one channel rule: instances_for windows exactly the channels it is
given, through pipeline.model_series, which also checks every stream's
sample rate against the model's."""

import dataclasses

import pytest

from dfam_car import pipeline
from dfam_car.dfam import ActivityLabel, BinLayout
from dfam_car.errors import AlignmentError, DataQualityError
from dfam_car.signals import TimeSeries, all_channels
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
    phone = all_channels(devices=("phone",))
    assert pipeline.signature_instances(recordings, W, LAYOUT, devices=("phone",)) == (
        pipeline.instances_for(dfam, recordings, W, LAYOUT, phone))
    assert pipeline.signature_instances(recordings, W, LAYOUT) == (
        pipeline.instances_for(dfam, recordings, W, LAYOUT, all_channels()))
    assert pipeline.signature_instances([], W, LAYOUT) == []


def at_rate(recording, rate, device=None):
    """The recording with the streams of the device (all: None) at rate."""
    return dataclasses.replace(recording, series={
        ch: TimeSeries(ch, rate, s.values) if device in (None, ch.device) else s
        for ch, s in recording.series.items()})


@pytest.mark.parametrize("samples, refused", [(0.0, False), (1.5, False), (2.5, True),
                                              (-1.5, False), (-2.5, True)])
def test_model_series_allows_two_samples_over_a_stream_s_length(samples, refused):
    """A stream of n samples at rate r runs n * (r - 50) / r samples longer
    than 50 Hz gives over the same time."""
    n = 100
    rate = 50.0 * n / (n - samples)
    by_channel = {ch: TimeSeries(ch, 50.0 if ch.device == "phone" else rate, [0.0] * n)
                  for ch in all_channels()}
    if not refused:
        assert pipeline.model_series(by_channel, None, 50.0) == by_channel
        return
    with pytest.raises(DataQualityError) as e:
        pipeline.model_series(by_channel, all_channels(), 50.0)
    assert str(e.value) == f"the watch/acc stream is sampled at {rate} Hz, not 50.0 Hz"
    phone = all_channels(devices=("phone",))  # only the channels named are checked
    assert list(pipeline.model_series(by_channel, phone, 50.0)) == list(phone)


def test_instances_for_names_a_recording_at_another_rate(recordings):
    fast = [*recordings[:-1], at_rate(recordings[-1], 100.0, "watch")]
    with pytest.raises(DataQualityError) as e:
        pipeline.instances_for(pipeline.ModelSpec.parse("dfam"), fast, W, LAYOUT, all_channels())
    assert str(e.value) == (f"{recordings[-1].recording_id}: the watch/acc stream is sampled"
                            " at 100.0 Hz, not 50.0 Hz")


def test_corpus_rate_is_the_rate_most_streams_share(recordings):
    assert pipeline.corpus_rate(recordings) == 50.0
    assert pipeline.corpus_rate([at_rate(r, 100.0) for r in recordings]) == 100.0


@pytest.mark.parametrize("bad", [0, -1])
def test_corpus_rate_names_both_recordings_and_both_rates(recordings, bad):
    """The error names the recording off the rate most streams share, and one
    at it, wherever the odd one stands in the corpus."""
    bad_id = recordings[bad].recording_id
    mixed = list(recordings)
    mixed[bad] = at_rate(recordings[bad], 100.0)
    with pytest.raises(DataQualityError) as e:
        pipeline.corpus_rate(mixed)
    head, _, tail = str(e.value).partition(" on the sample rate: ")
    assert tail == "the phone/acc stream is sampled at 100.0 Hz, not 50.0 Hz"
    off, _, ref = head.partition(" disagrees with ")
    assert off == bad_id
    assert ref in {r.recording_id for r in recordings} - {bad_id}
