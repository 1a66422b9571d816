"""The three CSV inputs (recordings, labels.csv and the replay context) and
the two model file formats (DFAM and MODEL).

Every reader either returns or raises a CarError, whatever bytes it is given.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import series
from dfam_car import signals
from dfam_car.classifiers import kind_of, predict
from dfam_car.cli import _read_context, main
from dfam_car.dfam import DfamModel, Signature, classify
from dfam_car.errors import CarError, ParseError
from dfam_car.features import FeatureVector
from dfam_car.pipeline import load_any_model, load_corpus
from dfam_car.signals import all_channels, read_recording, write_recording

LABELS_HEADER = b"recording_id,participant_id,label,placement\n"
RECORDING_HEADER = b"timestamp_ms,device,sensor,x,y,z\n"
CONTEXT_HEADER = b"window_index,smartphone_in_use\n"

# Pieces that make near-valid rows, plus the bytes the format rejects.
COMMON_TOKENS = (
    b",", b",", b",", b"\n", b"\n", b"\r\n", b"\r", b"", b" ", b'"', b"\xff", b"\xc3\xa9", b"\x00",
)
RECORDING_TOKENS = COMMON_TOKENS + (
    b"0", b"20", b"-1.5", b"1e308", b"1e999", b"nan", b"inf", b"1_0",
    b"phone", b"watch", b"acc", b"gyr", b"tablet",
    b"0,phone,acc,1,2,3\n", b"20,watch,gyr,0.5,-2,3\r\n",
    # bytes that numpy's reader might read otherwise than the row loop
    b"\x0c", b"\x1c", b"\xc2\x85", b"\xe2\x80\xa8", b"#", b"phone\x00", b"acc\x00",
    b"1e-400", b"+.5", b"5.",
)
LABEL_TOKENS = COMMON_TOKENS + (
    b"r1", b"r2", b"..", b"/", b"\\", b"/abs/r1", b"p00", b"walking", b"walking+eating",
    b"flying", b"walking+eating+x", b"RR", b"r1,p00,walking,RR\n",
)
CONTEXT_TOKENS = COMMON_TOKENS + (
    b"0", b"1", b"-3", b"x", b"true", b"yes", b"1_0", b"+", "\u0661".encode(), b"9" * 5000,
    b"0,1\n",
)
DFAM_V1 = b"DFAM v1 W=64 fs=50.0 g=2 axes=2 bounds=12.5\n"
DFAM_V2 = b"DFAM v2 W=64 fs=50.0 g=2 axes=2 bounds=12.5 channels=phone_acc_x,phone_acc_y\n"
MODEL_HEADERS = (
    DFAM_V1, DFAM_V2, b"DFAM ", b"DFAM v2 W=64 ", b"MODEL v1 kind=knn\n",
    b"MODEL v1 kind=naive_bayes\n", b"MODEL v1 kind=decision_tree\n", b"MODEL ",
)
MODEL_TOKENS = COMMON_TOKENS + (
    # DFAM header words and instance lines
    b"v1", b"v2", b"W=64", b"W=48", b"W=0", b"fs=50.0", b"fs=nan", b"g=2", b"g=0", b"axes=2",
    b"bounds=", b"bounds=12.5", b"channels=phone_acc_x,phone_acc_y", b"channels=phone_acc_y",
    b"watch_gyr_z", b"=", b";", b":", b"|", b"walking", b"walking;1:2|3:4\n", b"a;1:2|1:2\n",
    b"9" * 5000, b"-1", b"1e999",
    # MODEL bodies
    b"{", b"}", b"[", b"]", b'"labels":', b'"schema":', b'"params":', b'"X":', b'"mean":',
    b'"std":', b'"tree":', b"[[1, 2]]", b"1" + b"0" * 400, b"null", b'{"labels": ["a"], ',
)


def near_valid_bytes(headers: tuple[bytes, ...], tokens) -> st.SearchStrategy[bytes]:
    """Arbitrary bytes, or a header followed by a mix of tokens and raw bytes."""
    piece = st.one_of(st.sampled_from(tokens), st.binary(max_size=4))
    return st.one_of(
        st.binary(max_size=64),
        st.tuples(st.sampled_from(headers), st.lists(piece, max_size=40)).map(
            lambda parts: parts[0] + b"".join(parts[1])
        ),
    )


# A stream's first timestamp, and the steps to its next ones: repeated (0),
# regular, jumping, and ones whose sum or quotient leaves the finite floats.
TIMESTAMP_STARTS = (0.0, -5.0, 1e300, -1e308)
TIMESTAMP_STEPS = (0.0, 0.0, 10.0, 20.0, 20.0, 20.0, 0.5, 1e6, 1e-320, 1e308)


@st.composite
def timestamp_streams(draw) -> bytes:
    """A recording of one to four streams of one or more rows each, whose
    timestamps repeat, step evenly or jump, the streams' rows interleaved."""
    streams = draw(st.lists(st.tuples(st.sampled_from(signals.DEVICES),
                                      st.sampled_from(signals.SENSORS)),
                            min_size=1, max_size=4, unique=True))
    queues = []
    for device, sensor in streams:
        stamps = [draw(st.sampled_from(TIMESTAMP_STARTS))]
        for step in draw(st.lists(st.sampled_from(TIMESTAMP_STEPS), max_size=12)):
            stamps.append(stamps[-1] + step)
        queues.append([f"{t!r},{device},{sensor},1,2,3\n" for t in reversed(stamps)])
    order = draw(st.permutations([i for i, queue in enumerate(queues) for _ in queue]))
    return RECORDING_HEADER + "".join(queues[i].pop() for i in order).encode()


RECORDING_BYTES = st.one_of(near_valid_bytes((RECORDING_HEADER,), RECORDING_TOKENS),
                            timestamp_streams())


def returns_or_raises_car_error(read, *args):
    try:
        read(*args)
    except CarError:
        pass


def write_small_recording(path):
    rng = np.random.default_rng(0)
    write_recording(path, {ch: series(rng.normal(size=8), ch) for ch in all_channels()})


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@settings(max_examples=300, deadline=None)  # half of them each strategy's
@given(data=RECORDING_BYTES)
@example(data=RECORDING_HEADER + b"0,phone,acc,1,2,\xff\n")
@example(data=RECORDING_HEADER + b'0,phone,acc,"1",2,3\r\n')
def test_fuzz_read_recording(scratch, data):
    path = scratch / "recording.csv"
    path.write_bytes(data)
    returns_or_raises_car_error(read_recording, path)


def read_outcome(path):
    """read_recording's channels with their sample rates and the bytes of
    their values, or the type and message of the CarError it raised."""
    try:
        series = read_recording(path)
    except CarError as exc:
        return type(exc), str(exc)
    return {ch.key: (s.sample_rate_hz, s.values.tobytes()) for ch, s in series.items()}


def row_loop_outcome(path):
    """read_outcome with numpy's bulk reader switched off, so that every file
    goes through the row loop."""
    with mock.patch.object(signals, "_bulk_streams", lambda body: None):
        return read_outcome(path)


VALID_ROWS = (b"0,phone,acc,1,2,3\n0,watch,gyr,4,5,6\n20,phone,acc,1e-400,+.5,5.\n"
              b"10,watch,gyr,7,8,9\n")


@settings(max_examples=600, deadline=None)  # half of them each strategy's
@given(data=RECORDING_BYTES)
@example(data=RECORDING_HEADER + VALID_ROWS)
@example(data=RECORDING_HEADER + VALID_ROWS + b"10,watch,acc,1,2,3\n")  # a single row
@example(data=RECORDING_HEADER + b"5,phone,acc,1,2,3\n5,phone,acc,1,2,3\n")  # no time passes
@example(data=RECORDING_HEADER + b"0,phone,acc,1,2,3\n33,phone,acc,1,2,3\n1000,phone,acc,1,2,3\n")
@example(data=RECORDING_HEADER + b"\n\n\n")
@example(data=RECORDING_HEADER.replace(b"\n", b"\r\n") + VALID_ROWS.replace(b"\n", b"\r\n"))
@example(data=RECORDING_HEADER + b"0,phone,acc,1,2,3\r20,phone,acc,1,2,3\n")
# watch/gyr goes back from 20 to 0, but no two adjacent rows share a stream
@example(data=RECORDING_HEADER + b"0,phone,acc,1,2,3\n20,watch,gyr,1,2,3\n"
         b"20,phone,acc,1,2,3\n0,watch,gyr,1,2,3\n")
@example(data=RECORDING_HEADER + b"0,phone\x00,acc,1,2,3\n")
@example(data=RECORDING_HEADER + b"0,phone,acc,1,2,3#\n")
@example(data=RECORDING_HEADER + b"0,phone,acc,1,nan,3\n")
@example(data=RECORDING_HEADER + b"inf,phone,acc,1,2,3\n")
@example(data=RECORDING_HEADER + b"0,phonewatch,acc,1,2,3\n")
def test_bulk_reader_matches_row_loop(scratch, data):
    path = scratch / "recording.csv"
    path.write_bytes(data)
    assert read_outcome(path) == row_loop_outcome(path)


def test_generated_corpus_never_reaches_row_loop(tmp_path, monkeypatch):
    assert main(["gen", "--out", str(tmp_path), "--participants", "2", "--duration", "10",
                 "--seed", "3"]) == 0
    calls = []
    row_streams = signals._row_streams

    def spy(text, path):
        calls.append(path)
        return row_streams(text, path)

    monkeypatch.setattr(signals, "_row_streams", spy)
    recordings = load_corpus(tmp_path)
    assert calls == []
    assert len(recordings) == 40
    assert all(len(rec.series) == 12 for rec in recordings)


@settings(max_examples=150, deadline=None)
@given(data=near_valid_bytes((LABELS_HEADER,), LABEL_TOKENS))
@example(data=LABELS_HEADER + b"r1,p00,walking,\xff\n")
@example(data=LABELS_HEADER + b"r9,p00,walking,RR\r\n")
def test_fuzz_load_corpus(scratch, data):
    corpus = scratch / "corpus"
    if not corpus.exists():
        corpus.mkdir()
        write_small_recording(corpus / "r1.csv")
    (corpus / "labels.csv").write_bytes(data)
    returns_or_raises_car_error(load_corpus, corpus)


@settings(max_examples=150, deadline=None)
@given(data=near_valid_bytes((CONTEXT_HEADER,), CONTEXT_TOKENS))
@example(data=CONTEXT_HEADER + b"0,\xff\n")
@example(data=CONTEXT_HEADER + b'"0",1\r\n')
@example(data=CONTEXT_HEADER + b"1_0,1\n")
def test_fuzz_read_context(scratch, data):
    """Each index returned is written out, in plain decimal, in some row."""
    path = scratch / "context.csv"
    path.write_bytes(data)
    try:
        flags = _read_context(path)
    except CarError:
        return
    fields = {row.split(",")[0].strip() for row in data.decode().split("\n")[1:]}
    assert all(str(i) in fields for i in flags)


@settings(max_examples=300, deadline=None)
@given(data=near_valid_bytes(MODEL_HEADERS, MODEL_TOKENS))
@example(data=DFAM_V1 + b"walking;1:2|3:4\n")
@example(data=DFAM_V2 + b"walking;1:2|3:4\n")
@example(data=DFAM_V2.replace(b"W=64", b"W=" + str(2**1100).encode()) + b"a;1:2|3:4\n")
@example(data=b'MODEL v1 kind=knn\n{"labels": [], "schema": [], "params": {"mean": [1'
         + b"0" * 400 + b'], "std": [], "X": []}}\n')
@example(data=b"MODEL v1 kind=knn\n" + b"[" * 100_000)
@example(data=b"MODEL v1 kind=knn\n" + b"9" * 5000)
# params that parse but do not fit the schema or the labels
@example(data=b'MODEL v1 kind=knn\n{"labels": ["a"], "schema": [["f", "c0"]], "params": '
         b'{"k": 1, "mean": [0.0], "std": [1.0], "X": [[1.0, 2.0]], "row_labels": ["a"]}}\n')
@example(data=b'MODEL v1 kind=knn\n{"labels": ["a"], "schema": [["f", "c0"]], "params": '
         b'{"k": 2, "mean": [0.0], "std": [1.0], "X": [[1.0]], "row_labels": ["a"]}}\n')
@example(data=b'MODEL v1 kind=naive_bayes\n{"labels": ["a", "b"], "schema": [["f", "c0"]], '
         b'"params": {"log_prior": [0.0], "mean": [[0.0], [1.0]], "var": [[1.0], [1.0]]}}\n')
@example(data=b'MODEL v1 kind=svm\n{"labels": ["a", "b"], "schema": [["f", "c0"]], "params": '
         b'{"mean": [0.0], "std": [1.0], "W": [[1.0, 1.0]], "b": [0.0, 0.0]}}\n')
@example(data=b'MODEL v1 kind=decision_tree\n{"labels": ["a"], "schema": [["f", "c0"]], '
         b'"params": {"tree": {"feature": 1, "threshold": 0.5}}}\n')
@example(data=b'MODEL v1 kind=random_forest\n{"labels": ["a"], "schema": [], '
         b'"params": {"trees": [{"leaf": "b"}]}}\n')
# a schema key that is no string, in a model stamped with its windowing
@example(data=b'MODEL v1 kind=decision_tree\n{"labels": ["a"], "schema": [["f", ["x"]]], '
         b'"params": {"tree": {"leaf": "a"}, "window_size": 64, "sample_rate_hz": 50.0}}\n')
def test_fuzz_load_any_model(scratch, data):
    path = scratch / "model"
    path.write_bytes(data)
    returns_or_raises_car_error(load_and_apply, path)


def load_and_apply(path):
    """Load a model file, label an all-zero window with the model, then ask
    it how it reads a recording."""
    model = load_any_model(path)
    if isinstance(model, DfamModel):
        label = classify(Signature(((0,) * model.layout.g,) * model.axes), model).label
    else:
        label = predict(model, FeatureVector(np.zeros(len(model.schema)), model.schema))
    assert label in model.labels
    kind_of(model).windowing(model)


@pytest.mark.parametrize(
    "data, line",
    [
        (b"DFAM v1 W=64 \xff\n", 1),
        (DFAM_V1 + b"walking;1:2|\xff\n", 2),
        (b'MODEL v1 kind=knn\n{"labels": ["\xff"]}\n', 2),
        (b"DFAM v1 W=64\n", 1),
        (DFAM_V1 + b"walking;1:2\n", 2),
        (DFAM_V1, 2),
        (DFAM_V2, 2),
        (b"MODEL v1 kind=knn\nnot-json\n", 2),
        (b"MODEL v9\n", 1),
        (b"BOGUS\n", 1),
    ],
)
def test_model_file_errors_name_file_and_line(tmp_path, data, line):
    path = tmp_path / "model"
    path.write_bytes(data)
    with pytest.raises(ParseError) as e:
        load_any_model(path)
    assert e.value.line == line
    assert str(e.value).startswith(f"{path}: line {line}: ")


def write_corpus_labels(corpus, *rows):
    corpus.mkdir(exist_ok=True)
    write_small_recording(corpus / "r1.csv")
    text = "".join(row + "\n" for row in rows)
    (corpus / "labels.csv").write_bytes(LABELS_HEADER + text.encode())


def test_labels_well_formed(tmp_path):
    write_corpus_labels(tmp_path, "r1,p00,walking+eating,RR")
    (rec,) = load_corpus(tmp_path)
    assert (rec.recording_id, rec.participant_id, str(rec.label), rec.placement) == (
        "r1", "p00", "walking+eating", "RR"
    )
    assert len(rec.series) == 12


def test_labels_unknown_activity(tmp_path):
    write_corpus_labels(tmp_path, "", "r1,p00,flying,RR")
    with pytest.raises(ParseError) as e:
        load_corpus(tmp_path)
    assert e.value.line == 3
    assert "labels.csv" in str(e.value)


@pytest.mark.parametrize("rec_id", ["../outside", "sub\\r1", "..", "absolute"])
def test_labels_recording_id_outside_corpus(tmp_path, rec_id):
    # every id names a readable recording, so only the id check can refuse it
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in (tmp_path / "outside.csv", corpus / "sub\\r1.csv", corpus / "...csv"):
        write_small_recording(path)
    if rec_id == "absolute":
        rec_id = str(tmp_path / "outside")
    write_corpus_labels(corpus, "r1,p00,walking,RR", f"{rec_id},p00,walking,RR")
    with pytest.raises(ParseError) as e:
        load_corpus(corpus)
    assert e.value.line == 3


def test_labels_duplicate_recording_id(tmp_path):
    write_corpus_labels(tmp_path, "r1,p00,walking,RR", "", "r1,p00,walking,RR")
    with pytest.raises(ParseError) as e:
        load_corpus(tmp_path)
    assert e.value.line == 4
