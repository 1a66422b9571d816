import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import dft_magnitudes, series, tone
from dfam_car.dfam import (
    ActivityLabel,
    BinLayout,
    Signature,
    classify,
    dumps_model,
    extract_signature,
    load_model,
    loads_model,
    match_score,
    save_model,
    train_from_signatures,
)
from dfam_car.errors import AlignmentError, ConfigError, ParseError, TrainingError
from dfam_car.pipeline import bundle_spectra, prepare_bundles
from dfam_car.signals import Spectrum, all_channels, segment, spectrum
from dfam_car.synth import make_corpus

FS = 50.0


def spectra_for(values, w, n_axes=1):
    sp = spectrum(segment(series(values), w)[0], FS)
    return [sp] * n_axes


def sig(*axes):
    return Signature(tuple(tuple(a) for a in axes))


def test_activity_label_parse_and_str():
    lbl = ActivityLabel.parse("walking+eating")
    assert lbl.locomotion == "walking" and lbl.distraction == "eating"
    assert str(lbl) == "walking+eating"
    assert str(ActivityLabel.parse("standing")) == "standing"
    assert ActivityLabel("running").is_moving
    assert not ActivityLabel("sitting").is_moving
    with pytest.raises(ConfigError):
        ActivityLabel.parse("flying")
    with pytest.raises(ConfigError):
        ActivityLabel("walking", "juggling")


def test_bin_layout_validation():
    layout = BinLayout.equal_width(3, FS)
    assert layout.boundaries == (25.0 / 3.0, 50.0 / 3.0)
    with pytest.raises(ConfigError):
        BinLayout(0, (), FS)
    with pytest.raises(ConfigError):
        BinLayout(3, (10.0, 5.0), FS)
    with pytest.raises(ConfigError):
        BinLayout(2, (25.0,), FS)  # boundary must be strictly inside (0, fs/2)
    with pytest.raises(ConfigError):
        BinLayout(3, (10.0,), FS)  # wrong boundary count


def test_band_index_ranges():
    layout = BinLayout.equal_width(3, FS)
    assert layout.band_index_ranges(256) == ((1, 42), (43, 85), (86, 128))
    assert BinLayout.equal_width(1, FS).band_index_ranges(64) == ((1, 32),)
    with pytest.raises(ConfigError):
        BinLayout.equal_width(30, FS).band_index_ranges(32)  # empty band


def test_extract_signature_pure_tone():
    layout = BinLayout.equal_width(1, FS)
    result = extract_signature(spectra_for(tone(6.25, 64), 64), layout)
    assert result.axes == ((8,),)


def test_extract_signature_three_tones():
    layout = BinLayout.equal_width(3, FS)
    values = tone(3.0, 256) + tone(12.0, 256) + tone(20.0, 256)
    result = extract_signature(spectra_for(values, 256), layout)
    assert result.axes == ((15, 61, 102),)
    # cross-check against the direct-summation oracle per band
    mags = dft_magnitudes(values)
    for (lo, hi), got in zip(layout.band_index_ranges(256), result.axes[0]):
        assert got == lo + int(np.argmax(mags[lo : hi + 1]))


def test_extract_signature_all_zero_tie_break():
    layout = BinLayout.equal_width(3, FS)
    result = extract_signature(spectra_for(np.zeros(64), 64), layout)
    lows = tuple(lo for lo, _ in layout.band_index_ranges(64))
    assert result.axes == (lows,)


def test_extract_signature_alignment_errors():
    layout = BinLayout.equal_width(1, FS)
    a = spectra_for(tone(2.0, 64), 64)[0]
    b = spectra_for(tone(2.0, 128), 128)[0]
    with pytest.raises(AlignmentError):
        extract_signature([a, b], layout)
    with pytest.raises(AlignmentError):
        extract_signature([], layout)
    with pytest.raises(ConfigError):
        extract_signature([a], BinLayout.equal_width(1, 100.0))


def test_extraction_matches_bruteforce_oracle():
    rng = np.random.default_rng(21)
    layout = BinLayout.equal_width(3, FS)
    for _ in range(10):
        values = rng.normal(size=128)
        got = extract_signature(spectra_for(values, 128), layout).axes[0]
        mags = dft_magnitudes(values)
        expected = tuple(
            lo + int(np.argmax(mags[lo : hi + 1]))
            for lo, hi in layout.band_index_ranges(128)
        )
        assert got == expected


def test_signature_keeps_shape_checks():
    assert Signature(((1, 2), (3, 4))).axes == ((1, 2), (3, 4))
    assert Signature([[1, 2], [3, 4]]) == Signature(((1, 2), (3, 4)))  # stored as tuples
    assert Signature(((5,),)).g == 1
    for axes in ((), ((1, 2), (3,)), ((), ())):
        with pytest.raises(ConfigError):
            Signature(axes)


def test_match_score_closed_form():
    a = sig((1, 2), (3, 4), (5, 6))
    b = sig((1, 2), (3, 4), (9, 9))  # 2 of 3 axes match
    assert match_score(a, b) == (2 / 3) ** 3
    full = sig(*[(i, i + 1) for i in range(12)])
    assert match_score(full, full) == 1.0
    other = sig(*[(i + 100, i) for i in range(12)])
    assert match_score(full, other) == 0.0
    with pytest.raises(AlignmentError):
        match_score(a, full)


def test_match_score_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = sig(*[tuple(rng.integers(1, 6, size=3)) for _ in range(4)])
        b = sig(*[tuple(rng.integers(1, 6, size=3)) for _ in range(4)])
        assert match_score(a, b) == match_score(b, a)
        assert match_score(a, a) == 1.0


def _tiny_layout(g=1):
    return BinLayout.equal_width(g, FS)


def test_train_equalizes_class_counts():
    layout = _tiny_layout()
    pairs = (
        [("a", sig((k,))) for k in range(1, 11)]
        + [("b", sig((k,))) for k in range(1, 8)]
        + [("c", sig((k,))) for k in range(1, 8)]
    )
    model = train_from_signatures(pairs, layout, 64, seed=1)
    assert model.class_counts == {"a": 7, "b": 7, "c": 7}
    counts = set(model.class_counts.values())
    assert len(counts) == 1


def test_train_single_instance_and_self_classification():
    layout = _tiny_layout()
    model = train_from_signatures([("walking", sig((5,)))], layout, 64)
    assert model.class_counts == {"walking": 1}
    result = classify(sig((5,)), model)
    assert result.label == "walking"
    assert result.scores["walking"] >= 1.0
    assert not result.no_match


def test_train_disjoint_tone_classes():
    layout = _tiny_layout()
    sets = []
    for freq, label in ((3.0, "a"), (9.0, "b")):
        for phase in (0.0, 0.3, 0.9):
            sets.append((label, spectra_for(tone(freq, 128, phase=phase), 128)))
    model = train_from_signatures(
        [(label, extract_signature(spectra, layout)) for label, spectra in sets], layout, 128
    )
    sigs_a = {s.axes for lbl, s in model.instances if lbl == "a"}
    sigs_b = {s.axes for lbl, s in model.instances if lbl == "b"}
    assert sigs_a and sigs_b and not (sigs_a & sigs_b)
    assert model.window_size == 128


def test_train_errors():
    layout = _tiny_layout()
    with pytest.raises(TrainingError):
        train_from_signatures([], layout, 64)
    with pytest.raises(AlignmentError):
        train_from_signatures([("a", sig((3,))), ("b", sig((3,), (5,)))], layout, 64)


def test_classify_exact_match_aggregation():
    layout = _tiny_layout()
    sig_x = sig(*[(k,) for k in range(1, 13)])
    sig_y = sig(*[(k + 12,) for k in range(1, 13)])
    model = train_from_signatures(
        [("A", sig_x), ("A", sig_x), ("B", sig_y), ("B", sig_y)], layout, 64
    )
    result = classify(sig_x, model)
    assert result.label == "A"
    assert result.scores == {"A": 2.0, "B": 0.0}


def test_classify_full_match_beats_partial_matches():
    layout = _tiny_layout()
    full = sig(*[(k,) for k in range(1, 13)])
    stray = sig(*[(k + 40,) for k in range(1, 13)])
    half = sig(*[(k,) for k in range(1, 7)] + [(99,) for _ in range(6)])
    model = train_from_signatures(
        [("A", full), ("A", stray), ("B", half), ("B", half)], layout, 64, seed=0
    )
    result = classify(full, model)
    assert result.label == "A"
    assert result.scores["A"] == 1.0
    assert result.scores["B"] == pytest.approx(2 * (6 / 12) ** 12)
    assert result.scores["B"] < 1e-3


def test_classify_no_match_tie():
    layout = _tiny_layout()
    model = train_from_signatures(
        [("b", sig((2,))), ("a", sig((3,)))], layout, 64
    )
    result = classify(sig((9,)), model)
    assert result.no_match
    assert result.label == "a"  # first label in canonical order
    assert all(v == 0.0 for v in result.scores.values())


def test_classify_permutation_invariance():
    layout = _tiny_layout()
    rng = np.random.default_rng(17)
    pairs = [
        (lbl, sig(*[(int(k),) for k in rng.integers(1, 5, size=4)]))
        for lbl in ("a", "b", "c")
        for _ in range(6)
    ]
    test = sig(*[(int(k),) for k in rng.integers(1, 5, size=4)])
    base = classify(test, train_from_signatures(pairs, layout, 64, seed=3))
    for seed in (1, 2):
        shuffled = list(pairs)
        np.random.default_rng(seed).shuffle(shuffled)
        again = classify(test, train_from_signatures(shuffled, layout, 64, seed=3))
        assert again.scores == base.scores
        assert again.label == base.label


def test_shape_mismatch_rejected():
    layout = _tiny_layout()
    model = train_from_signatures([("a", sig((1,), (2,)))], layout, 64)
    with pytest.raises(AlignmentError):
        classify(sig((1,)), model)


def test_model_header_format():
    layout = BinLayout.equal_width(3, FS)
    pairs = [("walking+eating", sig((2, 44, 90), (3, 50, 99)))]
    text = dumps_model(train_from_signatures(pairs, layout, 128))
    lines = text.splitlines()
    assert lines[0] == (
        "DFAM v1 W=128 fs=50.0 g=3 axes=2 "
        "bounds=8.333333333333334,16.666666666666668"
    )
    assert lines[1] == "walking+eating;2:44:90|3:50:99"


def test_model_roundtrip(tmp_path):
    layout = BinLayout.equal_width(3, FS)
    rng = np.random.default_rng(8)
    pairs = [
        (lbl, sig(*[tuple(int(v) for v in rng.integers(1, 20, size=3)) for _ in range(12)]))
        for lbl in ("walking", "walking+eating", "standing")
        for _ in range(4)
    ]
    model = train_from_signatures(pairs, layout, 128, seed=2)
    path = tmp_path / "model.dfam"
    save_model(model, path)
    back = load_model(path)
    assert back.layout == model.layout
    assert back.window_size == model.window_size
    assert back.instances == model.instances
    test = pairs[0][1]
    assert classify(test, back) == classify(test, model)
    # g=1 layout writes an empty bounds list and still round-trips
    m1 = train_from_signatures([("a", sig((1,)))], BinLayout.equal_width(1, FS), 64)
    assert loads_model(dumps_model(m1)).layout == m1.layout


def test_loads_model_errors():
    with pytest.raises(ParseError) as e:
        loads_model("BOGUS header\n")
    assert e.value.line == 1
    good = "DFAM v1 W=64 fs=50.0 g=1 axes=2 bounds=\n"
    with pytest.raises(ParseError) as e:
        loads_model(good + "walking;1:2\n")  # g mismatch inside the line
    assert e.value.line == 2
    with pytest.raises(ParseError):
        loads_model(good + "walking;not-numbers\n")
    with pytest.raises(ParseError) as e:
        loads_model(good)  # no instances
    assert e.value.line == 2
    for header in (
        "DFAM v1 W=48 fs=50.0 g=1 axes=2 bounds=",  # W not a power of two
        "DFAM v1 W=64 fs=nan g=1 axes=2 bounds=",
        "DFAM v1 W=64 fs=inf g=1 axes=2 bounds=",
        "DFAM v1 W=4 fs=50.0 g=3 axes=2 bounds=8.3,16.6",  # a band with no bin at W
        "DFAM v3 W=64 fs=50.0 g=1 axes=2 bounds=",
    ):
        with pytest.raises(ParseError) as e:
            loads_model(header + "\nwalking;1|2\n")
        assert e.value.line == 1


def test_model_channels_roundtrip_and_errors():
    chans = all_channels(("acc",))[:2]
    model = train_from_signatures(
        [("a", sig((1,), (2,)))], BinLayout.equal_width(1, FS), 64, channels=chans
    )
    text = dumps_model(model)
    v2 = "DFAM v2 W=64 fs=50.0 g=1 axes=2 bounds= channels=phone_acc_x,phone_acc_y\n"
    assert text == v2 + "a;1|2\n"
    assert loads_model(text).channels == chans
    assert loads_model(text.replace(v2, "DFAM v1 W=64 fs=50.0 g=1 axes=2 bounds=\n")).channels is None
    for bad in ("phone_acc_x", "phone_acc_y,phone_acc_x", "phone_acc_x,phone_acc_x",
                "phone_acc_x,phone_acc_q", ""):
        with pytest.raises(ParseError) as e:
            loads_model(text.replace("channels=phone_acc_x,phone_acc_y", f"channels={bad}"))
        assert e.value.line == 1
    with pytest.raises(AlignmentError):
        train_from_signatures([("a", sig((1,), (2,)))], model.layout, 64, channels=chans[:1])


# ------------------------------------------------- fast paths against oracles

def first_argmax_signature(rows, ranges):
    """Per axis and band, the first bin holding the band's largest magnitude."""
    return tuple(
        tuple(lo + row[lo : hi + 1].index(max(row[lo : hi + 1])) for lo, hi in ranges)
        for row in rows
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n_axes=st.integers(1, 12),
    log_w=st.integers(2, 9),
    levels=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_extract_signature_matches_per_axis_argmax(data, n_axes, log_w, levels, seed):
    w = 2**log_w
    g = data.draw(st.integers(1, min(4, w // 2)), label="g")
    if data.draw(st.booleans(), label="equal width"):
        layout = BinLayout.equal_width(g, FS)
    else:
        # band i ends at bin cuts[i]: bands of unequal widths, single bins among them
        cuts = sorted(data.draw(
            st.lists(st.integers(1, w // 2 - 1), min_size=g - 1, max_size=g - 1, unique=True),
            label="cuts",
        ))
        layout = BinLayout(g, tuple((c + 0.5) * FS / w for c in cuts), FS)
        assert [hi for _, hi in layout.band_index_ranges(w)] == cuts + [w // 2]
    # few magnitude levels make ties common; one level makes every band flat
    rows = np.random.default_rng(seed).integers(0, levels, size=(n_axes, w // 2 + 1)).astype(float)
    got = extract_signature([Spectrum(row, FS / w) for row in rows], layout)
    assert got.axes == first_argmax_signature(rows.tolist(), layout.band_index_ranges(w))


@settings(max_examples=150, deadline=None)
@given(
    s=st.integers(1, 12),
    g=st.integers(1, 3),
    n_labels=st.integers(1, 3),
    n_train=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
)
@example(s=3, g=1, n_labels=2, n_train=10, seed=177707147)  # totals tie but for the last bit
def test_classify_matches_summed_match_score(s, g, n_labels, n_train, seed):
    rng = np.random.default_rng(seed)

    def random_sig(low, high):
        return Signature(
            tuple(tuple(rng.integers(low, high, size=g).tolist()) for _ in range(s))
        )

    labels = ("a", "b", "c")[:n_labels]
    pairs = [(labels[i % n_labels], random_sig(0, 2)) for i in range(n_train)]
    model = train_from_signatures(pairs, BinLayout.equal_width(g, FS), 64, seed=seed % 7)
    label_idx = [model.labels.index(lbl) for lbl, _ in model.instances]
    # bins 2 and 3 never occur in training: axes the model never saw, and in
    # the last test none at all; the rotated instance puts tuples the model
    # holds on axes that may never have held them
    rotated = model.instances[0][1].axes[1:] + model.instances[0][1].axes[:1]
    tests = [random_sig(0, 3) for _ in range(4)] + [Signature(rotated), random_sig(2, 4)]
    for test in tests:
        totals = {lbl: 0.0 for lbl in model.labels}
        for lbl, inst in model.instances:
            totals[lbl] += match_score(test, inst)
        best = max(totals.values())
        result = classify(test, model)
        assert set(result.scores) == set(totals)
        assert all(abs(result.scores[k] - v) <= 1e-12 for k, v in totals.items())
        assert abs(totals[result.label] - best) <= 1e-12
        assert result.no_match == (best == 0.0)
        # Totals that tie as fractions can differ in the last bit, so the label
        # is pinned exactly by the per-instance np.power form on the same doubles.
        matched = np.array([sum(a == b for a, b in zip(test.axes, inst.axes))
                            for _, inst in model.instances])
        per_instance = np.bincount(label_idx, weights=np.power(matched / s, s),
                                   minlength=len(model.labels))
        assert [result.scores[k] for k in model.labels] == per_instance.tolist()
        assert result.label == model.labels[int(np.argmax(per_instance))]


def setdefault_interning(instances):
    """Axis tuples -> codes by first sight, walking instances then axes, and
    the (axes, instances) code array: the loop DfamModel used to run, and the
    oracle of its postings."""
    intern = {}
    codes = np.empty((instances[0][1].s, len(instances)), dtype=np.int32)
    for i, (_, sig) in enumerate(instances):
        for k, axis in enumerate(sig.axes):
            codes[k, i] = intern.setdefault(axis, len(intern))
    return intern, codes


@settings(max_examples=150, deadline=None)
@given(
    s=st.integers(1, 12),
    g=st.integers(1, 3),
    n_train=st.integers(1, 40),
    values=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_interning_matches_setdefault_loop(s, g, n_train, values, seed):
    # few bin values make an axis tuple recur across instances and axes
    rng = np.random.default_rng(seed)
    pairs = [
        ("ab"[i % 2], Signature(tuple(map(tuple, rng.integers(0, values, size=(s, g)).tolist()))))
        for i in range(n_train)
    ]
    model = train_from_signatures(pairs, BinLayout.equal_width(g, FS), 64, seed=seed % 7)
    intern, codes = setdefault_interning(model.instances)
    assert list(model._intern.items()) == list(intern.items())
    # per axis and code, the ascending ids of the instances holding that code there
    offsets = model._post_offsets
    assert offsets.tolist()[-1] == len(model._post_ids) == s * len(model.instances)
    for k in range(s):
        for code in range(len(intern)):
            key = k * len(intern) + code
            posting = model._post_ids[offsets[key] : offsets[key + 1]].tolist()
            assert posting == np.flatnonzero(codes[k] == code).tolist()
    assert model._label_idx.tolist() == [model.labels.index(lbl) for lbl, _ in model.instances]


def test_per_window_path_keeps_nothing_on_its_values():
    """classify(extract_signature(bundle_spectra(b))) leaves nothing on the
    bundle's windows and blocks and keeps none of its spectra or signatures,
    so timing one bundle over and over times the real work of each call."""
    recordings = make_corpus(participants=1, duration_s=6.0, noise_std=0.3, seed=4)
    layout = BinLayout.equal_width(3, FS)
    labeled = [(rec.label, b) for rec in recordings for b in prepare_bundles(rec.series, 64)]
    model = train_from_signatures(
        [(lbl, extract_signature(bundle_spectra(b, FS), layout)) for lbl, b in labeled],
        layout, 64,
    )
    bundle = prepare_bundles(recordings[0].series, 64)[1]
    windows = list(bundle.values())

    def fields():
        """The attribute names of the windows, and the slots and any dict of their blocks."""
        return (
            [sorted(vars(w)) for w in windows],
            [(type(w._block).__slots__, sorted(getattr(w._block, "__dict__", ()))) for w in windows],
        )

    def run():
        spectra = bundle_spectra(bundle, FS)
        signature = extract_signature(spectra, layout)
        return spectra, signature, classify(signature, model)

    before = fields()
    assert before[1] == [(("values", "_magnitudes"), [])] * len(windows)
    first = run()
    assert fields() == before
    second = run()
    assert fields() == before
    assert second[1:] == first[1:]
    # every call builds its own spectra and signature, holding only their fields
    spectrum_fields = sorted(vars(Spectrum(np.zeros(3), 1.0)))
    for spectra, signature, _ in (first, second):
        assert [sorted(vars(sp)) for sp in spectra] == [spectrum_fields] * len(windows)
        assert sorted(vars(signature)) == ["axes"]
    assert not {id(sp) for sp in first[0]} & {id(sp) for sp in second[0]}
    assert second[1] is not first[1] and second[2] is not first[2]
