import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import (
    reference_generate_synthetic,
    reference_parse_detections,
    reference_parse_kitti_tracking_labels,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcascade import ClassMap, DataError, parse_detections, parse_meta
from trackcascade.geometry import BoundingBox, Detection
from trackcascade.ingest import (
    DONTCARE_ID,
    SequenceMeta,
    parse_kitti_tracking_labels,
    write_detections,
    write_meta,
    write_tracks,
)
from trackcascade.synthetic import (
    NoiseModel,
    ObjectScript,
    SyntheticScenario,
    generate_synthetic,
    parse_scenario,
    write_sequence_dir,
)


@pytest.fixture
def cmap():
    return ClassMap(["car", "pedestrian"])


class TestClassMap:
    def test_configured_ids_in_order(self, cmap):
        assert cmap.id_of("car") == 0
        assert cmap.id_of("Pedestrian") == 1  # case-insensitive

    def test_unknown_registered_and_flagged(self, cmap):
        cid = cmap.id_of("cyclist")
        assert cid == 2
        assert cid not in cmap.configured
        assert cmap.flagged == {"cyclist"}

    def test_dontcare_special(self, cmap):
        assert cmap.id_of("DontCare") == DONTCARE_ID
        assert cmap.name_of(DONTCARE_ID) == "dontcare"


class TestDetectionFile:
    def test_comments_only(self, tmp_path, cmap):
        p = tmp_path / "d.txt"
        p.write_text("# nothing here\n\n  # more\n")
        assert len(parse_detections(p, cmap).all()) == 0

    def test_single_record_round_trip(self, tmp_path, cmap):
        p = tmp_path / "d.txt"
        p.write_text("3 car 0.75 10.5 20 30.25 40\n")
        store = parse_detections(p, cmap)
        (d,) = store.all()
        assert d == Detection(BoundingBox(10.5, 20, 30.25, 40), 0, 0.75, 3)

    def test_score_out_of_range(self, tmp_path, cmap):
        p = tmp_path / "d.txt"
        p.write_text("0 car 1.5 0 0 10 10\n")
        with pytest.raises(DataError, match="d.txt:1"):
            parse_detections(p, cmap)

    def test_inverted_box(self, tmp_path, cmap):
        p = tmp_path / "d.txt"
        p.write_text("# header\n0 car 0.5 10 0 0 10\n")
        with pytest.raises(DataError, match="d.txt:2"):
            parse_detections(p, cmap)

    def test_wrong_field_count(self, tmp_path, cmap):
        p = tmp_path / "d.txt"
        p.write_text("0 car 0.5 0 0 10\n")
        with pytest.raises(DataError, match="expected 7 fields"):
            parse_detections(p, cmap)

    def test_fuzzed_round_trip(self, tmp_path, cmap):
        rng = np.random.default_rng(40)
        dets = []
        for _ in range(1000):
            x1, y1 = rng.uniform(0, 500, 2)
            dets.append(
                Detection(
                    BoundingBox(x1, y1, x1 + rng.uniform(0.1, 100), y1 + rng.uniform(0.1, 100)),
                    int(rng.integers(0, 2)),
                    float(rng.uniform(0, 1)),
                    int(rng.integers(0, 50)),
                )
            )
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_detections(dets, cmap, p1)
        once = parse_detections(p1, cmap)
        write_detections(once.all(), cmap, p2)
        twice = parse_detections(p2, cmap)
        assert once.all() == twice.all()
        assert p1.read_text() == p2.read_text()


KITTI_TWO_LINES = """\
0 1 Car 0.0 0 -10 100 100 200 200 1.5 1.6 3.9 1 1 1 0.1
1 1 Car 0.1 1 -10 105 100 205 200 1.5 1.6 3.9 1 1 1 0.1
"""


class TestKittiLabels:
    def test_empty_file(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text("")
        labels = parse_kitti_tracking_labels(p, cmap)
        assert labels.tracks == []

    def test_two_lines_one_track(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text(KITTI_TWO_LINES)
        labels = parse_kitti_tracking_labels(p, cmap)
        (t,) = labels.tracks
        assert t.frames[0].frame_index == 0 and len(t.frames) == 2
        assert t.frames[1].truncated == 0.1 and t.frames[1].occluded == 1

    def test_dontcare_preserved_as_regions(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text(
            "0 -1 DontCare -1 -1 -10 0 0 50 50 -1 -1 -1 -1000 -1000 -1000 -10\n"
            "0 -1 DontCare -1 -1 -10 60 0 90 50 -1 -1 -1 -1000 -1000 -1000 -10\n"
        )
        labels = parse_kitti_tracking_labels(p, cmap)
        assert labels.tracks == []
        assert len(labels.dontcare_by_frame[0]) == 2

    def test_unknown_class_flagged(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text("0 5 Tram 0 0 -10 0 0 50 50 -1 -1 -1 -1000 -1000 -1000 -10\n")
        parse_kitti_tracking_labels(p, cmap)
        assert "tram" in cmap.flagged

    def test_malformed_line_number(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text("0 1 Car 0 0 -10 100 100 200 200 -1 -1 -1\n")
        with pytest.raises(DataError, match="l.txt:1"):
            parse_kitti_tracking_labels(p, cmap)

    @pytest.mark.parametrize("name", ["Car", "DontCare"])
    def test_negative_frame_rejected(self, tmp_path, cmap, name):
        p = tmp_path / "l.txt"
        p.write_text(
            "0 1 Car 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
            f"-1 2 {name} 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
        )
        with pytest.raises(DataError, match="l.txt:2: negative frame index -1"):
            parse_kitti_tracking_labels(p, cmap)

    def test_non_monotone_frames_rejected(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text(
            "1 1 Car 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
            "0 1 Car 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
        )
        with pytest.raises(DataError, match="not after"):
            parse_kitti_tracking_labels(p, cmap)

    def test_track_changing_class_rejected(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text(
            "0 5 Car 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
            "0 6 Tram 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
            "1 5 Pedestrian 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
        )
        with pytest.raises(DataError, match="l.txt:3: track 5: class 'pedestrian' after 'car'"):
            parse_kitti_tracking_labels(p, cmap)

    def test_track_class_in_any_letter_case(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text(
            "0 5 Car 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
            "1 5 car 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
            "2 5 CAR 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n"
        )
        (t,) = parse_kitti_tracking_labels(p, cmap).tracks
        assert t.class_id == cmap.id_of("car") and len(t.frames) == 3

    def test_round_trip(self, tmp_path, cmap):
        p = tmp_path / "l.txt"
        p.write_text(
            KITTI_TWO_LINES
            + "0 -1 DontCare -1 -1 -10 0 0 50 50 -1 -1 -1 -1000 -1000 -1000 -10\n"
        )
        once = parse_kitti_tracking_labels(p, cmap)
        out = tmp_path / "out.txt"
        write_tracks(once, cmap, out)
        twice = parse_kitti_tracking_labels(out, cmap)
        assert twice.tracks == once.tracks
        assert twice.dontcare_by_frame == once.dontcare_by_frame


class TestMeta:
    def test_round_trip(self, tmp_path):
        meta = SequenceMeta("seq01", 42, 1242.0, 375.0, 10.0)
        p = tmp_path / "meta.cfg"
        write_meta(meta, p)
        assert parse_meta(p) == meta

    def test_bad_meta(self, tmp_path):
        p = tmp_path / "meta.cfg"
        p.write_text("[sequence]\nframe_count = many\n")
        with pytest.raises(DataError):
            parse_meta(p)

    @pytest.mark.parametrize("side", ["1e308", "1e-200"], ids=["overflow", "underflow"])
    def test_frame_area_out_of_float_range(self, tmp_path, side):
        # Each side is finite and positive; their product is inf or 0.0.
        p = tmp_path / "meta.cfg"
        p.write_text(f"[sequence]\nframe_count = 3\nframe_w = {side}\nframe_h = {side}\n")
        with pytest.raises(DataError, match=r"meta.cfg: bad sequence meta: \[sequence\] frame area"):
            parse_meta(p)


SCENARIO_TEXT = """\
[scenario]
name = demo
frames = 10
frame_w = 1000
frame_h = 400
seed = 7

[object.a]
class = car
entry = 0
exit = 9
box = 100 100 220 180
velocity = 12 0

[source.proposal]
miss_prob = 0.3
fp_per_frame = 1.0
jitter = 3.0
score_mean = 0.55
score_sigma = 0.15

[source.refine]
miss_prob = 0.0
fp_per_frame = 0.0
jitter = 0.0
score_mean = 0.9
"""


class TestSynthetic:
    def test_parse_scenario(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text(SCENARIO_TEXT)
        s = parse_scenario(p)
        assert s.meta.frame_count == 10 and len(s.objects) == 1
        assert s.sources["proposal"].miss_prob == 0.3

    def test_zero_noise_refine_equals_ground_truth(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text(SCENARIO_TEXT)
        data = generate_synthetic(parse_scenario(p))
        (t,) = data.labels.tracks
        refine = data.detections["refine"]
        for e in t.frames:
            frame_dets = refine.get(e.frame_index)
            assert len(frame_dets) == 1
            assert frame_dets[0].box == e.box
            assert frame_dets[0].score == 0.9

    def test_full_miss_probability_empties_source(self):
        scenario = SyntheticScenario(
            meta=SequenceMeta("x", 5, 100, 100),
            seed=1,
            objects=[ObjectScript("a", "car", 0, 4, BoundingBox(10, 10, 40, 40))],
            sources={"proposal": NoiseModel(miss_prob=1.0), "refine": NoiseModel()},
        )
        data = generate_synthetic(scenario)
        assert len(data.detections["proposal"].all()) == 0
        assert len(data.detections["refine"].all()) == 5

    def test_seeded_determinism_is_byte_identical(self, tmp_path):
        p = tmp_path / "s.cfg"
        p.write_text(SCENARIO_TEXT)
        outs = []
        for name in ("one", "two"):
            data = generate_synthetic(parse_scenario(p))
            out = tmp_path / name
            write_sequence_dir(data, out)
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] == outs[1]

    def test_object_leaving_frame_truncates(self):
        scenario = SyntheticScenario(
            meta=SequenceMeta("x", 8, 100, 100),
            seed=1,
            objects=[ObjectScript("a", "car", 0, 7, BoundingBox(60, 10, 90, 40), (10, 0, 0))],
            sources={},
        )
        data = generate_synthetic(scenario)
        (t,) = data.labels.tracks
        truncations = [e.truncated for e in t.frames]
        assert truncations[0] == 0.0
        assert truncations[-1] > 0.0
        assert all(e.box.x2 <= 100 for e in t.frames)


@st.composite
def noise_models(draw):
    """Noise with each knob often at 0, and miss_prob also at 1."""

    def knob(*values):
        return draw(st.sampled_from(values))

    return NoiseModel(
        miss_prob=knob(0.0, 0.3, 1.0, 0.1),
        fp_per_frame=knob(1.7, 0.0, 4.0, 0.4),
        jitter=knob(2.3, 0.0, 17.9, 0.5),
        score_mean=knob(0.61, 0.9, -0.5, 1.5),
        score_sigma=knob(0.13, 0.0, 0.5),
        fp_score_mean=knob(0.37, 0.4, -0.5, 1.5),
        fp_score_sigma=knob(0.21, 0.0, 0.5),
    )


@st.composite
def scenarios(draw):
    """Small scenarios whose objects often leave the frame, shrink to zero width or
    outlive the sequence, with zero to two sources and one or two classes."""
    frames = draw(st.integers(1, 12))
    frame_w, frame_h = draw(st.sampled_from([(100.0, 60.0), (64.5, 48.25)]))
    classes = draw(st.sampled_from([["car"], ["car", "Pedestrian"]]))
    objects = []
    for i in range(draw(st.integers(1, 4))):
        entry = draw(st.integers(0, frames + 1))
        x1, y1 = draw(st.floats(-20.0, frame_w)), draw(st.floats(-20.0, frame_h))
        width = draw(st.sampled_from([0.5, 10.0, 33.3]))
        height = draw(st.sampled_from([0.25, 10.0, 25.5]))  # a box of no height is refused
        velocity = (
            draw(st.sampled_from([0.0, 3.5, -12.0, 40.0])),
            draw(st.sampled_from([0.0, -2.25, 15.0])),
            draw(st.sampled_from([0.0, 1.5, -4.0, -40.0])),  # a negative dwidth shrinks it to 0
        )
        objects.append(
            ObjectScript(
                f"o{i}", draw(st.sampled_from(classes)), entry, entry + draw(st.integers(0, 10)),
                BoundingBox(x1, y1, x1 + width, y1 + height), velocity,
            )
        )
    names = draw(st.sampled_from([["proposal", "refine"], ["refine"], []]))
    return SyntheticScenario(
        meta=SequenceMeta("p", frames, frame_w, frame_h),
        seed=draw(st.integers(0, 2**32)),
        objects=objects,
        sources={name: draw(noise_models()) for name in names},
    )


class TestGeneratorOracle:
    """generate_synthetic writes the same bytes as the numpy-array reference in conftest.py."""

    @settings(derandomize=True, max_examples=50, deadline=None, database=None)
    @given(scenarios())
    def test_sequence_files_are_byte_identical(self, scenario):
        files = []
        with tempfile.TemporaryDirectory() as tmp:
            for name, generate in (("new", generate_synthetic), ("ref", reference_generate_synthetic)):
                out = Path(tmp) / name
                write_sequence_dir(generate(scenario), out)
                files.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert files[0] == files[1]
        assert set(files[0]) == {"meta.cfg", "labels.txt"} | {f"{s}.txt" for s in scenario.sources}


# --- parser oracle --------------------------------------------------------

CLASS_TOKENS = ["car", "Car", "PEDESTRIAN", "pedestrian", "cyclist", "Tram", "DontCare", "dontcare"]
BAD_INTS = ["x", "1.5", "1e3", "--1", "0x1f"]
BAD_FLOATS = ["x", "1..2", "0x10", "1,5", "e3"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity"]
# Huge corners make a valid line whose sum of fields overflows to inf.
COORDS = st.sampled_from([0.0, -0.0, 10.5, 1e308, 1.7e308, -1.7e308]) | st.floats(-50.0, 1300.0)


def corner_pair(draw) -> tuple[str, str]:
    lo, hi = sorted((draw(COORDS), draw(COORDS)))
    return repr(lo), repr(hi)


def swap_corners(draw, fields: list[str], x1: int) -> None:
    """Put x2 before x1 (or y2 before y1), the corners being at `x1` .. `x1` + 3."""
    i = x1 + draw(st.integers(0, 1))
    fields[i], fields[i + 2] = fields[i + 2], repr(float(fields[i]) - draw(st.floats(0.5, 9.0)))


DETECTION_FAULTS = [
    "int", "float", "non-finite", "count", "past", "negative", "score", "corners", "repeat"
]


@st.composite
def detection_line(draw, index: int, fault: str | None, frame_count: int) -> str:
    """A valid detection line, or one with a single `fault`."""
    (x1, x2), (y1, y2) = corner_pair(draw), corner_pair(draw)
    score = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    fields = [str(draw(st.integers(0, frame_count - 1))), draw(st.sampled_from(CLASS_TOKENS)),
              repr(score), x1, y1, x2, y2]
    if fault == "int":
        fields[0] = draw(st.sampled_from(BAD_INTS))
    elif fault in ("float", "non-finite"):
        tokens = BAD_FLOATS if fault == "float" else NON_FINITE
        fields[draw(st.sampled_from([2, 3, 4, 5, 6]))] = draw(st.sampled_from(tokens))
    elif fault == "count":  # too few, or one too many
        fields = fields[: draw(st.integers(1, 6))] if draw(st.booleans()) else fields + ["1"]
    elif fault == "past":
        fields[0] = str(frame_count + draw(st.integers(0, 2)))
    elif fault == "negative":
        fields[0] = str(-draw(st.integers(1, 3)))
    elif fault == "score":
        fields[2] = draw(st.sampled_from(["1.5", "-0.1", "1.0000000000000002", "2"]))
    elif fault == "corners":
        swap_corners(draw, fields, 3)
    return " ".join(fields)


LABEL_FAULTS = [
    "int", "float", "non-finite", "count", "negative", "corners", "earlier", "class", "unread",
    "repeat",
]
# Each track keeps one class, in any letter case, unless a "class" fault changes it.
TRACK_CLASSES = {
    -1: ["car", "Car"], 0: ["PEDESTRIAN", "pedestrian"], 1: ["cyclist", "Cyclist"], 2: ["Tram", "tram"]
}


@st.composite
def label_line(draw, index: int, fault: str | None) -> str:
    """Label line `index`, valid or with a single `fault`; a track's frames increase with the
    line and its class stays, so only an "earlier" fault (an `earlier_label`) can break a
    track's frame order and only a "class" fault its class."""
    (x1, x2), (y1, y2) = corner_pair(draw), corner_pair(draw)
    truncated = draw(st.sampled_from([0.0, -1.0, 1e308]) | st.floats(0.0, 1.0))
    track_id = draw(st.integers(-1, 2))
    names = TRACK_CLASSES[track_id] * 3 + ["DontCare", "dontcare"]
    if fault == "class":
        names = [n for t, ns in TRACK_CLASSES.items() if t != track_id for n in ns]
    fields = [str(index), str(track_id), draw(st.sampled_from(names)),
              repr(truncated), str(draw(st.integers(-1, 3))), "-10", x1, y1, x2, y2,
              "-1", "-1", "-1", "-1000", "-1000", "-1000", "-10"]
    if draw(st.booleans()):
        fields.append("0.5")  # KITTI's optional score column
    if fault == "int":
        fields[draw(st.sampled_from([0, 1, 4]))] = draw(st.sampled_from(BAD_INTS))
    elif fault in ("float", "non-finite"):
        tokens = BAD_FLOATS if fault == "float" else NON_FINITE
        fields[draw(st.sampled_from([3, 6, 7, 8, 9]))] = draw(st.sampled_from(tokens))
    elif fault == "count":
        fields = fields[: draw(st.integers(1, 16))]
    elif fault == "negative":
        fields[0] = str(-draw(st.integers(1, 3)))
    elif fault == "corners":
        swap_corners(draw, fields, 6)
    elif fault == "unread":  # alpha and the 3D fields are not read
        fields[draw(st.sampled_from([5, 10, 16]))] = "x"
    return " ".join(fields)


@st.composite
def earlier_label(draw, index: int, data: list[str]) -> str:
    """Label line `index` with the track and class of an earlier data line that is not a
    DontCare, at that line's frame or before; a valid line if there is none."""
    fields = draw(label_line(index, None)).split()
    tracked = [t.split()[:3] for t in data if t.split()[2].lower() != "dontcare"]
    if tracked:
        frame, track_id, name = draw(st.sampled_from(tracked))
        fields[:3] = [str(draw(st.integers(0, int(frame)))), track_id, name]
    return " ".join(fields)


@st.composite
def text_file(draw, line, fault: str | None) -> str:
    """Lines from `line(i, fault)`, one of them with the `fault`, and comments, blank lines
    and LF or CRLF endings.  The "repeat" fault repeats an earlier data line; the "earlier"
    fault is an `earlier_label`."""
    n = draw(st.integers(0, 12))
    faulty = draw(st.integers(0, max(n - 1, 0)))
    lines, data = [], []
    for i in range(n):
        kind = draw(st.sampled_from(["data"] * 6 + ["commented", "comment", "blank", "spaces"]))
        if i == faulty:
            kind = draw(st.sampled_from(["data", "commented"]))
        text = ""
        if kind in ("data", "commented"):
            if i == faulty and fault == "repeat" and data:
                text = draw(st.sampled_from(data))
            elif i == faulty and fault == "earlier":
                text = draw(earlier_label(i, data))
            else:
                text = draw(line(i, fault if i == faulty and fault != "repeat" else None))
            data.append(text)
        if kind == "commented":
            text += draw(st.sampled_from([" # note", "# x 1 2", "\t#"]))
        elif kind == "comment":
            text = draw(st.sampled_from(["# frame class score x1 y1 x2 y2", "  #", "#"]))
        elif kind == "spaces":
            text = " \t "
        lines.append(text + draw(st.sampled_from(["\n", "\r\n"])))
    return "".join(lines)


def parse_outcome(parse, path: Path, *args):
    """A parser's records (as repr, so float signs count) or its error, and the ClassMap after."""
    cmap = ClassMap(["car", "pedestrian"])
    try:
        got = repr(parse(path, cmap, *args))
    except DataError as exc:
        got = ("DataError", str(exc), exc.path, exc.line)
    return got, vars(cmap)


FRAME_COUNT = 4
KITTI_TAIL = "-1 -1 -1 -1000 -1000 -1000 -10"
# Lines at the edge of a rule: each one is parsed alone and after valid lines.
EDGE_DETECTIONS = [
    "0 car 0.5 -inf 0 10 10", "0 car 0.5 0 0 inf 10", "0 car 0.5 0 -Infinity 10 10",
    "0 car 0.5 0 0 10 INF", "0 car nan 0 0 1 1", "0 car inf 0 0 1 1",
    "0 car 0.5 1e308 0 1.7e308 1", "0 car 1.0 -1.7e308 -1e308 1.7e308 1e308",
    "-0 car -0.0 -0.0 0 0.0 0", "0 car 1 0 0 0 0", "0 car 0 5 5 5 5",
    f"{FRAME_COUNT - 1} car 0.5 0 0 1 1", f"{FRAME_COUNT} car 0.5 0 0 1 1",
    "-1 car 0.5 0 0 1 1", "1_0 car 0.5 0 0 1 1", "0 car 0.5 0 0 1e400 1",
    "0 Tram 1.5 0 0 1 1", "0 tram 0.5 2 0 1 1", "0 car 0.5 0 0 1 1 # 0 car 0.5",
]
EDGE_LABELS = [
    f"0 1 car 0 0 -10 -inf 0 10 10 {KITTI_TAIL}", f"0 1 car 0 0 -10 0 0 10 inf {KITTI_TAIL}",
    f"0 1 car inf 0 -10 0 0 10 10 {KITTI_TAIL}", f"0 1 car nan 0 -10 0 0 10 10 {KITTI_TAIL}",
    f"0 1 car 1e308 0 -10 1e308 0 1.7e308 1 {KITTI_TAIL}",
    f"0 -1 DontCare -1 -1 -10 0 0 1e308 1.7e308 {KITTI_TAIL}",
    f"-1 1 car 0 0 -10 0 0 1 1 {KITTI_TAIL}", f"-0 1 car -0.0 0 -10 -0.0 0 0 0 {KITTI_TAIL}",
    f"0 1 car 0 0 -10 0 0 1 1 {KITTI_TAIL.rsplit(' ', 1)[0]}", "0 1 car 0 0 nan 0 0 1 1 x x x",
    f"0 1 Tram 0 0 -10 1 0 0 1 {KITTI_TAIL}", f"0 x Tram 0 0 -10 0 0 1 1 {KITTI_TAIL}",
]
VALID_DETECTIONS = "0 car 0.5 0 0 1 1\n1 Cyclist 0.25 3 4 5 6\n"
VALID_LABELS = f"0 1 car 0 0 -10 0 0 1 1 {KITTI_TAIL}\n1 2 Van 0 0 -10 3 4 5 6 {KITTI_TAIL}\n"


class TestParserOracle:
    """The one-pass parsers give what the field-by-field parsers in conftest.py give.

    Each fault is its own run, so that every check is reached (about 200
    examples per parser in all).
    """

    @pytest.mark.parametrize("fault", [None, *DETECTION_FAULTS])
    @settings(derandomize=True, max_examples=22, deadline=None, database=None)
    @given(data=st.data(), frame_count=st.sampled_from([None, FRAME_COUNT]))
    def test_detections(self, fault, data, frame_count):
        line = lambda i, fault: detection_line(i, fault, FRAME_COUNT)  # noqa: E731
        text = data.draw(text_file(line, fault))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.txt"
            path.write_bytes(text.encode())
            new = parse_outcome(lambda *a: parse_detections(*a).all(), path, frame_count)
            ref = parse_outcome(lambda *a: reference_parse_detections(*a).all(), path, frame_count)
        assert new == ref

    @pytest.mark.parametrize("fault", [None, *LABEL_FAULTS])
    @settings(derandomize=True, max_examples=22, deadline=None, database=None)
    @given(data=st.data())
    def test_labels(self, fault, data):
        text = data.draw(text_file(label_line, fault))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "l.txt"
            path.write_bytes(text.encode())
            new = parse_outcome(parse_kitti_tracking_labels, path)
            ref = parse_outcome(reference_parse_kitti_tracking_labels, path)
        assert new == ref

    @pytest.mark.parametrize("line", EDGE_DETECTIONS)
    @pytest.mark.parametrize("before", ["", VALID_DETECTIONS])
    @pytest.mark.parametrize("frame_count", [None, FRAME_COUNT])
    def test_detection_edges(self, tmp_path, line, before, frame_count):
        path = tmp_path / "d.txt"
        path.write_text(before + line + "\n")
        new = parse_outcome(lambda *a: parse_detections(*a).all(), path, frame_count)
        ref = parse_outcome(lambda *a: reference_parse_detections(*a).all(), path, frame_count)
        assert new == ref

    @pytest.mark.parametrize("line", EDGE_LABELS)
    @pytest.mark.parametrize("before", ["", VALID_LABELS])
    def test_label_edges(self, tmp_path, line, before):
        path = tmp_path / "l.txt"
        path.write_text(before + line + "\n")
        new = parse_outcome(parse_kitti_tracking_labels, path)
        ref = parse_outcome(reference_parse_kitti_tracking_labels, path)
        assert new == ref
