import numpy as np
import pytest

from trackcascade import (
    BoundingBox,
    ClassMap,
    DataError,
    Detection,
    generate_synthetic,
    parse_detections,
    parse_kitti_tracking_labels,
    parse_meta,
    parse_scenario,
    write_detections,
    write_meta,
    write_tracks,
)
from trackcascade.ingest import (
    DONTCARE_ID,
    NoiseModel,
    ObjectScript,
    SequenceMeta,
    SyntheticScenario,
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
        assert t.entry_frame == 0 and len(t.frames) == 2
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
        from trackcascade import write_sequence_dir

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
