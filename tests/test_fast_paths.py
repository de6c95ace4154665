"""The per-frame box algebra's fast paths against the straightforward code they replace.

Every property requires exact equality with the oracle in conftest.py: the
same float bits (compared through `repr`, which `work.txt` prints) and the
same lists and region tuples, since the run outputs must stay byte-identical.
Boxes sit on a coarse lattice, so shared edges, duplicates, zero-area boxes,
boxes hanging outside the frame and overlaps of exactly one half are common.
Examples are derandomised, so every run checks the same cases.
"""

from unittest import mock

from conftest import (
    reference_clip_regions,
    reference_detect,
    reference_from_boxes,
    reference_iou,
    reference_nms,
    reference_union_area,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcascade import (
    BoundingBox,
    Detection,
    DetectionStore,
    FileBackedSource,
    RegionMask,
    Tracker,
    TrackerConfig,
    cascade,
    iou,
    nms,
    predict,
    union_area,
)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)
FRAME_W, FRAME_H = 40.0, 30.0


@st.composite
def lattice(draw):
    """Coordinate maker: steps of one scale per example, so boxes share edges.

    A third of the coordinates lie on a frame edge or one step either side of it.
    """
    scale = draw(st.sampled_from([1.0, 0.5, 0.1, 0.7, 1 / 3]))
    edges = [e + k * scale for e in (0.0, FRAME_W, FRAME_H) for k in (-1, 0, 1)]

    def coord(lo, hi):
        on_lattice = st.integers(lo, hi).map(lambda k: k * scale)
        return st.one_of(on_lattice, on_lattice, st.sampled_from(edges))

    return coord


@st.composite
def box_lists(draw, max_size=8, lo=-10, hi=50, coord=None):
    """Lattice boxes, some of zero area, some outside the frame, some repeated."""
    coord = coord or draw(lattice())
    boxes = []
    for _ in range(draw(st.integers(0, max_size))):
        x1, x2 = sorted(draw(st.tuples(coord(lo, hi), coord(lo, hi))))
        y1, y2 = sorted(draw(st.tuples(coord(lo, hi), coord(lo, hi))))
        boxes.append(BoundingBox(x1, y1, x2, y2))
    if boxes:
        boxes += draw(st.lists(st.sampled_from(boxes), max_size=3))
    return draw(st.permutations(boxes))


@st.composite
def edge_boxes(draw, regions):
    """A box on an edge of one of `regions`: half inside, just outside or just inside."""
    r = draw(st.sampled_from(regions))
    d = draw(st.sampled_from([0.5, 1.0, 2.5, 4.0]))
    x1, x2 = draw(
        st.sampled_from([(r.x2 - d, r.x2 + d), (r.x2, r.x2 + d), (r.x2 - d, r.x2), (r.x1 - d, r.x1)])
    )
    return BoundingBox(x1, r.y1, x2, r.y2)


def corners(boxes):
    return repr([(b.x1, b.y1, b.x2, b.y2) for b in boxes])


def detections(boxes, frame=0):
    return [Detection(b, i % 2, 1.0 / (1 + i % 5), frame) for i, b in enumerate(boxes)]


class TestUnionArea:
    @PROPERTY
    @given(box_lists(max_size=10))
    def test_same_float_as_slab_rescan(self, boxes):
        assert repr(union_area(boxes)) == repr(reference_union_area(boxes))


class TestRegionMask:
    @PROPERTY
    @given(box_lists(), st.sampled_from([0.0, 0.5, 1.0, 3.0, 30.0]))
    def test_from_boxes_same_regions_as_three_box_build(self, boxes, margin):
        # Each region is clipped as it is built, so none is clipped again.
        with mock.patch.object(BoundingBox, "clip", side_effect=AssertionError("clipped twice")):
            mask = RegionMask.from_boxes(boxes, FRAME_W, FRAME_H, margin)
        assert corners(mask.regions) == corners(reference_from_boxes(boxes, FRAME_W, FRAME_H, margin))

    @PROPERTY
    @given(box_lists())
    def test_construction_same_regions_as_clipping_each(self, boxes):
        mask = RegionMask(FRAME_W, FRAME_H, tuple(boxes))
        assert corners(mask.regions) == corners(reference_clip_regions(boxes, FRAME_W, FRAME_H))


class TestMaskedDetect:
    @PROPERTY
    @given(st.data(), lattice(), st.sampled_from([0.0, 0.5, 2.0]))
    def test_same_detections_as_overlap_fraction_filter(self, data, coord, margin):
        region_boxes = data.draw(box_lists(max_size=5, coord=coord))
        mask = RegionMask.from_boxes(region_boxes, FRAME_W, FRAME_H, margin)
        boxes = data.draw(box_lists(max_size=10, coord=coord))
        if mask.regions:
            boxes += data.draw(st.lists(edge_boxes(mask.regions), max_size=4))
        dets = detections(boxes)
        source = FileBackedSource(DetectionStore({0: dets}), "refine")

        measured = []

        def spy(box, m):
            measured.append(box)
            return real(box, m)

        real = cascade.mask_overlap_fraction
        with mock.patch.object(cascade, "mask_overlap_fraction", spy):
            kept = source.detect(0, mask=mask)
        assert kept == reference_detect(source, 0, mask)
        # Only a box that straddles the mask needs the union's area.
        straddling = [
            d.box
            for d in dets
            if not any(d.box.hull(r) == r for r in mask.regions)
            and any(d.box.intersect(r) is not None for r in mask.regions)
        ]
        assert corners(measured) == corners(straddling)


class TestIouAndNms:
    @PROPERTY
    @given(box_lists(max_size=6))
    def test_iou_same_float_as_min_max(self, boxes):
        for a in boxes:
            for b in boxes:
                assert repr(iou(a, b)) == repr(reference_iou(a, b))

    @PROPERTY
    @given(
        box_lists(max_size=10),
        st.sampled_from([0.0, 1 / 3, 0.5, 0.7, 1.0]),
        st.booleans(),
        st.integers(0, 2),
    )
    def test_nms_same_list_as_rival_rescan(self, boxes, threshold, class_agnostic, n_huge):
        # The IoU of two boxes whose areas overflow to inf is NaN, which suppresses.
        dets = detections(boxes + [BoundingBox(0.0, 0.0, 1e200, 1e200)] * n_huge)
        assert nms(dets, threshold, class_agnostic) == reference_nms(dets, threshold, class_agnostic)


class TestTrackerPredictions:
    @PROPERTY
    @given(
        st.lists(box_lists(max_size=5, lo=0, hi=60), min_size=1, max_size=6),
        st.sampled_from([0.0, 2.0, 10.0]),
    )
    def test_cached_prediction_is_predict_of_every_live_track(self, frames, min_width):
        tracker = Tracker(TrackerConfig(min_width=min_width), FRAME_W, FRAME_H)
        for _ in range(2):  # a reset tracker must start from an empty cache
            for frame, boxes in enumerate(frames):
                tracker.step(frame, detections(boxes, frame))
                want = {t.track_id: predict(t) for t in tracker.tracks}
                assert tracker._predicted == want
            tracker.reset()
            assert tracker._predicted == {}
