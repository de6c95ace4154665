"""The per-frame fast paths against the straightforward code they replace.

Every property requires exact equality with the oracle in conftest.py: the
same float bits (compared through `repr`, which `work.txt` prints) and the
same lists and region tuples, since the run outputs must stay byte-identical.
The tracker's assignment solver must return exactly scipy's pairs.
Boxes sit on a coarse lattice, so shared edges, duplicates, zero-area boxes,
boxes hanging outside the frame and overlaps of exactly one half are common.
Examples are derandomised, so every run checks the same cases.
"""

import dataclasses
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from conftest import (
    DATA,
    hull,
    reference_associate,
    reference_clip_regions,
    reference_detect,
    reference_emit,
    reference_from_boxes,
    reference_grown_rects,
    reference_iou,
    reference_nms,
    reference_union_area,
    reference_write_mask_dump,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trackcascade import FileBackedSource, PipelineConfig, cascade, geometry
from trackcascade._lsap import linear_sum_assignment
from trackcascade.cascade import FrameResult
from trackcascade.cli import main
from trackcascade.geometry import (
    BoundingBox,
    Detection,
    RegionMask,
    grown_rects,
    iou,
    nms,
    rects_union_area,
    union_area,
)
from trackcascade.ingest import DetectionStore
from trackcascade.runio import write_mask_dump
from trackcascade.tracker import (
    Tracker,
    TrackerConfig,
    TrackState,
    associate,
    predict,
    update_motion,
)

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)
FRAME_W, FRAME_H = 40.0, 30.0
INF = math.inf
# Boxes reaching to infinity, with signed zeros, or with an area that is inf
# or NaN (inf * 0, or overflow to inf twice in one IoU).
FAR_BOXES = [
    BoundingBox(-INF, 0.0, 10.0, 10.0),
    BoundingBox(5.0, -INF, 20.0, INF),
    BoundingBox(-INF, -INF, INF, INF),
    BoundingBox(30.0, 5.0, INF, 25.0),
    BoundingBox(-INF, 20.0, INF, 20.0),
    BoundingBox(INF, INF, INF, INF),
    BoundingBox(-INF, -INF, -INF, -INF),
    BoundingBox(-0.0, -0.0, 3.0, 3.0),
    BoundingBox(-5.0, -0.0, -0.0, 2.0),
    BoundingBox(0.0, 0.0, 1e200, 1e200),
]


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


@st.composite
def crowded_frames(draw):
    """Tracks in a row, touching or overlapping their neighbours, each seen again a
    little moved off the lattice, plus clutter: (predictions, detections)."""
    step = draw(st.sampled_from([6.0, 8.0, 10.0]))
    offset = st.floats(0.0, 3.0)
    tracks = []
    for i in range(draw(st.integers(1, 8))):
        x, y = i * step + draw(offset), draw(offset)
        tracks.append(BoundingBox(x, y, x + 10.0 + draw(offset), y + 10.0 + draw(offset)))
    shift = st.floats(-4.0, 4.0)
    boxes = []
    for b in draw(st.lists(st.sampled_from(tracks), max_size=8)):
        dx, dy = draw(shift), draw(shift)
        boxes.append(BoundingBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy))
    boxes += draw(box_lists(max_size=2, lo=0, hi=60))
    ids = draw(st.permutations(range(1, len(tracks) + 1)))
    return list(zip(ids, tracks)), detections(draw(st.permutations(boxes)))


def detections(boxes, frame=0):
    return [Detection(b, i % 2, 1.0 / (1 + i % 5), frame) for i, b in enumerate(boxes)]


class TestUnionArea:
    @PROPERTY
    @given(box_lists(max_size=10))
    def test_same_float_as_slab_rescan(self, boxes):
        assert repr(union_area(boxes)) == repr(reference_union_area(boxes))

    @PROPERTY
    @given(st.lists(st.floats(allow_nan=False), min_size=4, max_size=4))
    @example([-INF, 0.0, 5.0, 2.0])
    @example([-INF, 1.0, INF, 2.5])
    @example([0.1, -INF, 0.7, INF])
    @example([-0.0, -0.0, 1e200, 1e200])
    @example([-INF, 3.0, INF, 3.0])
    def test_one_box_same_float_as_slab_rescan(self, xs):
        # One box skips the sweep; its area must still be the sweep's float.
        x1, x2 = sorted(xs[0::2])
        y1, y2 = sorted(xs[1::2])
        box = BoundingBox(x1, y1, x2, y2)
        want = repr(reference_union_area([box]))
        assert repr(union_area([box])) == want
        assert repr(rects_union_area([(x1, y1, x2, y2)])) == want


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
    def test_grown_rects_same_floats_as_min_max(self, boxes):
        # repr tells -0.0 from 0.0 and shows the NaN that inf - inf makes.
        boxes = boxes + FAR_BOXES
        for margin in (0.0, 0.5, 30.0, INF):
            got = grown_rects(boxes, FRAME_W, FRAME_H, margin)
            assert repr(got) == repr(reference_grown_rects(boxes, FRAME_W, FRAME_H, margin))

    @PROPERTY
    @given(box_lists(), st.sampled_from([0.0, 0.5, 1.0, 3.0, 30.0]))
    def test_rect_coverage_same_float_as_mask_coverage(self, boxes, margin):
        # FrameResult.work measures the tracker and proposal masks without building them.
        rects = grown_rects(boxes, FRAME_W, FRAME_H, margin)
        mask = RegionMask.from_boxes(boxes, FRAME_W, FRAME_H, margin)
        assert repr(rects_union_area(rects) / (FRAME_W * FRAME_H)) == repr(mask.coverage)

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
            if not any(hull(d.box, r) == r for r in mask.regions)
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
        st.sampled_from([0.0, 1 / 3, 0.5, 0.7, 1.0, -0.0, -0.5, -INF, math.nan]),
        st.lists(st.sampled_from(FAR_BOXES), max_size=3),
    )
    def test_nms_same_list_as_rival_rescan(self, boxes, threshold, far):
        # `nms` takes any threshold. The IoU of boxes apart is 0.0, which a
        # negative or NaN threshold suppresses on; that of two boxes whose
        # areas are inf or NaN is NaN, which suppresses on every threshold.
        dets = detections(boxes + far)
        assert nms(dets, threshold) == reference_nms(dets, threshold)

    @pytest.mark.parametrize(
        "threshold, iou_calls, kept", [(0.5, 1, 4), (0.0, 1, 4), (-0.5, 3, 1), (math.nan, 3, 1)]
    )
    def test_nms_skips_iou_only_for_rivals_strictly_apart(self, threshold, iou_calls, kept):
        # Four boxes in a row: two touch at x = 15, the others are apart.
        boxes = [BoundingBox(x, 0.0, x + 5.0, 5.0) for x in (0.0, 10.0, 15.0, 30.0)]
        dets = [Detection(b, 0, 0.9 - 0.1 * i, 0) for i, b in enumerate(boxes)]
        with mock.patch.object(geometry, "iou", wraps=geometry.iou) as spy:
            got = nms(dets, threshold)
        assert spy.call_count == iou_calls
        assert got == dets[:kept] == reference_nms(dets, threshold)


def twin(box, signed_zero):
    """An equal box that is another object; with `signed_zero`, each 0.0 corner is -0.0.

    A -0.0 twin ties with the box on every sort key, yet prints differently.
    """
    xs = (box.x1, box.y1, box.x2, box.y2)
    return BoundingBox(*(-0.0 if signed_zero and v == 0.0 else v for v in xs))


@st.composite
def dump_frames(draw):
    """Frames whose refine proposals are tracker and proposal box objects, their twins or others."""
    coord = draw(lattice())
    frames = []
    for frame in range(draw(st.integers(0, 3))):
        tracker = draw(box_lists(max_size=5, coord=coord))
        proposal = draw(box_lists(max_size=5, coord=coord))
        pool = tracker + proposal + draw(box_lists(max_size=3, coord=coord))
        refine = draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
        refine += [twin(b, draw(st.booleans())) for b in refine[: draw(st.integers(0, 3))]]
        refine = draw(st.permutations(refine))
        regions = refine + [twin(b, True) for b in refine[: draw(st.integers(0, 2))]]
        frames.append(
            FrameResult(
                frame,
                [],
                RegionMask(FRAME_W, FRAME_H, tuple(regions)),
                PipelineConfig(),
                detections(tracker, frame),
                detections(proposal, frame),
                detections(refine, frame),
            )
        )
    return frames


class TestMaskDump:
    @PROPERTY
    @given(dump_frames())
    def test_same_bytes_as_key_function_sort(self, frames):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.txt", Path(tmp) / "want.txt"
            write_mask_dump(frames, got)
            reference_write_mask_dump(frames, want)
            assert got.read_bytes() == want.read_bytes()


class TestTrackerPredictions:
    @PROPERTY
    @given(
        st.lists(box_lists(max_size=5, lo=0, hi=60), min_size=1, max_size=6),
        st.sampled_from([0.0, 2.0, 10.0]),
    )
    def test_cached_prediction_is_predict_of_every_live_track(self, frames, min_width):
        config = TrackerConfig(min_width=min_width)
        tracker = Tracker(config, FRAME_W, FRAME_H)
        for _ in range(2):  # a reset tracker must start from an empty cache
            for frame, boxes in enumerate(frames):
                emitted = tracker.step(frame, detections(boxes, frame))
                want = {t.track_id: predict(t) for t in tracker.tracks}
                assert tracker._predicted == want
                assert repr(emitted) == repr(
                    reference_emit(tracker.tracks, config, FRAME_W, FRAME_H, frame + 1)
                )
            tracker.reset()
            assert tracker._predicted == {}


def scipy_assignment(matrix, n, m):
    rows, cols = scipy.optimize.linear_sum_assignment(np.array(matrix, dtype=float).reshape(n, m))
    return rows.tolist(), cols.tolist()


@st.composite
def cost_matrices(draw, values, max_side=8):
    """(rows, n, m): an n x m matrix as a list of rows; either side may be 0."""
    n = draw(st.integers(0, max_side))
    m = draw(st.integers(0, max_side))
    return [[draw(values) for _ in range(m)] for _ in range(n)], n, m


TIED = st.sampled_from([0.0, -0.25, -0.5, -1.0])
# The tracker's shape: mostly 0 (not relevant), else -IoU.
NEG_IOU = st.one_of(st.just(0.0), st.just(0.0), st.floats(0.01, 1.0).map(lambda v: -v))


class TestAssignment:
    @PROPERTY
    @given(cost_matrices(TIED))
    def test_tied_matrix_same_pairs_as_scipy(self, matrix):
        assert linear_sum_assignment(matrix[0]) == scipy_assignment(*matrix)

    @PROPERTY
    @given(cost_matrices(NEG_IOU, max_side=15))
    def test_sparse_iou_matrix_same_pairs_as_scipy(self, matrix):
        assert linear_sum_assignment(matrix[0]) == scipy_assignment(*matrix)

    @PROPERTY
    @given(st.integers(1, 5), st.integers(1, 5), st.lists(st.one_of(TIED, NEG_IOU), min_size=50))
    def test_rectangular_matrix_same_pairs_as_scipy(self, a, b, values):
        # Wide, then tall (transposed internally); never square.
        for n, m in ((a, a + b), (a + b, a)):
            matrix = [values[i * m : (i + 1) * m] for i in range(n)]
            assert linear_sum_assignment(matrix) == scipy_assignment(matrix, n, m)

    @pytest.mark.parametrize("n, m", [(0, 0), (0, 3), (3, 0)])
    def test_empty_side_assigns_nothing(self, n, m):
        matrix = [[0.0] * m for _ in range(n)]
        assert linear_sum_assignment(matrix) == scipy_assignment(matrix, n, m) == ([], [])


def strict_distinct_maxima(matrix, beta) -> bool:
    """Whether each line holding an IoU > `beta` has one strict maximum, no two at one index."""
    tops = []
    for line in matrix:
        top = max((v for v in line if v > beta), default=None)
        if top is not None:
            at = [j for j, v in enumerate(line) if v == top]
            if len(at) > 1:
                return False
            tops += at
    return len(set(tops)) == len(tops)


def solver_needed(preds, dets, beta) -> bool:
    """Whether neither the tracks nor the detections have strict, distinct best partners."""
    matrix = [[iou(b, det.box) for det in dets] for _, b in preds]
    return not (strict_distinct_maxima(matrix, beta) or strict_distinct_maxima(zip(*matrix), beta))


def associate_and_count_solves(preds, dets, beta):
    """`associate`'s result and how many times it called the assignment solver."""
    solved = []

    def spy(cost):
        solved.append(cost)
        return linear_sum_assignment(cost)

    with mock.patch("trackcascade.tracker.linear_sum_assignment", spy):
        got = associate(preds, dets, beta)
    return got, len(solved)


class TestAssociate:
    @PROPERTY
    @given(st.data(), lattice(), st.sampled_from([0.0, 0.1, 1 / 3, 0.5]))
    def test_same_buckets_as_scipy_oracle(self, data, coord, beta):
        track_boxes = data.draw(box_lists(max_size=8, coord=coord))
        # Detections near some of the tracks, as when objects move a little, plus clutter.
        near_to = data.draw(st.lists(st.sampled_from(track_boxes), max_size=6)) if track_boxes else []
        shift = st.sampled_from([0.0, 0.5, 1.0, 3.0])
        near = []
        for b in near_to:
            dx, dy = data.draw(shift), data.draw(shift)
            near.append(BoundingBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy))
        det_boxes = data.draw(st.permutations(near + data.draw(box_lists(max_size=4, coord=coord))))
        ids = data.draw(st.permutations(range(1, len(track_boxes) + 1)))
        preds = list(zip(ids, track_boxes))
        dets = detections(det_boxes)

        got, solved = associate_and_count_solves(preds, dets, beta)
        assert got == reference_associate(preds, dets, beta)
        # The solver runs only when the best partners collide on both sides.
        assert bool(solved) == solver_needed(preds, dets, beta)

    @PROPERTY
    @given(crowded_frames(), st.sampled_from([0.0, 0.1, 1 / 3]))
    def test_crowded_frames_same_buckets_as_scipy_oracle(self, frame, beta):
        # Off the lattice ties are rare, so most contested frames skip the solver here.
        preds, dets = frame
        got, solved = associate_and_count_solves(preds, dets, beta)
        assert got == reference_associate(preds, dets, beta)
        assert bool(solved) == solver_needed(preds, dets, beta)

    @pytest.mark.parametrize("track_boxes, det_boxes", [
        # Each track overlaps both detections, but their best detections differ.
        ([BoundingBox(0, 0, 10, 10), BoundingBox(8, 0, 18, 10)],
         [BoundingBox(1, 0, 11, 10), BoundingBox(9, 0, 19, 10)]),
        # Both tracks' best is the first detection, but the detections' best tracks differ.
        ([BoundingBox(0, 0, 10, 10), BoundingBox(0, 0, 10, 14)],
         [BoundingBox(0, 0, 10, 11), BoundingBox(0, 5, 10, 30)]),
    ])
    def test_contested_unique_maxima_skip_the_solver(self, track_boxes, det_boxes):
        preds = list(enumerate(track_boxes, start=1))
        dets = detections(det_boxes)
        got, solved = associate_and_count_solves(preds, dets, 0.0)
        assert solved == 0
        assert got == reference_associate(preds, dets, 0.0) == ([(1, 0), (2, 1)], [], [])

    @pytest.mark.parametrize("track_boxes, det_boxes", [
        # A tie in the track's row: two equal detections, each of whose best is that one track.
        ([BoundingBox(0, 0, 10, 10)], [BoundingBox(1, 0, 11, 10), BoundingBox(1, 0, 11, 10)]),
        # Both tracks' best is the first detection, and both detections' best is the first
        # track; the optimum pairs each track with the other detection.
        ([BoundingBox(0, 0, 10, 10), BoundingBox(5, 0, 15, 10)],
         [BoundingBox(1, 0, 11, 10), BoundingBox(-3, 0, 7, 10)]),
    ])
    def test_collisions_on_both_sides_reach_the_solver(self, track_boxes, det_boxes):
        preds = list(enumerate(track_boxes, start=1))
        dets = detections(det_boxes)
        got, solved = associate_and_count_solves(preds, dets, 0.0)
        assert solved == 1
        assert got == reference_associate(preds, dets, 0.0)

    def test_solver_runs_only_where_both_rules_fail_in_a_catdet_run(self, tmp_path):
        # Every association of the benchmark scenario's run goes through the spies.
        seq, calls, solves = tmp_path / "seq", [], []
        argv = ["gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg")]
        assert main([*argv, "--out", str(seq)]) == 0

        def associate_spy(preds, dets, beta):
            calls.append((list(preds), list(dets), beta))
            return associate(preds, dets, beta)

        def solver_spy(cost):
            solves.append(cost)
            return linear_sum_assignment(cost)

        with mock.patch("trackcascade.tracker.associate", associate_spy), \
                mock.patch("trackcascade.tracker.linear_sum_assignment", solver_spy):
            argv = ["run", "--sequence", str(seq), "--mode", "catdet", "--out", str(tmp_path / "out")]
            assert main(argv) == 0
        assert len(calls) == 50
        assert len(solves) == sum(solver_needed(*call) for call in calls)


def reference_update_motion(state, matched_position, matched_aspect, config):
    """`update_motion` through `dataclasses.replace` and a generator over the axes."""
    eta = config.decay_eta
    motion = tuple(
        eta * m + (1.0 - eta) * (new - old)
        for m, new, old in zip(state.motion, matched_position, state.position)
    )
    return dataclasses.replace(
        state,
        position=matched_position,
        motion=motion,
        aspect=matched_aspect,
        confidence=min(state.confidence + 1, config.confidence_cap),
    )


class TestMotion:
    @PROPERTY
    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=9, max_size=9),
        st.sampled_from([0.0, 0.3, 0.7, 1.0, 1 / 3]),
        st.integers(0, 3),
    )
    def test_update_motion_same_floats_as_replace(self, xs, eta, confidence):
        state = TrackState((xs[0], xs[1], abs(xs[2]) + 1.0), (xs[3], xs[4], xs[5]), 1.5,
                           confidence, 1, 7)
        config = TrackerConfig(decay_eta=eta)
        observed = (xs[6], xs[7], abs(xs[8]) + 1.0)
        got = update_motion(state, observed, 0.8, config)
        want = reference_update_motion(state, observed, 0.8, config)
        assert repr(got) == repr(want)
