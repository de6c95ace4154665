import numpy as np
import pytest

from trackcascade import geometry
from trackcascade.geometry import (
    BoundingBox,
    Detection,
    RegionMask,
    iou,
    mask_overlap_fraction,
    nms,
    union_area,
)


def box(x1, y1, x2, y2):
    return BoundingBox(x1, y1, x2, y2)


def dilate(b, margin, frame_w, frame_h):
    """`b` grown by `margin` and clipped, as the one region of a mask."""
    (region,) = RegionMask.from_boxes([b], frame_w, frame_h, margin).regions
    return region


def rand_box(rng, lo=0.0, hi=100.0, min_side=1.0, max_side=40.0):
    x1 = rng.uniform(lo, hi - max_side)
    y1 = rng.uniform(lo, hi - max_side)
    w = rng.uniform(min_side, max_side)
    h = rng.uniform(min_side, max_side)
    return BoundingBox(x1, y1, x1 + w, y1 + h)


class TestBoundingBox:
    def test_invalid_corners_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 0, 10)

    def test_clip_bounds(self):
        clipped = box(-5, -5, 2000, 2000).clip(1242, 375)
        assert (clipped.x1, clipped.y1, clipped.x2, clipped.y2) == (0, 0, 1242, 375)

    def test_from_center_round_trip(self):
        b = BoundingBox.from_center(50, 60, 20, 40)
        assert (b.x1, b.y1, b.x2, b.y2) == (40, 40, 60, 80)
        assert b.center == (50, 60)


class TestIou:
    def test_identity(self):
        assert iou(box(0, 0, 10, 10), box(0, 0, 10, 10)) == 1.0

    def test_touching_boxes(self):
        assert iou(box(0, 0, 10, 10), box(10, 0, 20, 10)) == 0.0

    def test_half_overlap(self):
        # intersection 5x10 = 50, union 100 + 100 - 50 = 150
        assert iou(box(0, 0, 10, 10), box(5, 0, 15, 10)) == pytest.approx(1 / 3, abs=1e-15)

    def test_zero_area_box(self):
        degenerate = box(5, 5, 5, 9)
        assert iou(degenerate, degenerate) == 0.0
        assert iou(degenerate, box(0, 0, 10, 10)) == 0.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a, b = rand_box(rng), rand_box(rng)
            v = iou(a, b)
            assert 0.0 <= v <= 1.0
            assert v == iou(b, a)
            # 1.0 exactly iff identical with positive area
            assert (v == 1.0) == (a == b)


class TestDilate:
    def test_margin_30(self):
        b = dilate(box(100, 100, 200, 200), 30, 1242, 375)
        assert (b.x1, b.y1, b.x2, b.y2) == (70, 70, 230, 230)

    def test_clipping_at_origin(self):
        b = dilate(box(5, 5, 50, 50), 30, 1242, 375)
        assert (b.x1, b.y1, b.x2, b.y2) == (0, 0, 80, 80)

    def test_zero_margin_identity(self):
        b = box(10, 20, 30, 40)
        assert dilate(b, 0, 100, 100) == b

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            dilate(box(0, 0, 1, 1), -1, 10, 10)

    def test_composition_without_clipping(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            b = rand_box(rng, lo=200.0, hi=700.0)
            m1, m2 = rng.uniform(0, 20), rng.uniform(0, 20)
            once = dilate(b, m1 + m2, 10_000, 10_000)
            twice = dilate(dilate(b, m1, 10_000, 10_000), m2, 10_000, 10_000)
            assert once.x1 == pytest.approx(twice.x1) and once.y2 == pytest.approx(twice.y2)


def raster_union_area(boxes, w, h):
    # independent oracle: rasterise integer-coordinate boxes on a unit grid
    grid = np.zeros((h, w), dtype=bool)
    for b in boxes:
        grid[int(b.y1) : int(b.y2), int(b.x1) : int(b.x2)] = True
    return float(grid.sum())


class TestMaskCoverage:
    def test_disjoint_regions(self):
        mask = RegionMask(100, 100, (box(0, 0, 10, 10), box(50, 50, 60, 60)))
        assert mask.coverage == pytest.approx(0.02)

    def test_duplicate_regions_counted_once(self):
        mask = RegionMask(100, 100, (box(0, 0, 10, 10), box(0, 0, 10, 10)))
        assert mask.coverage == pytest.approx(0.01)

    def test_full_cover_from_two_overlapping(self):
        mask = RegionMask(100, 100, (box(0, 0, 60, 100), box(40, 0, 100, 100)))
        assert mask.coverage == pytest.approx(1.0)
        assert raster_union_area(mask.regions, 100, 100) == 10_000

    def test_empty_mask(self):
        assert RegionMask(100, 100, ()).coverage == 0.0

    def test_computed_once(self, monkeypatch):
        mask = RegionMask(100, 100, (box(0, 0, 10, 10), box(50, 50, 60, 60)))
        first = mask.coverage

        def refuse(boxes):
            raise AssertionError("coverage recomputed")

        monkeypatch.setattr(geometry, "union_area", refuse)
        assert mask.coverage == first == pytest.approx(0.02)

    def test_against_raster_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            boxes = []
            for _ in range(n):
                x1, y1 = rng.integers(0, 80, size=2)
                w, h = rng.integers(1, 20, size=2)
                boxes.append(box(float(x1), float(y1), float(x1 + w), float(y1 + h)))
            assert union_area(boxes) == pytest.approx(raster_union_area(boxes, 100, 100))

    def test_invariant_under_duplication_and_order(self):
        rng = np.random.default_rng(3)
        boxes = [rand_box(rng) for _ in range(6)]
        base = union_area(boxes)
        assert union_area(boxes[::-1]) == pytest.approx(base, abs=1e-12)
        assert union_area(boxes + boxes[:3]) == pytest.approx(base, abs=1e-12)

    def test_mask_overlap_fraction(self):
        mask = RegionMask(100, 100, (box(0, 0, 50, 100),))
        assert mask_overlap_fraction(box(25, 0, 75, 100), mask) == pytest.approx(0.5)
        assert mask_overlap_fraction(box(60, 0, 80, 10), mask) == 0.0


def det(x1, y1, x2, y2, score, class_id=0, frame=0):
    return Detection(BoundingBox(x1, y1, x2, y2), class_id, score, frame)


def nms_oracle(dets, threshold):
    # keep iff no higher-ranked kept box of the same class overlaps above threshold
    order = sorted(dets, key=lambda d: (-d.score, d.box.x1, d.box.y1, d.box.area, d.class_id))
    kept = []
    for d in order:
        if not any(
            k.class_id == d.class_id and iou(k.box, d.box) > threshold for k in kept
        ):
            kept.append(d)
    return kept


class TestNms:
    def test_singleton(self):
        d = det(0, 0, 10, 10, 0.8)
        assert nms([d], 0.5) == [d]

    def test_identical_boxes_keep_highest(self):
        a, b = det(0, 0, 10, 10, 0.9), det(0, 0, 10, 10, 0.8)
        assert nms([a, b], 0.5) == [a]

    def test_classes_do_not_suppress_each_other(self):
        a, b = det(0, 0, 10, 10, 0.9, class_id=0), det(0, 0, 10, 10, 0.8, class_id=1)
        assert nms([a, b], 0.5) == [a, b]

    def test_against_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            dets = [
                det(*_corners(rand_box(rng)), float(rng.uniform(0.1, 1.0)), int(rng.integers(2)))
                for _ in range(int(rng.integers(1, 8)))
            ]
            assert nms(dets, 0.5) == nms_oracle(dets, 0.5)

    def test_output_subset_and_clean(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dets = [det(*_corners(rand_box(rng)), float(rng.uniform(0.1, 1.0))) for _ in range(8)]
            kept = nms(dets, 0.4)
            assert all(k in dets for k in kept)
            for i, a in enumerate(kept):
                for b in kept[i + 1 :]:
                    assert iou(a.box, b.box) <= 0.4

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        dets = [det(*_corners(rand_box(rng)), float(rng.uniform(0.1, 1.0))) for _ in range(10)]
        base = nms(dets, 0.5)
        for _ in range(10):
            shuffled = list(dets)
            rng.shuffle(shuffled)
            assert nms(shuffled, 0.5) == base


def _corners(b):
    return b.x1, b.y1, b.x2, b.y2
