"""Axis-aligned box algebra: IoU, dilation, clipping, NMS and region-mask coverage.

It also holds `left_sum`, the package's one rule for adding floats.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(slots=True, init=False, unsafe_hash=True)
class BoundingBox:
    """Box in pixel coordinates, origin top-left, with x1 <= x2 and y1 <= y2.

    Coordinates are continuous; fractional pixels are allowed.  A slotted
    record, treated as immutable: no code assigns to a field after
    construction, so boxes can be shared, compared and hashed freely.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __init__(self, x1: float, y1: float, x2: float, y2: float):
        if not (type(x1) is type(y1) is type(x2) is type(y2) is float):  # else float() is a no-op
            x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
        if not (x1 <= x2 and y1 <= y2):
            raise ValueError(f"invalid box corners: ({x1}, {y1}, {x2}, {y2})")
        self.x1 = x1
        self.y1 = y1
        self.x2 = x2
        self.y2 = y2

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    @property
    def center(self) -> tuple[float, float]:
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    @classmethod
    def from_center(cls, cx: float, cy: float, width: float, height: float) -> "BoundingBox":
        return cls(cx - width / 2.0, cy - height / 2.0, cx + width / 2.0, cy + height / 2.0)

    def clip(self, frame_w: float, frame_h: float) -> "BoundingBox":
        """Clip to [0, frame_w] x [0, frame_h]; may produce a zero-area box."""
        x1 = min(max(self.x1, 0.0), frame_w)
        y1 = min(max(self.y1, 0.0), frame_h)
        x2 = min(max(self.x2, 0.0), frame_w)
        y2 = min(max(self.y2, 0.0), frame_h)
        return BoundingBox(x1, y1, x2, y2)

    def intersect(self, other: "BoundingBox") -> "BoundingBox | None":
        """Intersection box, or None when the boxes do not overlap with positive area."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return BoundingBox(x1, y1, x2, y2)


@dataclass(slots=True, init=False, unsafe_hash=True)
class Detection:
    """A scored, class-labelled box attached to one frame; slotted, treated as immutable."""

    box: BoundingBox
    class_id: int
    score: float
    frame_index: int

    def __init__(self, box: BoundingBox, class_id: int, score: float, frame_index: int):
        score = float(score)
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1]")
        if frame_index < 0:
            raise ValueError(f"negative frame index {frame_index}")
        self.box = box
        self.class_id = class_id
        self.score = score
        self.frame_index = frame_index


@dataclass(frozen=True)
class RegionMask:
    """Per-frame set of regions over which refinement compute may be spent.

    Regions are clipped to the frame at construction; regions that clip to
    zero area are dropped.
    """

    frame_w: float
    frame_h: float
    regions: tuple[BoundingBox, ...]

    def __post_init__(self):
        w, h = self.frame_w, self.frame_h
        if not (w > 0 and h > 0):
            raise ValueError("frame dimensions must be positive")
        kept = []
        for r in self.regions:
            if not (0.0 <= r.x1 and 0.0 <= r.y1 and r.x2 <= w and r.y2 <= h):
                r = r.clip(w, h)
            if r.area > 0:
                kept.append(r)
        object.__setattr__(self, "regions", tuple(kept))

    @classmethod
    def from_boxes(
        cls,
        boxes: Iterable[BoundingBox],
        frame_w: float,
        frame_h: float,
        margin: float = 0.0,
    ) -> "RegionMask":
        """Regions are the boxes grown by `margin` on every side, then clipped."""
        if not margin >= 0.0:
            raise ValueError("margin must be >= 0")
        regions = tuple(BoundingBox(*r) for r in grown_rects(boxes, frame_w, frame_h, margin))
        return cls(frame_w, frame_h, regions)

    @classmethod
    def full_frame(cls, frame_w: float, frame_h: float) -> "RegionMask":
        return cls(frame_w, frame_h, (BoundingBox(0.0, 0.0, frame_w, frame_h),))

    @cached_property
    def coverage(self) -> float:
        """Fraction of the frame the region union covers, in [0, 1]; computed once."""
        return union_area(self.regions) / (self.frame_w * self.frame_h)


def grown_rects(
    boxes: Iterable[BoundingBox], frame_w: float, frame_h: float, margin: float
) -> list[tuple[float, float, float, float]]:
    """Each box grown by `margin` on every side, then clipped, as an (x1, y1, x2, y2) tuple.

    The same arithmetic as BoundingBox(...grown...).clip(frame_w, frame_h):
    `0.0 if v < 0.0 else v` is max(v, 0.0) and `w if w < v else v` is
    min(v, w), down to which of two equal floats (0.0 or -0.0) is returned.
    """
    rects = []
    for b in boxes:
        x1 = b.x1 - margin
        y1 = b.y1 - margin
        x2 = b.x2 + margin
        y2 = b.y2 + margin
        x1 = 0.0 if x1 < 0.0 else x1
        y1 = 0.0 if y1 < 0.0 else y1
        x2 = 0.0 if x2 < 0.0 else x2
        y2 = 0.0 if y2 < 0.0 else y2
        rects.append((
            frame_w if frame_w < x1 else x1,
            frame_h if frame_h < y1 else y1,
            frame_w if frame_w < x2 else x2,
            frame_h if frame_h < y2 else y2,
        ))
    return rects


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; a zero-area box has IoU 0 with everything."""
    ax1, ay1, ax2, ay2 = a.x1, a.y1, a.x2, a.y2
    bx1, by1, bx2, by2 = b.x1, b.y1, b.x2, b.y2
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    if area_a <= 0.0 or area_b <= 0.0:
        return 0.0
    iw = (ax2 if ax2 < bx2 else bx2) - (ax1 if ax1 > bx1 else bx1)
    ih = (ay2 if ay2 < by2 else by2) - (ay1 if ay1 > by1 else by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def union_area(boxes: Sequence[BoundingBox]) -> float:
    """Exact area of the union of boxes, counting overlapped regions once."""
    return rects_union_area((b.x1, b.y1, b.x2, b.y2) for b in boxes)


def rects_union_area(rects: Iterable[tuple[float, float, float, float]]) -> float:
    """`union_area` of (x1, y1, x2, y2) tuples, with no box built for them.

    Coordinate sweep over x-slabs with merged y-intervals; resolution
    independent, no rasterisation. The boxes spanning a slab are kept sorted
    by (y1, y2) as the sweep enters and leaves them.
    """
    # The positive-area rects as (x1, y1, y2, x2): sorted, they enter the sweep in order.
    rects = [(x1, y1, y2, x2) for x1, y1, x2, y2 in rects if (x2 - x1) * (y2 - y1) > 0]
    rects.sort()
    if len(rects) < 2:
        if not rects:
            return 0.0
        # A lone rect's area, by the float operations the sweep below makes on it.
        x1, y1, y2, x2 = rects[0]
        return 0.0 + (0.0 + (y2 - y1)) * (x2 - x1)
    ends = {r[3] for r in rects}
    xs = sorted({r[0] for r in rects} | ends)
    active: list[tuple[float, float, float]] = []  # (y1, y2, x2) of the boxes spanning the slab
    n, i = len(rects), 0
    total = 0.0
    for x_lo, x_hi in zip(xs, xs[1:]):
        # A box spans the whole slab or none of it: slab edges come from box edges.
        if x_lo in ends:
            active = [a for a in active if a[2] > x_lo]
        while i < n and rects[i][0] <= x_lo:
            insort(active, rects[i][1:])
            i += 1
        if not active:
            continue
        covered = 0.0
        cur_lo, cur_hi, _ = active[0]
        for y1, y2, _ in active:
            if y1 <= cur_hi:
                if y2 > cur_hi:
                    cur_hi = y2
            else:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = y1, y2
        covered += cur_hi - cur_lo
        total += covered * (x_hi - x_lo)
    return total


def mask_overlap_fraction(box: BoundingBox, mask: RegionMask) -> float:
    """Fraction of `box`'s own area covered by the mask union."""
    if box.area <= 0.0:
        return 0.0
    pieces = []
    for region in mask.regions:
        inter = box.intersect(region)
        if inter is not None:
            pieces.append(inter)
    return union_area(pieces) / box.area


def score_order(d: Detection) -> tuple:
    # Score ties broken by lower x1, lower y1, smaller area, class id, lower x2,
    # then lower y2: only equal boxes of one class and score tie on all of it,
    # so NMS, matching and the writer do not depend on the input order.
    box = d.box
    return (-d.score, box.x1, box.y1, box.area, d.class_id, box.x2, box.y2)


def nms(detections: Sequence[Detection], iou_threshold: float) -> list[Detection]:
    """Greedy non-maximum suppression within each class.

    Detections are visited in descending score order; one is kept iff its IoU
    with every already-kept detection of the same class is <= `iou_threshold`.
    Output is in visit order.
    """
    kept: list[Detection] = []
    # Kept boxes as (x1, y1, x2, y2, box), per class.
    by_class: dict[int, list[tuple[float, float, float, float, BoundingBox]]] = {}
    # A rival strictly apart on x or y has IoU 0.0, which only a negative or
    # NaN threshold suppresses on; any other pair, NaN IoUs included, gets `iou`.
    skip_apart = iou_threshold >= 0.0
    for d in sorted(detections, key=score_order):
        rivals = by_class.setdefault(d.class_id, [])
        box = d.box
        x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
        for kx1, ky1, kx2, ky2, k in rivals:
            if skip_apart and (kx2 < x1 or x2 < kx1 or ky2 < y1 or y2 < ky1):
                continue
            if not iou(box, k) <= iou_threshold:
                break
        else:
            kept.append(d)
            rivals.append((x1, y1, x2, y2, box))
    return kept


def left_sum(values: Iterable[float]) -> float:
    """The values added one by one, left to right, from 0.0.

    This is what the builtin `sum` does with floats up to Python 3.11; 3.12
    compensates the rounding (gh-100425), and the outputs print full `repr`
    floats, so every float sum in the package calls this one.
    """
    total = 0.0
    for value in values:
        total += value
    return total
