"""Axis-aligned box algebra: IoU, dilation, clipping, NMS and region-mask coverage."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BoundingBox:
    """Box in pixel coordinates, origin top-left, with x1 <= x2 and y1 <= y2.

    Coordinates are continuous; fractional pixels are allowed.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for name in ("x1", "y1", "x2", "y2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.x1 <= self.x2 and self.y1 <= self.y2):
            raise ValueError(f"invalid box corners: ({self.x1}, {self.y1}, {self.x2}, {self.y2})")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

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

    def hull(self, other: "BoundingBox") -> "BoundingBox":
        """Smallest box containing both."""
        return BoundingBox(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )


@dataclass(frozen=True)
class Detection:
    """A scored, class-labelled box attached to one frame."""

    box: BoundingBox
    class_id: int
    score: float
    frame_index: int

    def __post_init__(self):
        object.__setattr__(self, "score", float(self.score))
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")
        if self.frame_index < 0:
            raise ValueError(f"negative frame index {self.frame_index}")


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
        if self.frame_w <= 0 or self.frame_h <= 0:
            raise ValueError("frame dimensions must be positive")
        clipped = tuple(
            c for c in (r.clip(self.frame_w, self.frame_h) for r in self.regions) if c.area > 0
        )
        object.__setattr__(self, "regions", clipped)

    @classmethod
    def from_boxes(
        cls,
        boxes: Iterable[BoundingBox],
        frame_w: float,
        frame_h: float,
        margin: float = 0.0,
    ) -> "RegionMask":
        return cls(frame_w, frame_h, tuple(dilate(b, margin, frame_w, frame_h) for b in boxes))

    @classmethod
    def full_frame(cls, frame_w: float, frame_h: float) -> "RegionMask":
        return cls(frame_w, frame_h, (BoundingBox(0.0, 0.0, frame_w, frame_h),))

    @cached_property
    def coverage(self) -> float:
        """Fraction of the frame the region union covers, in [0, 1]; computed once."""
        return union_area(self.regions) / (self.frame_w * self.frame_h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union in [0, 1]; a zero-area box has IoU 0 with everything."""
    area_a = a.area
    area_b = b.area
    if area_a <= 0.0 or area_b <= 0.0:
        return 0.0
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def dilate(box: BoundingBox, margin: float, frame_w: float, frame_h: float) -> BoundingBox:
    """Grow a box by `margin` pixels on every side, then clip to the frame."""
    if margin < 0:
        raise ValueError("margin must be >= 0")
    grown = BoundingBox(box.x1 - margin, box.y1 - margin, box.x2 + margin, box.y2 + margin)
    return grown.clip(frame_w, frame_h)


def union_area(boxes: Sequence[BoundingBox]) -> float:
    """Exact area of the union of boxes, counting overlapped regions once.

    Coordinate sweep over x-slabs with merged y-intervals; resolution
    independent, no rasterisation.
    """
    rects = [b for b in boxes if b.area > 0]
    if not rects:
        return 0.0
    xs = sorted({b.x1 for b in rects} | {b.x2 for b in rects})
    total = 0.0
    for x_lo, x_hi in zip(xs, xs[1:]):
        slab_w = x_hi - x_lo
        if slab_w <= 0:
            continue
        # A box spans the whole slab or none of it: slab edges come from box edges.
        intervals = sorted((b.y1, b.y2) for b in rects if b.x1 <= x_lo and b.x2 >= x_hi)
        covered = 0.0
        cur_lo = cur_hi = None
        for y1, y2 in intervals:
            if cur_hi is None:
                cur_lo, cur_hi = y1, y2
            elif y1 <= cur_hi:
                cur_hi = max(cur_hi, y2)
            else:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = y1, y2
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += covered * slab_w
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


def _nms_key(d: Detection) -> tuple:
    # Score ties broken by lower x1, lower y1, smaller area, then class id,
    # so that the kept set and its order are permutation invariant.
    return (-d.score, d.box.x1, d.box.y1, d.box.area, d.class_id)


def nms(
    detections: Sequence[Detection],
    iou_threshold: float,
    class_agnostic: bool = False,
) -> list[Detection]:
    """Greedy non-maximum suppression.

    Detections are visited in descending score order; one is kept iff its IoU
    with every already-kept detection of the same class (or any class when
    `class_agnostic`) is <= `iou_threshold`. Output is in visit order.
    """
    kept: list[Detection] = []
    for d in sorted(detections, key=_nms_key):
        rivals = kept if class_agnostic else [k for k in kept if k.class_id == d.class_id]
        if all(iou(d.box, k.box) <= iou_threshold for k in rivals):
            kept.append(d)
    return kept
