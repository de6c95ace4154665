"""Arithmetic-operation accounting and the linear GPU-time model.

All work is expressed in Gops. Refinement work splits into a feature term
proportional to mask coverage and a classifier term proportional to the
proposal count; full-model reference totals below were measured at 1242x375
with 300 proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from heapq import heapify, heappop, heappush
from typing import Sequence

from .geometry import BoundingBox, RegionMask, left_sum

# Reference full-frame op counts (Gops) for stock proposal-net choices.
PROPOSAL_MODEL_OPS = {
    "resnet18": 138.3,
    "resnet10a": 20.7,
    "resnet10b": 7.5,
    "resnet10c": 4.5,
}

# ResNet-50 two-stage refinement detector: full-frame total at 300 proposals,
# and the assumed share of that total spent in the per-proposal classifier
# head. The split is an estimate (only the total is published for the stock
# model); supply your own constants for other networks.
RESNET50_REFINE_TOTAL_OPS = 254.3
RESNET50_HEAD_SHARE = 0.6

_DEFAULT_BASELINE_PROPOSALS = 300
_DEFAULT_PER_PROPOSAL = RESNET50_REFINE_TOTAL_OPS * RESNET50_HEAD_SHARE / _DEFAULT_BASELINE_PROPOSALS
_DEFAULT_FEATURE = RESNET50_REFINE_TOTAL_OPS * (1.0 - RESNET50_HEAD_SHARE)


@dataclass(frozen=True)
class CostModelConfig:
    """Per-network op constants plus optional timing-model constants."""

    proposal_fullframe_ops: float = PROPOSAL_MODEL_OPS["resnet10a"]
    refine_feature_fullframe_ops: float = _DEFAULT_FEATURE
    refine_per_proposal_ops: float = _DEFAULT_PER_PROPOSAL
    baseline_proposal_count: int = _DEFAULT_BASELINE_PROPOSALS
    alpha: float | None = None  # seconds per Gop
    b: float | None = None  # seconds per launch

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            try:  # isfinite converts to float, which an int may overflow
                valid = value is None or (math.isfinite(value) and value >= 0)
            except OverflowError:
                valid = False
            if not valid:
                raise ValueError(f"{f.name} must be finite and >= 0")
        if (self.alpha is None) != (self.b is None):
            raise ValueError("alpha and b must be set together")

    @property
    def has_timing(self) -> bool:
        return self.alpha is not None and self.b is not None


# The pipeline modes; a mode decides which refinement attribution fields exist.
MODES = ("single", "cascaded", "catdet")


@dataclass(frozen=True)
class WorkReport:
    """Per-frame (or aggregated) op accounting.

    The refinement attribution fields are None when a component does not
    exist in the running mode; when both are present their sum bounds
    `refine_ops` from above because mask overlap is only counted once.
    """

    proposal_ops: float = 0.0
    refine_ops: float = 0.0
    refine_from_tracker_ops: float | None = None
    refine_from_proposal_ops: float | None = None
    estimated_time: float | None = None
    merged_region_count: int = 0

    @property
    def total_ops(self) -> float:
        return self.proposal_ops + self.refine_ops


def _sum_optional(values: list[float | None]) -> float | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    return left_sum(present)


def total_work(reports: Sequence[WorkReport]) -> WorkReport:
    """Field-wise sum; an optional field stays None when absent everywhere."""
    return WorkReport(
        proposal_ops=left_sum(r.proposal_ops for r in reports),
        refine_ops=left_sum(r.refine_ops for r in reports),
        refine_from_tracker_ops=_sum_optional([r.refine_from_tracker_ops for r in reports]),
        refine_from_proposal_ops=_sum_optional([r.refine_from_proposal_ops for r in reports]),
        estimated_time=_sum_optional([r.estimated_time for r in reports]),
        merged_region_count=sum(r.merged_region_count for r in reports),
    )


def refine_cost(mask: RegionMask | float, n_proposals: int, config: CostModelConfig) -> float:
    """Refinement ops: feature extraction over the mask plus classifier per proposal.

    `mask` is a RegionMask or the share of the frame that one covers.
    """
    if n_proposals < 0:
        raise ValueError("n_proposals must be >= 0")
    coverage = mask.coverage if isinstance(mask, RegionMask) else mask
    return (
        config.refine_feature_fullframe_ops * coverage
        + config.refine_per_proposal_ops * n_proposals
    )


def estimate_time(work: float, config: CostModelConfig) -> float:
    """Linear launch-time model: alpha * work + b."""
    if not config.has_timing:
        raise ValueError("timing constants alpha and b are not configured")
    if work < 0:
        raise ValueError("work must be >= 0")
    return config.alpha * work + config.b


def greedy_merge(
    regions: Sequence[BoundingBox],
    config: CostModelConfig,
    frame_w: float,
    frame_h: float,
) -> list[BoundingBox]:
    """Merge regions while merging saves estimated execution time.

    A region is priced as work.txt prices it: one launch (`b`) plus time
    proportional to its feature work. A pair is replaced by its bounding hull
    whenever the hull's estimated time undercuts the pair's total, largest
    saving first, ties to the earliest pair. The result is a fixed point.

    The pairs with a positive saving wait in a heap keyed (-saving, i, j), so
    "largest saving, ties to the earliest pair" is its pop order. A merge
    pushes only the merged region's new pairs; entries that name a region
    merged away or changed since the push are dropped when popped (Müllner's
    "generic" agglomerative clustering, arXiv 1109.2378). A `BoundingBox` is
    built only for each accepted hull; unmerged regions are returned as the
    same objects, in input order.
    """
    if not config.has_timing:
        raise ValueError("greedy_merge requires timing constants alpha and b")
    alpha, b, feature = config.alpha, config.b, config.refine_feature_fullframe_ops
    frame_area = frame_w * frame_h

    def launch_time(x1, y1, x2, y2):
        # FrameResult.work's estimate_time(feature * area / frame_area), op for op.
        return alpha * (feature * ((x2 - x1) * (y2 - y1)) / frame_area) + b

    def hull(i, j):
        (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = corners[i], corners[j]
        return min(ax1, bx1), min(ay1, by1), max(ax2, bx2), max(ay2, by2)

    def saving(i, j):  # i < j
        # times[i] + times[j] - launch_time(*hull(i, j)), op for op, written out:
        # the calls cost more than the arithmetic. `v if v < u else u` is min(u, v).
        (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) = corners[i], corners[j]
        x1 = bx1 if bx1 < ax1 else ax1
        y1 = by1 if by1 < ay1 else ay1
        x2 = bx2 if bx2 > ax2 else ax2
        y2 = by2 if by2 > ay2 else ay2
        hull_time = alpha * (feature * ((x2 - x1) * (y2 - y1)) / frame_area) + b
        return times[i] + times[j] - hull_time

    # Indexed by position in `regions`; a region merged away becomes None in
    # `out`, and a merge bumps the version of both regions it touches.
    out = list(regions)
    corners = [(r.x1, r.y1, r.x2, r.y2) for r in out]
    times = [launch_time(*c) for c in corners]
    version = [0] * len(out)
    heap = [(-s, i, j, 0, 0) for j in range(len(out)) for i in range(j) if (s := saving(i, j)) > 0]
    heapify(heap)

    while heap:
        _, i, j, version_i, version_j = heappop(heap)
        if version[i] != version_i or version[j] != version_j:
            continue
        corners[i] = merged = hull(i, j)
        times[i] = launch_time(*merged)
        out[i] = BoundingBox(*merged)
        out[j] = None
        version[i] += 1
        version[j] += 1
        for k, region in enumerate(out):
            if region is not None and k != i:
                p, q = (k, i) if k < i else (i, k)
                if (s := saving(p, q)) > 0:
                    heappush(heap, (-s, p, q, version[p], version[q]))
    return [r for r in out if r is not None]
