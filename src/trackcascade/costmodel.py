"""Arithmetic-operation accounting and the linear GPU-time model.

All work is expressed in Gops. Refinement work splits into a feature term
proportional to mask coverage and a classifier term proportional to the
proposal count; full-model reference totals below were measured at 1242x375
with 300 proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .geometry import BoundingBox, RegionMask

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
            if value is not None and not 0.0 <= value < math.inf:
                raise ValueError(f"{f.name} must be finite and >= 0")
        if (self.alpha is None) != (self.b is None):
            raise ValueError("alpha and b must be set together")

    @property
    def has_timing(self) -> bool:
        return self.alpha is not None and self.b is not None


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
    return sum(present)


def total_work(reports: Sequence[WorkReport]) -> WorkReport:
    """Field-wise sum; an optional field stays None when absent everywhere."""
    return WorkReport(
        proposal_ops=sum(r.proposal_ops for r in reports),
        refine_ops=sum(r.refine_ops for r in reports),
        refine_from_tracker_ops=_sum_optional([r.refine_from_tracker_ops for r in reports]),
        refine_from_proposal_ops=_sum_optional([r.refine_from_proposal_ops for r in reports]),
        estimated_time=_sum_optional([r.estimated_time for r in reports]),
        merged_region_count=sum(r.merged_region_count for r in reports),
    )


def refine_cost(mask: RegionMask, n_proposals: int, config: CostModelConfig) -> float:
    """Refinement ops: feature extraction over the mask plus classifier per proposal."""
    if n_proposals < 0:
        raise ValueError("n_proposals must be >= 0")
    return (
        config.refine_feature_fullframe_ops * mask.coverage
        + config.refine_per_proposal_ops * n_proposals
    )


def estimate_time(work: float, config: CostModelConfig) -> float:
    """Linear launch-time model: alpha * work + b."""
    if not config.has_timing:
        raise ValueError("timing constants alpha and b are not configured")
    if work < 0:
        raise ValueError("work must be >= 0")
    return config.alpha * work + config.b


def _region_work(region: BoundingBox, frame_area: float, config: CostModelConfig) -> float:
    return config.refine_feature_fullframe_ops * (region.area / frame_area)


def greedy_merge(
    regions: Sequence[BoundingBox],
    config: CostModelConfig,
    frame_w: float,
    frame_h: float,
) -> list[BoundingBox]:
    """Merge regions while merging saves estimated execution time.

    Each region costs one launch (`b`) plus time proportional to its feature
    work; a pair is replaced by its bounding hull whenever the hull's
    estimated time undercuts the pair's total, largest saving first. The
    result is a fixed point: re-merging changes nothing.
    """
    if not config.has_timing:
        raise ValueError("greedy_merge requires timing constants alpha and b")
    frame_area = frame_w * frame_h
    boxes = list(regions)
    times = [estimate_time(_region_work(r, frame_area, config), config) for r in boxes]

    while len(boxes) > 1:
        best = None  # (saving, i, j, hull, hull_time)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                hull = boxes[i].hull(boxes[j])
                hull_time = estimate_time(_region_work(hull, frame_area, config), config)
                saving = times[i] + times[j] - hull_time
                if saving > 0 and (best is None or saving > best[0]):
                    best = (saving, i, j, hull, hull_time)
        if best is None:
            break
        _, i, j, hull, hull_time = best
        boxes[i] = hull
        times[i] = hull_time
        del boxes[j], times[j]
    return boxes
