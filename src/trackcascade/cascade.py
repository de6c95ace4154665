"""The per-frame execution loop combining proposal source, tracker and refinement.

Three modes:

  single    the refinement source scans every full frame; nothing else runs
  cascaded  proposal-source boxes above c_thresh select the refinement regions
  catdet    tracker predictions join the proposal boxes before region selection

Detections feed back into the tracker only after NMS, so the tracker only
ever sees final, de-duplicated detections.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Sequence

from .costmodel import CostModelConfig, WorkReport, estimate_time, greedy_merge, refine_cost, total_work
from .errors import MissingFrameError
from .geometry import Detection, RegionMask, mask_overlap_fraction, nms
from .ingest import DetectionStore, SequenceMeta
from .tracker import Tracker, TrackerConfig

MODES = ("single", "cascaded", "catdet")


class DetectorSource(ABC):
    """A pluggable detection oracle.

    Given an optional region mask, a source must return only detections whose
    boxes intersect the mask; the optional proposal list tells a real
    two-stage detector what to classify.
    """

    name: str = "source"

    @abstractmethod
    def detect(
        self,
        frame_index: int,
        mask: RegionMask | None = None,
        proposals: Sequence[Detection] | None = None,
    ) -> list[Detection]:
        raise NotImplementedError


class FileBackedSource(DetectorSource):
    """Replays stored full-frame detections, simulating masked execution.

    A stored detection survives masking iff at least `mask_min_overlap` of
    its own area lies inside the mask union (a real network needs the object
    mostly inside the computed-feature region). Frames outside
    [0, frame_count) raise MissingFrameError when a frame count is known.
    """

    def __init__(
        self,
        store: DetectionStore,
        name: str = "source",
        frame_count: int | None = None,
        mask_min_overlap: float = 0.5,
    ):
        self.store = store
        self.name = name
        self.frame_count = frame_count
        self.mask_min_overlap = mask_min_overlap

    def detect(self, frame_index, mask=None, proposals=None) -> list[Detection]:
        if frame_index < 0 or (self.frame_count is not None and frame_index >= self.frame_count):
            raise MissingFrameError(
                f"source {self.name!r} cannot serve frame {frame_index} "
                f"(frame count {self.frame_count})"
            )
        dets = self.store.get(frame_index)
        if mask is None:
            return dets
        return [d for d in dets if mask_overlap_fraction(d.box, mask) >= self.mask_min_overlap]


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline constants; tracker and cost model nested."""

    mode: str = "catdet"
    c_thresh: float = 0.3  # proposal-source output threshold
    t_thresh: float = 0.5  # tracker input threshold (> 1 disables the tracker)
    margin: float = 30.0  # region dilation in pixels
    nms_iou: float = 0.5
    proposal_dedup_iou: float = 0.7
    class_agnostic_nms: bool = False
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    cost: CostModelConfig = field(default_factory=CostModelConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 <= self.c_thresh <= 1.0:
            raise ValueError("c_thresh must be in [0, 1]")
        if self.t_thresh < 0.0:
            raise ValueError("t_thresh must be >= 0")
        if self.margin < 0.0:
            raise ValueError("margin must be >= 0")
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError("nms_iou must be in [0, 1]")
        if not 0.0 <= self.proposal_dedup_iou <= 1.0:
            raise ValueError("proposal_dedup_iou must be in [0, 1]")


@dataclass
class FrameResult:
    """One frame's outputs, recorded before tracker feedback."""

    frame_index: int
    final_detections: list[Detection]
    mask: RegionMask
    work: WorkReport
    tracker_boxes: list[Detection] = field(default_factory=list)
    proposal_boxes: list[Detection] = field(default_factory=list)
    refine_proposals: list[Detection] = field(default_factory=list)


@dataclass
class SequenceResult:
    frames: list[FrameResult]
    total: WorkReport


class Pipeline:
    """Runs one sequence; frames must be processed in order."""

    def __init__(
        self,
        config: PipelineConfig,
        meta: SequenceMeta,
        refine_source: DetectorSource,
        proposal_source: DetectorSource | None = None,
        known_classes: set[int] | None = None,
    ):
        if config.mode != "single" and proposal_source is None:
            raise ValueError(f"mode {config.mode!r} requires a proposal source")
        self.config = config
        self.meta = meta
        self.refine_source = refine_source
        self.proposal_source = proposal_source
        self.known_classes = known_classes
        self._tracker: Tracker | None = None
        if config.mode == "catdet":
            tracker_cfg = replace(config.tracker, input_score_threshold=config.t_thresh)
            self._tracker = Tracker(tracker_cfg, meta.frame_w, meta.frame_h, known_classes)
        self._pending_predictions: list[Detection] = []
        self._next_frame: int | None = None

    @property
    def tracker(self) -> Tracker | None:
        return self._tracker

    def reset(self) -> None:
        if self._tracker is not None:
            self._tracker.reset()
        self._pending_predictions = []
        self._next_frame = None

    def _known(self, dets: list[Detection]) -> list[Detection]:
        if self.known_classes is None:
            return dets
        return [d for d in dets if d.class_id in self.known_classes]

    def run_frame(self, frame_index: int) -> FrameResult:
        """Run the configured cascade on one frame and account its cost."""
        if self._next_frame is not None and frame_index != self._next_frame:
            raise ValueError(f"frames must be processed in order; expected {self._next_frame}")
        self._next_frame = frame_index + 1
        cfg = self.config
        w, h = self.meta.frame_w, self.meta.frame_h

        if cfg.mode == "single":
            raw = self._known(self.refine_source.detect(frame_index))
            final = nms(raw, cfg.nms_iou, cfg.class_agnostic_nms)
            mask = RegionMask.full_frame(w, h)
            work = self._work(mask, cfg.cost.baseline_proposal_count, None, None, 0, 0, True)
            return FrameResult(frame_index, final, mask, work)

        proposal_raw = self._known(self.proposal_source.detect(frame_index))
        proposal_boxes = [d for d in proposal_raw if d.score >= cfg.c_thresh]
        tracker_boxes = list(self._pending_predictions) if cfg.mode == "catdet" else []

        # De-duplicate the combined proposal list before dilation; tracker
        # predictions carry score 1.0 and therefore win ties.
        refine_proposals = nms(tracker_boxes + proposal_boxes, cfg.proposal_dedup_iou)
        mask = RegionMask.from_boxes((d.box for d in refine_proposals), w, h, cfg.margin)

        refined = self._known(
            self.refine_source.detect(frame_index, mask=mask, proposals=refine_proposals)
        )
        final = nms(refined, cfg.nms_iou, cfg.class_agnostic_nms)

        # In cascaded mode the tracker mask is empty, so its attribution is a
        # truthful 0.0 and a tracker-disabled catdet run is byte identical.
        tracker_mask = RegionMask.from_boxes((d.box for d in tracker_boxes), w, h, cfg.margin)
        proposal_mask = RegionMask.from_boxes((d.box for d in proposal_boxes), w, h, cfg.margin)
        work = self._work(
            mask,
            len(refine_proposals),
            tracker_mask,
            proposal_mask,
            len(tracker_boxes),
            len(proposal_boxes),
            False,
        )
        result = FrameResult(
            frame_index,
            final,
            mask,
            work,
            tracker_boxes,
            proposal_boxes,
            refine_proposals,
        )
        if self._tracker is not None:
            self._pending_predictions = self._tracker.step(frame_index, final)
        return result

    def _work(
        self,
        mask: RegionMask,
        n_proposals: int,
        tracker_mask: RegionMask | None,
        proposal_mask: RegionMask | None,
        n_tracker: int,
        n_proposal: int,
        single: bool,
    ) -> WorkReport:
        cost = self.config.cost
        refine_ops = refine_cost(mask, n_proposals, cost)
        proposal_ops = 0.0 if single else cost.proposal_fullframe_ops
        from_tracker = (
            refine_cost(tracker_mask, n_tracker, cost) if tracker_mask is not None else None
        )
        from_proposal = (
            refine_cost(proposal_mask, n_proposal, cost) if proposal_mask is not None else None
        )
        estimated = None
        merged_count = len(mask.regions)
        if cost.has_timing:
            merged = greedy_merge(mask.regions, cost, mask.frame_w, mask.frame_h)
            merged_count = len(merged)
            frame_area = mask.frame_w * mask.frame_h
            estimated = sum(
                estimate_time(cost.refine_feature_fullframe_ops * r.area / frame_area, cost)
                for r in merged
            )
            if n_proposals > 0:
                estimated += estimate_time(cost.refine_per_proposal_ops * n_proposals, cost)
            if not single:
                estimated += estimate_time(proposal_ops, cost)
        return WorkReport(
            proposal_ops=proposal_ops,
            refine_ops=refine_ops,
            refine_from_tracker_ops=from_tracker,
            refine_from_proposal_ops=from_proposal,
            estimated_time=estimated,
            merged_region_count=merged_count,
        )

    def run_sequence(self, frames: Sequence[int] | None = None) -> SequenceResult:
        """Run frames in order from a fresh tracker and aggregate the work totals."""
        self.reset()
        if frames is None:
            frames = range(self.meta.frame_count)
        results = [self.run_frame(i) for i in frames]
        return SequenceResult(results, total_work([r.work for r in results]))
