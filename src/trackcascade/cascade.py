"""The per-frame execution loop combining proposal source, tracker and refinement.

Three modes:

  single    the refinement source scans every full frame; nothing else runs
  cascaded  proposal-source boxes above c_thresh select the refinement regions
  catdet    tracker predictions join the proposal boxes before region selection

Detections feed back into the tracker only after NMS, and only those scoring
at least t_thresh, so the tracker only ever sees final, de-duplicated
detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .costmodel import MODES, CostModelConfig, WorkReport, estimate_time, greedy_merge, refine_cost, total_work
from .errors import MissingFrameError
from .geometry import Detection, RegionMask, grown_rects, left_sum, mask_overlap_fraction, nms, rects_union_area
from .ingest import DetectionStore, SequenceMeta
from .tracker import Tracker, TrackerConfig

MASK_MIN_OVERLAP = 0.5  # share of a detection's area that must lie inside the mask


class FileBackedSource:
    """Replays stored full-frame detections, simulating masked execution.

    A stored detection survives masking iff at least MASK_MIN_OVERLAP of
    its own area lies inside the mask union (a real network needs the object
    mostly inside the computed-feature region). Frames outside
    [0, frame_count) raise MissingFrameError when a frame count is known.
    Pipeline calls only `detect(frame_index, mask=None)`, so any object with
    that method can stand in for a real detector.
    """

    def __init__(
        self,
        store: DetectionStore,
        name: str = "source",
        frame_count: int | None = None,
    ):
        self.store = store
        self.name = name
        self.frame_count = frame_count

    def detect(self, frame_index: int, mask: RegionMask | None = None) -> list[Detection]:
        if frame_index < 0 or (self.frame_count is not None and frame_index >= self.frame_count):
            raise MissingFrameError(
                f"source {self.name!r} cannot serve frame {frame_index} "
                f"(frame count {self.frame_count})"
            )
        dets = self.store.get(frame_index)
        if mask is None:
            return dets
        regions = [(r.x1, r.y1, r.x2, r.y2) for r in mask.regions]
        kept = []
        for d in dets:
            box = d.box
            x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
            if (x2 - x1) * (y2 - y1) <= 0:
                continue  # no share of a zero-area box lies inside anything
            # A box inside one region is wholly covered, one that meets no
            # region not at all; only the rest need the union's area.
            meets = False
            for rx1, ry1, rx2, ry2 in regions:
                if rx1 <= x1 and ry1 <= y1 and x2 <= rx2 and y2 <= ry2:
                    kept.append(d)
                    break
                if x1 < rx2 and rx1 < x2 and y1 < ry2 and ry1 < y2:
                    meets = True
            else:
                if meets and mask_overlap_fraction(box, mask) >= MASK_MIN_OVERLAP:
                    kept.append(d)
        return kept


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline constants; tracker and cost model nested."""

    mode: str = "catdet"
    c_thresh: float = 0.3  # proposal-source output threshold
    t_thresh: float = 0.5  # tracker input threshold (> 1 disables the tracker)
    margin: float = 30.0  # region dilation in pixels
    nms_iou: float = 0.5
    proposal_dedup_iou: float = 0.7
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    cost: CostModelConfig = field(default_factory=CostModelConfig)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not 0.0 <= self.c_thresh <= 1.0:
            raise ValueError("c_thresh must be in [0, 1]")
        if not self.t_thresh >= 0.0:
            raise ValueError("t_thresh must be >= 0")
        if not self.margin >= 0.0:
            raise ValueError("margin must be >= 0")
        if not 0.0 <= self.nms_iou <= 1.0:
            raise ValueError("nms_iou must be in [0, 1]")
        if not 0.0 <= self.proposal_dedup_iou <= 1.0:
            raise ValueError("proposal_dedup_iou must be in [0, 1]")


@dataclass
class FrameResult:
    """One frame's outputs, recorded before tracker feedback.

    `work` is computed from the recorded fields, the config and the mask's
    frame size the first time it is read, and then cached; nothing later
    frames change goes into it, so it may be read at any time, in any order.
    """

    frame_index: int
    final_detections: list[Detection]
    mask: RegionMask
    config: PipelineConfig = field(repr=False)
    tracker_boxes: list[Detection] = field(default_factory=list)
    proposal_boxes: list[Detection] = field(default_factory=list)
    refine_proposals: list[Detection] = field(default_factory=list)

    @cached_property
    def work(self) -> WorkReport:
        """Op counts of this frame; the single-model run has no proposal source."""
        cost = self.config.cost
        mask = self.mask
        single = self.config.mode == "single"
        n_proposals = cost.baseline_proposal_count if single else len(self.refine_proposals)
        refine_ops = refine_cost(mask, n_proposals, cost)
        proposal_ops = 0.0 if single else cost.proposal_fullframe_ops
        # In cascaded mode there are no tracker boxes, so the tracker's
        # attribution is a truthful 0.0 and a tracker-disabled catdet run is
        # byte identical.
        from_tracker = None if single else self._attributed(self.tracker_boxes)
        from_proposal = None if single else self._attributed(self.proposal_boxes)
        estimated = None
        merged_count = len(mask.regions)
        if cost.has_timing:
            merged = greedy_merge(mask.regions, cost, mask.frame_w, mask.frame_h)
            merged_count = len(merged)
            frame_area = mask.frame_w * mask.frame_h
            estimated = left_sum(
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

    def _attributed(self, boxes: list[Detection]) -> float:
        """Refine ops of the mask `boxes` alone would make, as if they were the only proposals.

        When their grown rects are the mask's regions, in any order, the union
        is the mask's and its cached coverage is the same float; the rects are
        compared every time, whatever the mask was built from.
        """
        mask = self.mask
        w, h = mask.frame_w, mask.frame_h
        rects = [
            r
            for r in grown_rects((d.box for d in boxes), w, h, self.config.margin)
            if (r[2] - r[0]) * (r[3] - r[1]) > 0
        ]
        regions = mask.regions
        if len(rects) == len(regions) and sorted(rects) == sorted(
            (r.x1, r.y1, r.x2, r.y2) for r in regions
        ):
            return refine_cost(mask, len(boxes), self.config.cost)
        return refine_cost(rects_union_area(rects) / (w * h), len(boxes), self.config.cost)


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
        refine_source: FileBackedSource,
        proposal_source: FileBackedSource | None = None,
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
            # run_frame drops unknown classes before anything reaches the tracker.
            self._tracker = Tracker(config.tracker, meta.frame_w, meta.frame_h)
        self.reset()

    def reset(self) -> None:
        if self._tracker is not None:
            self._tracker.reset()
        self._pending_predictions: list[Detection] = []
        self._next_frame: int | None = None

    def _known(self, dets: list[Detection]) -> list[Detection]:
        if self.known_classes is None:
            return dets
        return [d for d in dets if d.class_id in self.known_classes]

    def run_frame(self, frame_index: int) -> FrameResult:
        """Run the configured cascade on one frame; its `work` is computed when first read."""
        if self._next_frame is not None and frame_index != self._next_frame:
            raise ValueError(f"frames must be processed in order; expected {self._next_frame}")
        self._next_frame = frame_index + 1
        cfg = self.config
        w, h = self.meta.frame_w, self.meta.frame_h

        if cfg.mode == "single":
            raw = self._known(self.refine_source.detect(frame_index))
            final = nms(raw, cfg.nms_iou)
            return FrameResult(frame_index, final, RegionMask.full_frame(w, h), cfg)

        proposal_raw = self._known(self.proposal_source.detect(frame_index))
        proposal_boxes = [d for d in proposal_raw if d.score >= cfg.c_thresh]
        tracker_boxes = list(self._pending_predictions) if cfg.mode == "catdet" else []

        # De-duplicate the combined proposal list before dilation; tracker
        # predictions carry score 1.0 and therefore win ties.
        refine_proposals = nms(tracker_boxes + proposal_boxes, cfg.proposal_dedup_iou)
        mask = RegionMask.from_boxes((d.box for d in refine_proposals), w, h, cfg.margin)

        refined = self._known(self.refine_source.detect(frame_index, mask=mask))
        final = nms(refined, cfg.nms_iou)
        result = FrameResult(
            frame_index, final, mask, cfg, tracker_boxes, proposal_boxes, refine_proposals
        )
        if self._tracker is not None:
            tracked = [d for d in final if d.score >= cfg.t_thresh]
            self._pending_predictions = self._tracker.step(frame_index, tracked)
        return result

    def run_sequence(self) -> SequenceResult:
        """Run every frame in order from a fresh tracker and aggregate the work totals."""
        self.reset()
        results = [self.run_frame(i) for i in range(self.meta.frame_count)]
        return SequenceResult(results, total_work([r.work for r in results]))
