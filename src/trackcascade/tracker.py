"""Per-class IoU tracker with exponential-decay motion.

Associates detections to tracks with an optimal assignment on IoU, smooths
per-frame motion with an exponential decay, and emits each live track's
predicted next-frame box as a proposal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import BoundingBox, Detection, iou

Vec3 = tuple[float, float, float]

_MIN_TRACK_WIDTH = 1e-9  # keeps extrapolated widths positive; such tracks die via misses


@dataclass(frozen=True)
class TrackerConfig:
    """Knobs for association, motion smoothing, confidence and emission filters."""

    iou_threshold_beta: float = 0.0
    decay_eta: float = 0.7
    min_width: float = 10.0
    boundary_chop_fraction: float = 0.5
    confidence_cap: int = 3
    match_gain: int = 1
    miss_cost: int = 1

    def __post_init__(self):
        if not 0.0 <= self.decay_eta <= 1.0:
            raise ValueError("decay_eta must be in [0, 1]")
        if not 0.0 <= self.iou_threshold_beta < 1.0:
            raise ValueError("iou_threshold_beta must be in [0, 1)")
        if self.confidence_cap < 0 or self.match_gain < 1 or self.miss_cost < 1:
            raise ValueError("confidence constants must be positive")
        if not 0.0 <= self.boundary_chop_fraction <= 1.0:
            raise ValueError("boundary_chop_fraction must be in [0, 1]")
        if not self.min_width >= 0.0:
            raise ValueError("min_width must be >= 0")


@dataclass(frozen=True)
class TrackState:
    """One tracked object: center/width position, per-frame motion, aspect ratio."""

    position: Vec3  # (center x, center y, width)
    motion: Vec3  # per-frame deltas of position
    aspect: float  # height / width
    confidence: int
    class_id: int
    track_id: int
    misses: int = 0

    def __post_init__(self):
        if self.position[2] <= 0 or self.aspect <= 0:
            raise ValueError("track width and aspect must be positive")
        if self.confidence < 0 or self.misses < 0:
            raise ValueError("confidence and misses must be >= 0")


def _center_width(box: BoundingBox) -> Vec3:
    cx, cy = box.center
    return (cx, cy, box.width)


def predict(state: TrackState) -> BoundingBox:
    """Predicted next-frame box: position advanced by motion, aspect unchanged."""
    cx = state.position[0] + state.motion[0]
    cy = state.position[1] + state.motion[1]
    width = max(state.position[2] + state.motion[2], 0.0)
    return BoundingBox.from_center(cx, cy, width, width * state.aspect)


def update_motion(
    state: TrackState,
    matched_position: Vec3,
    matched_aspect: float,
    config: TrackerConfig,
) -> TrackState:
    """Apply a matched observation to a track.

    Motion becomes a decay-weighted blend of the old motion and the observed
    displacement; position and aspect snap to the observation; confidence
    gains `match_gain` up to the cap and the miss counter resets.
    """
    eta = config.decay_eta
    motion = tuple(
        eta * m + (1.0 - eta) * (new - old)
        for m, new, old in zip(state.motion, matched_position, state.position)
    )
    return replace(
        state,
        position=matched_position,
        motion=motion,
        aspect=matched_aspect,
        confidence=min(state.confidence + config.match_gain, config.confidence_cap),
        misses=0,
    )


def _coast(state: TrackState) -> TrackState:
    # Unmatched track: advance the position by the frozen motion so that
    # re-association happens at the extrapolated location.
    x, y, s = (p + m for p, m in zip(state.position, state.motion))
    return replace(state, position=(x, y, max(s, _MIN_TRACK_WIDTH)))


def _canonical_det_order(detections: Sequence[Detection]) -> list[int]:
    # Box-geometry order makes association independent of input permutation.
    return sorted(
        range(len(detections)),
        key=lambda i: (
            detections[i].box.x1,
            detections[i].box.y1,
            detections[i].box.x2,
            detections[i].box.y2,
            detections[i].score,
        ),
    )


def associate(
    predictions: Sequence[tuple[int, BoundingBox]],
    detections: Sequence[Detection],
    beta: float,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Assign detections to predicted track boxes by maximum total IoU.

    Pairs whose IoU is <= `beta` are treated as non-relevant: they contribute
    nothing to the objective and any such assigned pair is severed afterwards.
    Returns (matches, lost, emerging): matches as (track_id, detection index),
    lost as track ids, emerging as detection indices; every track and
    detection lands in exactly one bucket.
    """
    if not predictions or not detections:
        return [], [tid for tid, _ in predictions], list(range(len(detections)))

    det_order = _canonical_det_order(detections)
    # A relevant pair costs -IoU < 0 (IoU > beta >= 0); every other pair costs 0.
    cost = np.zeros((len(predictions), len(detections)))
    for ti, (_, box) in enumerate(predictions):
        for ci, di in enumerate(det_order):
            v = iou(box, detections[di].box)
            if v > beta:
                cost[ti, ci] = -v

    rows, cols = linear_sum_assignment(cost)
    matches: list[tuple[int, int]] = []
    matched_tracks: set[int] = set()
    matched_dets: set[int] = set()
    for r, c in zip(rows, cols):
        if cost[r, c] < 0:
            matches.append((predictions[r][0], det_order[c]))
            matched_tracks.add(r)
            matched_dets.add(c)

    matches.sort()
    lost = sorted(predictions[r][0] for r in range(len(predictions)) if r not in matched_tracks)
    emerging = [det_order[c] for c in range(len(detections)) if c not in matched_dets]
    return matches, lost, emerging


class Tracker:
    """Tracks one video sequence; single-threaded, never shared mutably."""

    def __init__(
        self,
        config: TrackerConfig,
        frame_w: float,
        frame_h: float,
        known_classes: set[int] | None = None,
    ):
        self.config = config
        self.frame_w = frame_w
        self.frame_h = frame_h
        self.known_classes = known_classes
        self._tracks: list[TrackState] = []
        self._predicted: dict[int, BoundingBox] = {}  # track id -> predict(track), set by _emit
        self._next_id = 1

    @property
    def tracks(self) -> tuple[TrackState, ...]:
        return tuple(self._tracks)

    def reset(self) -> None:
        self._tracks = []
        self._predicted = {}
        self._next_id = 1

    def step(self, frame_index: int, detections: Sequence[Detection]) -> list[Detection]:
        """Consume one frame's detections, return predicted boxes for the next frame.

        Per class: associate detections with the tracks' predicted boxes,
        blend motion for matches, coast and decay unmatched tracks, spawn
        tracks for unmatched detections (zero initial motion), then drop any
        track whose confidence fell below zero. Every surviving track emits
        its predicted next-frame box unless the prediction is narrower than
        `min_width` or hangs more than `boundary_chop_fraction` outside the
        frame. Predictions carry a sentinel score of 1.0: they are proposals,
        not detections.
        """
        cfg = self.config
        for d in detections:
            if self.known_classes is not None and d.class_id not in self.known_classes:
                raise ValueError(
                    f"unknown class id {d.class_id} in frame {frame_index}; "
                    f"known classes: {sorted(self.known_classes)}"
                )
        usable = [d for d in detections if d.box.width > 0 and d.box.height > 0]
        by_class: dict[int, list[Detection]] = {}
        for d in usable:
            by_class.setdefault(d.class_id, []).append(d)

        survivors: list[TrackState] = []
        class_ids = sorted(set(by_class) | {t.class_id for t in self._tracks})
        for class_id in class_ids:
            tracks_c = [t for t in self._tracks if t.class_id == class_id]
            dets_c = by_class.get(class_id, [])
            preds = [(t.track_id, self._predicted[t.track_id]) for t in tracks_c]
            matches, lost, emerging = associate(preds, dets_c, cfg.iou_threshold_beta)
            by_id = {t.track_id: t for t in tracks_c}

            for track_id, det_index in matches:
                det = dets_c[det_index]
                survivors.append(
                    update_motion(
                        by_id[track_id],
                        _center_width(det.box),
                        det.box.height / det.box.width,
                        cfg,
                    )
                )
            for track_id in lost:
                t = by_id[track_id]
                confidence = t.confidence - cfg.miss_cost
                if confidence < 0:
                    continue  # discarded
                survivors.append(replace(_coast(t), confidence=confidence, misses=t.misses + 1))
            for det_index in emerging:
                det = dets_c[det_index]
                survivors.append(
                    TrackState(
                        position=_center_width(det.box),
                        motion=(0.0, 0.0, 0.0),
                        aspect=det.box.height / det.box.width,
                        confidence=min(cfg.match_gain, cfg.confidence_cap),
                        class_id=class_id,
                        track_id=self._next_id,
                    )
                )
                self._next_id += 1

        survivors.sort(key=lambda t: t.track_id)
        self._tracks = survivors
        return self._emit(frame_index + 1)

    def _emit(self, frame_index: int) -> list[Detection]:
        out: list[Detection] = []
        self._predicted = {t.track_id: predict(t) for t in self._tracks}
        for t in self._tracks:
            box = self._predicted[t.track_id]
            if box.width < self.config.min_width or box.area <= 0:
                continue
            clipped = box.clip(self.frame_w, self.frame_h)
            if 1.0 - clipped.area / box.area > self.config.boundary_chop_fraction:
                continue
            if clipped.area <= 0:
                continue
            out.append(Detection(clipped, t.class_id, 1.0, frame_index))
        out.sort(key=lambda d: (d.box.x1, d.box.y1, d.box.area, d.class_id))
        return out
