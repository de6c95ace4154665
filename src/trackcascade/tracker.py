"""Per-class IoU tracker with exponential-decay motion.

Associates detections to tracks with an optimal assignment on IoU, smooths
per-frame motion with an exponential decay, and emits each live track's
predicted next-frame box as a proposal.

Most frames need no assignment solver. When each track's best relevant
detection is strictly best and no two tracks share it, no assignment can
total more than the sum of those best IoUs, and only these pairs reach it,
so every optimal assignment holds exactly these relevant pairs. The same
argument runs over the detections' best tracks. Only when both sides have a
tie or a shared best does `associate` call the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._lsap import linear_sum_assignment
from .geometry import BoundingBox, Detection, iou, score_order

Vec3 = tuple[float, float, float]

_MIN_TRACK_WIDTH = 1e-9  # keeps extrapolated widths positive; such tracks die via misses


@dataclass(frozen=True)
class TrackerConfig:
    """Knobs for association, motion smoothing, confidence and emission filters.

    Confidence rises by 1 per match, up to `confidence_cap`, and falls by 1 per miss.
    """

    iou_threshold_beta: float = 0.0
    decay_eta: float = 0.7
    min_width: float = 10.0
    boundary_chop_fraction: float = 0.5
    confidence_cap: int = 3

    def __post_init__(self):
        if not 0.0 <= self.decay_eta <= 1.0:
            raise ValueError("decay_eta must be in [0, 1]")
        if not 0.0 <= self.iou_threshold_beta < 1.0:
            raise ValueError("iou_threshold_beta must be in [0, 1)")
        if not self.confidence_cap >= 0:
            raise ValueError("confidence_cap must be >= 0")
        if not 0.0 <= self.boundary_chop_fraction <= 1.0:
            raise ValueError("boundary_chop_fraction must be in [0, 1]")
        if not self.min_width >= 0.0:
            raise ValueError("min_width must be >= 0")


@dataclass(slots=True, unsafe_hash=True)
class TrackState:
    """One tracked object: center/width position, per-frame motion, aspect ratio.

    Slotted and treated as immutable: a step builds new states.
    """

    position: Vec3  # (center x, center y, width)
    motion: Vec3  # per-frame deltas of position
    aspect: float  # height / width
    confidence: int
    class_id: int
    track_id: int

    def __post_init__(self):
        if self.position[2] <= 0 or self.aspect <= 0:
            raise ValueError("track width and aspect must be positive")
        if self.confidence < 0:
            raise ValueError("confidence must be >= 0")


def _observation(box: BoundingBox) -> tuple[Vec3, float]:
    """A box as a track position (center x, center y, width) and aspect."""
    x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
    width = x2 - x1
    return ((x1 + x2) / 2.0, (y1 + y2) / 2.0, width), (y2 - y1) / width


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
    gains 1 up to the cap.
    """
    eta = config.decay_eta
    obs = 1.0 - eta
    (mx, my, mw), (px, py, pw) = state.motion, state.position
    nx, ny, nw = matched_position
    return TrackState(
        position=matched_position,
        motion=(eta * mx + obs * (nx - px), eta * my + obs * (ny - py), eta * mw + obs * (nw - pw)),
        aspect=matched_aspect,
        confidence=min(state.confidence + 1, config.confidence_cap),
        class_id=state.class_id,
        track_id=state.track_id,
    )


def _detection_key(d: Detection) -> tuple[float, float, float, float, float]:
    # Box-geometry order makes association independent of input permutation.
    box = d.box
    return box.x1, box.y1, box.x2, box.y2, d.score


def _canonical_det_order(detections: Sequence[Detection]) -> list[int]:
    return sorted(range(len(detections)), key=lambda i: _detection_key(detections[i]))


def _strict_best_pairs(
    relevant: list[tuple[int, int, float]], side: int
) -> list[tuple[int, int]] | None:
    """(row, column) of each row's (`side` 0) or column's (`side` 1) best relevant pair.

    None unless every best is strict and no two of them share a partner.
    """
    best: dict[int, tuple[float, tuple[int, int, float] | None]] = {}
    for pair in relevant:
        key, v = pair[side], pair[2]
        held = best.get(key)
        if held is None or v > held[0]:
            best[key] = (v, pair)
        elif v == held[0]:
            best[key] = (v, None)  # a tie: no strict best unless a larger IoU follows
    partners = {pair[1 - side] for _, pair in best.values() if pair is not None}
    if len(partners) < len(best):
        return None  # a tie, or two bests that share a partner
    return [(r, c) for _, (r, c, _) in best.values()]


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
    detection lands in exactly one bucket. New tracks take their ids in the
    order of `emerging`, which is box-geometry order whenever there are tracks.

    The solver runs only when the best partners collide on both sides. If
    every track with a relevant pair has a strict best IoU and those best
    detections are distinct, the sum of the row maxima bounds every
    assignment's total and only these pairs reach it, so they are the
    relevant pairs of every optimal assignment. The same holds for the
    detections' best tracks.
    """
    if not predictions or not detections:
        return [], [tid for tid, _ in predictions], list(range(len(detections)))

    beta = max(beta, 0.0)  # an IoU of 0 is never relevant
    det_boxes = [d.box for d in detections]
    relevant: list[tuple[int, int, float]] = []  # (track row, detection index, IoU > beta)
    for ti, (_, box) in enumerate(predictions):
        x1, x2 = box.x1, box.x2
        for di, det_box in enumerate(det_boxes):
            if det_box.x1 >= x2 or det_box.x2 <= x1:
                continue  # apart along x: IoU 0 (NaN for infinite boxes), never relevant
            v = iou(box, det_box)
            if v > beta:
                relevant.append((ti, di, v))

    pairs = _strict_best_pairs(relevant, 0)
    if pairs is None:
        pairs = _strict_best_pairs(relevant, 1)
    if pairs is None:
        # A relevant pair costs -IoU < 0; every other pair costs 0.
        det_order = _canonical_det_order(detections)
        column = {di: ci for ci, di in enumerate(det_order)}
        cost = [[0.0] * len(detections) for _ in predictions]
        for r, di, v in relevant:
            cost[r][column[di]] = -v
        rows, cols = linear_sum_assignment(cost)
        pairs = [(r, det_order[c]) for r, c in zip(rows, cols) if cost[r][c] < 0]
    matched_tracks = {r for r, _ in pairs}
    matched_dets = {di for _, di in pairs}
    matches = sorted([(predictions[r][0], di) for r, di in pairs])
    lost = sorted([tid for r, (tid, _) in enumerate(predictions) if r not in matched_tracks])
    emerging = [di for di in range(len(detections)) if di not in matched_dets]
    emerging.sort(key=lambda di: _detection_key(detections[di]))
    return matches, lost, emerging


class Tracker:
    """Tracks one video sequence; single-threaded, never shared mutably."""

    def __init__(self, config: TrackerConfig, frame_w: float, frame_h: float):
        self.config = config
        self.frame_w = frame_w
        self.frame_h = frame_h
        self.reset()

    @property
    def tracks(self) -> tuple[TrackState, ...]:
        return tuple(self._tracks)

    def reset(self) -> None:
        self._tracks: list[TrackState] = []
        self._predicted: dict[int, BoundingBox] = {}  # track id -> predict(track), set by _emit
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
        not detections. A detection of zero area, or whose height / width
        underflows to 0, is ignored.
        """
        cfg = self.config
        dets_by_class: dict[int, list[Detection]] = {}
        for d in detections:
            box = d.box
            width = box.x2 - box.x1
            # `_observation`'s aspect, which a track needs > 0: it underflows for a flat box.
            if width > 0 and (box.y2 - box.y1) / width > 0:
                dets_by_class.setdefault(d.class_id, []).append(d)
        tracks_by_class: dict[int, list[TrackState]] = {}
        for t in self._tracks:
            tracks_by_class.setdefault(t.class_id, []).append(t)

        survivors: list[TrackState] = []
        for class_id in sorted(dets_by_class.keys() | tracks_by_class.keys()):
            tracks_c = tracks_by_class.get(class_id, [])
            dets_c = dets_by_class.get(class_id, [])
            preds = [(t.track_id, self._predicted[t.track_id]) for t in tracks_c]
            matches, lost, emerging = associate(preds, dets_c, cfg.iou_threshold_beta)
            by_id = {t.track_id: t for t in tracks_c}

            for track_id, det_index in matches:
                position, aspect = _observation(dets_c[det_index].box)
                survivors.append(update_motion(by_id[track_id], position, aspect, cfg))
            for track_id in lost:
                t = by_id[track_id]
                confidence = t.confidence - 1
                if confidence < 0:
                    continue  # discarded
                # Coast: advance by the frozen motion so that re-association
                # happens at the extrapolated location.
                (px, py, pw), (mx, my, mw) = t.position, t.motion
                survivors.append(
                    TrackState(
                        position=(px + mx, py + my, max(pw + mw, _MIN_TRACK_WIDTH)),
                        motion=t.motion,
                        aspect=t.aspect,
                        confidence=confidence,
                        class_id=class_id,
                        track_id=track_id,
                    )
                )
            for det_index in emerging:
                position, aspect = _observation(dets_c[det_index].box)
                survivors.append(
                    TrackState(
                        position=position,
                        motion=(0.0, 0.0, 0.0),
                        aspect=aspect,
                        confidence=min(1, cfg.confidence_cap),
                        class_id=class_id,
                        track_id=self._next_id,
                    )
                )
                self._next_id += 1

        survivors.sort(key=lambda t: t.track_id)
        self._tracks = survivors
        return self._emit(frame_index + 1)

    def _emit(self, frame_index: int) -> list[Detection]:
        cfg = self.config
        frame_w, frame_h = self.frame_w, self.frame_h
        out: list[Detection] = []
        self._predicted = predicted = {}
        for t in self._tracks:
            box = predicted[t.track_id] = predict(t)
            x1, y1, x2, y2 = box.x1, box.y1, box.x2, box.y2
            area = (x2 - x1) * (y2 - y1)
            if x2 - x1 < cfg.min_width or area <= 0:
                continue
            # A box inside the frame clips to itself and loses nothing to the chop.
            if not (0.0 <= x1 and 0.0 <= y1 and x2 <= frame_w and y2 <= frame_h):
                clipped = box.clip(frame_w, frame_h)
                if 1.0 - clipped.area / area > cfg.boundary_chop_fraction or clipped.area <= 0:
                    continue
                box = clipped
            out.append(Detection(box, t.class_id, 1.0, frame_index))
        out.sort(key=score_order)  # every score is 1.0: by x1, y1, area, class
        return out
