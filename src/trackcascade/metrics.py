"""Detection quality metrics: per-class AP/mAP and entry-delay statistics.

Matching follows the greedy-by-score convention: detections claim ground
truths in descending score order, one-to-one, at a per-class IoU threshold.
Because the greedy pass over a score-sorted list is prefix stable, a single
labelling of all detections yields the exact counts for every score
threshold. One score-descending pass per class (`ClassEvalData.sweep`)
records them, and the precision/recall/delay curves, the interpolated AP and
the precision-matched delay threshold are all read from it.

Delay for a ground-truth track is the frame distance from its entry frame to
the first frame in which a detection claims it; a track that is never
detected contributes its full evaluated length. Tracks with no frame
qualifying under the active difficulty filter are excluded.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import EvaluationRefused
from .geometry import BoundingBox, Detection, iou

_RECALL_EPS = 1e-9


@dataclass(frozen=True)
class GtEntry:
    """One annotated frame of a ground-truth track."""

    frame_index: int
    box: BoundingBox
    truncated: float = 0.0
    occluded: int = 0

    def __post_init__(self):
        object.__setattr__(self, "truncated", float(self.truncated))


@dataclass
class GroundTruthTrack:
    """A labelled object sequence; frame indices are strictly increasing."""

    track_id: int
    class_id: int
    frames: list[GtEntry]

    def __post_init__(self):
        for a, b in zip(self.frames, self.frames[1:]):
            if b.frame_index <= a.frame_index:
                raise ValueError(
                    f"track {self.track_id}: frame indices must be strictly increasing"
                )

    @property
    def entry_frame(self) -> int:
        return self.frames[0].frame_index


@dataclass(frozen=True)
class DifficultyFilter:
    """KITTI-style qualification rule deciding which ground truths are counted.

    A ground-truth entry that fails the rule is not dropped: it becomes a
    "don't care" that can absorb detections without making them false
    positives, and it never counts as a false negative.
    """

    name: str
    min_size: float = 0.0
    size_axis: str = "height"  # or "width"
    max_occlusion: int = 99
    max_truncation: float = 1.0

    def __post_init__(self):
        if self.size_axis not in ("height", "width"):
            raise ValueError(f"size_axis must be height or width, got {self.size_axis!r}")
        if self.min_size < 0.0:
            raise ValueError("min_size must be >= 0")
        if not 0.0 <= self.max_truncation <= 1.0:
            raise ValueError("max_truncation must be in [0, 1]")

    def qualifies(self, entry: GtEntry) -> bool:
        size = entry.box.height if self.size_axis == "height" else entry.box.width
        return (
            size >= self.min_size
            and entry.occluded <= self.max_occlusion
            and entry.truncated <= self.max_truncation
        )


# Official KITTI devkit constants; "all" disables filtering.
DIFFICULTY_PRESETS = {
    "all": DifficultyFilter("all"),
    "easy": DifficultyFilter("easy", min_size=40.0, max_occlusion=0, max_truncation=0.15),
    "moderate": DifficultyFilter("moderate", min_size=25.0, max_occlusion=1, max_truncation=0.30),
    "hard": DifficultyFilter("hard", min_size=25.0, max_occlusion=2, max_truncation=0.50),
}


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings keyed by class id."""

    match_iou: Mapping[int, float]  # class id -> required overlap
    ap_recall_points: int | None = 11  # None = all-points interpolation
    beta: float = 0.8  # target mean precision for the delay threshold
    dontcare_classes: Mapping[int, frozenset[int]] = field(default_factory=dict)
    sparse_annotations: bool = False

    def __post_init__(self):
        for cid, thr in self.match_iou.items():
            if not 0.0 < thr <= 1.0:
                raise ValueError(f"match IoU for class {cid} must be in (0, 1]")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        if self.ap_recall_points is not None and self.ap_recall_points < 2:
            raise ValueError("ap_recall_points must be >= 2 or all")


@dataclass(frozen=True)
class FrameGt:
    """A ground truth as seen by the per-frame matcher.

    `qualifying` entries can be claimed as true positives; non-qualifying
    box entries absorb at most one detection each; `region` entries are
    area-style don't-cares that absorb any detection mostly inside them.
    """

    track_id: int
    box: BoundingBox
    qualifying: bool
    region: bool = False


@dataclass
class FrameMatch:
    tp: list[tuple[Detection, int]]  # detection and the track id it claimed
    fp: list[Detection]
    fn: list[FrameGt]  # qualifying ground truths left unclaimed
    ignored: list[Detection]  # matched only don't-care ground truth


def _det_order(dets: Sequence[Detection]) -> list[Detection]:
    return sorted(dets, key=lambda d: (-d.score, d.box.x1, d.box.y1, d.box.area))


def match_frame(
    gts: Sequence[FrameGt],
    dets: Sequence[Detection],
    iou_threshold: float,
) -> FrameMatch:
    """Greedy one-to-one matching of a single frame and class.

    Each detection, in descending score order, claims the unclaimed
    qualifying ground truth of highest IoU >= threshold. Failing that it may
    match a don't-care (non-qualifying box by the same IoU rule, or a region
    by intersection-over-detection-area), which makes it neither TP nor FP.
    """
    qualifying = [g for g in gts if g.qualifying]
    ignored_boxes = [g for g in gts if not g.qualifying and not g.region]
    regions = [g for g in gts if g.region]

    claimed: set[int] = set()
    claimed_ignored: set[int] = set()
    result = FrameMatch([], [], [], [])
    for d in _det_order(dets):
        best = None
        for idx, g in enumerate(qualifying):
            if idx in claimed:
                continue
            v = iou(d.box, g.box)
            if v >= iou_threshold and (best is None or v > best[0]):
                best = (v, idx)
        if best is not None:
            claimed.add(best[1])
            result.tp.append((d, qualifying[best[1]].track_id))
            continue

        absorbed = False
        for idx, g in enumerate(ignored_boxes):
            if idx not in claimed_ignored and iou(d.box, g.box) >= iou_threshold:
                claimed_ignored.add(idx)
                absorbed = True
                break
        if not absorbed and d.box.area > 0:
            for g in regions:
                inter = d.box.intersect(g.box)
                if inter is not None and inter.area / d.box.area >= iou_threshold:
                    absorbed = True
                    break
        if absorbed:
            result.ignored.append(d)
        else:
            result.fp.append(d)

    result.fn = [g for i, g in enumerate(qualifying) if i not in claimed]
    return result


@dataclass(frozen=True)
class DetLabel:
    score: float
    is_tp: bool
    track_id: int | None
    frame_index: int


@dataclass
class TrackDelayInfo:
    track_id: int
    entry_frame: int  # first qualifying frame under the active filter
    length: int  # number of qualifying frames


class SweepRow(NamedTuple):
    """Counts over the labels scoring at least `score` (inf: before any label)."""

    score: float
    tp: int
    fp: int
    delay_total: int  # summed entry delay of the counted tracks, frames
    never: int  # counted tracks with no true positive yet


@dataclass
class ClassEvalData:
    """Everything needed to derive curves, AP and delays for one class."""

    class_id: int
    iou_threshold: float
    labels: list[DetLabel]  # sorted by descending score
    n_pos: int
    tracks: list[TrackDelayInfo]  # distinct track ids

    @cached_property
    def sweep(self) -> list[SweepRow]:
        """One pass over the labels: a row before any label, then one per score.

        Greedy-by-score labelling is prefix stable, so the row recorded after
        a group of tied scores holds the exact counts at that threshold.
        """
        tracks = {t.track_id: t for t in self.tracks}
        first_hit: dict[int, int] = {}
        tp = fp = 0
        delay_total = sum(t.length for t in self.tracks)
        rows = [SweepRow(math.inf, tp, fp, delay_total, len(tracks))]
        for score, group in groupby(self.labels, key=lambda l: l.score):
            for lab in group:
                tp += lab.is_tp
                fp += not lab.is_tp
                track = tracks.get(lab.track_id) if lab.is_tp else None
                prev = first_hit.get(lab.track_id)
                if track is not None and (prev is None or lab.frame_index < prev):
                    # A first hit replaces the full length; an earlier frame, the later hit.
                    old = track.entry_frame + track.length if prev is None else prev
                    delay_total += lab.frame_index - old
                    first_hit[lab.track_id] = lab.frame_index
            rows.append(SweepRow(score, tp, fp, delay_total, len(tracks) - len(first_hit)))
        return rows

    def row_at(self, threshold: float) -> SweepRow:
        """The sweep row counting exactly the labels that score >= threshold."""
        return self.sweep[bisect.bisect_right(self.sweep, -threshold, key=lambda r: -r.score) - 1]

    def precision(self, row: SweepRow, empty: float | None = None) -> float | None:
        return row.tp / (row.tp + row.fp) if row.tp + row.fp else empty

    def recall(self, row: SweepRow) -> float:
        return row.tp / self.n_pos if self.n_pos else 0.0

    def delay(self, row: SweepRow) -> float | None:
        """Mean entry delay over the counted tracks; None when there are none."""
        return row.delay_total / len(self.tracks) if self.tracks else None


def _frame_gts_for_class(
    tracks: Sequence[GroundTruthTrack],
    class_id: int,
    difficulty: DifficultyFilter,
    dontcare_for_class: frozenset[int],
    dontcare_regions: Mapping[int, Sequence[BoundingBox]],
) -> dict[int, list[FrameGt]]:
    by_frame: dict[int, list[FrameGt]] = {}
    for t in tracks:
        if t.class_id == class_id:
            for e in t.frames:
                by_frame.setdefault(e.frame_index, []).append(
                    FrameGt(t.track_id, e.box, qualifying=difficulty.qualifies(e))
                )
        elif t.class_id in dontcare_for_class:
            for e in t.frames:
                by_frame.setdefault(e.frame_index, []).append(
                    FrameGt(t.track_id, e.box, qualifying=False)
                )
    for frame, boxes in dontcare_regions.items():
        for b in boxes:
            by_frame.setdefault(frame, []).append(FrameGt(-1, b, qualifying=False, region=True))
    return by_frame


def label_class_detections(
    tracks: Sequence[GroundTruthTrack],
    detections: Iterable[Detection],
    class_id: int,
    iou_threshold: float,
    difficulty: DifficultyFilter = DIFFICULTY_PRESETS["all"],
    dontcare_for_class: frozenset[int] = frozenset(),
    dontcare_regions: Mapping[int, Sequence[BoundingBox]] | None = None,
    labeled_frames: set[int] | None = None,
) -> ClassEvalData:
    """Run per-frame matching once and label every detection TP/FP.

    When `labeled_frames` is given (sparse annotation), detections on other
    frames are discarded before matching.
    """
    by_frame = _frame_gts_for_class(
        tracks, class_id, difficulty, dontcare_for_class, dontcare_regions or {}
    )
    dets_by_frame: dict[int, list[Detection]] = {}
    for d in detections:
        if d.class_id != class_id:
            continue
        if labeled_frames is not None and d.frame_index not in labeled_frames:
            continue
        dets_by_frame.setdefault(d.frame_index, []).append(d)

    labels: list[DetLabel] = []
    for frame in sorted(set(by_frame) | set(dets_by_frame)):
        match = match_frame(by_frame.get(frame, []), dets_by_frame.get(frame, []), iou_threshold)
        for det, track_id in match.tp:
            labels.append(DetLabel(det.score, True, track_id, frame))
        for det in match.fp:
            labels.append(DetLabel(det.score, False, None, frame))
    labels.sort(key=lambda l: (-l.score, l.frame_index))

    n_pos = 0
    track_infos: list[TrackDelayInfo] = []
    for t in tracks:
        if t.class_id != class_id:
            continue
        qualifying = [e.frame_index for e in t.frames if difficulty.qualifies(e)]
        n_pos += len(qualifying)
        if qualifying:
            track_infos.append(TrackDelayInfo(t.track_id, qualifying[0], len(qualifying)))
    return ClassEvalData(class_id, iou_threshold, labels, n_pos, track_infos)


def average_precision(data: ClassEvalData, recall_points: int | None = 11) -> float | None:
    """Interpolated AP; None when the class has no qualifying ground truth.

    With `recall_points` = N, precision is sampled at N evenly spaced recall
    values (max precision among operating points of recall >= r); with None,
    the full precision envelope is integrated over recall.
    """
    if data.n_pos == 0:
        return None
    rows = data.sweep[1:]
    # Recall never falls as the threshold drops, so the operating points of
    # recall >= r are a suffix and the envelope is a running max from the right.
    recalls = [data.recall(row) for row in rows]
    envelope = list(accumulate((data.precision(row) for row in reversed(rows)), max))[::-1]
    if recall_points is None:  # integrate the envelope over recall
        steps = zip(recalls, [0.0] + recalls, envelope)
        return sum(((r - prev) * p for r, prev, p in steps), 0.0)
    grid = [i / (recall_points - 1) for i in range(recall_points)]
    envelope.append(0.0)  # past the last operating point
    return sum(envelope[bisect.bisect_left(recalls, r - _RECALL_EPS)] for r in grid) / len(grid)


# Per-threshold rescans of the labels: the references the sweep is tested against.
def precision_recall_at(data: ClassEvalData, threshold: float) -> tuple[float | None, float]:
    """Precision (None when no detection reaches the threshold) and recall."""
    tp = sum(1 for l in data.labels if l.is_tp and l.score >= threshold)
    fp = sum(1 for l in data.labels if not l.is_tp and l.score >= threshold)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / data.n_pos if data.n_pos else 0.0
    return precision, recall


def delay_from_labels(data: ClassEvalData, threshold: float) -> tuple[float | None, int]:
    """Mean entry delay over counted tracks at a score threshold.

    Returns (mean delay, never-detected count); mean is None when the class
    has no counted tracks. A never-detected track contributes its full
    evaluated length.
    """
    if not data.tracks:
        return None, 0
    first_tp: dict[int, int] = {}
    for l in data.labels:
        if l.is_tp and l.score >= threshold:
            prev = first_tp.get(l.track_id)
            if prev is None or l.frame_index < prev:
                first_tp[l.track_id] = l.frame_index
    total = 0.0
    never = 0
    for t in data.tracks:
        hit = first_tp.get(t.track_id)
        if hit is None:
            total += t.length
            never += 1
        else:
            total += hit - t.entry_frame
    return total / len(data.tracks), never


def find_t_beta(per_class: Sequence[ClassEvalData], beta: float) -> float:
    """Smallest detection score at which mean class precision reaches beta.

    Candidates are the realized detection scores; exact equality with beta is
    generally unattainable on finite data, so the left-most crossing of
    mean precision >= beta is returned.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    scores = sorted({row.score for data in per_class for row in data.sweep[1:]})
    if not scores:
        raise ValueError("no detections to search for a precision threshold")
    best_mean = None
    for t in scores:
        # A class with no detection at this threshold raises no false alarm.
        mean = sum(d.precision(d.row_at(t), empty=1.0) for d in per_class) / len(per_class)
        if mean >= beta:
            return t
        if best_mean is None or mean > best_mean:
            best_mean = mean
    raise ValueError(
        f"mean precision never reaches {beta}; maximum achievable is {best_mean:.6f}"
    )


@dataclass
class ClassDelay:
    threshold: float
    mean_delay: float
    counted_tracks: int
    never_detected: int


@dataclass
class DelayReport:
    """Per-class entry delay at the shared precision-matched threshold."""

    beta: float
    threshold: float
    per_class: dict[int, ClassDelay]
    mean_delay: float  # unweighted mean over classes

    @property
    def has_never_detected(self) -> bool:
        return any(c.never_detected > 0 for c in self.per_class.values())


def mean_delay(per_class: Sequence[ClassEvalData], beta: float) -> DelayReport:
    """Delay report at the single threshold where mean class precision hits beta.

    The class set is restricted to classes with qualifying ground truth, both
    for the precision mean and for the delay average; configured classes that
    are absent from the data would otherwise dilute the mean.
    """
    counted = [d for d in per_class if d.tracks]
    if not counted:
        raise EvaluationRefused("no class has qualifying ground-truth tracks")
    t = find_t_beta(counted, beta)
    report: dict[int, ClassDelay] = {}
    for data in counted:
        row = data.row_at(t)
        report[data.class_id] = ClassDelay(t, data.delay(row), len(data.tracks), row.never)
    md = sum(c.mean_delay for c in report.values()) / len(report)
    return DelayReport(beta, t, report, md)


@dataclass
class ClassReport:
    class_id: int
    iou_threshold: float
    ap: float | None
    n_pos: int
    n_tracks: int
    n_detections: int
    base_precision: float | None  # at the all-detections operating point
    base_recall: float
    base_delay: float | None
    curve: list[tuple[float, float, float, float | None]]  # threshold, prec, recall, delay


@dataclass
class DifficultyReport:
    difficulty: str
    classes: dict[int, ClassReport]
    mean_ap: float | None
    delay: DelayReport | None
    delay_error: str | None = None


def evaluate_classes(
    tracks: Sequence[GroundTruthTrack],
    detections: Sequence[Detection],
    config: EvalConfig,
    difficulty: DifficultyFilter,
    dontcare_regions: Mapping[int, Sequence[BoundingBox]] | None = None,
    with_delay: bool = True,
) -> DifficultyReport:
    """Full per-difficulty evaluation: AP per class, mAP, and the delay report.

    With sparse annotations only frames carrying any annotation are
    evaluated, and asking for delay raises EvaluationRefused.
    """
    labeled_frames: set[int] | None = None
    if config.sparse_annotations:
        labeled_frames = {e.frame_index for t in tracks for e in t.frames}
        labeled_frames.update(dontcare_regions or {})
        if with_delay:
            raise EvaluationRefused(
                "sparse annotation makes detection delay unmeasurable; "
                "evaluate mAP only on the labeled frames"
            )

    per_class: dict[int, ClassEvalData] = {}
    for class_id in sorted(config.match_iou):
        per_class[class_id] = label_class_detections(
            tracks,
            detections,
            class_id,
            config.match_iou[class_id],
            difficulty,
            frozenset(config.dontcare_classes.get(class_id, frozenset())),
            dontcare_regions,
            labeled_frames,
        )

    reports: dict[int, ClassReport] = {}
    for class_id, data in per_class.items():
        ap = average_precision(data, config.ap_recall_points)
        delay = data.delay if with_delay else lambda row: None
        curve = [
            (row.score, data.precision(row), data.recall(row), delay(row))
            for row in reversed(data.sweep[1:])
        ]
        base = data.sweep[-1]  # every label counted
        reports[class_id] = ClassReport(
            class_id,
            data.iou_threshold,
            ap,
            data.n_pos,
            len(data.tracks),
            len(data.labels),
            data.precision(base),
            data.recall(base),
            delay(base),
            curve,
        )

    defined = [r.ap for r in reports.values() if r.ap is not None]
    mean_ap = sum(defined) / len(defined) if defined else None

    delay_report = None
    delay_error = None
    if with_delay:
        try:
            delay_report = mean_delay(list(per_class.values()), config.beta)
        except (ValueError, EvaluationRefused) as exc:
            delay_error = str(exc)
    return DifficultyReport(difficulty.name, reports, mean_ap, delay_report, delay_error)
