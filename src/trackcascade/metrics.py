"""Detection quality metrics: per-class AP/mAP and entry-delay statistics.

Matching follows the greedy-by-score convention: detections claim ground
truths in descending score order, one-to-one, at a per-class IoU threshold.
Because the greedy pass over a score-sorted list is prefix stable, a single
labelling of all detections yields the exact counts for every score
threshold. One score-descending pass per class (`ClassEvalData.sweep`)
records them, and the precision/recall/delay curves, the interpolated AP,
the precision-matched delay threshold and the single-threshold readers
`precision_recall_at` and `delay_from_labels` are all read from it.

Delay for a ground-truth track is the frame distance from its first
qualifying frame to the first frame in which a detection claims it; a track
that is never detected contributes the span from its first to its last
qualifying frame, both counted. Tracks with no frame qualifying under the
active difficulty filter are excluded.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, groupby
from typing import Iterable, Mapping, NamedTuple, Sequence

from .geometry import BoundingBox, Detection, iou, left_sum, score_order

_RECALL_EPS = 1e-9


@dataclass(slots=True, unsafe_hash=True)
class GtEntry:
    """One annotated frame of a ground-truth track; slotted, treated as immutable."""

    frame_index: int
    box: BoundingBox
    truncated: float = 0.0
    occluded: int = 0

    def __post_init__(self):
        self.truncated = float(self.truncated)
        if self.frame_index < 0:
            raise ValueError(f"negative frame index {self.frame_index}")


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


@dataclass(frozen=True)
class DifficultyFilter:
    """KITTI-style qualification rule deciding which ground truths are counted.

    A ground-truth entry that fails the rule is not dropped: it becomes a
    "don't care" that can absorb detections without making them false
    positives, and it never counts as a false negative.
    """

    name: str
    min_size: float = 0.0
    max_occlusion: int = 99
    max_truncation: float = 1.0

    def __post_init__(self):
        if not self.min_size >= 0.0:
            raise ValueError("min_size must be >= 0")
        if not self.max_occlusion >= 0:
            raise ValueError("max_occlusion must be >= 0")
        if not 0.0 <= self.max_truncation <= 1.0:
            raise ValueError("max_truncation must be in [0, 1]")

    def qualifies(self, entry: GtEntry) -> bool:
        return (
            entry.box.height >= self.min_size
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


def match_frame(
    qualifying: Sequence[tuple[int, BoundingBox]],
    ignored: Sequence[BoundingBox],
    regions: Sequence[BoundingBox],
    dets: Sequence[Detection],
    iou_threshold: float,
) -> tuple[list[tuple[Detection, int]], list[Detection]]:
    """Greedy one-to-one matching of a single frame and class: (tp, fp).

    Each detection, in descending score order, claims the unclaimed
    `qualifying` (track id, box) of highest IoU >= threshold, and is a true
    positive with that track id. Failing that it may match a don't-care (an
    unclaimed `ignored` box by the same IoU rule, or a region by
    intersection-over-detection-area), which makes it neither TP nor FP.
    """
    unclaimed, free_ignored = list(qualifying), list(ignored)
    tp, fp = [], []
    for d in sorted(dets, key=score_order):
        best = None
        for idx, (_, box) in enumerate(unclaimed):
            v = iou(d.box, box)
            if v >= iou_threshold and (best is None or v > best[0]):
                best = (v, idx)
        if best is not None:
            tp.append((d, unclaimed.pop(best[1])[0]))
            continue
        for idx, box in enumerate(free_ignored):
            if iou(d.box, box) >= iou_threshold:
                del free_ignored[idx]  # absorbed; the box absorbs no other detection
                break
        else:  # no ignored box absorbed it: a region may
            area = d.box.area
            inters = (d.box.intersect(region) for region in regions)  # None where apart
            if not (area > 0 and any(i and i.area / area >= iou_threshold for i in inters)):
                fp.append(d)
    return tp, fp


@dataclass(slots=True, unsafe_hash=True)
class DetLabel:
    """One labelled detection of `label_class_detections`; slotted, treated as immutable."""

    score: float
    is_tp: bool
    track_id: int | None
    frame_index: int


@dataclass
class TrackDelayInfo:
    track_id: int
    entry_frame: int  # first qualifying frame under the active filter
    length: int  # frames from the first to the last qualifying one, both counted


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
    # Each entry is qualified once. A frame holds match_frame's qualifying,
    # ignored and region lists; tracks are in input order, then the regions.
    by_frame: dict[int, tuple[list, list, list]] = {}
    n_pos = 0
    track_infos: list[TrackDelayInfo] = []
    for t in tracks:
        own = t.class_id == class_id  # an aliased class's entries are all don't-cares
        if not own and t.class_id not in dontcare_for_class:
            continue
        qualifying = []
        for e in t.frames:
            if own and difficulty.qualifies(e):
                qualifying.append(e.frame_index)
                by_frame.setdefault(e.frame_index, ([], [], []))[0].append((t.track_id, e.box))
            else:
                by_frame.setdefault(e.frame_index, ([], [], []))[1].append(e.box)
        n_pos += len(qualifying)
        if qualifying:
            span = qualifying[-1] - qualifying[0] + 1
            track_infos.append(TrackDelayInfo(t.track_id, qualifying[0], span))
    for frame, boxes in (dontcare_regions or {}).items():
        by_frame.setdefault(frame, ([], [], []))[2].extend(boxes)

    dets_by_frame: dict[int, list[Detection]] = {}
    for d in detections:
        if d.class_id != class_id:
            continue
        if labeled_frames is not None and d.frame_index not in labeled_frames:
            continue
        dets_by_frame.setdefault(d.frame_index, []).append(d)

    labels: list[DetLabel] = []
    for frame in sorted(dets_by_frame):  # a frame without detections labels nothing
        gts = by_frame.get(frame, ((), (), ()))
        tp, fp = match_frame(*gts, dets_by_frame[frame], iou_threshold)
        for det, track_id in tp:
            labels.append(DetLabel(det.score, True, track_id, frame))
        for det in fp:
            labels.append(DetLabel(det.score, False, None, frame))
    labels.sort(key=lambda l: (-l.score, l.frame_index))
    return ClassEvalData(class_id, labels, n_pos, track_infos)


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
        return left_sum((r - prev) * p for r, prev, p in steps)
    grid = [i / (recall_points - 1) for i in range(recall_points)]
    envelope.append(0.0)  # past the last operating point
    points = (envelope[bisect.bisect_left(recalls, r - _RECALL_EPS)] for r in grid)
    return left_sum(points) / len(grid)


def precision_recall_at(data: ClassEvalData, threshold: float) -> tuple[float | None, float]:
    """Precision (None when no detection reaches the threshold) and recall."""
    row = data.row_at(threshold)
    return data.precision(row), data.recall(row)


def delay_from_labels(data: ClassEvalData, threshold: float) -> tuple[float | None, int]:
    """Mean entry delay over counted tracks (None without any) and the never-detected count."""
    row = data.row_at(threshold)
    return data.delay(row), row.never


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
        mean = left_sum(d.precision(d.row_at(t), empty=1.0) for d in per_class) / len(per_class)
        if mean >= beta:
            return t
        if best_mean is None or mean > best_mean:
            best_mean = mean
    raise ValueError(
        f"mean precision never reaches {beta}; maximum achievable is {best_mean:.6f}"
    )


@dataclass
class ClassDelay:
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
        raise ValueError("no class has qualifying ground-truth tracks")
    t = find_t_beta(counted, beta)
    report: dict[int, ClassDelay] = {}
    for data in counted:
        delay, never = delay_from_labels(data, t)
        report[data.class_id] = ClassDelay(delay, len(data.tracks), never)
    md = left_sum(c.mean_delay for c in report.values()) / len(report)
    return DelayReport(beta, t, report, md)


@dataclass
class ClassReport:
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
) -> DifficultyReport:
    """Full per-difficulty evaluation: AP per class, mAP, and the delay report.

    With sparse annotations only frames carrying any annotation are
    evaluated, and delay is unmeasurable: the report's delays are all None.
    """
    sparse = config.sparse_annotations
    labeled_frames: set[int] | None = None
    if sparse:
        labeled_frames = {e.frame_index for t in tracks for e in t.frames}
        labeled_frames.update(dontcare_regions or {})

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
        delay = (lambda row: None) if sparse else data.delay
        curve = [
            (row.score, data.precision(row), data.recall(row), delay(row))
            for row in reversed(data.sweep[1:])
        ]
        # Scores lie in [0, 1], so threshold 0 counts every label.
        base_precision, base_recall = precision_recall_at(data, 0.0)
        base_delay = None if sparse else delay_from_labels(data, 0.0)[0]
        reports[class_id] = ClassReport(
            ap,
            data.n_pos,
            len(data.tracks),
            len(data.labels),
            base_precision,
            base_recall,
            base_delay,
            curve,
        )

    defined = [r.ap for r in reports.values() if r.ap is not None]
    mean_ap = left_sum(defined) / len(defined) if defined else None

    delay_report = None
    delay_error = None
    if not sparse:
        try:
            delay_report = mean_delay(list(per_class.values()), config.beta)
        except ValueError as exc:
            delay_error = str(exc)
    return DifficultyReport(difficulty.name, reports, mean_ap, delay_report, delay_error)
