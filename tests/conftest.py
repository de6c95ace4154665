import argparse
import builtins
import contextlib
import io
import math
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from trackcascade import ClassMap, cli
from trackcascade.cascade import MASK_MIN_OVERLAP
from trackcascade.cli import main
from trackcascade.costmodel import MODES, WorkReport, estimate_time, greedy_merge, refine_cost
from trackcascade.errors import DataError
from trackcascade.geometry import (
    BoundingBox,
    Detection,
    RegionMask,
    iou,
    left_sum,
    mask_overlap_fraction,
    score_order,
)
from trackcascade.ingest import (
    DONTCARE_ID,
    DetectionStore,
    GroundTruthTrack,
    GtEntry,
    KittiLabels,
    SequenceMeta,
    read_text,
    write_detections,
    write_meta,
)
from trackcascade.synthetic import SyntheticData
from trackcascade.tracker import _canonical_det_order, predict

DATA = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA


# The `run` arguments of each mode whose work.txt the tests read; "timed" has the timing model.
WORK_MODES = {
    "single": ["--mode", "single"],
    "cascaded": ["--mode", "cascaded"],
    "catdet": ["--mode", "catdet"],
    "timed": ["--mode", "catdet", "--set", "cost.alpha=0.001", "--set", "cost.b=0.005"],
}


@pytest.fixture(scope="session")
def scenario_runs(tmp_path_factory) -> dict[str, Path]:
    """One run of benchmark_scenario.cfg's sequence per `WORK_MODES` mode; copy before editing."""
    root = tmp_path_factory.mktemp("scenario_runs")
    seq = root / "seq"
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg")]
        assert main([*argv, "--out", str(seq)]) == 0
        for mode, args in WORK_MODES.items():
            assert main(["run", "--sequence", str(seq), *args, "--out", str(root / mode)]) == 0
    return {mode: root / mode for mode in WORK_MODES}


def make_store(records) -> DetectionStore:
    """records: iterable of (frame, class_id, score, x1, y1, x2, y2)."""
    store = DetectionStore()
    for frame, class_id, score, x1, y1, x2, y2 in records:
        store.add(Detection(BoundingBox(x1, y1, x2, y2), class_id, score, frame))
    return store


def write_sequence(
    tmp: Path,
    meta: SequenceMeta,
    proposal: DetectionStore,
    refine: DetectionStore,
    class_map: ClassMap,
    labels_text: str | None = None,
) -> Path:
    seq = tmp / meta.sequence_id
    seq.mkdir(parents=True, exist_ok=True)
    write_meta(meta, seq / "meta.cfg")
    write_detections(proposal.all(), class_map, seq / "proposal.txt")
    write_detections(refine.all(), class_map, seq / "refine.txt")
    if labels_text is not None:
        (seq / "labels.txt").write_text(labels_text)
    return seq


def sum_312(iterable, /, start=0):
    """A Python model of CPython 3.12's builtin `sum` (`builtin_sum_impl` in
    Python/bltinmodule.c, gh-100425).

    Exact ints are added as ints.  From the first float on, floats are added
    with Neumaier's compensated summation, and the compensation is added
    once at the end (or before an item that is neither a float nor an int),
    unless it is zero or not finite.  Everything else is added with `+`.
    """
    result, items = start, iter(iterable)
    if type(result) is int:
        for item in items:
            result = result + item
            if type(result) is not int:
                break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    compensation += (total - t) + item
                else:
                    compensation += (item - t) + total
                total = t
            elif isinstance(item, int) and -(2**63) <= item < 2**63:  # a C long
                total += float(item)
            else:
                if compensation and math.isfinite(compensation):
                    total += compensation
                result = total + item
                break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


@contextlib.contextmanager
def python312_sum():
    """The builtin `sum` replaced by `sum_312` inside the block."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(builtins, "sum", sum_312)
        yield


def source_costs(tracker_mask, proposal_mask, union_mask, config, n_tracker, n_proposal):
    """Stand-alone refine cost of each proposal source and of their union.

    The union is charged for both sources' proposals; its cost is at most
    the sum of the parts (mask overlap counted once), with equality exactly
    when the masks are disjoint.
    """
    return (
        refine_cost(tracker_mask, n_tracker, config),
        refine_cost(proposal_mask, n_proposal, config),
        refine_cost(union_mask, n_tracker + n_proposal, config),
    )


def reference_work(config, frame_w, frame_h, result):
    """`FrameResult.work` as `run_frame` once computed it on every frame.

    One `RegionMask` each for the refinement proposals, the tracker boxes and
    the proposal boxes, `refine_cost` on each, and `greedy_merge` when timed.
    """
    cost = config.cost
    single = config.mode == "single"
    if single:
        mask = RegionMask.full_frame(frame_w, frame_h)
        n_proposals = cost.baseline_proposal_count
    else:
        def mask_of(dets):
            return RegionMask.from_boxes((d.box for d in dets), frame_w, frame_h, config.margin)

        mask = mask_of(result.refine_proposals)
        n_proposals = len(result.refine_proposals)
        tracker_mask, proposal_mask = mask_of(result.tracker_boxes), mask_of(result.proposal_boxes)
    refine_ops = refine_cost(mask, n_proposals, cost)
    proposal_ops = 0.0 if single else cost.proposal_fullframe_ops
    from_tracker = None if single else refine_cost(tracker_mask, len(result.tracker_boxes), cost)
    from_proposal = None if single else refine_cost(proposal_mask, len(result.proposal_boxes), cost)
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
    return WorkReport(proposal_ops, refine_ops, from_tracker, from_proposal, estimated, merged_count)


def hull(a, b):
    """Smallest box containing both."""
    return BoundingBox(min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2))


def reference_greedy_merge(regions, config, frame_w, frame_h):
    """Brute-force `greedy_merge`: rescan every pair after each merge, O(R^3).

    Of the pairs with a positive saving it merges the largest, and of equal
    savings the first in (i, j) loop order over the current list.
    """
    frame_area = frame_w * frame_h

    def region_time(region):  # as FrameResult.work prices a region for work.txt
        return estimate_time(config.refine_feature_fullframe_ops * region.area / frame_area, config)

    boxes = list(regions)
    times = [region_time(r) for r in boxes]
    while len(boxes) > 1:
        best = None  # (saving, i, j, hull, hull_time)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                merged = hull(boxes[i], boxes[j])
                hull_time = region_time(merged)
                saving = times[i] + times[j] - hull_time
                if saving > 0 and (best is None or saving > best[0]):
                    best = (saving, i, j, merged, hull_time)
        if best is None:
            break
        _, i, j, merged, hull_time = best
        boxes[i] = merged
        times[i] = hull_time
        del boxes[j], times[j]
    return boxes


def reference_union_area(boxes):
    """Slab-rescan `union_area`: every x-slab rescans every box for the ones spanning it."""
    rects = [b for b in boxes if b.area > 0]
    if not rects:
        return 0.0
    xs = sorted({b.x1 for b in rects} | {b.x2 for b in rects})
    total = 0.0
    for x_lo, x_hi in zip(xs, xs[1:]):
        slab_w = x_hi - x_lo
        if slab_w <= 0:
            continue
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


def reference_grown_rects(boxes, frame_w, frame_h, margin):
    """`grown_rects` through builtin min and max, as `BoundingBox.clip` computes."""
    return [
        (
            min(max(b.x1 - margin, 0.0), frame_w),
            min(max(b.y1 - margin, 0.0), frame_h),
            min(max(b.x2 + margin, 0.0), frame_w),
            min(max(b.y2 + margin, 0.0), frame_h),
        )
        for b in boxes
    ]


def reference_clip_regions(regions, frame_w, frame_h):
    """`RegionMask` regions by clipping every region and dropping the zero-area ones."""
    return tuple(c for c in (r.clip(frame_w, frame_h) for r in regions) if c.area > 0)


def reference_from_boxes(boxes, frame_w, frame_h, margin):
    """`RegionMask.from_boxes` regions with three boxes per region: grown, clipped, kept."""
    grown = [BoundingBox(b.x1 - margin, b.y1 - margin, b.x2 + margin, b.y2 + margin) for b in boxes]
    return reference_clip_regions(grown, frame_w, frame_h)


def reference_detect(source, frame_index, mask):
    """`FileBackedSource.detect` with the overlap fraction taken for every detection."""
    return [
        d
        for d in source.store.get(frame_index)
        if mask_overlap_fraction(d.box, mask) >= MASK_MIN_OVERLAP
    ]


def reference_iou(a, b):
    """`iou` through the `area` property and builtin min/max."""
    area_a, area_b = a.area, b.area
    if area_a <= 0.0 or area_b <= 0.0:
        return 0.0
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (area_a + area_b - inter)


def reference_nms(dets, threshold):
    """NMS rebuilding each candidate's rival list from everything of its class kept so far."""
    kept = []
    for d in sorted(dets, key=score_order):
        rivals = [k for k in kept if k.class_id == d.class_id]
        if all(reference_iou(d.box, k.box) <= threshold for k in rivals):
            kept.append(d)
    return kept


class ReferenceGt(NamedTuple):
    """A ground truth flagged as `qualifying`, an ignored box, or a don't-care `region`."""

    track_id: int
    box: BoundingBox
    qualifying: bool
    region: bool = False


def split_gts(gts):
    """`match_frame`'s qualifying (track id, box) pairs, ignored boxes and regions, in order."""
    return (
        [(g.track_id, g.box) for g in gts if g.qualifying],
        [g.box for g in gts if not g.qualifying and not g.region],
        [g.box for g in gts if g.region],
    )


def reference_match_frame(gts, dets, iou_threshold):
    """`match_frame` as it was on one flagged list: it re-splits the list, then matches.

    Returns (tp, fp) as `match_frame` does.
    """
    qualifying = [g for g in gts if g.qualifying]
    ignored_boxes = [g for g in gts if not g.qualifying and not g.region]
    regions = [g for g in gts if g.region]

    claimed: set[int] = set()
    claimed_ignored: set[int] = set()
    tp, fp = [], []
    for d in sorted(dets, key=score_order):
        best = None
        for idx, g in enumerate(qualifying):
            if idx in claimed:
                continue
            v = iou(d.box, g.box)
            if v >= iou_threshold and (best is None or v > best[0]):
                best = (v, idx)
        if best is not None:
            claimed.add(best[1])
            tp.append((d, qualifying[best[1]].track_id))
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
        if not absorbed:
            fp.append(d)
    return tp, fp


def reference_associate(predictions, detections, beta):
    """`associate` on a numpy cost matrix through scipy's solver, for every input."""
    if not predictions or not detections:
        return [], [tid for tid, _ in predictions], list(range(len(detections)))

    det_order = _canonical_det_order(detections)
    cost = np.zeros((len(predictions), len(detections)))
    for ti, (_, box) in enumerate(predictions):
        for ci, di in enumerate(det_order):
            v = iou(box, detections[di].box)
            if v > beta:
                cost[ti, ci] = -v

    rows, cols = linear_sum_assignment(cost)
    matches = []
    matched_tracks = set()
    matched_dets = set()
    for r, c in zip(rows, cols):
        if cost[r, c] < 0:
            matches.append((predictions[r][0], det_order[c]))
            matched_tracks.add(r)
            matched_dets.add(c)

    matches.sort()
    lost = sorted(predictions[r][0] for r in range(len(predictions)) if r not in matched_tracks)
    emerging = [det_order[c] for c in range(len(detections)) if c not in matched_dets]
    return matches, lost, emerging


def reference_emit(tracks, config, frame_w, frame_h, frame_index):
    """`Tracker` emission clipping every prediction and reading areas off the boxes."""
    out = []
    for t in tracks:
        box = predict(t)
        if box.width < config.min_width or box.area <= 0:
            continue
        clipped = box.clip(frame_w, frame_h)
        if 1.0 - clipped.area / box.area > config.boundary_chop_fraction:
            continue
        if clipped.area <= 0:
            continue
        out.append(Detection(clipped, t.class_id, 1.0, frame_index))
    out.sort(key=score_order)
    return out


def reference_precision_recall_at(data, threshold):
    """`precision_recall_at` by rescanning every label: (precision or None, recall)."""
    tp = sum(1 for l in data.labels if l.is_tp and l.score >= threshold)
    fp = sum(1 for l in data.labels if not l.is_tp and l.score >= threshold)
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / data.n_pos if data.n_pos else 0.0
    return precision, recall


def reference_delay_from_labels(data, threshold):
    """`delay_from_labels` by rescanning every label: (mean delay or None, never detected).

    A never-detected track contributes its `TrackDelayInfo.length`.
    """
    if not data.tracks:
        return None, 0
    first_tp = {}
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


def box_center(box: BoundingBox) -> tuple[float, float]:
    """(cx, cy), the midpoint of `box`'s corners."""
    return (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0


def reference_box_at(obj, frame):
    """The scripted, unclipped box of `obj` at `frame`, built as BoundingBox operations."""
    age = frame - obj.entry_frame
    cx, cy = box_center(obj.box)
    width = obj.box.width + obj.velocity[2] * age
    height = width * (obj.box.height / obj.box.width)
    return BoundingBox.from_center(
        cx + obj.velocity[0] * age, cy + obj.velocity[1] * age, max(width, 0.0), max(height, 0.0)
    )


def reference_generate_synthetic(scenario):
    """`generate_synthetic` as numpy array operations and BoundingBox methods, draw by draw."""
    meta = scenario.meta
    rng = np.random.default_rng(scenario.seed)
    class_names = sorted({o.class_name.strip().lower() for o in scenario.objects})
    class_map = ClassMap(class_names)

    tracks = []
    live = {}
    for tid, obj in enumerate(scenario.objects, start=1):
        class_id = class_map.id_of(obj.class_name)
        entries = []
        for frame in range(obj.entry_frame, min(obj.exit_frame, meta.frame_count - 1) + 1):
            scripted = reference_box_at(obj, frame)
            clipped = scripted.clip(meta.frame_w, meta.frame_h)
            if clipped.area <= 0 or scripted.area <= 0:
                continue
            entries.append(GtEntry(frame, clipped, truncated=1.0 - clipped.area / scripted.area))
            live.setdefault(frame, []).append((entries[-1], class_id))
        if entries:
            tracks.append(GroundTruthTrack(tid, class_id, entries))

    stores = {name: DetectionStore() for name in sorted(scenario.sources)}
    for frame in range(meta.frame_count):
        for source_name in sorted(scenario.sources):
            noise = scenario.sources[source_name]
            store = stores[source_name]
            for entry, class_id in live.get(frame, ()):
                if rng.random() < noise.miss_prob:
                    continue
                corners = np.array([entry.box.x1, entry.box.y1, entry.box.x2, entry.box.y2])
                corners = corners + rng.normal(0.0, noise.jitter, size=4)
                x1, x2 = sorted((corners[0], corners[2]))
                y1, y2 = sorted((corners[1], corners[3]))
                box = BoundingBox(x1, y1, x2, y2).clip(meta.frame_w, meta.frame_h)
                score = float(np.clip(rng.normal(noise.score_mean, noise.score_sigma), 0.01, 0.999))
                if box.area > 0:
                    store.add(Detection(box, class_id, score, frame))
            for _ in range(int(rng.poisson(noise.fp_per_frame))):
                w = rng.uniform(20.0, 120.0)
                h = w * rng.uniform(0.5, 2.0)
                cx = rng.uniform(0.0, meta.frame_w)
                cy = rng.uniform(0.0, meta.frame_h)
                box = BoundingBox.from_center(cx, cy, w, h).clip(meta.frame_w, meta.frame_h)
                score = float(
                    np.clip(rng.normal(noise.fp_score_mean, noise.fp_score_sigma), 0.01, 0.999)
                )
                class_id = class_map.id_of(class_names[int(rng.integers(len(class_names)))])
                if box.area > 0:
                    store.add(Detection(box, class_id, score, frame))

    return SyntheticData(meta, KittiLabels(tracks=tracks, dontcare_by_frame={}), stores, class_map)


def _reference_data_lines(path):
    for lineno, raw in enumerate(read_text(path, "file").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _reference_float(token, what, path, lineno):
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"bad {what} {token!r}", str(path), lineno) from None
    if math.isnan(value) or math.isinf(value):
        raise DataError(f"non-finite {what} {token!r}", str(path), lineno)
    return value


def _reference_int(token, what, path, lineno):
    try:
        return int(token)
    except ValueError:
        raise DataError(f"bad {what} {token!r}", str(path), lineno) from None


def reference_parse_detections(path, class_map, frame_count=None):
    """`parse_detections` field by field, every check in turn on every line."""
    path = Path(path)
    by_frame = {}
    for lineno, fields in _reference_data_lines(path):
        if len(fields) != 7:
            raise DataError(f"expected 7 fields, got {len(fields)}", str(path), lineno)
        frame = _reference_int(fields[0], "frame index", path, lineno)
        if frame_count is not None and frame >= frame_count:
            raise DataError(
                f"frame {frame} is past the sequence's {frame_count} frames", str(path), lineno
            )
        score = _reference_float(fields[2], "score", path, lineno)
        corners = [_reference_float(t, "coordinate", path, lineno) for t in fields[3:7]]
        try:
            det = Detection(BoundingBox(*corners), class_map.id_of(fields[1]), score, frame)
        except ValueError as exc:
            raise DataError(str(exc), str(path), lineno) from None
        by_frame.setdefault(frame, []).append(det)
    return DetectionStore(by_frame)


def reference_parse_kitti_tracking_labels(path, class_map):
    """`parse_kitti_tracking_labels` field by field, every check in turn on every line."""
    path = Path(path)
    entries = {}
    track_class = {}
    dontcare = {}
    for lineno, fields in _reference_data_lines(path):
        if len(fields) < 17:
            raise DataError(f"expected >= 17 fields, got {len(fields)}", str(path), lineno)
        frame = _reference_int(fields[0], "frame index", path, lineno)
        track_id = _reference_int(fields[1], "track id", path, lineno)
        class_id = class_map.id_of(fields[2])
        truncated = _reference_float(fields[3], "truncation", path, lineno)
        occluded = _reference_int(fields[4], "occlusion", path, lineno)
        corners = [_reference_float(t, "coordinate", path, lineno) for t in fields[6:10]]
        try:
            entry = GtEntry(frame, BoundingBox(*corners), truncated, occluded)
        except ValueError as exc:
            raise DataError(str(exc), str(path), lineno) from None
        if class_id == DONTCARE_ID:
            dontcare.setdefault(frame, []).append(entry.box)
            continue
        prior = entries.setdefault(track_id, [])
        if prior and frame <= prior[-1].frame_index:
            raise DataError(
                f"track {track_id}: frame {frame} not after {prior[-1].frame_index}",
                str(path),
                lineno,
            )
        if track_id in track_class and class_id != track_class[track_id]:
            raise DataError(
                f"track {track_id}: class {class_map.name_of(class_id)!r} after "
                f"{class_map.name_of(track_class[track_id])!r}",
                str(path),
                lineno,
            )
        prior.append(entry)
        track_class[track_id] = class_id
    tracks = [GroundTruthTrack(tid, track_class[tid], entries[tid]) for tid in sorted(entries)]
    return KittiLabels(tracks, dontcare)


def _reference_box_order(box):
    return (box.x1, box.y1, box.area, box.x2, box.y2)


def reference_write_mask_dump(results, path):
    """`write_mask_dump` sorting each kind by a key function and formatting every row anew."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# frame kind x1 y1 x2 y2\n")
        for r in results:
            per_kind = (
                ("tracker", [d.box for d in r.tracker_boxes]),
                ("proposal", [d.box for d in r.proposal_boxes]),
                ("refine", [d.box for d in r.refine_proposals]),
                ("mask", list(r.mask.regions)),
            )
            for kind, boxes in per_kind:
                for b in sorted(boxes, key=_reference_box_order):
                    fh.write(f"{r.frame_index} {kind} {b.x1} {b.y1} {b.x2} {b.y2}\n")


def reference_parser() -> argparse.ArgumentParser:
    """The CLI's parser with all four subparsers: the oracle of `cli._build_parser`."""
    parser = cli._Parser(prog="trackcascade", description=cli.__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {cli.__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=cli._Parser)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config",
        default=os.environ.get(cli.CONFIG_ENV),
        help=f"config file (default: ${cli.CONFIG_ENV})",
    )
    common.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value; repeatable",
    )

    run = sub.add_parser("run", parents=[common], help="run the cascade over sequences")
    run.add_argument("--sequence", action="append", required=True, help="sequence directory")
    run.add_argument(
        "--mode",
        choices=MODES,
        help="same as --set pipeline.mode=MODE, and applied after every --set",
    )
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--dump-masks", action="store_true", help="also dump per-frame region boxes")
    run.add_argument("--force", action="store_true", help="overwrite an existing output directory")

    ev = sub.add_parser("eval", parents=[common], help="evaluate detections against ground truth")
    ev.add_argument("--gt", required=True, help="KITTI tracking label file")
    ev.add_argument("--det", required=True, help="detections file")
    ev.add_argument("--out", help="directory for curve data and manifest")
    ev.add_argument("--force", action="store_true")

    cr = sub.add_parser("cost-report", help="op break-down from run outputs")
    cr.add_argument("runs", nargs="+", help="run output directories")

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic sequence")
    gen.add_argument("--scenario", required=True, help="scenario file")
    gen.add_argument("--out", required=True, help="output sequence directory")
    gen.add_argument("--force", action="store_true")
    return parser
