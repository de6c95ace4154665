import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcascade.geometry import BoundingBox, Detection, iou, left_sum
from trackcascade.ingest import GroundTruthTrack, GtEntry
from trackcascade.metrics import (
    DIFFICULTY_PRESETS,
    ClassEvalData,
    DetLabel,
    EvalConfig,
    TrackDelayInfo,
    average_precision,
    delay_from_labels,
    evaluate_classes,
    find_t_beta,
    label_class_detections,
    match_frame,
    mean_delay,
    precision_recall_at,
)

from conftest import (
    ReferenceGt,
    python312_sum,
    reference_delay_from_labels,
    reference_match_frame,
    reference_precision_recall_at,
    split_gts,
)

ALL = DIFFICULTY_PRESETS["all"]


def det(x1, y1, x2, y2, score=0.9, class_id=0, frame=0):
    return Detection(BoundingBox(x1, y1, x2, y2), class_id, score, frame)


def gt(x1, y1, x2, y2, track_id=1, qualifying=True, region=False):
    return ReferenceGt(track_id, BoundingBox(x1, y1, x2, y2), qualifying, region)


def match(gts, dets, iou_threshold):
    """`match_frame` of flagged ground truths: (tp, fp)."""
    return match_frame(*split_gts(gts), dets, iou_threshold)


def track(track_id, frames, class_id=0, box=(100, 100, 200, 200), step=(0, 0)):
    entries = [
        GtEntry(f, BoundingBox(box[0] + step[0] * i, box[1] + step[1] * i,
                               box[2] + step[0] * i, box[3] + step[1] * i))
        for i, f in enumerate(frames)
    ]
    return GroundTruthTrack(track_id, class_id, entries)


def rand_box(rng, span=100.0):
    x1 = rng.uniform(0, span)
    y1 = rng.uniform(0, span)
    return BoundingBox(x1, y1, x1 + rng.uniform(5, 40), y1 + rng.uniform(5, 40))


class TestDifficultyFilter:
    @pytest.mark.parametrize("name", ["easy", "moderate", "hard"])
    def test_qualifies_up_to_each_bound(self, name):
        f = DIFFICULTY_PRESETS[name]

        def entry(width=10.0, height=f.min_size, truncated=f.max_truncation,
                  occluded=f.max_occlusion):
            return GtEntry(0, BoundingBox(0.0, 0.0, width, height), truncated, occluded)

        assert f.qualifies(entry())  # every value at its bound
        assert not f.qualifies(entry(height=math.nextafter(f.min_size, 0.0)))
        # The rule reads the height: a box wider than min_size but shorter fails.
        assert not f.qualifies(entry(width=2 * f.min_size, height=f.min_size - 1.0))
        assert not f.qualifies(entry(occluded=f.max_occlusion + 1))
        assert not f.qualifies(entry(truncated=math.nextafter(f.max_truncation, 1.0)))


class TestMatchFrame:
    def test_single_perfect_match(self):
        tp, fp = match([gt(0, 0, 10, 10)], [det(0, 0, 10, 10)], 0.7)
        assert len(tp) == 1 and fp == [] and _fn(tp, [gt(0, 0, 10, 10)]) == 0

    def test_second_detection_is_fp(self):
        dets = [det(0, 0, 10, 10, score=0.9), det(0, 0, 10, 10, score=0.8)]
        tp, fp = match([gt(0, 0, 10, 10)], dets, 0.7)
        assert len(tp) == 1 and tp[0][0].score == 0.9
        assert len(fp) == 1 and fp[0].score == 0.8

    def test_dontcare_absorbs_without_tp_or_fp(self):
        gts, dets = [gt(0, 0, 10, 10, qualifying=False)], [det(0, 0, 10, 10)]
        tp, fp = match(gts, dets, 0.5)
        assert tp == [] and fp == [] and _ignored(tp, fp, dets) == 1 and _fn(tp, gts) == 0

    def test_region_absorbs_by_intersection_over_area(self):
        region = gt(0, 0, 100, 100, qualifying=False, region=True)
        inside = det(10, 10, 20, 20)
        outside = det(200, 200, 220, 220)
        tp, fp = match([region], [inside, outside], 0.5)
        assert _ignored(tp, fp, [inside, outside]) == 1 and len(fp) == 1

    def test_never_double_claims(self):
        gts = [gt(0, 0, 10, 10, track_id=1), gt(20, 0, 30, 10, track_id=2)]
        dets = [det(0, 0, 10, 10, score=0.9), det(0, 0, 10, 10, score=0.8)]
        tp, fp = match(gts, dets, 0.5)
        assert len(tp) == 1 and len(fp) == 1 and _fn(tp, gts) == 1

    def test_against_greedy_oracle(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            gts = [gt(*_c(rand_box(rng)), track_id=i) for i in range(int(rng.integers(1, 6)))]
            dets = [
                det(*_c(rand_box(rng)), score=float(rng.uniform(0.1, 1)))
                for _ in range(int(rng.integers(1, 6)))
            ]
            tp, _ = match(gts, dets, 0.5)
            assert len(tp) == _greedy_tp_oracle(gts, dets, 0.5)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_the_flagged_record_matcher(self, data):
        # Every box comes from a small pool of lattice boxes, so equal boxes
        # (tied IoUs, contested ignored boxes), zero-area boxes and IoUs of
        # exactly a threshold are common; scores from a short list tie.
        coord = st.integers(0, 4).map(lambda v: v * 5.0)
        lattice = st.builds(lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
                            coord, coord, coord, coord)
        box = st.sampled_from(data.draw(st.lists(lattice, min_size=1, max_size=4)))
        kinds = data.draw(st.lists(st.sampled_from(["qualifying", "ignored", "region"]),
                                   max_size=6))
        gts = [ReferenceGt(i, data.draw(box), kind == "qualifying", kind == "region")
               for i, kind in enumerate(kinds)]
        score = st.sampled_from([0.3, 0.5, 0.9, 1.0])
        dets = data.draw(st.lists(st.builds(Detection, box, st.just(0), score, st.just(0)),
                                  max_size=7))
        threshold = data.draw(st.sampled_from([0.5, 0.75, 1.0]))

        tp, fp = match(gts, dets, threshold)
        want_tp, want_fp = reference_match_frame(gts, dets, threshold)
        assert [(id(d), t) for d, t in tp] == [(id(d), t) for d, t in want_tp]
        assert [id(d) for d in fp] == [id(d) for d in want_fp]

    def test_tied_scores_an_iou_at_the_threshold_and_a_zero_area_box(self):
        # Tied scores visit the smaller box first; it claims the track at an
        # IoU of exactly 0.5, the ignored box absorbs the exact match, and a
        # zero-area detection is never inside a region.
        small, exact, flat = det(0, 0, 10, 5, 0.5), det(0, 0, 10, 10, 0.5), det(5, 5, 5, 10)
        gts = [gt(0, 0, 10, 10), gt(0, 0, 10, 10, qualifying=False),
               gt(0, 0, 10, 10, qualifying=False, region=True)]
        assert iou(small.box, gts[0].box) == 0.5
        tp, fp = match(gts, [exact, flat, small], 0.5)
        assert tp == [(small, 1)] and fp == [flat]
        assert (tp, fp) == reference_match_frame(gts, [exact, flat, small], 0.5)


def _c(b):
    return b.x1, b.y1, b.x2, b.y2


def _fn(tp, gts):
    """Qualifying ground truths left unclaimed: each true positive claims one."""
    return sum(g.qualifying for g in gts) - len(tp)


def _ignored(tp, fp, dets):
    """Detections that matched only don't-care ground truth: neither TP nor FP."""
    return len(dets) - len(tp) - len(fp)


def _greedy_tp_oracle(gts, dets, thr):
    # independent dumb greedy: score order, claim best remaining gt
    remaining = {g.track_id: g.box for g in gts}
    tp = 0
    for d in sorted(dets, key=lambda d: (-d.score, d.box.x1, d.box.y1, d.box.area)):
        best_id, best_v = None, thr
        for tid, b in remaining.items():
            v = iou(d.box, b)
            if v >= best_v and (best_id is None or v > best_v):
                best_id, best_v = tid, v
        if best_id is not None:
            del remaining[best_id]
            tp += 1
    return tp


def data_from_labels(labels, n_pos, tracks=(), class_id=0):
    return ClassEvalData(class_id, sorted(labels, key=lambda l: -l.score), n_pos, list(tracks))


class TestAveragePrecision:
    def test_perfect_detector(self):
        labels = [DetLabel(0.9, True, 1, f) for f in range(5)]
        assert average_precision(data_from_labels(labels, 5)) == 1.0

    def test_fig4_values(self):
        # 3 TPs above 4 FPs: precision 1.0 up to recall 0.6, then drops
        labels = [DetLabel(s, True, 1, f) for s, f in [(0.9, 1), (0.85, 2), (0.8, 4)]]
        labels += [DetLabel(s, False, None, 0) for s in (0.3, 0.28, 0.26, 0.24)]
        data = data_from_labels(labels, 5)
        last = data.sweep[-1]
        assert data.precision(last) == pytest.approx(3 / 7, abs=1e-12)
        assert data.recall(last) == pytest.approx(0.6, abs=1e-12)
        assert average_precision(data) == pytest.approx(7 / 11)

    def test_tp_above_fp_single_gt(self):
        # the TP already reaches full recall, so interpolated precision is 1
        # at every grid point
        labels = [DetLabel(0.9, True, 1, 0), DetLabel(0.8, False, None, 0)]
        assert average_precision(data_from_labels(labels, 1)) == pytest.approx(1.0)

    def test_tp_above_fp_two_gts(self):
        # recall tops out at 0.5: grid points 0..0.5 see precision 1, rest 0
        labels = [DetLabel(0.9, True, 1, 0), DetLabel(0.8, False, None, 0)]
        assert average_precision(data_from_labels(labels, 2)) == pytest.approx(6 / 11)

    def test_no_ground_truth_is_undefined(self):
        labels = [DetLabel(0.9, False, None, 0)]
        assert average_precision(data_from_labels(labels, 0)) is None

    def test_high_fp_never_increases_ap(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            labels = [
                DetLabel(float(rng.uniform(0.1, 0.9)), bool(rng.random() < 0.6), i, 0)
                for i in range(int(rng.integers(1, 10)))
            ]
            n_pos = max(1, sum(1 for l in labels if l.is_tp) + int(rng.integers(0, 3)))
            base = average_precision(data_from_labels(labels, n_pos))
            worse = labels + [DetLabel(0.95, False, None, 0)]
            assert average_precision(data_from_labels(worse, n_pos)) <= base + 1e-12

    def test_all_points_variant_bounds_eleven_point(self):
        labels = [DetLabel(0.9, True, 1, 0), DetLabel(0.7, False, None, 0),
                  DetLabel(0.6, True, 2, 1), DetLabel(0.5, False, None, 1)]
        data = data_from_labels(labels, 3)
        ap_all = average_precision(data, recall_points=None)
        ap_11 = average_precision(data, recall_points=11)
        assert 0 <= ap_all <= 1 and 0 <= ap_11 <= 1


def ap_bruteforce(tracks, dets, iou_thr, n_pos, grid=11):
    """Independent oracle: re-match from scratch at every distinct threshold."""
    boxes_by_frame = {}
    for t in tracks:
        for e in t.frames:
            boxes_by_frame.setdefault(e.frame_index, []).append((t.track_id, e.box))
    points = []
    for thr in sorted({d.score for d in dets}):
        tp = fp = 0
        for frame in sorted({d.frame_index for d in dets} | set(boxes_by_frame)):
            remaining = dict(boxes_by_frame.get(frame, []))
            frame_dets = [d for d in dets if d.frame_index == frame and d.score >= thr]
            for d in sorted(frame_dets, key=lambda d: (-d.score, d.box.x1, d.box.y1, d.box.area)):
                best, best_v = None, iou_thr
                for tid, b in remaining.items():
                    v = iou(d.box, b)
                    if v >= best_v and (best is None or v > best_v):
                        best, best_v = tid, v
                if best is not None:
                    del remaining[best]
                    tp += 1
                else:
                    fp += 1
        if tp + fp:
            points.append((tp / n_pos, tp / (tp + fp)))
    total = 0.0
    for i in range(grid):
        r = i / (grid - 1)
        total += max((p for rec, p in points if rec >= r - 1e-9), default=0.0)
    return total / grid


class TestApOracle:
    def test_random_micro_instances(self):
        rng = np.random.default_rng(32)
        for _ in range(60):
            n_tracks = int(rng.integers(1, 5))
            tracks = []
            for tid in range(1, n_tracks + 1):
                start = int(rng.integers(0, 3))
                length = int(rng.integers(1, 4))
                b = rand_box(rng)
                tracks.append(track(tid, list(range(start, start + length)), box=_c(b)))
            dets = []
            for _ in range(int(rng.integers(1, 20))):
                frame = int(rng.integers(0, 6))
                if rng.random() < 0.5 and tracks:
                    src = tracks[int(rng.integers(len(tracks)))]
                    entry = src.frames[int(rng.integers(len(src.frames)))]
                    b = entry.box
                    jit = rng.uniform(-4, 4, size=4)
                    b = BoundingBox(
                        min(b.x1 + jit[0], b.x2 + jit[2]) , min(b.y1 + jit[1], b.y2 + jit[3]),
                        max(b.x1 + jit[0], b.x2 + jit[2]), max(b.y1 + jit[1], b.y2 + jit[3]),
                    )
                    frame = entry.frame_index
                else:
                    b = rand_box(rng)
                dets.append(Detection(b, 0, float(rng.uniform(0.05, 1.0)), frame))
            data = label_class_detections(tracks, dets, 0, 0.5)
            got = average_precision(data)
            expected = ap_bruteforce(tracks, dets, 0.5, data.n_pos)
            assert got == pytest.approx(expected, abs=1e-12)


def class_delay(tracks, dets, threshold, iou_threshold, difficulty=ALL):
    """Mean entry delay of one class's tracks at a score threshold.

    All detections are labelled once and the threshold is applied to the
    labels, as evaluate_classes does; greedy-by-score labelling is prefix
    stable, so this equals labelling only the detections above it.
    """
    (class_id,) = {t.class_id for t in tracks}
    data = label_class_detections(tracks, dets, class_id, iou_threshold, difficulty)
    mean, _ = delay_from_labels(data, threshold)
    return mean


class TestDelay:
    def test_detected_at_entry_frame(self):
        tracks = [track(1, [3, 4, 5])]
        dets = [det(100, 100, 200, 200, frame=3)]
        assert class_delay(tracks, dets, 0.0, 0.5) == 0.0

    def test_fig4_delay_is_one(self):
        tracks = [track(1, [0, 1, 2, 3, 4])]
        dets = [det(100, 100, 200, 200, frame=f) for f in (1, 2, 4)]
        assert class_delay(tracks, dets, 0.0, 0.5) == 1.0

    def test_never_detected_counts_full_length(self):
        tracks = [track(1, [0, 1, 2, 3, 4])]
        assert class_delay(tracks, [], 0.0, 0.5) == 5.0

    def test_never_detected_counts_span_of_qualifying_frames(self):
        # Under moderate only frames 0 and 10 qualify; frames 1-9 are 10 px tall.
        entries = [GtEntry(f, BoundingBox(100, 100, 200, 200 if f in (0, 10) else 110))
                   for f in range(11)]
        tracks = [GroundTruthTrack(1, 0, entries)]
        moderate = DIFFICULTY_PRESETS["moderate"]
        assert class_delay(tracks, [], 0.0, 0.5, moderate) == 11.0
        hit = [det(100, 100, 200, 200, frame=10)]
        assert class_delay(tracks, hit, 0.0, 0.5, moderate) == 10.0
        data = label_class_detections(tracks, hit, 0, 0.5, moderate)
        assert data.delay(data.row_at(0.0)) == 10.0 and data.delay(data.sweep[0]) == 11.0

    def test_threshold_zero_is_minimum(self):
        rng = np.random.default_rng(33)
        tracks = [track(1, list(range(6)))]
        dets = [
            det(100, 100, 200, 200, score=float(rng.uniform(0.2, 1)), frame=f)
            for f in range(6)
            if rng.random() < 0.7
        ]
        base = class_delay(tracks, dets, 0.0, 0.5)
        for t in [0.3, 0.5, 0.8, 0.95]:
            assert class_delay(tracks, dets, t, 0.5) >= base

    def test_raising_threshold_never_lowers_delay(self):
        tracks = [track(1, list(range(8))), track(2, list(range(2, 8)), box=(400, 100, 500, 200))]
        rng = np.random.default_rng(34)
        dets = []
        for t in tracks:
            for e in t.frames:
                if rng.random() < 0.8:
                    dets.append(Detection(e.box, 0, float(rng.uniform(0.2, 1)), e.frame_index))
        last = -1.0
        for thr in sorted({d.score for d in dets}):
            d = class_delay(tracks, dets, thr, 0.5)
            assert d >= last - 1e-12
            last = d

    def test_difficulty_filter_excludes_tracks(self):
        small = GroundTruthTrack(1, 0, [GtEntry(0, BoundingBox(0, 0, 10, 10))])
        hard = DIFFICULTY_PRESETS["hard"]  # min height 25
        assert class_delay([small], [], 0.0, 0.5, difficulty=hard) is None


class TestFindTBeta:
    def test_all_tp_returns_lowest_score(self):
        labels = [DetLabel(s, True, 1, 0) for s in (0.9, 0.5, 0.3)]
        data = data_from_labels(labels, 3)
        assert find_t_beta([data], 0.8) == 0.3

    def test_leftmost_crossing_matches_sweep(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            labels = [
                DetLabel(float(rng.uniform(0, 1)), bool(rng.random() < 0.7), i, 0)
                for i in range(int(rng.integers(2, 15)))
            ]
            data = data_from_labels(labels, max(1, sum(l.is_tp for l in labels)))
            beta = 0.8
            scores = sorted({l.score for l in labels})

            def precision_at(t):
                tp = sum(1 for l in labels if l.is_tp and l.score >= t)
                fp = sum(1 for l in labels if not l.is_tp and l.score >= t)
                return 1.0 if tp + fp == 0 else tp / (tp + fp)

            crossings = [t for t in scores if precision_at(t) >= beta]
            if crossings:
                assert find_t_beta([data], beta) == crossings[0]
            else:
                with pytest.raises(ValueError, match="maximum achievable"):
                    find_t_beta([data], beta)

    def test_unreachable_beta_names_maximum(self):
        labels = [DetLabel(0.9, False, None, 0), DetLabel(0.8, True, 1, 0)]
        with pytest.raises(ValueError, match="0.5"):
            find_t_beta([data_from_labels(labels, 1)], 0.99)


class TestMeanDelay:
    def test_single_class(self):
        tracks = [track(1, [0, 1, 2])]
        dets = [det(100, 100, 200, 200, score=0.9, frame=f) for f in (1, 2)]
        data = label_class_detections(tracks, dets, 0, 0.5)
        report = mean_delay([data], 0.8)
        assert report.mean_delay == 1.0
        assert report.per_class[0].counted_tracks == 1

    def test_two_class_arithmetic_mean(self):
        t0 = track(1, [0, 1, 2, 3, 4], class_id=0)
        t1 = track(2, [0, 1, 2, 3, 4], class_id=1, box=(400, 100, 500, 200))
        dets = [det(100, 100, 200, 200, 0.9, class_id=0, frame=f) for f in (2, 3, 4)]
        dets += [det(400, 100, 500, 200, 0.9, class_id=1, frame=4)]
        d0 = label_class_detections([t0], dets, 0, 0.5)
        d1 = label_class_detections([t1], dets, 1, 0.5)
        report = mean_delay([d0, d1], 0.8)
        assert report.per_class[0].mean_delay == 2.0
        assert report.per_class[1].mean_delay == 4.0
        assert report.mean_delay == pytest.approx(3.0)

    def test_refuses_without_tracks(self):
        data = data_from_labels([DetLabel(0.9, False, None, 0)], 0)
        with pytest.raises(ValueError, match="^no class has qualifying ground-truth tracks$"):
            mean_delay([data], 0.8)


class TestEvaluateClasses:
    def _fig4(self):
        tracks = [track(1, [0, 1, 2, 3, 4])]
        dets = [det(100, 100, 200, 200, s, frame=f) for s, f in [(0.9, 1), (0.85, 2), (0.8, 4)]]
        dets += [det(500, 100, 600, 200, s, frame=f)
                 for s, f in [(0.3, 0), (0.28, 1), (0.26, 2), (0.24, 3)]]
        return tracks, dets

    def test_fig4_report(self):
        tracks, dets = self._fig4()
        cfg = EvalConfig(match_iou={0: 0.7})
        report = evaluate_classes(tracks, dets, cfg, ALL)
        c = report.classes[0]
        assert c.base_recall == pytest.approx(0.6, abs=1e-12)
        assert c.base_precision == pytest.approx(3 / 7, abs=1e-12)
        assert c.base_delay == 1.0
        assert report.delay is not None
        assert report.delay.threshold == 0.8
        assert report.delay.mean_delay == 1.0

    def test_perfect_detections(self):
        tracks = [track(1, [0, 1, 2])]
        dets = [det(100, 100, 200, 200, 0.9, frame=f) for f in range(3)]
        report = evaluate_classes(tracks, dets, EvalConfig(match_iou={0: 0.7}), ALL)
        assert report.mean_ap == 1.0
        assert report.delay.mean_delay == 0.0

    def test_sparse_refuses_delay(self):
        tracks, dets = self._fig4()
        cfg = EvalConfig(match_iou={0: 0.7}, sparse_annotations=True)
        report = evaluate_classes(tracks, dets, cfg, ALL)
        assert report.delay is None and report.delay_error is None
        c = report.classes[0]
        assert c.base_delay is None
        assert c.curve and all(delay is None for _, _, _, delay in c.curve)
        assert c.ap is not None  # AP is still reported on the labeled frames

    def test_sparse_ap_uses_labeled_frames_only(self):
        # annotations exist only on frames 0 and 2; an FP on frame 1 must not count
        tracks = [GroundTruthTrack(1, 0, [GtEntry(0, BoundingBox(100, 100, 200, 200)),
                                          GtEntry(2, BoundingBox(100, 100, 200, 200))])]
        dets = [det(100, 100, 200, 200, 0.9, frame=0),
                det(100, 100, 200, 200, 0.9, frame=2),
                det(500, 100, 600, 200, 0.95, frame=1)]
        sparse = EvalConfig(match_iou={0: 0.7}, sparse_annotations=True)
        dense = EvalConfig(match_iou={0: 0.7})
        r_sparse = evaluate_classes(tracks, dets, sparse, ALL)
        r_dense = evaluate_classes(tracks, dets, dense, ALL)
        assert r_sparse.classes[0].ap == 1.0
        assert r_dense.classes[0].ap < 1.0

    def test_deterministic_under_detection_permutation(self):
        tracks, dets = self._fig4()
        cfg = EvalConfig(match_iou={0: 0.7})
        base = evaluate_classes(tracks, dets, cfg, ALL)
        rng = np.random.default_rng(36)
        for _ in range(5):
            shuffled = [dets[i] for i in rng.permutation(len(dets))]
            again = evaluate_classes(tracks, shuffled, cfg, ALL)
            assert again.classes[0].ap == base.classes[0].ap
            assert again.delay.mean_delay == base.delay.mean_delay
            assert again.classes[0].curve == base.classes[0].curve

    def test_dontcare_alias_absorbs(self):
        car = track(1, [0], class_id=0)
        van = track(2, [0], class_id=2, box=(400, 100, 500, 200))
        dets = [det(100, 100, 200, 200, 0.9, frame=0), det(400, 100, 500, 200, 0.8, frame=0)]
        cfg = EvalConfig(match_iou={0: 0.7}, dontcare_classes={0: frozenset({2})})
        report = evaluate_classes([car, van], dets, cfg, ALL)
        assert report.classes[0].ap == 1.0  # van det ignored, not an FP


# --- the one-pass sweep against the per-threshold rescans -----------------

# Few distinct scores, so tied groups are common.
SCORES = st.sampled_from([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95])
PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def det_labels(draw):
    score = draw(SCORES)
    frame = draw(st.integers(0, 12))
    if draw(st.booleans()):
        # Track 5 is never counted: a true positive whose track is not a delay track.
        return DetLabel(score, True, draw(st.integers(1, 5)), frame)
    return DetLabel(score, False, None, frame)


@st.composite
def class_data(draw, class_id=0):
    tracks = [
        TrackDelayInfo(tid, draw(st.integers(0, 5)), draw(st.integers(1, 6)))
        for tid in range(1, draw(st.integers(0, 4)) + 1)
    ]
    labels = draw(st.lists(det_labels(), max_size=15))
    # Sorted as label_class_detections sorts: a track's hits at different
    # scores land out of frame order.
    labels.sort(key=lambda l: (-l.score, l.frame_index))
    n_pos = sum(l.is_tp for l in labels) + draw(st.integers(0, 3))
    return ClassEvalData(class_id, labels, n_pos, tracks)


def class_list(min_classes=2, max_classes=3):
    return st.integers(min_classes, max_classes).flatmap(
        lambda n: st.tuples(*(class_data(class_id=c) for c in range(n)))
    )


def t_beta_bruteforce(per_class, beta):
    """(t_beta, None) or (None, best mean) by rescanning at every score."""
    best = None
    for t in sorted({l.score for d in per_class for l in d.labels}):
        precisions = [reference_precision_recall_at(d, t)[0] for d in per_class]
        mean = left_sum(1.0 if p is None else p for p in precisions) / len(per_class)
        if mean >= beta:
            return t, None
        best = mean if best is None else max(best, mean)
    return None, best


def ap_bruteforce_envelope(data, recall_points):
    """AP from the per-threshold rescans, with the O(P^2) precision envelope."""
    if data.n_pos == 0:
        return None
    points = []
    for t in sorted({l.score for l in data.labels}, reverse=True):
        precision, recall = reference_precision_recall_at(data, t)
        points.append((precision, recall))
    if not points:
        return 0.0
    if recall_points is not None:
        grid = [i / (recall_points - 1) for i in range(recall_points)]
        total = 0.0
        for r in grid:
            total += max((p for p, rec in points if rec >= r - 1e-9), default=0.0)
        return total / len(grid)
    by_recall = sorted(points, key=lambda p: p[1])
    ap = 0.0
    prev_recall = 0.0
    for i, (_, recall) in enumerate(by_recall):
        ap += (recall - prev_recall) * max(p for p, _ in by_recall[i:])
        prev_recall = recall
    return ap


class TestSweepOracle:
    @PROPERTY
    @given(class_data(), st.lists(st.floats(0.0, 1.0), max_size=5))
    def test_rows_equal_rescans(self, data, extra_thresholds):
        thresholds = [row.score for row in data.sweep[1:]] + extra_thresholds + [0.0, 1.0]
        for t in thresholds:
            row = data.row_at(t)
            expected = reference_precision_recall_at(data, t)
            assert (data.precision(row), data.recall(row)) == expected
            assert precision_recall_at(data, t) == expected
            expected = reference_delay_from_labels(data, t)
            assert (data.delay(row), row.never) == expected
            assert delay_from_labels(data, t) == expected

    @PROPERTY
    @given(class_list(1, 3), st.sampled_from([0.3, 0.5, 0.8, 0.95]))
    def test_find_t_beta_equals_bruteforce(self, per_class, beta):
        per_class = list(per_class)
        if not any(d.labels for d in per_class):
            with pytest.raises(ValueError, match="no detections"):
                find_t_beta(per_class, beta)
            return
        t, best = t_beta_bruteforce(per_class, beta)
        if t is None:
            with pytest.raises(ValueError, match=f"never reaches .* {best:.6f}$"):
                find_t_beta(per_class, beta)
        else:
            assert find_t_beta(per_class, beta) == t

    @PROPERTY
    @given(class_list(), st.sampled_from([0.3, 0.5, 0.8]))
    def test_mean_delay_at_t_beta_equals_rescan(self, per_class, beta):
        counted = [d for d in per_class if d.tracks]
        if not counted:
            with pytest.raises(ValueError, match="^no class has qualifying ground-truth tracks$"):
                mean_delay(list(per_class), beta)
            return
        t, _ = t_beta_bruteforce(counted, beta)
        if t is None:
            with pytest.raises(ValueError):
                mean_delay(list(per_class), beta)
            return
        report = mean_delay(list(per_class), beta)
        assert report.threshold == t
        assert sorted(report.per_class) == [d.class_id for d in counted]
        for d in counted:
            c = report.per_class[d.class_id]
            assert (c.mean_delay, c.never_detected) == reference_delay_from_labels(d, t)
            assert c.counted_tracks == len(d.tracks)
        assert report.mean_delay == left_sum(
            reference_delay_from_labels(d, t)[0] for d in counted
        ) / len(counted)

    @PROPERTY
    @given(class_data(), st.sampled_from([None, 11, 2]))
    def test_ap_equals_envelope_bruteforce(self, data, recall_points):
        assert average_precision(data, recall_points) == ap_bruteforce_envelope(
            data, recall_points
        )

    @PROPERTY
    @given(class_data(), st.sampled_from([None, 11, 2]))
    def test_ap_equals_envelope_bruteforce_under_the_312_sum(self, data, recall_points):
        with python312_sum():
            assert average_precision(data, recall_points) == ap_bruteforce_envelope(
                data, recall_points
            )


@st.composite
def scenes(draw):
    """Tracks of two classes side by side, with hits, duplicates and clutter."""
    tracks, dets = [], []
    for tid in range(1, draw(st.integers(1, 4)) + 1):
        class_id = draw(st.integers(0, 1))
        height = draw(st.sampled_from([20, 50]))  # 20 fails "moderate": a don't-care
        box = (200 * tid, 100, 200 * tid + 60, 100 + height)
        start = draw(st.integers(0, 4))
        frames = list(range(start, start + draw(st.integers(1, 5))))
        tracks.append(track(tid, frames, class_id=class_id, box=box))
        for f in frames:
            for _ in range(draw(st.integers(0, 2))):
                dets.append(det(*box, score=draw(SCORES), class_id=class_id, frame=f))
    for _ in range(draw(st.integers(0, 6))):
        x = 2000 + 100 * draw(st.integers(0, 3))
        dets.append(det(x, 300, x + 40, 340, score=draw(SCORES),
                        class_id=draw(st.integers(0, 1)), frame=draw(st.integers(0, 8))))
    return tracks, dets


class TestEvaluateClassesOracle:
    @PROPERTY
    @given(scenes(), st.sampled_from(["all", "moderate"]))
    def test_curve_and_base_point_equal_rescans(self, scene, difficulty_name):
        tracks, dets = scene
        difficulty = DIFFICULTY_PRESETS[difficulty_name]
        report = evaluate_classes(tracks, dets, EvalConfig(match_iou={0: 0.5, 1: 0.5}),
                                  difficulty)
        for class_id, c in report.classes.items():
            data = label_class_detections(tracks, dets, class_id, 0.5, difficulty)
            scores = sorted({l.score for l in data.labels})
            assert c.curve == [
                (t, *reference_precision_recall_at(data, t),
                 reference_delay_from_labels(data, t)[0])
                for t in scores
            ]
            base_t = scores[0] if scores else 0.0
            assert (c.base_precision, c.base_recall) == reference_precision_recall_at(data, base_t)
            assert c.base_delay == reference_delay_from_labels(data, base_t)[0]
