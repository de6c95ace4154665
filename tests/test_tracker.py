import itertools

import numpy as np
import pytest

from trackcascade.geometry import BoundingBox, Detection, iou
from trackcascade.tracker import (
    Tracker,
    TrackerConfig,
    TrackState,
    associate,
    predict,
    update_motion,
)

FRAME_W, FRAME_H = 1242.0, 375.0


def det(x1, y1, x2, y2, score=0.9, class_id=0, frame=0):
    return Detection(BoundingBox(x1, y1, x2, y2), class_id, score, frame)


def rand_box(rng):
    x1 = rng.uniform(0, 80)
    y1 = rng.uniform(0, 80)
    return BoundingBox(x1, y1, x1 + rng.uniform(2, 30), y1 + rng.uniform(2, 30))


def brute_force_best_total(matrix, beta):
    """Max total IoU over injective assignments whose pairs all exceed beta."""
    n, m = matrix.shape
    best = 0.0
    for k in range(min(n, m) + 1):
        for tracks in itertools.combinations(range(n), k):
            for dets in itertools.permutations(range(m), k):
                if all(matrix[t, d] > beta for t, d in zip(tracks, dets)):
                    total = sum(matrix[t, d] for t, d in zip(tracks, dets))
                    best = max(best, total)
    return best


class TestAssociate:
    def test_perfect_match(self):
        preds = [(1, BoundingBox(0, 0, 10, 10))]
        dets = [det(0, 0, 10, 10)]
        matches, lost, emerging = associate(preds, dets, 0.0)
        assert matches == [(1, 0)] and lost == [] and emerging == []

    def test_non_relevant_pair_severed(self):
        preds = [(1, BoundingBox(0, 0, 10, 10))]
        dets = [det(100, 100, 110, 110)]
        matches, lost, emerging = associate(preds, dets, 0.0)
        assert matches == [] and lost == [1] and emerging == [0]

    def test_empty_inputs(self):
        assert associate([], [], 0.0) == ([], [], [])
        assert associate([(3, BoundingBox(0, 0, 1, 1))], [], 0.0) == ([], [3], [])

    def test_buckets_partition(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            preds = [(i, rand_box(rng)) for i in range(int(rng.integers(0, 5)))]
            dets = [det(*_c(rand_box(rng))) for _ in range(int(rng.integers(0, 5)))]
            matches, lost, emerging = associate(preds, dets, 0.0)
            track_ids = sorted([m[0] for m in matches] + lost)
            det_ids = sorted([m[1] for m in matches] + emerging)
            assert track_ids == [i for i, _ in preds]
            assert det_ids == list(range(len(dets)))

    def test_matched_pairs_exceed_beta(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            beta = float(rng.choice([0.0, 0.2, 0.5]))
            preds = [(i, rand_box(rng)) for i in range(4)]
            dets = [det(*_c(rand_box(rng))) for _ in range(4)]
            matches, _, _ = associate(preds, dets, beta)
            for tid, di in matches:
                assert iou(dict(preds)[tid], dets[di].box) > beta

    def test_total_iou_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n, m = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            beta = float(rng.choice([0.0, 0.1, 0.3]))
            preds = [(i, rand_box(rng)) for i in range(n)]
            dets = [det(*_c(rand_box(rng))) for _ in range(m)]
            matrix = np.array([[iou(b, d.box) for d in dets] for _, b in preds])
            matches, _, _ = associate(preds, dets, beta)
            total = sum(matrix[tid, di] for tid, di in matches)
            assert total == pytest.approx(brute_force_best_total(matrix, beta), abs=1e-12)

    def test_invariant_under_detection_permutation(self):
        rng = np.random.default_rng(10)
        preds = [(i, rand_box(rng)) for i in range(5)]
        dets = [det(*_c(rand_box(rng))) for _ in range(6)]
        matches, lost, emerging = associate(preds, dets, 0.0)
        base = ({tid: dets[di] for tid, di in matches}, set(lost), {dets[i] for i in emerging})
        for _ in range(10):
            perm = list(rng.permutation(len(dets)))
            shuffled = [dets[i] for i in perm]
            m2, l2, e2 = associate(preds, shuffled, 0.0)
            got = ({tid: shuffled[di] for tid, di in m2}, set(l2), {shuffled[i] for i in e2})
            assert got == base

    def test_emerging_order_invariant_under_detection_permutation(self):
        # Emerging detections take new track ids in this order, so the input order must not show.
        preds = [(1, BoundingBox(0, 0, 10, 10))]
        dets = [det(0, 0, 10, 10), det(50, 50, 60, 60, score=0.9),
                det(50, 50, 60, 60, score=0.6), det(20, 0, 30, 10)]
        orders = set()
        for perm in itertools.permutations(dets):
            _, _, emerging = associate(preds, perm, 0.0)
            orders.add(tuple(perm[i] for i in emerging))
        assert len(orders) == 1 and len(orders.pop()) == 3


def _c(b):
    return b.x1, b.y1, b.x2, b.y2


def make_state(pos, motion=(0.0, 0.0, 0.0), aspect=1.0, confidence=1, track_id=1):
    return TrackState(pos, motion, aspect, confidence, class_id=0, track_id=track_id)


class TestMotion:
    def test_stationary_object_keeps_zero_motion(self):
        s = make_state((10, 10, 20))
        out = update_motion(s, (10, 10, 20), 1.0, TrackerConfig())
        assert out.motion == (0, 0, 0)

    def test_displacement_blended(self):
        s = make_state((0, 0, 10))
        out = update_motion(s, (10, 0, 10), 1.0, TrackerConfig(decay_eta=0.7))
        assert out.motion == pytest.approx((3.0, 0.0, 0.0))
        assert out.position == (10, 0, 10)

    def test_eta_one_keeps_motion(self):
        s = make_state((0, 0, 10), motion=(2.0, -1.0, 0.5))
        out = update_motion(s, (50, 50, 12), 1.0, TrackerConfig(decay_eta=1.0))
        assert out.motion == (2.0, -1.0, 0.5)

    def test_convex_combination(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            eta = float(rng.uniform(0, 1))
            s = make_state(tuple(rng.uniform(10, 50, 3)), tuple(rng.uniform(-5, 5, 3)))
            new = tuple(p + d for p, d in zip(s.position, rng.uniform(-5, 5, 3)))
            out = update_motion(s, new, 1.0, TrackerConfig(decay_eta=eta))
            for m_old, m_new, p_old, p_new in zip(s.motion, out.motion, s.position, new):
                displacement = p_new - p_old
                lo, hi = min(m_old, displacement), max(m_old, displacement)
                assert lo - 1e-9 <= m_new <= hi + 1e-9

    def test_confidence_capped(self):
        cfg = TrackerConfig(confidence_cap=3)
        s = TrackState((0, 0, 10), (0, 0, 0), 1.0, 3, 0, 1)
        out = update_motion(s, (0, 0, 10), 1.0, cfg)
        assert out.confidence == 3


class TestPredict:
    def test_arithmetic(self):
        s = make_state((100, 100, 20), motion=(5.0, 0.0, 0.0), aspect=2.0)
        box = predict(s)
        assert (box.x1, box.y1, box.x2, box.y2) == (95, 80, 115, 120)

    def test_zero_motion_identity(self):
        s = make_state((50, 50, 10), aspect=1.0)
        assert predict(s) == BoundingBox(45, 45, 55, 55)


def simple_tracker(**kwargs) -> Tracker:
    return Tracker(TrackerConfig(**kwargs), FRAME_W, FRAME_H)


class TestStep:
    def test_bootstrap_emits_prediction_at_same_box(self):
        tracker = simple_tracker()
        preds = tracker.step(0, [det(100, 100, 200, 200)])
        assert len(preds) == 1
        assert preds[0].box == BoundingBox(100, 100, 200, 200)
        assert preds[0].score == 1.0 and preds[0].frame_index == 1

    def test_constant_velocity_motion_converges(self):
        # detections march +10 px/frame; motion after two updates is 5.1
        tracker = simple_tracker()
        for frame, x in enumerate([0.0, 10.0, 20.0]):
            preds = tracker.step(frame, [det(x, 100, x + 100, 200)])
        assert len(preds) == 1
        assert preds[0].box.x1 == pytest.approx(25.1)
        (track,) = tracker.tracks
        assert track.motion[0] == pytest.approx(5.1)

    def test_small_prediction_filtered(self):
        tracker = simple_tracker(min_width=10.0)
        preds = tracker.step(0, [det(0, 0, 8, 8)])
        assert preds == []
        assert len(tracker.tracks) == 1  # track survives, only the emission is filtered

    def test_boundary_chopped_prediction_filtered(self):
        tracker = simple_tracker(boundary_chop_fraction=0.5)
        # moving left fast: prediction centred far outside the frame
        tracker.step(0, [det(0, 100, 60, 160)])
        preds = tracker.step(1, [])
        # lost track coasts; box half inside stays, anything worse is dropped
        assert all(p.box.x1 >= 0 for p in preds)

    def test_miss_then_rematch_at_extrapolated_position(self):
        tracker = simple_tracker(confidence_cap=3)
        tracker.step(0, [det(0, 100, 100, 200)])
        tracker.step(1, [det(10, 100, 110, 200)])
        preds_before = tracker.step(2, [])  # miss: coast with frozen motion
        assert len(preds_before) == 1
        # prediction advanced a further motion step beyond the coasted position
        assert preds_before[0].box.x1 == pytest.approx(13 + 3)

    def test_track_dies_after_conf_plus_one_misses(self):
        tracker = simple_tracker(confidence_cap=3)
        tracker.step(0, [det(0, 0, 50, 50)])  # confidence 1
        tracker.step(1, [det(0, 0, 50, 50)])  # confidence 2
        tracker.step(2, [])  # 1
        tracker.step(3, [])  # 0
        assert len(tracker.tracks) == 1
        tracker.step(4, [])  # -1: discarded
        assert tracker.tracks == ()

    def test_matched_every_frame_never_dies(self):
        tracker = simple_tracker()
        for frame in range(50):
            tracker.step(frame, [det(0, 0, 50, 50, frame=frame)])
            assert len(tracker.tracks) == 1

    def test_detection_whose_aspect_underflows_is_ignored(self):
        # height / width = 5e-324 / 10 underflows to 0.0, an aspect no track can hold
        tracker = simple_tracker()
        assert tracker.step(0, [det(10, 0, 20, 5e-324)]) == []
        assert tracker.tracks == ()

    def test_per_class_isolation(self):
        tracker = simple_tracker()
        tracker.step(0, [det(0, 0, 50, 50, class_id=0), det(0, 0, 50, 50, class_id=1)])
        assert len(tracker.tracks) == 2
        assert {t.class_id for t in tracker.tracks} == {0, 1}

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(12)
        frames = []
        for frame in range(20):
            frames.append(
                [det(*_c(rand_box(rng)), score=float(rng.uniform(0.5, 1)), frame=frame)
                 for _ in range(int(rng.integers(0, 6)))]
            )
        outs = []
        for _ in range(2):
            tracker = simple_tracker()
            outs.append([tracker.step(i, f) for i, f in enumerate(frames)])
        assert outs[0] == outs[1]

    def test_track_count_bounded(self):
        rng = np.random.default_rng(13)
        tracker = simple_tracker()
        for frame in range(15):
            dets = [det(*_c(rand_box(rng)), frame=frame) for _ in range(int(rng.integers(0, 5)))]
            before = len(tracker.tracks)
            tracker.step(frame, dets)
            assert len(tracker.tracks) <= before + len(dets)


class TestGeometricConvergence:
    @pytest.mark.parametrize("velocity", [1.0, 10.0])
    def test_prediction_error_decays_geometrically(self, velocity):
        eta = 0.7
        tracker = Tracker(TrackerConfig(decay_eta=eta), 10_000, 10_000)
        width = 100.0
        for k in range(21):
            x = 500.0 + velocity * k
            preds = tracker.step(k, [det(x, 500, x + width, 500 + width, frame=k)])
            if k == 0:
                continue
            true_next = 500.0 + velocity * (k + 1)
            error = abs(preds[0].box.x1 - true_next)
            assert error <= velocity * eta**k + 1e-9
