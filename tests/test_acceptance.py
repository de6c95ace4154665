"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` (or -rA) to see the lines.
"""

import itertools
import time

import numpy as np
import pytest

from trackcascade import (
    DIFFICULTY_PRESETS,
    BoundingBox,
    ClassMap,
    CostModelConfig,
    Detection,
    DetectionStore,
    EvalConfig,
    FileBackedSource,
    GroundTruthTrack,
    GtEntry,
    Pipeline,
    PipelineConfig,
    RegionMask,
    SequenceMeta,
    Tracker,
    TrackerConfig,
    associate,
    average_precision,
    estimate_time,
    evaluate_classes,
    generate_synthetic,
    greedy_merge,
    iou,
    label_class_detections,
    parse_detections,
    parse_kitti_tracking_labels,
    parse_meta,
    parse_scenario,
    refine_cost,
    write_detections,
    write_meta,
    write_tracks,
)
from trackcascade.cli import main as cli_main

from conftest import DATA, source_costs

ALL = DIFFICULTY_PRESETS["all"]


def _passed(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_1_fig4_oracle():
    started = time.monotonic()
    class_map = ClassMap(["car"])
    labels = parse_kitti_tracking_labels(DATA / "fig4_labels.txt", class_map)
    dets = parse_detections(DATA / "fig4_detections.txt", class_map).all()
    report = evaluate_classes(labels.tracks, dets, EvalConfig(match_iou={0: 0.7}), ALL)
    c = report.classes[0]
    assert c.base_recall == pytest.approx(0.6, abs=1e-12)
    assert c.base_precision == pytest.approx(3 / 7, abs=1e-12)
    assert c.base_delay == 1.0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(1, f"recall 3/5, precision 3/7, delay 1 on the bundled fixture ({elapsed:.2f}s)")


def _perm_tables(max_n):
    return {
        n: np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        for n in range(1, max_n + 1)
    }


def test_criterion_2_association_optimal():
    started = time.monotonic()
    rng = np.random.default_rng(100)
    perms = _perm_tables(7)
    for _ in range(1000):
        n_tracks = int(rng.integers(1, 8))
        n_dets = int(rng.integers(1, 8))
        beta = float(rng.choice([0.0, 0.0, 0.1, 0.3]))

        def rb():
            x1, y1 = rng.uniform(0, 70, 2)
            return BoundingBox(x1, y1, x1 + rng.uniform(3, 35), y1 + rng.uniform(3, 35))

        preds = [(i, rb()) for i in range(n_tracks)]
        dets = [Detection(rb(), 0, 0.9, 0) for _ in range(n_dets)]
        matrix = np.array([[iou(b, d.box) for d in dets] for _, b in preds])

        # brute force: max total IoU over injective assignments whose matched
        # pairs all exceed beta (pairs at or below beta contribute nothing)
        side = max(n_tracks, n_dets)
        padded = np.zeros((side, side))
        padded[:n_tracks, :n_dets] = np.where(matrix > beta, matrix, 0.0)
        table = perms[side]
        best = padded[np.arange(side), table].sum(axis=1).max()

        matches, _, _ = associate(preds, dets, beta)
        total = sum(matrix[tid, di] for tid, di in matches)
        assert all(matrix[tid, di] > beta for tid, di in matches)
        assert total == pytest.approx(best, abs=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _passed(2, f"association matches brute-force optimum on 1000 instances ({elapsed:.1f}s)")


def test_criterion_3_motion_model_geometric_decay():
    eta = 0.7
    for velocity in (1.0, 10.0):
        tracker = Tracker(TrackerConfig(decay_eta=eta), 100_000.0, 100_000.0)
        width = 100.0
        for k in range(21):
            x = 1000.0 + velocity * k
            preds = tracker.step(k, [Detection(BoundingBox(x, 500, x + width, 500 + width), 0, 0.9, k)])
            if k == 0:
                continue
            truth = 1000.0 + velocity * (k + 1)
            error = abs(preds[0].box.x1 - truth)
            assert error <= velocity * eta**k + 1e-9, (velocity, k, error)
    _passed(3, "prediction error decays as v*eta^k for k=1..20, v in {1, 10}")


def test_criterion_4a_resnet50_cost_identity():
    cfg = CostModelConfig()
    full = RegionMask.full_frame(1242, 375)
    got = refine_cost(full, 300, cfg)
    assert got == pytest.approx(254.3, abs=0.05)
    _passed(4, f"(a) full-frame + 300 proposals = {got:.4f} G (254.3 +/- 0.05)")


def _random_mask(rng, frame_w=1242.0, frame_h=375.0):
    boxes = []
    for _ in range(int(rng.integers(1, 5))):
        x1 = rng.uniform(0, frame_w - 200)
        y1 = rng.uniform(0, frame_h - 100)
        boxes.append(BoundingBox(x1, y1, x1 + rng.uniform(10, 200), y1 + rng.uniform(10, 100)))
    return RegionMask(frame_w, frame_h, tuple(boxes))


def test_criterion_4b_attribution_subadditive():
    rng = np.random.default_rng(101)
    cfg = CostModelConfig()
    for _ in range(1000):
        a, b = _random_mask(rng), _random_mask(rng)
        union = RegionMask(a.frame_w, a.frame_h, a.regions + b.regions)
        na, nb = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        ft, fp, combined = source_costs(a, b, union, cfg, na, nb)
        assert combined <= ft + fp + 1e-9
        disjoint = all(
            ra.intersect(rb) is None for ra in a.regions for rb in b.regions
        )
        if disjoint:
            assert combined == pytest.approx(ft + fp, abs=1e-9)
        else:
            assert combined < ft + fp - 1e-12
    _passed(4, "(b) combined <= parts on 1000 mask pairs, equality iff disjoint")


def test_criterion_4c_greedy_merge_properties():
    rng = np.random.default_rng(102)

    def total_time(regions, cfg, area):
        return sum(
            estimate_time(cfg.refine_feature_fullframe_ops * r.area / area, cfg)
            for r in regions
        )

    for _ in range(1000):
        cfg = CostModelConfig(
            alpha=float(rng.uniform(1e-4, 1e-2)), b=float(rng.uniform(0.0, 0.05))
        )
        regions = list(_random_mask(rng).regions)
        merged = greedy_merge(regions, cfg, 1242.0, 375.0)
        area = 1242.0 * 375.0
        assert total_time(merged, cfg, area) <= total_time(regions, cfg, area) + 1e-12
        assert greedy_merge(merged, cfg, 1242.0, 375.0) == merged
    _passed(4, "(c) greedy merge never increases estimated time and is idempotent")


def _run_benchmark(mode, c_thresh, data):
    cfg = PipelineConfig(mode=mode, c_thresh=c_thresh, t_thresh=0.5)
    pipe = Pipeline(
        cfg,
        data.meta,
        FileBackedSource(data.detections["refine"], "refine", data.meta.frame_count),
        FileBackedSource(data.detections["proposal"], "proposal", data.meta.frame_count),
    )
    result = pipe.run_sequence()
    final = [d for r in result.frames for d in r.final_detections]
    report = evaluate_classes(
        data.labels.tracks, final, EvalConfig(match_iou={0: 0.7}), ALL
    )
    assert report.delay is not None, report.delay_error
    return result.total.total_ops, report.mean_ap, report.delay.mean_delay


def test_criterion_5_threshold_monotonicity():
    started = time.monotonic()
    data = generate_synthetic(parse_scenario(DATA / "benchmark_scenario.cfg"))
    sweep = (0.3, 0.45, 0.6, 0.75, 0.9)
    map_range = {}
    for mode in ("cascaded", "catdet"):
        rows = [_run_benchmark(mode, c, data) for c in sweep]
        ops = [r[0] for r in rows]
        maps = [r[1] for r in rows]
        delays = [r[2] for r in rows]
        assert all(hi <= lo + 1e-9 for lo, hi in zip(ops, ops[1:])), (mode, ops)
        assert all(hi >= lo - 1e-9 for lo, hi in zip(delays, delays[1:])), (mode, delays)
        map_range[mode] = max(maps) - min(maps)
    assert map_range["catdet"] < map_range["cascaded"], map_range
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _passed(
        5,
        "ops nonincreasing, mD@0.8 nondecreasing over the C-thresh sweep; "
        f"catdet mAP range {map_range['catdet']:.3f} < cascaded {map_range['cascaded']:.3f} "
        f"({elapsed:.1f}s)",
    )


A_BOX = (100.0, 100.0, 220.0, 200.0)
B_BOX = (400.0, 100.0, 520.0, 200.0)
C_BOX = (700.0, 100.0, 820.0, 200.0)
FP_BOX = (850.0, 300.0, 950.0, 380.0)
RESCUE_FRAMES = 20
DROPPED = (8, 9, 10)


def _rescue_fixture():
    """Proposal oracle loses a mid-track object for three consecutive frames."""
    proposal, refine = DetectionStore(), DetectionStore()

    def add(store, frame, score, box):
        store.add(Detection(BoundingBox(*box), 0, score, frame))

    for f in range(RESCUE_FRAMES):
        if f not in DROPPED:
            add(proposal, f, 0.8, A_BOX)
        add(refine, f, 0.9, A_BOX)
        if f >= 6:
            add(proposal, f, 0.8, B_BOX)
            add(refine, f, {6: 0.45, 7: 0.5}.get(f, 0.9), B_BOX)
        if f >= 12:
            add(proposal, f, 0.8, C_BOX)
            add(refine, f, 0.5 if f == 12 else 0.9, C_BOX)
        add(proposal, f, 0.8, FP_BOX)
        if f % 2 == 0:
            add(refine, f, 0.55, FP_BOX)

    tracks = [
        GroundTruthTrack(1, 0, [GtEntry(f, BoundingBox(*A_BOX)) for f in range(RESCUE_FRAMES)]),
        GroundTruthTrack(2, 0, [GtEntry(f, BoundingBox(*B_BOX)) for f in range(6, RESCUE_FRAMES)]),
        GroundTruthTrack(3, 0, [GtEntry(f, BoundingBox(*C_BOX)) for f in range(12, RESCUE_FRAMES)]),
    ]
    meta = SequenceMeta("rescue", RESCUE_FRAMES, 1000.0, 400.0)
    return meta, tracks, proposal, refine


def test_criterion_6_tracker_rescue():
    meta, tracks, proposal, refine = _rescue_fixture()
    outcomes = {}
    for mode in ("catdet", "cascaded"):
        pipe = Pipeline(
            PipelineConfig(mode=mode, c_thresh=0.3, t_thresh=0.5),
            meta,
            FileBackedSource(refine, "refine", meta.frame_count),
            FileBackedSource(proposal, "proposal", meta.frame_count),
        )
        result = pipe.run_sequence()
        detected = {
            r.frame_index
            for r in result.frames
            if any(d.box == BoundingBox(*A_BOX) for d in r.final_detections)
        }
        final = [d for r in result.frames for d in r.final_detections]
        report = evaluate_classes(tracks, final, EvalConfig(match_iou={0: 0.7}, beta=0.8), ALL)
        outcomes[mode] = (detected, report.delay.mean_delay)

    catdet_frames, catdet_md = outcomes["catdet"]
    cascaded_frames, cascaded_md = outcomes["cascaded"]
    assert catdet_frames == set(range(RESCUE_FRAMES))
    assert set(range(RESCUE_FRAMES)) - cascaded_frames == set(DROPPED)
    assert catdet_md < cascaded_md
    _passed(
        6,
        f"catdet detects the dropped object in all frames (cascaded misses {DROPPED}); "
        f"mD {catdet_md} < {cascaded_md} at beta=0.8",
    )


def test_criterion_7_ap_oracle():
    rng = np.random.default_rng(103)

    def rb():
        x1, y1 = rng.uniform(0, 100, 2)
        return BoundingBox(x1, y1, x1 + rng.uniform(5, 40), y1 + rng.uniform(5, 40))

    for _ in range(50):
        tracks = []
        n_gt = 0
        tid = 0
        while n_gt < int(rng.integers(1, 11)):
            tid += 1
            start = int(rng.integers(0, 3))
            length = int(rng.integers(1, 4))
            box = rb()
            entries = [GtEntry(start + i, box) for i in range(length)]
            tracks.append(GroundTruthTrack(tid, 0, entries))
            n_gt += length
        dets = []
        for _ in range(int(rng.integers(1, 21))):
            if rng.random() < 0.5 and tracks:
                src = tracks[int(rng.integers(len(tracks)))]
                e = src.frames[int(rng.integers(len(src.frames)))]
                jit = rng.uniform(-5, 5, 4)
                x1, x2 = sorted((e.box.x1 + jit[0], e.box.x2 + jit[1]))
                y1, y2 = sorted((e.box.y1 + jit[2], e.box.y2 + jit[3]))
                dets.append(Detection(BoundingBox(x1, y1, x2, y2), 0,
                                      float(rng.uniform(0.05, 1)), e.frame_index))
            else:
                dets.append(Detection(rb(), 0, float(rng.uniform(0.05, 1)),
                                      int(rng.integers(0, 6))))
        data = label_class_detections(tracks, dets, 0, 0.5)
        got = average_precision(data)
        expected = _ap_bruteforce(tracks, dets, 0.5, data.n_pos)
        assert got == pytest.approx(expected, abs=1e-12)
    _passed(7, "11-point AP matches the sweep-all-thresholds oracle on 50 micro-instances")


def _ap_bruteforce(tracks, dets, iou_thr, n_pos):
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
    return sum(
        max((p for r, p in points if r >= i / 10 - 1e-9), default=0.0) for i in range(11)
    ) / 11


def test_criterion_8_roundtrips_and_run_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    rng = np.random.default_rng(104)

    # parser round-trips on fuzzed inputs
    class_map = ClassMap(["car", "pedestrian"])
    dets = []
    for _ in range(500):
        x1, y1 = rng.uniform(0, 900, 2)
        dets.append(
            Detection(
                BoundingBox(x1, y1, x1 + rng.uniform(0.5, 90), y1 + rng.uniform(0.5, 90)),
                int(rng.integers(0, 2)),
                float(rng.uniform(0, 1)),
                int(rng.integers(0, 40)),
            )
        )
    d1, d2 = tmp_path / "d1.txt", tmp_path / "d2.txt"
    write_detections(dets, class_map, d1)
    once = parse_detections(d1, class_map)
    write_detections(once.all(), class_map, d2)
    assert parse_detections(d2, class_map).all() == once.all()
    assert d1.read_bytes() == d2.read_bytes()

    tracks = []
    for tid in range(1, 15):
        start = int(rng.integers(0, 10))
        x1, x2 = sorted(rng.uniform(0, 800, 2))
        y1, y2 = sorted(rng.uniform(0, 400, 2))
        box = BoundingBox(x1, y1, x2, y2)
        entries = [
            GtEntry(start + i, box, float(rng.uniform(0, 0.5)), int(rng.integers(0, 3)))
            for i in range(int(rng.integers(1, 6)))
        ]
        tracks.append(GroundTruthTrack(tid, int(rng.integers(0, 2)), entries))
    from trackcascade.ingest import KittiLabels

    labels = KittiLabels(tracks, {0: [BoundingBox(0, 0, 30, 30)]}, {})
    l1, l2 = tmp_path / "l1.txt", tmp_path / "l2.txt"
    write_tracks(labels, class_map, l1)
    once_l = parse_kitti_tracking_labels(l1, class_map)
    write_tracks(once_l, class_map, l2)
    twice_l = parse_kitti_tracking_labels(l2, class_map)
    assert twice_l.tracks == once_l.tracks
    assert twice_l.dontcare_by_frame == once_l.dontcare_by_frame
    assert l1.read_bytes() == l2.read_bytes()

    meta = SequenceMeta("rt", 7, 640.0, 480.0, 25.0)
    m1 = tmp_path / "meta.cfg"
    write_meta(meta, m1)
    assert parse_meta(m1) == meta

    # two runs from one manifest: byte-identical output trees
    seq_dir = tmp_path / "seq"
    assert cli_main(["gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg"),
                     "--out", str(seq_dir)]) == 0
    trees = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["run", "--sequence", str(seq_dir), "--mode", "catdet",
                         "--out", str(out), "--dump-masks"]) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert trees[0] == trees[1]
    assert set(trees[0]) == {"detections.txt", "manifest.json", "masks.txt", "work.txt"}
    _passed(8, "parser round-trips exact; repeated runs byte-identical incl. manifest")
