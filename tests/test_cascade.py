import numpy as np
import pytest

from trackcascade import (
    BoundingBox,
    CostModelConfig,
    FileBackedSource,
    MissingFrameError,
    Pipeline,
    PipelineConfig,
    RegionMask,
    SequenceMeta,
    mask_overlap_fraction,
    nms,
)
from trackcascade.ingest import DetectionStore

from conftest import make_store

META = SequenceMeta("syn: test", 6, 1000.0, 400.0)


def moving_object_stores(n_frames=6, drop_proposal_frames=()):
    """One object moving +10 px/frame plus a fixed far-away false positive."""
    proposal, refine = [], []
    for f in range(n_frames):
        x = 100.0 + 10 * f
        if f not in drop_proposal_frames:
            proposal.append((f, 0, 0.6, x - 5, 95.0, x + 105, 205.0))  # sloppy box
        proposal.append((f, 0, 0.55, 800.0, 300.0, 860.0, 360.0))  # recurring FP region
        refine.append((f, 0, 0.9, x, 100.0, x + 100, 200.0))
        refine.append((f, 0, 0.3, 810.0, 305.0, 855.0, 350.0))  # low-score FP detection
    return make_store(proposal), make_store(refine)


def build(mode="catdet", meta=META, stores=None, **cfg_kwargs):
    proposal_store, refine_store = stores or moving_object_stores(meta.frame_count)
    config = PipelineConfig(mode=mode, **cfg_kwargs)
    return Pipeline(
        config,
        meta,
        FileBackedSource(refine_store, "refine", meta.frame_count),
        FileBackedSource(proposal_store, "proposal", meta.frame_count),
    )


class TestFileBackedSource:
    def test_full_frame_serves_stored(self):
        _, refine_store = moving_object_stores()
        src = FileBackedSource(refine_store, "refine", 6)
        assert len(src.detect(0)) == 2

    def test_mask_filters_by_own_area_overlap(self):
        _, refine_store = moving_object_stores()
        src = FileBackedSource(refine_store, "refine", 6)
        mask = RegionMask(1000, 400, (BoundingBox(50, 50, 300, 250),))
        dets = src.detect(0, mask=mask)
        assert len(dets) == 1
        assert all(mask_overlap_fraction(d.box, mask) >= 0.5 for d in dets)

    def test_missing_frame_raises(self):
        _, refine_store = moving_object_stores()
        src = FileBackedSource(refine_store, "refine", 6)
        with pytest.raises(MissingFrameError):
            src.detect(6)
        with pytest.raises(MissingFrameError):
            src.detect(-1)

    def test_within_range_empty_frame_is_fine(self):
        src = FileBackedSource(DetectionStore(), "refine", 3)
        assert src.detect(1) == []


class TestSingleMode:
    def test_equals_fullframe_output_post_nms(self):
        _, refine_store = moving_object_stores()
        pipeline = build("single")
        result = pipeline.run_sequence()
        for r in result.frames:
            expected = nms(refine_store.get(r.frame_index), 0.5)
            assert r.final_detections == expected

    def test_total_ops_is_frames_times_constant(self):
        pipeline = build("single")
        result = pipeline.run_sequence()
        cost = CostModelConfig()
        per_frame = (
            cost.refine_feature_fullframe_ops
            + cost.refine_per_proposal_ops * cost.baseline_proposal_count
        )
        assert result.total.total_ops == pytest.approx(6 * per_frame)
        assert result.total.proposal_ops == 0.0

    def test_independent_of_thresholds_and_margin(self):
        outputs = []
        for c, t, m in [(0.1, 0.2, 10.0), (0.9, 0.99, 60.0)]:
            pipeline = build("single", c_thresh=c, t_thresh=t, margin=m)
            outputs.append([r.final_detections for r in pipeline.run_sequence().frames])
        assert outputs[0] == outputs[1]

    def test_breakdown_not_applicable(self):
        result = build("single").run_sequence()
        assert result.total.refine_from_tracker_ops is None
        assert result.total.refine_from_proposal_ops is None


class TestCascadeModes:
    def test_rescue_when_proposal_drops_midtrack(self):
        # proposal oracle loses the object at frame 2; the tracker's
        # prediction keeps the region alive so refinement still finds it
        stores = moving_object_stores(drop_proposal_frames={2})
        catdet = build("catdet", stores=stores, t_thresh=0.5)
        frames = catdet.run_sequence().frames
        assert any(d.box.x1 == 120.0 for d in frames[2].final_detections)

        stores = moving_object_stores(drop_proposal_frames={2})
        cascaded = build("cascaded", stores=stores)
        frames = cascaded.run_sequence().frames
        assert not any(d.box.x1 == 120.0 for d in frames[2].final_detections)

    def test_cascaded_equals_catdet_with_tracker_disabled(self):
        runs = []
        for mode in ("cascaded", "catdet"):
            pipeline = build(mode, t_thresh=1.01)
            result = pipeline.run_sequence()
            runs.append(
                [
                    (r.final_detections, r.mask.regions, r.work.refine_ops, r.work.proposal_ops)
                    for r in result.frames
                ]
            )
        assert runs[0] == runs[1]

    def test_raising_c_thresh_never_adds_proposals(self):
        counts = []
        for c in (0.1, 0.3, 0.56, 0.7, 0.95):
            pipeline = build("cascaded", c_thresh=c)
            counts.append(
                [len(r.proposal_boxes) for r in pipeline.run_sequence().frames]
            )
        for lo, hi in zip(counts, counts[1:]):
            assert all(h <= l for l, h in zip(lo, hi))

    def test_mask_soundness(self):
        for mode in ("cascaded", "catdet"):
            pipeline = build(mode)
            for r in pipeline.run_sequence().frames:
                for d in r.final_detections:
                    assert mask_overlap_fraction(d.box, r.mask) > 0

    def test_attribution_bounds_refine_ops(self):
        pipeline = build("catdet")
        for r in pipeline.run_sequence().frames:
            w = r.work
            assert w.refine_from_tracker_ops is not None
            assert w.refine_ops <= w.refine_from_tracker_ops + w.refine_from_proposal_ops + 1e-9

    def test_catdet_cheaper_than_single(self):
        catdet = build("catdet").run_sequence().total
        single = build("single").run_sequence().total
        assert catdet.total_ops < single.total_ops

    def test_frames_must_run_in_order(self):
        pipeline = build("catdet")
        pipeline.run_frame(0)
        with pytest.raises(ValueError, match="in order"):
            pipeline.run_frame(2)

    def test_missing_frame_halts_sequence(self):
        pipeline = build("catdet")
        with pytest.raises(MissingFrameError):
            pipeline.run_sequence(range(0, 9))

    def test_empty_range(self):
        result = build("catdet").run_sequence(range(0))
        assert result.frames == [] and result.total.total_ops == 0.0

    def test_deterministic_repeat_runs(self):
        results = []
        for _ in range(2):
            pipeline = build("catdet")
            result = pipeline.run_sequence()
            results.append(
                [(r.final_detections, r.mask.regions, r.work) for r in result.frames]
            )
        assert results[0] == results[1]

    def test_tracker_predictions_feed_next_frame_mask(self):
        pipeline = build("catdet", t_thresh=0.5)
        first = pipeline.run_frame(0)
        assert len(first.tracker_boxes) == 0
        second = pipeline.run_frame(1)
        assert len(second.tracker_boxes) > 0

    def test_timing_annotations_when_configured(self):
        stores = moving_object_stores()
        config = PipelineConfig(mode="catdet", cost=CostModelConfig(alpha=1e-3, b=0.01))
        pipeline = Pipeline(
            config,
            META,
            FileBackedSource(stores[1], "refine", META.frame_count),
            FileBackedSource(stores[0], "proposal", META.frame_count),
        )
        result = pipeline.run_sequence()
        assert result.total.estimated_time is not None
        assert result.total.estimated_time > 0
        assert all(r.work.merged_region_count <= len(r.mask.regions) for r in result.frames)

    def test_requires_proposal_source_outside_single(self):
        _, refine_store = moving_object_stores()
        with pytest.raises(ValueError, match="proposal source"):
            Pipeline(
                PipelineConfig(mode="catdet"),
                META,
                FileBackedSource(refine_store, "refine", META.frame_count),
                None,
            )


class TestOpsMonotonicity:
    def test_raising_t_thresh_never_adds_tracker_work(self):
        from trackcascade import generate_synthetic, parse_scenario

        from conftest import DATA

        data = generate_synthetic(parse_scenario(DATA / "benchmark_scenario.cfg"))
        rows = []
        for t in (0.3, 0.5, 0.7, 0.9, 1.01):
            pipeline = Pipeline(
                PipelineConfig(mode="catdet", c_thresh=0.45, t_thresh=t),
                data.meta,
                FileBackedSource(data.detections["refine"], "refine", data.meta.frame_count),
                FileBackedSource(data.detections["proposal"], "proposal", data.meta.frame_count),
            )
            result = pipeline.run_sequence()
            rows.append(
                (sum(len(r.tracker_boxes) for r in result.frames), result.total.total_ops)
            )
        for (p_lo, o_lo), (p_hi, o_hi) in zip(rows, rows[1:]):
            assert p_hi <= p_lo
            assert o_hi <= o_lo + 1e-9

    def test_ops_nonincreasing_in_c_thresh(self):
        rng = np.random.default_rng(50)
        # noisy proposal scores so the threshold actually bites
        proposal, refine = [], []
        for f in range(10):
            x = 100.0 + 8 * f
            refine.append((f, 0, 0.9, x, 100.0, x + 90, 190.0))
            proposal.append((f, 0, float(rng.uniform(0.2, 0.9)), x - 4, 96.0, x + 94, 194.0))
            for _ in range(int(rng.integers(0, 3))):
                fx = float(rng.uniform(0, 900))
                fy = float(rng.uniform(0, 300))
                proposal.append((f, 0, float(rng.uniform(0.2, 0.9)), fx, fy, fx + 70, fy + 70))
        meta = SequenceMeta("mono", 10, 1000.0, 400.0)
        totals = []
        for c in (0.2, 0.4, 0.6, 0.8, 0.95):
            pipeline = Pipeline(
                PipelineConfig(mode="cascaded", c_thresh=c),
                meta,
                FileBackedSource(make_store(refine), "refine", 10),
                FileBackedSource(make_store(proposal), "proposal", 10),
            )
            totals.append(pipeline.run_sequence().total.total_ops)
        for lo, hi in zip(totals, totals[1:]):
            assert hi <= lo + 1e-9
