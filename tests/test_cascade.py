import gc
import weakref
from collections import Counter

import numpy as np
import pytest

from trackcascade import FileBackedSource, Pipeline, PipelineConfig, cascade
from trackcascade.cascade import MODES, FrameResult
from trackcascade.costmodel import CostModelConfig, total_work
from trackcascade.errors import MissingFrameError
from trackcascade.geometry import (
    BoundingBox,
    Detection,
    RegionMask,
    mask_overlap_fraction,
    nms,
)
from trackcascade.ingest import (
    DetectionStore,
    SequenceMeta,
    generate_synthetic,
    parse_scenario,
)

from conftest import DATA, make_store, reference_work

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
        # The sequence claims 9 frames; its sources serve 6.
        proposal, refine = moving_object_stores()
        pipeline = Pipeline(
            PipelineConfig(mode="catdet"),
            SequenceMeta("syn: test", 9, 1000.0, 400.0),
            FileBackedSource(refine, "refine", META.frame_count),
            FileBackedSource(proposal, "proposal", META.frame_count),
        )
        with pytest.raises(MissingFrameError, match="cannot serve frame 6"):
            pipeline.run_sequence()

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

    def test_detection_below_t_thresh_never_tracked(self):
        proposal = make_store([(f, 0, 0.6, 100.0, 100.0, 200.0, 200.0) for f in range(6)])
        refine = make_store([(f, 0, 0.4, 100.0, 100.0, 200.0, 200.0) for f in range(6)])
        pipeline = build("catdet", stores=(proposal, refine), t_thresh=0.5)
        frames = pipeline.run_sequence().frames
        assert all(r.final_detections for r in frames)
        assert all(r.tracker_boxes == [] for r in frames)
        assert pipeline._tracker.tracks == ()
        # the same detections are tracked once t_thresh lets them through
        frames = build("catdet", stores=(proposal, refine), t_thresh=0.4).run_sequence().frames
        assert all(r.tracker_boxes for r in frames[1:])

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


TIMING = {"untimed": {}, "timed": {"alpha": 0.001, "b": 0.005}}


@pytest.fixture(scope="module")
def bench_data():
    return generate_synthetic(parse_scenario(DATA / "benchmark_scenario.cfg"))


def bench_pipeline(data, mode, timing):
    return Pipeline(
        PipelineConfig(mode=mode, cost=CostModelConfig(**TIMING[timing])),
        data.meta,
        FileBackedSource(data.detections["refine"], "refine", data.meta.frame_count),
        FileBackedSource(data.detections["proposal"], "proposal", data.meta.frame_count),
    )


class TestDeferredWork:
    """`FrameResult.work` is computed on first read, and equals the eager accounting."""

    @pytest.mark.parametrize("timing", TIMING)
    @pytest.mark.parametrize("mode", MODES)
    def test_late_reverse_reads_equal_the_eager_accounting(self, bench_data, mode, timing):
        pipeline = bench_pipeline(bench_data, mode, timing)
        w, h = bench_data.meta.frame_w, bench_data.meta.frame_h
        frames, expected = [], []
        for i in range(bench_data.meta.frame_count):
            frames.append(pipeline.run_frame(i))
            expected.append(reference_work(pipeline.config, w, h, frames[-1]))
        for r, want in reversed(list(zip(frames, expected))):
            assert repr(r.work) == repr(want), r.frame_index
            assert r.work is r.work
        result = pipeline.run_sequence()
        assert [repr(r.work) for r in reversed(result.frames)] == [repr(e) for e in expected[::-1]]
        assert repr(result.total) == repr(total_work(expected))

    @pytest.mark.parametrize("mode", MODES)
    def test_unread_work_is_never_computed(self, bench_data, mode, monkeypatch):
        calls = Counter()

        def spy(fn):
            def counted(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return counted

        monkeypatch.setattr(cascade, "refine_cost", spy(cascade.refine_cost))
        monkeypatch.setattr(cascade, "greedy_merge", spy(cascade.greedy_merge))
        pipeline = bench_pipeline(bench_data, mode, "timed")
        frames = [pipeline.run_frame(i) for i in range(bench_data.meta.frame_count)]
        assert calls == Counter()
        frames[7].work
        frames[7].work
        assert calls == Counter(refine_cost=1 if mode == "single" else 3, greedy_merge=1)

    # Boxes in a 100 x 50 frame grown by 10: A and B apart, C apart from both,
    # Z off the frame, so its region clips away.
    HAND = {
        "A": (10.0, 10.0, 20.0, 20.0),
        "B": (40.0, 10.0, 50.0, 30.0),
        "C": (70.0, 5.0, 80.0, 25.0),
        "Z": (200.0, 10.0, 220.0, 20.0),
    }

    @pytest.mark.parametrize(
        "tracker, proposal, refine, sweeps",
        [
            ("", "AB", "BA", 1),  # the proposals' rects are the mask's regions, reordered
            ("", "AB", "AC", 2),  # as many rects as regions, but not the same ones
            ("", "ABZ", "AB", 1),  # a proposal off the frame makes no region
            ("A", "", "A", 1),  # the tracker boxes alone make the mask
            ("A", "B", "AB", 2),  # each source makes only part of the mask
            ("", "", "", 0),  # no proposals: no regions, and an empty union either way
        ],
    )
    def test_hand_built_frame_reuses_mask_coverage_only_for_the_same_rects(
        self, tracker, proposal, refine, sweeps, monkeypatch
    ):
        config = PipelineConfig(mode="catdet", margin=10.0)
        dets = {k: Detection(BoundingBox(*v), 0, 0.8, 0) for k, v in self.HAND.items()}
        refine_dets = [dets[k] for k in refine]
        mask = RegionMask.from_boxes((d.box for d in refine_dets), 100.0, 50.0, config.margin)
        tracker_dets, proposal_dets = [dets[k] for k in tracker], [dets[k] for k in proposal]
        result = FrameResult(0, [], mask, config, tracker_dets, proposal_dets, refine_dets)
        calls = Counter()

        def counted(rects):
            calls["sweep"] += 1
            return real(rects)

        real = cascade.rects_union_area
        monkeypatch.setattr(cascade, "rects_union_area", counted)
        assert repr(result.work) == repr(reference_work(config, 100.0, 50.0, result))
        assert calls["sweep"] == sweeps

    def test_cascaded_frame_with_a_deduplicated_proposal(self, bench_data):
        pipeline = bench_pipeline(bench_data, "cascaded", "untimed")
        frames = pipeline.run_sequence().frames
        dropped = [r for r in frames if len(r.refine_proposals) < len(r.proposal_boxes)]
        assert dropped
        w, h = bench_data.meta.frame_w, bench_data.meta.frame_h
        for r in dropped:
            assert repr(r.work) == repr(reference_work(pipeline.config, w, h, r))

    def test_catdet_with_the_tracker_off(self, bench_data):
        data = bench_data
        config = PipelineConfig(mode="catdet", t_thresh=1.5)
        pipeline = Pipeline(
            config,
            data.meta,
            FileBackedSource(data.detections["refine"], "refine", data.meta.frame_count),
            FileBackedSource(data.detections["proposal"], "proposal", data.meta.frame_count),
        )
        frames = pipeline.run_sequence().frames
        assert not any(r.tracker_boxes for r in frames)
        w, h = data.meta.frame_w, data.meta.frame_h
        for r in frames:
            assert repr(r.work) == repr(reference_work(config, w, h, r)), r.frame_index

    def test_frame_result_does_not_keep_the_pipeline(self, bench_data):
        pipeline = bench_pipeline(bench_data, "catdet", "timed")
        config = pipeline.config
        frames = [pipeline.run_frame(i) for i in range(bench_data.meta.frame_count)]
        held = [
            weakref.ref(o)
            for o in (pipeline, pipeline._tracker, pipeline.refine_source, pipeline.proposal_source)
        ]
        del pipeline
        gc.collect()
        assert [ref() for ref in held] == [None] * len(held)
        w, h = bench_data.meta.frame_w, bench_data.meta.frame_h
        assert repr(frames[-1].work) == repr(reference_work(config, w, h, frames[-1]))
