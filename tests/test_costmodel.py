import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trackcascade.costmodel import (
    CostModelConfig,
    WorkReport,
    estimate_time,
    greedy_merge,
    refine_cost,
    total_work,
)
from trackcascade.geometry import BoundingBox, RegionMask

from conftest import reference_greedy_merge, source_costs

FRAME_W, FRAME_H = 1242.0, 375.0


def mask(*boxes, w=FRAME_W, h=FRAME_H):
    return RegionMask(w, h, tuple(boxes))


def full_mask(w=FRAME_W, h=FRAME_H):
    return RegionMask.full_frame(w, h)


class TestRefineCost:
    def test_stock_resnet50_total(self):
        # full-frame run with the baseline 300 proposals reproduces the
        # reference single-model total
        cfg = CostModelConfig()
        assert refine_cost(full_mask(), 300, cfg) == pytest.approx(254.3, abs=0.05)

    def test_empty_mask_no_proposals(self):
        assert refine_cost(mask(), 0, CostModelConfig()) == 0.0

    def test_linear_in_coverage(self):
        cfg = CostModelConfig()
        half = mask(BoundingBox(0, 0, FRAME_W / 2, FRAME_H))
        assert refine_cost(half, 0, cfg) == pytest.approx(cfg.refine_feature_fullframe_ops / 2)

    def test_monotone_in_coverage_and_proposals(self):
        cfg = CostModelConfig()
        small = mask(BoundingBox(0, 0, 100, 100))
        big = mask(BoundingBox(0, 0, 400, 300))
        assert refine_cost(small, 0, cfg) <= refine_cost(big, 0, cfg)
        assert refine_cost(big, 3, cfg) <= refine_cost(big, 7, cfg)

    def test_negative_proposals_rejected(self):
        with pytest.raises(ValueError):
            refine_cost(full_mask(), -1, CostModelConfig())


def rand_mask(rng, n_max=5):
    boxes = []
    for _ in range(int(rng.integers(1, n_max + 1))):
        x1 = rng.uniform(0, FRAME_W - 200)
        y1 = rng.uniform(0, FRAME_H - 100)
        boxes.append(BoundingBox(x1, y1, x1 + rng.uniform(20, 200), y1 + rng.uniform(20, 100)))
    return mask(*boxes)


def masks_disjoint(a, b):
    for ra in a.regions:
        for rb in b.regions:
            if ra.intersect(rb) is not None:
                return False
    return True


class TestAttributeCosts:
    def test_disjoint_masks_add_exactly(self):
        a = mask(BoundingBox(0, 0, 100, 100))
        b = mask(BoundingBox(500, 0, 600, 100))
        union = mask(*a.regions, *b.regions)
        ft, fp, combined = source_costs(a, b, union, CostModelConfig(), 2, 3)
        assert combined == pytest.approx(ft + fp)

    def test_identical_masks_share_feature_term(self):
        cfg = CostModelConfig()
        a = mask(BoundingBox(0, 0, 200, 200))
        ft, fp, combined = source_costs(a, a, a, cfg, 5, 5)
        feature = cfg.refine_feature_fullframe_ops * a.coverage
        assert ft == pytest.approx(feature + 5 * cfg.refine_per_proposal_ops)
        assert combined == pytest.approx(feature + 10 * cfg.refine_per_proposal_ops)

    def test_partial_overlap_arithmetic(self):
        cfg = CostModelConfig(refine_per_proposal_ops=0.0)
        a = mask(BoundingBox(0, 0, 100, 100))
        b = mask(BoundingBox(70, 0, 170, 100))  # 30% of a overlapped
        union = mask(*a.regions, *b.regions)
        ft, fp, combined = source_costs(a, b, union, cfg, 0, 0)
        cov_a, cov_b = a.coverage, b.coverage
        cov_ab = 100 * 30 / (FRAME_W * FRAME_H)
        assert combined == pytest.approx(
            cfg.refine_feature_fullframe_ops * (cov_a + cov_b - cov_ab)
        )

    def test_subadditive_with_equality_iff_disjoint(self):
        rng = np.random.default_rng(20)
        cfg = CostModelConfig()
        for _ in range(300):
            a, b = rand_mask(rng), rand_mask(rng)
            union = mask(*a.regions, *b.regions)
            na, nb = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            ft, fp, combined = source_costs(a, b, union, cfg, na, nb)
            assert combined <= ft + fp + 1e-9
            if masks_disjoint(a, b):
                assert combined == pytest.approx(ft + fp, abs=1e-9)
            else:
                assert combined < ft + fp - 1e-12


class TestEstimateTime:
    def test_zero_work_gives_intercept(self):
        cfg = CostModelConfig(alpha=0.5, b=0.02)
        assert estimate_time(0.0, cfg) == 0.02

    def test_zero_alpha_flat(self):
        cfg = CostModelConfig(alpha=0.0, b=0.02)
        assert estimate_time(123.4, cfg) == 0.02

    def test_two_point_calibration_identity(self):
        (w1, t1), (w2, t2) = (40.0, 0.07), (254.3, 0.159)
        alpha = (t2 - t1) / (w2 - w1)
        b = t1 - alpha * w1
        cfg = CostModelConfig(alpha=alpha, b=b)
        assert estimate_time(w1, cfg) == pytest.approx(t1)
        assert estimate_time(w2, cfg) == pytest.approx(t2)

    def test_affine_property(self):
        cfg = CostModelConfig(alpha=1e-3, b=0.04)
        w1, w2 = 12.5, 90.25
        assert estimate_time(w1, cfg) + estimate_time(w2, cfg) - cfg.b == pytest.approx(
            estimate_time(w1 + w2, cfg)
        )

    def test_unconfigured_timing_errors(self):
        with pytest.raises(ValueError, match="timing constants"):
            estimate_time(1.0, CostModelConfig())


def total_time(regions, cfg, w=FRAME_W, h=FRAME_H):
    area = w * h
    return sum(
        estimate_time(cfg.refine_feature_fullframe_ops * r.area / area, cfg) for r in regions
    )


class TestGreedyMerge:
    def test_tiny_adjacent_boxes_merge_under_large_intercept(self):
        cfg = CostModelConfig(alpha=1e-3, b=1.0)
        regions = [BoundingBox(0, 0, 10, 10), BoundingBox(10, 0, 20, 10)]
        merged = greedy_merge(regions, cfg, 100, 100)
        assert merged == [BoundingBox(0, 0, 20, 10)]

    def test_far_apart_boxes_never_merge_without_intercept(self):
        cfg = CostModelConfig(alpha=1e-3, b=0.0)
        regions = [BoundingBox(0, 0, 100, 100), BoundingBox(900, 200, 1000, 300)]
        assert greedy_merge(regions, cfg, FRAME_W, FRAME_H) == regions

    def test_singleton_unchanged(self):
        cfg = CostModelConfig(alpha=1e-3, b=1.0)
        regions = [BoundingBox(5, 5, 50, 50)]
        assert greedy_merge(regions, cfg, 100, 100) == regions

    def test_never_increases_time_and_idempotent(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            cfg = CostModelConfig(alpha=float(rng.uniform(1e-4, 1e-2)), b=float(rng.uniform(0, 0.05)))
            regions = list(rand_mask(rng, n_max=6).regions)
            merged = greedy_merge(regions, cfg, FRAME_W, FRAME_H)
            assert len(merged) <= len(regions)
            assert total_time(merged, cfg) <= total_time(regions, cfg) + 1e-12
            assert greedy_merge(merged, cfg, FRAME_W, FRAME_H) == merged

    @pytest.mark.parametrize(
        "a, b, intercept, saving, kept",
        [
            ((261, 189, 353, 325), (357, 189, 477, 325), 0.00011880983360171768,
             8.673617379884035e-19, 1),
            ((323, 47, 447, 168), (538, 47, 584, 168), 0.0024048071282877083, 0.0, 2),
        ],
        ids=["tiny-saving-merges", "zero-saving-keeps"],
    )
    def test_merges_on_the_sign_of_the_reported_saving(self, a, b, intercept, saving, kept):
        # Near break-even, pricing a region as feature * (area / frame_area)
        # rounds differently from work.txt's feature * area / frame_area and
        # flips the decision; only a positive saving of the reported estimate merges.
        cfg = CostModelConfig(alpha=0.001, b=intercept)
        regions = [BoundingBox(*a), BoundingBox(*b)]
        merged = BoundingBox(a[0], a[1], b[2], b[3])
        assert total_time(regions, cfg) - total_time([merged], cfg) == saving
        assert len(greedy_merge(regions, cfg, FRAME_W, FRAME_H)) == kept

    def test_requires_timing(self):
        with pytest.raises(ValueError):
            greedy_merge([BoundingBox(0, 0, 1, 1)], CostModelConfig(), 10, 10)


@st.composite
def lattice_box(draw):
    """A 50-pixel square on a 100-pixel lattice: equal gaps make savings tie."""
    x1, y1 = draw(st.integers(0, 11)) * 100, draw(st.integers(0, 3)) * 100
    return BoundingBox(x1, y1, x1 + 50, y1 + 50)


@st.composite
def free_box(draw):
    x1 = draw(st.floats(0, FRAME_W - 1))
    y1 = draw(st.floats(0, FRAME_H - 1))
    return BoundingBox(x1, y1, draw(st.floats(x1, FRAME_W)), draw(st.floats(y1, FRAME_H)))


class TestGreedyMergeOracle:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        # Crowded frames reach about 30 regions; the min_size lists make sure
        # such sizes are drawn.
        st.one_of(
            st.lists(lattice_box(), max_size=32),
            st.lists(st.one_of(lattice_box(), free_box()), max_size=32),
            st.lists(st.one_of(lattice_box(), free_box()), min_size=20, max_size=32),
        ),
        st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
        st.sampled_from([0.0, 0.001, 0.005, 0.01, 0.05]),
    )
    def test_equals_pairwise_rescan(self, regions, alpha, b):
        cfg = CostModelConfig(alpha=alpha, b=b)
        got = greedy_merge(regions, cfg, FRAME_W, FRAME_H)
        want = reference_greedy_merge(regions, cfg, FRAME_W, FRAME_H)
        assert got == want
        # A region never merged is returned as the input object; a hull is new.
        for g, w in zip(got, want):
            assert (g is w) == any(w is r for r in regions)


class TestWorkReport:
    def test_total_is_sum(self):
        w = WorkReport(proposal_ops=20.7, refine_ops=28.6)
        assert w.total_ops == pytest.approx(49.3)

    def test_aggregation_keeps_optional_none(self):
        a = WorkReport(1.0, 2.0)
        b = WorkReport(3.0, 4.0)
        agg = total_work([a, b])
        assert agg.total_ops == 10.0
        assert agg.refine_from_tracker_ops is None

    def test_aggregation_sums_attribution(self):
        a = WorkReport(1.0, 2.0, refine_from_tracker_ops=0.5, refine_from_proposal_ops=1.5)
        b = WorkReport(1.0, 2.0, refine_from_tracker_ops=0.25, refine_from_proposal_ops=1.0)
        agg = total_work([a, b])
        assert agg.refine_from_tracker_ops == pytest.approx(0.75)
        assert agg.refine_from_proposal_ops == pytest.approx(2.5)
