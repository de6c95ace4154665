from pathlib import Path

import pytest

from trackcascade import (
    BoundingBox,
    ClassMap,
    Detection,
    DetectionStore,
    SequenceMeta,
    estimate_time,
    refine_cost,
    write_detections,
    write_meta,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture
def data_dir() -> Path:
    return DATA


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


def reference_greedy_merge(regions, config, frame_w, frame_h):
    """Brute-force `greedy_merge`: rescan every pair after each merge, O(R^3).

    Of the pairs with a positive saving it merges the largest, and of equal
    savings the first in (i, j) loop order over the current list.
    """
    frame_area = frame_w * frame_h

    def region_time(region):
        return estimate_time(config.refine_feature_fullframe_ops * (region.area / frame_area), config)

    boxes = list(regions)
    times = [region_time(r) for r in boxes]
    while len(boxes) > 1:
        best = None  # (saving, i, j, hull, hull_time)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                hull = boxes[i].hull(boxes[j])
                hull_time = region_time(hull)
                saving = times[i] + times[j] - hull_time
                if saving > 0 and (best is None or saving > best[0]):
                    best = (saving, i, j, hull, hull_time)
        if best is None:
            break
        _, i, j, hull, hull_time = best
        boxes[i] = hull
        times[i] = hull_time
        del boxes[j], times[j]
    return boxes
