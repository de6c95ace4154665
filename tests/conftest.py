from pathlib import Path

import pytest

from trackcascade import (
    BoundingBox,
    ClassMap,
    Detection,
    DetectionStore,
    SequenceMeta,
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
