"""Run output artifacts: work records, mask dumps and the run manifest."""

from __future__ import annotations

import datetime
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from . import __version__
from .cascade import FrameResult
from .costmodel import WorkReport
from .errors import DataError
from .geometry import BoundingBox
from .ingest import SequenceMeta, _data_lines, _parse_float, _parse_int

MASK_KINDS = ("tracker", "proposal", "refine", "mask")

_WORK_COLUMNS = (
    "frame proposal_ops refine_ops total_ops from_tracker_ops from_proposal_ops "
    "coverage n_tracker_props n_proposal_props n_refine_props merged_regions estimated_time"
)


def _opt(value: float | None) -> str:
    return "/" if value is None else str(value)


def write_work_records(results: Iterable[FrameResult], total: WorkReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_WORK_COLUMNS}\n")
        for r in results:
            w = r.work
            fh.write(
                f"{r.frame_index} {w.proposal_ops} {w.refine_ops} {w.total_ops} "
                f"{_opt(w.refine_from_tracker_ops)} {_opt(w.refine_from_proposal_ops)} "
                f"{r.mask.coverage()} {len(r.tracker_boxes)} "
                f"{len(r.proposal_boxes)} {len(r.refine_proposals)} "
                f"{w.merged_region_count} {_opt(w.estimated_time)}\n"
            )
        fh.write(
            f"total {total.proposal_ops} {total.refine_ops} {total.total_ops} "
            f"{_opt(total.refine_from_tracker_ops)} {_opt(total.refine_from_proposal_ops)} "
            f"/ / / / {total.merged_region_count} {_opt(total.estimated_time)}\n"
        )


@dataclass
class WorkRecord:
    frame_index: int | None  # None for the totals row
    proposal_ops: float
    refine_ops: float
    total_ops: float
    from_tracker_ops: float | None
    from_proposal_ops: float | None
    estimated_time: float | None


def parse_work_records(path: str | Path) -> tuple[list[WorkRecord], WorkRecord]:
    path = Path(path)
    rows: list[WorkRecord] = []
    total: WorkRecord | None = None

    def opt_float(token: str, lineno: int) -> float | None:
        return None if token == "/" else _parse_float(token, "ops", path, lineno)

    for lineno, fields in _data_lines(path):
        if len(fields) != 12:
            raise DataError(f"expected 12 fields, got {len(fields)}", str(path), lineno)
        frame = None if fields[0] == "total" else _parse_int(fields[0], "frame", path, lineno)
        record = WorkRecord(
            frame,
            _parse_float(fields[1], "ops", path, lineno),
            _parse_float(fields[2], "ops", path, lineno),
            _parse_float(fields[3], "ops", path, lineno),
            opt_float(fields[4], lineno),
            opt_float(fields[5], lineno),
            opt_float(fields[11], lineno),
        )
        if frame is None:
            total = record
        else:
            rows.append(record)
    if total is None:
        raise DataError("missing totals row", str(path))
    return rows, total


def _box_order(box: BoundingBox) -> tuple:
    return (box.x1, box.y1, box.area)


def write_mask_dump(results: Iterable[FrameResult], path: Path) -> None:
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
                for b in sorted(boxes, key=_box_order):
                    fh.write(f"{r.frame_index} {kind} {b.x1} {b.y1} {b.x2} {b.y2}\n")


def parse_mask_dump(path: str | Path) -> dict[int, dict[str, list[BoundingBox]]]:
    """frame -> kind -> boxes; every frame key holds all four kinds."""
    path = Path(path)
    frames: dict[int, dict[str, list[BoundingBox]]] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) != 6:
            raise DataError(f"expected 6 fields, got {len(fields)}", str(path), lineno)
        frame = _parse_int(fields[0], "frame", path, lineno)
        kind = fields[1]
        if kind not in MASK_KINDS:
            raise DataError(f"unknown mask kind {kind!r}", str(path), lineno)
        x1, y1, x2, y2 = (_parse_float(t, "coordinate", path, lineno) for t in fields[2:6])
        per = frames.setdefault(frame, {k: [] for k in MASK_KINDS})
        per[kind].append(BoundingBox(x1, y1, x2, y2))
    return frames


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        moment = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
    else:
        moment = datetime.datetime.now(tz=datetime.timezone.utc)
    return moment.isoformat(timespec="seconds")


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return f"sha256:{h.hexdigest()}"


def write_manifest(
    path: Path,
    command: str,
    snapshot: Mapping[str, Mapping[str, object]],
    inputs: Iterable[str | Path],
    outputs: Iterable[str],
    meta: SequenceMeta | None = None,
    extra: Mapping[str, object] | None = None,
) -> None:
    """Record everything that determines a run's outputs.

    The timestamp honours SOURCE_DATE_EPOCH so that reruns can be made byte
    identical.
    """
    manifest: dict[str, object] = {
        "tool": "trackcascade",
        "version": __version__,
        "command": command,
        "timestamp": _timestamp(),
        "config": {s: dict(kv) for s, kv in snapshot.items()},
        "inputs": {str(p): file_digest(p) for p in sorted(str(p) for p in inputs)},
        "outputs": sorted(outputs),
    }
    if meta is not None:
        manifest["sequence"] = {
            "sequence_id": meta.sequence_id,
            "frame_count": meta.frame_count,
            "frame_w": meta.frame_w,
            "frame_h": meta.frame_h,
            "frame_rate": meta.frame_rate,
        }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read manifest: {exc}", str(path)) from None
    except json.JSONDecodeError as exc:
        raise DataError(f"bad manifest: {exc}", str(path)) from None
