"""Run output artifacts: work records, mask dumps and the run manifest."""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
from pathlib import Path
from typing import Iterable, Mapping

from . import __version__
from .cascade import FrameResult
from .costmodel import WorkReport
from .errors import DataError
from .geometry import BoundingBox
from .ingest import SequenceMeta, _data_lines, _parse_float, _parse_int, read_text

MASK_KINDS = ("tracker", "proposal", "refine", "mask")

_WORK_COLUMNS = (
    "frame proposal_ops refine_ops total_ops from_tracker_ops from_proposal_ops "
    "coverage n_tracker_props n_proposal_props n_refine_props merged_regions estimated_time"
)


def _fmt_opt(value: float | None, spec: str = "") -> str:
    """A value formatted with `spec`, or "/" for None."""
    return "/" if value is None else format(value, spec)


def write_work_records(results: Iterable[FrameResult], total: WorkReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_WORK_COLUMNS}\n")
        for r in results:
            w = r.work
            fh.write(
                f"{r.frame_index} {w.proposal_ops} {w.refine_ops} {w.total_ops} "
                f"{_fmt_opt(w.refine_from_tracker_ops)} {_fmt_opt(w.refine_from_proposal_ops)} "
                f"{r.mask.coverage} {len(r.tracker_boxes)} "
                f"{len(r.proposal_boxes)} {len(r.refine_proposals)} "
                f"{w.merged_region_count} {_fmt_opt(w.estimated_time)}\n"
            )
        fh.write(
            f"total {total.proposal_ops} {total.refine_ops} {total.total_ops} "
            f"{_fmt_opt(total.refine_from_tracker_ops)} {_fmt_opt(total.refine_from_proposal_ops)} "
            f"/ / / / {total.merged_region_count} {_fmt_opt(total.estimated_time)}\n"
        )


def parse_work_total(path: str | Path) -> WorkReport:
    """The totals row of a work.txt, after checking every row.

    A row needs 12 fields, an integer frame, finite ops or "/", and a
    total_ops exactly equal to proposal_ops + refine_ops.
    """
    path = Path(path)
    total: WorkReport | None = None

    def opt_float(token: str, lineno: int) -> float | None:
        return None if token == "/" else _parse_float(token, "ops", path, lineno)

    for lineno, fields in _data_lines(path):
        if len(fields) != 12:
            raise DataError(f"expected 12 fields, got {len(fields)}", str(path), lineno)
        is_total = fields[0] == "total"
        if not is_total:
            _parse_int(fields[0], "frame", path, lineno)
        proposal = _parse_float(fields[1], "ops", path, lineno)
        refine = _parse_float(fields[2], "ops", path, lineno)
        if _parse_float(fields[3], "ops", path, lineno) != proposal + refine:
            raise DataError(
                f"total_ops {fields[3]} is not proposal_ops + refine_ops ({proposal + refine})",
                str(path),
                lineno,
            )
        from_tracker = opt_float(fields[4], lineno)
        from_proposal = opt_float(fields[5], lineno)
        estimated = opt_float(fields[11], lineno)
        if is_total:
            merged = _parse_int(fields[10], "merged region count", path, lineno)
            total = WorkReport(proposal, refine, from_tracker, from_proposal, estimated, merged)
    if total is None:
        raise DataError("missing totals row", str(path))
    return total


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
        manifest["sequence"] = dataclasses.asdict(meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str | Path) -> dict:
    text = read_text(path, "manifest")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"bad manifest: {exc}", str(path)) from None
