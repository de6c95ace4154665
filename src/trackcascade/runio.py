"""Run output artifacts: work records, mask dumps and the run manifest."""

from __future__ import annotations

import dataclasses
import datetime
import hashlib
import json
import os
import re
from math import isfinite
from operator import add, eq, itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from . import __version__
from .costmodel import WorkReport
from .errors import DataError
from .geometry import BoundingBox
from .ingest import SequenceMeta, data_lines, parse_float, parse_int, read_text

if TYPE_CHECKING:
    from .cascade import FrameResult

MASK_KINDS = ("tracker", "proposal", "refine", "mask")

_WORK_COLUMNS = (
    "frame proposal_ops refine_ops total_ops from_tracker_ops from_proposal_ops "
    "coverage n_tracker_props n_proposal_props n_refine_props merged_regions estimated_time"
)


def fmt_opt(value: float | None, spec: str = "") -> str:
    """A value formatted with `spec`, or "/" for None."""
    return "/" if value is None else format(value, spec)


def write_work_records(results: Iterable[FrameResult], total: WorkReport, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {_WORK_COLUMNS}\n")
        for r in results:
            w = r.work
            fh.write(
                f"{r.frame_index} {w.proposal_ops} {w.refine_ops} {w.total_ops} "
                f"{fmt_opt(w.refine_from_tracker_ops)} {fmt_opt(w.refine_from_proposal_ops)} "
                f"{r.mask.coverage} {len(r.tracker_boxes)} "
                f"{len(r.proposal_boxes)} {len(r.refine_proposals)} "
                f"{w.merged_region_count} {fmt_opt(w.estimated_time)}\n"
            )
        fh.write(
            f"total {total.proposal_ops} {total.refine_ops} {total.total_ops} "
            f"{fmt_opt(total.refine_from_tracker_ops)} {fmt_opt(total.refine_from_proposal_ops)} "
            f"/ / / / {total.merged_region_count} {fmt_opt(total.estimated_time)}\n"
        )


def parse_work_total(path: str | Path) -> tuple[WorkReport, int]:
    """The totals row of a work.txt and its number of frame rows, after checking every row.

    A row needs 12 fields, an integer frame, finite ops or "/", and a
    total_ops exactly equal to proposal_ops + refine_ops.  Frame rows are
    numbered 0, 1, ... in order, and one totals row comes last.

    The file is checked column by column in one pass; only a file that pass
    does not recognise goes to `_check_work_rows`, which raises its located
    DataError or, for a valid file, returns the same result.
    """
    path = Path(path)
    text = read_text(path, "file")
    try:
        return _work_total_by_column(text)
    except ValueError:  # not the plain form `write_work_records` writes
        return _check_work_rows(path)


def _work_total_by_column(text: str) -> tuple[WorkReport, int]:
    """`parse_work_total` of a file in the plain form, or a ValueError for any other file.

    The plain form is an optional "#" header line, then rows of 12 fields
    with no "#": frames written 0, 1, ... and one "total" row last, finite
    ops, and each optional column either all "/" or all finite.
    """
    header, _, body = text.partition("\n")
    if not header.startswith("#"):
        body = text
    if "#" in body:
        raise ValueError("a comment")
    rows = list(filter(None, map(str.split, body.split("\n"))))
    columns = list(zip(*rows, strict=True))  # a ValueError for rows of unequal length
    if len(columns) != 12:
        raise ValueError("not 12 fields")
    frames = columns[0]
    n = len(frames) - 1
    if frames[n] != "total" or frames[:n] != tuple(map(str, range(n))):
        raise ValueError("frames not written 0, 1, ..., total")
    proposal, refine, total = (list(map(float, c)) for c in columns[1:4])
    # A finite total equal to proposal + refine makes both of them finite, but an
    # inf total equals a proposal + refine that overflows.
    if not (all(map(isfinite, total)) and all(map(eq, total, map(add, proposal, refine)))):
        raise ValueError("ops not finite or not adding up")

    def optional(column: tuple[str, ...]) -> float | None:
        if column.count("/") == len(column):
            return None
        values = list(map(float, column))  # "/" beside numbers is a ValueError too
        if not all(map(isfinite, values)):
            raise ValueError("non-finite ops")
        return values[n]

    report = WorkReport(
        proposal[n], refine[n], optional(columns[4]), optional(columns[5]),
        optional(columns[11]), int(columns[10][n]),
    )
    return report, n


def _check_work_rows(path: Path) -> tuple[WorkReport, int]:
    """`parse_work_total` row by row and field by field, locating the first fault."""
    total: WorkReport | None = None
    frame_rows = 0

    def opt_float(token: str, lineno: int) -> float | None:
        return None if token == "/" else parse_float(token, "ops", path, lineno)

    for lineno, fields in data_lines(path):
        if len(fields) != 12:
            raise DataError(f"expected 12 fields, got {len(fields)}", str(path), lineno)
        is_total = fields[0] == "total"
        if total is not None:
            problem = "second totals row" if is_total else "frame row after the totals row"
            raise DataError(problem, str(path), lineno)
        if not is_total:
            frame = parse_int(fields[0], "frame", path, lineno)
            if frame != frame_rows:
                raise DataError(
                    f"frame {frame} out of order: expected frame {frame_rows}", str(path), lineno
                )
            frame_rows += 1
        proposal = parse_float(fields[1], "ops", path, lineno)
        refine = parse_float(fields[2], "ops", path, lineno)
        if parse_float(fields[3], "ops", path, lineno) != proposal + refine:
            raise DataError(
                f"total_ops {fields[3]} is not proposal_ops + refine_ops ({proposal + refine})",
                str(path),
                lineno,
            )
        from_tracker = opt_float(fields[4], lineno)
        from_proposal = opt_float(fields[5], lineno)
        estimated = opt_float(fields[11], lineno)
        if is_total:
            merged = parse_int(fields[10], "merged region count", path, lineno)
            total = WorkReport(proposal, refine, from_tracker, from_proposal, estimated, merged)
    if total is None:
        raise DataError("missing totals row", str(path))
    return total, frame_rows


def write_mask_dump(results: Iterable[FrameResult], path: Path) -> None:
    """Write one `frame kind x1 y1 x2 y2` row per box of each frame, frame by frame.

    A frame's rows are its tracker boxes, then its proposal boxes, then its
    refine proposals (the de-duplicated union of both), then its mask
    regions; within one kind they are sorted by x1, y1, area, x2, y2, and
    boxes equal on all five keep their recorded order. This order is part of
    the byte-identical output. A box object is formatted once per frame: a
    refine proposal is the very box of a tracker or proposal row.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# frame kind x1 y1 x2 y2\n")
        for r in results:
            seen: dict[int, tuple[tuple, str]] = {}  # id(box) -> (sort key, "x1 y1 x2 y2\n")
            rows = []
            per_kind = (
                ("tracker", [d.box for d in r.tracker_boxes]),
                ("proposal", [d.box for d in r.proposal_boxes]),
                ("refine", [d.box for d in r.refine_proposals]),
                ("mask", r.mask.regions),
            )
            for kind, boxes in per_kind:
                keyed = []
                for b in boxes:
                    item = seen.get(id(b))
                    if item is None:
                        x1, y1, x2, y2 = b.x1, b.y1, b.x2, b.y2
                        item = seen[id(b)] = (
                            (x1, y1, (x2 - x1) * (y2 - y1), x2, y2),
                            f"{x1} {y1} {x2} {y2}\n",
                        )
                    keyed.append(item)
                keyed.sort(key=itemgetter(0))
                prefix = f"{r.frame_index} {kind} "
                rows += [prefix + text for _, text in keyed]
            fh.write("".join(rows))


def parse_mask_dump(path: str | Path) -> dict[int, dict[str, list[BoundingBox]]]:
    """frame -> kind -> boxes; every frame key holds all four kinds."""
    path = Path(path)
    frames: dict[int, dict[str, list[BoundingBox]]] = {}
    for lineno, fields in data_lines(path):
        if len(fields) != 6:
            raise DataError(f"expected 6 fields, got {len(fields)}", str(path), lineno)
        frame = parse_int(fields[0], "frame", path, lineno)
        kind = fields[1]
        if kind not in MASK_KINDS:
            raise DataError(f"unknown mask kind {kind!r}", str(path), lineno)
        x1, y1, x2, y2 = (parse_float(t, "coordinate", path, lineno) for t in fields[2:6])
        try:
            box = BoundingBox(x1, y1, x2, y2)
        except ValueError as exc:
            raise DataError(str(exc), str(path), lineno) from None
        per = frames.setdefault(frame, {k: [] for k in MASK_KINDS})
        per[kind].append(box)
    return frames


def source_date_epoch() -> datetime.datetime | None:
    """The moment SOURCE_DATE_EPOCH pins the manifest timestamp to, or None when it is unset.

    A value other than ASCII digits after an optional `-` (the empty one
    included), or one `datetime` cannot represent, is a DataError.
    """
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    try:
        # The form `date +%s` prints; int() also reads "1_0", " +1" and non-ASCII digits.
        if not re.fullmatch(r"-?[0-9]+", epoch):
            raise ValueError(epoch)
        return datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise DataError(
            f"SOURCE_DATE_EPOCH={epoch!r} is not a whole number of seconds that a date can hold"
        ) from None


def _timestamp() -> str:
    moment = source_date_epoch() or datetime.datetime.now(tz=datetime.timezone.utc)
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
    except RecursionError:
        raise DataError("bad manifest: nested too deeply", str(path)) from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise DataError("bad manifest: an integer has too many digits", str(path)) from None
