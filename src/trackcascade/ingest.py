"""File formats, class naming, and the ground-truth label records.

Three text formats, all whitespace separated with '#' comments:

  detections   frame class score x1 y1 x2 y2
  labels       KITTI tracking label lines (17 or 18 fields)
  meta         key = value under a [sequence] section

Floats are written with Python's shortest round-trip repr, so
parse(write(parse(f))) == parse(f) holds exactly.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import DataError
from .geometry import BoundingBox, Detection, score_order

DONTCARE = "dontcare"
DONTCARE_ID = -1


class ClassMap:
    """Case-insensitive class-name <-> id mapping.

    Configured names get ids 0..n-1 in the given order; unknown names seen in
    files are registered with the next free id and flagged. 'DontCare' always
    maps to -1.
    """

    def __init__(self, names: Sequence[str]):
        self._ids: dict[str, int] = {}
        self._tokens: dict[str, int] = {}  # raw token -> id, for every token id_of has seen
        self._names: dict[int, str] = {DONTCARE_ID: DONTCARE}
        for name in names:
            canon = name.strip().lower()
            if canon == DONTCARE or canon in self._ids:
                continue
            self._register(canon)
        self.configured = frozenset(self._ids.values())
        self.flagged: set[str] = set()

    def _register(self, canon: str) -> int:
        class_id = len(self._ids)
        self._ids[canon] = class_id
        self._names[class_id] = canon
        return class_id

    def id_of(self, name: str) -> int:
        found = self._tokens.get(name)
        if found is None:
            canon = name.strip().lower()
            if canon == DONTCARE:
                found = DONTCARE_ID
            elif canon in self._ids:
                found = self._ids[canon]
            else:
                self.flagged.add(canon)
                found = self._register(canon)
            self._tokens[name] = found
        return found

    def name_of(self, class_id: int) -> str:
        return self._names[class_id]


@dataclass(frozen=True)
class SequenceMeta:
    sequence_id: str
    frame_count: int
    frame_w: float
    frame_h: float
    frame_rate: float = 10.0

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError("frame_count must be >= 1")
        if not (0.0 < self.frame_w < math.inf and 0.0 < self.frame_h < math.inf):
            raise ValueError("frame dimensions must be finite and positive")
        if not 0.0 < self.frame_w * self.frame_h < math.inf:
            raise ValueError("frame area frame_w * frame_h must be finite and > 0")
        if not 0.0 < self.frame_rate < math.inf:
            raise ValueError("frame_rate must be finite and > 0")


class DetectionStore:
    """Frame-indexed detections, preserving file order within each frame."""

    def __init__(self, by_frame: dict[int, list[Detection]] | None = None):
        self._by_frame = by_frame or {}

    def get(self, frame_index: int) -> list[Detection]:
        return list(self._by_frame.get(frame_index, []))

    def all(self) -> list[Detection]:
        return [d for f in sorted(self._by_frame) for d in self._by_frame[f]]

    def add(self, det: Detection) -> None:
        self._by_frame.setdefault(det.frame_index, []).append(det)


def read_text(path: str | Path, what: str, error: type[DataError] = DataError) -> str:
    """A file's text as text-mode reading gives it (universal newlines).

    An unreadable file, or one that is not UTF-8, is an `error` naming the
    file (and the line of the first bad byte).
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}", str(path)) from None
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{what} is not UTF-8 text ({exc.reason})", str(path), line) from None


def data_lines(path: Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-separated fields) of each line with a field before any '#'."""
    # Text mode splits lines on "\n" only; str.splitlines() would renumber them.
    for lineno, line in enumerate(read_text(path, "file").split("\n"), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        fields = line.split()
        if fields:
            yield lineno, fields


def read_ini(
    path: str | Path, what: str, known: Callable[[str], bool], error: type[DataError] = DataError
) -> configparser.ConfigParser:
    """An INI file whose keys keep their case and whose values are literal text (no `%`).

    A syntax error, a non-empty [DEFAULT] section, or a section that `known`
    refuses is an `error` naming the file.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(read_text(path, what, error), source=str(path))
    except configparser.Error as exc:
        raise error(f"bad {what} syntax: {exc}", str(path)) from None
    for name in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        if name == "DEFAULT" or not known(name):
            raise error(f"bad {what}: unknown section [{name}]", str(path))
    return parser


def check_keys(
    section: configparser.SectionProxy, known: Iterable[str], required: Iterable[str] = ()
) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")


def check_name(name: str, where: str, error: type[Exception] = ValueError) -> None:
    """Refuse a name that becomes part of a file name but could not be one."""
    if not name or any(ch.isspace() or ch in "/\\\0" for ch in name):
        raise error(f"bad name {name!r} in {where}: empty, or holds whitespace, /, \\ or NUL")


def parse_float(token: str, what: str, path: Path, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"bad {what} {token!r}", str(path), lineno) from None
    if math.isnan(value) or math.isinf(value):
        raise DataError(f"non-finite {what} {token!r}", str(path), lineno)
    return value


def parse_int(token: str, what: str, path: Path, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataError(f"bad {what} {token!r}", str(path), lineno) from None


def _check_detection(
    fields: list[str], class_map: ClassMap, frame_count: int | None, path: Path, lineno: int
) -> Detection:
    """A detection line checked field by field, for a line the one-pass test refused.

    Raises the line's located DataError, or returns its detection when the
    line is valid after all (a sum of finite fields can overflow).
    """
    if len(fields) != 7:
        raise DataError(f"expected 7 fields, got {len(fields)}", str(path), lineno)
    frame = parse_int(fields[0], "frame index", path, lineno)
    if frame_count is not None and frame >= frame_count:
        raise DataError(
            f"frame {frame} is past the sequence's {frame_count} frames", str(path), lineno
        )
    score = parse_float(fields[2], "score", path, lineno)
    corners = [parse_float(t, "coordinate", path, lineno) for t in fields[3:7]]
    try:
        return Detection(BoundingBox(*corners), class_map.id_of(fields[1]), score, frame)
    except ValueError as exc:
        raise DataError(str(exc), str(path), lineno) from None


def parse_detections(
    path: str | Path, class_map: ClassMap, frame_count: int | None = None
) -> DetectionStore:
    """Read a detection file; a malformed record, or one past `frame_count`, is a located error.

    Each line is converted, tested for what the records do not check (the
    frame limit, finite fields) and built in one `try`; only a line that
    fails goes to `_check_detection`, which finds the first rule it breaks.
    """
    path = Path(path)
    limit = math.inf if frame_count is None else frame_count
    class_id = class_map.id_of
    isfinite = math.isfinite
    by_frame: dict[int, list[Detection]] = {}
    for lineno, fields in data_lines(path):
        det = None
        try:
            f, name, s, a, b, c, d = fields
            frame, score, x1, y1, x2, y2 = int(f), float(s), float(a), float(b), float(c), float(d)
            if frame < limit and isfinite(score + x1 + y1 + x2 + y2):
                det = Detection(BoundingBox(x1, y1, x2, y2), class_id(name), score, frame)
        except ValueError:  # a bad number, not 7 fields, or a record's own check
            pass
        if det is None:
            det = _check_detection(fields, class_map, frame_count, path, lineno)
        by_frame.setdefault(det.frame_index, []).append(det)
    return DetectionStore(by_frame)


def write_detections(
    detections: Iterable[Detection], class_map: ClassMap, path: str | Path
) -> None:
    """Write detections sorted by frame, then in `score_order`."""
    ordered = sorted(detections, key=lambda d: (d.frame_index, *score_order(d)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# frame class score x1 y1 x2 y2\n")
        for d in ordered:
            b = d.box
            fh.write(
                f"{d.frame_index} {class_map.name_of(d.class_id)} {d.score} "
                f"{b.x1} {b.y1} {b.x2} {b.y2}\n"
            )


@dataclass(slots=True, unsafe_hash=True)
class GtEntry:
    """One annotated frame of a ground-truth track; slotted, treated as immutable."""

    frame_index: int
    box: BoundingBox
    truncated: float = 0.0
    occluded: int = 0

    def __post_init__(self):
        self.truncated = float(self.truncated)
        if self.frame_index < 0:
            raise ValueError(f"negative frame index {self.frame_index}")


@dataclass
class GroundTruthTrack:
    """A labelled object sequence; frame indices are strictly increasing."""

    track_id: int
    class_id: int
    frames: list[GtEntry]

    def __post_init__(self):
        for a, b in zip(self.frames, self.frames[1:]):
            if b.frame_index <= a.frame_index:
                raise ValueError(
                    f"track {self.track_id}: frame indices must be strictly increasing"
                )


@dataclass
class KittiLabels:
    """Parsed KITTI tracking labels: real tracks plus DontCare regions."""

    tracks: list[GroundTruthTrack]
    dontcare_by_frame: dict[int, list[BoundingBox]]


def _check_label(
    fields: list[str], class_map: ClassMap, path: Path, lineno: int
) -> tuple[int, int, GtEntry]:
    """A label line checked field by field, for a line the one-pass test refused.

    Raises the line's located DataError, or returns its (track id, class id,
    entry) when the line is valid after all (a sum of finite fields can
    overflow).
    """
    if len(fields) < 17:
        raise DataError(f"expected >= 17 fields, got {len(fields)}", str(path), lineno)
    frame = parse_int(fields[0], "frame index", path, lineno)
    track_id = parse_int(fields[1], "track id", path, lineno)
    class_id = class_map.id_of(fields[2])
    truncated = parse_float(fields[3], "truncation", path, lineno)
    occluded = parse_int(fields[4], "occlusion", path, lineno)
    corners = [parse_float(t, "coordinate", path, lineno) for t in fields[6:10]]
    try:
        return track_id, class_id, GtEntry(frame, BoundingBox(*corners), truncated, occluded)
    except ValueError as exc:
        raise DataError(str(exc), str(path), lineno) from None


def parse_kitti_tracking_labels(path: str | Path, class_map: ClassMap) -> KittiLabels:
    """Read KITTI tracking labels into per-track frame sequences.

    DontCare lines become frame-indexed don't-care regions instead of tracks;
    frames within a track must be strictly increasing, and its class the same
    on every line (in any letter case).  Lines are read in one pass, as in
    `parse_detections`, with `_check_label` for a refused line.
    """
    path = Path(path)
    class_id_of = class_map.id_of
    isfinite = math.isfinite
    entries: dict[int, list[GtEntry]] = {}
    track_class: dict[int, int] = {}
    dontcare: dict[int, list[BoundingBox]] = {}
    for lineno, fields in data_lines(path):
        entry = None
        try:
            frame, track_id, occluded = int(fields[0]), int(fields[1]), int(fields[4])
            truncated, x1, y1 = float(fields[3]), float(fields[6]), float(fields[7])
            x2, y2 = float(fields[8]), float(fields[9])
            if len(fields) >= 17 and isfinite(truncated + x1 + y1 + x2 + y2):
                class_id = class_id_of(fields[2])
                entry = GtEntry(frame, BoundingBox(x1, y1, x2, y2), truncated, occluded)
        except (ValueError, IndexError):  # a bad number, too few fields, or a record's own check
            pass
        if entry is None:
            track_id, class_id, entry = _check_label(fields, class_map, path, lineno)
            frame = entry.frame_index
        if class_id == DONTCARE_ID:
            dontcare.setdefault(frame, []).append(entry.box)
            continue
        prior = entries.setdefault(track_id, [])
        if prior and frame <= prior[-1].frame_index:
            raise DataError(
                f"track {track_id}: frame {frame} not after {prior[-1].frame_index}",
                str(path),
                lineno,
            )
        first_class = track_class.setdefault(track_id, class_id)
        if class_id != first_class:
            raise DataError(
                f"track {track_id}: class {class_map.name_of(class_id)!r} after "
                f"{class_map.name_of(first_class)!r}",
                str(path),
                lineno,
            )
        prior.append(entry)

    tracks = [
        GroundTruthTrack(tid, track_class[tid], entries[tid]) for tid in sorted(entries)
    ]
    return KittiLabels(tracks, dontcare)


def write_tracks(labels: KittiLabels, class_map: ClassMap, path: str | Path) -> None:
    """Write tracks back out in KITTI tracking label format (17 fields)."""
    rows: list[tuple[int, int, str, float, int, BoundingBox]] = []
    for t in labels.tracks:
        for e in t.frames:
            rows.append((e.frame_index, t.track_id, class_map.name_of(t.class_id),
                         e.truncated, e.occluded, e.box))
    for frame, boxes in labels.dontcare_by_frame.items():
        for b in boxes:
            rows.append((frame, -1, DONTCARE, -1.0, -1, b))
    rows.sort(key=lambda r: (r[0], r[1], r[5].x1, r[5].y1))
    with open(path, "w", encoding="utf-8") as fh:
        for frame, tid, name, trunc, occ, b in rows:
            fh.write(
                f"{frame} {tid} {name} {trunc} {occ} -10 "
                f"{b.x1} {b.y1} {b.x2} {b.y2} -1 -1 -1 -1000 -1000 -1000 -10\n"
            )


def parse_meta(path: str | Path) -> SequenceMeta:
    path = Path(path)
    parser = read_ini(path, "sequence meta", lambda name: name == "sequence")
    where = ""
    try:
        sec = parser["sequence"]
        where = "[sequence] "
        check_keys(
            sec,
            (f.name for f in dataclasses.fields(SequenceMeta)),
            ("frame_count", "frame_w", "frame_h"),
        )
        return SequenceMeta(
            sequence_id=sec.get("sequence_id", path.parent.name),
            frame_count=sec.getint("frame_count"),
            frame_w=sec.getfloat("frame_w"),
            frame_h=sec.getfloat("frame_h"),
            frame_rate=sec.getfloat("frame_rate", fallback=SequenceMeta.frame_rate),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad sequence meta: {where}{exc}", str(path)) from None


def write_meta(meta: SequenceMeta, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[sequence]\n")
        for key, value in dataclasses.asdict(meta).items():
            fh.write(f"{key} = {value}\n")

