"""File formats, class naming, and the synthetic sequence generator.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError
from .geometry import BoundingBox, Detection, score_order
from .metrics import GroundTruthTrack, GtEntry

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
        canon = name.strip().lower()
        if canon == DONTCARE:
            return DONTCARE_ID
        if canon not in self._ids:
            self.flagged.add(canon)
            return self._register(canon)
        return self._ids[canon]

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


def _data_lines(path: Path) -> Iterable[tuple[int, list[str]]]:
    # Text mode splits lines on "\n" only; str.splitlines() would renumber them.
    for lineno, raw in enumerate(read_text(path, "file").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def read_ini(
    path: str | Path, what: str, known: Callable[[str], bool], error: type[DataError] = DataError
) -> configparser.ConfigParser:
    """An INI file whose values are literal text (no `%` interpolation).

    A syntax error, a non-empty [DEFAULT] section, or a section that `known`
    refuses is an `error` naming the file.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        parser.read_string(read_text(path, what, error), source=str(path))
    except configparser.Error as exc:
        raise error(f"bad {what} syntax: {exc}", str(path)) from None
    for name in parser.sections() + (["DEFAULT"] if parser.defaults() else []):
        if name == "DEFAULT" or not known(name):
            raise error(f"bad {what}: unknown section [{name}]", str(path))
    return parser


def _check_keys(
    section: configparser.SectionProxy, known: Iterable[str], required: Iterable[str] = ()
) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")
    missing = [key for key in required if key not in section]
    if missing:
        raise ValueError(f"missing key {missing[0]!r}")


def _parse_float(token: str, what: str, path: Path, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"bad {what} {token!r}", str(path), lineno) from None
    if math.isnan(value) or math.isinf(value):
        raise DataError(f"non-finite {what} {token!r}", str(path), lineno)
    return value


def _parse_int(token: str, what: str, path: Path, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise DataError(f"bad {what} {token!r}", str(path), lineno) from None


def parse_detections(
    path: str | Path, class_map: ClassMap, frame_count: int | None = None
) -> DetectionStore:
    """Read a detection file; a malformed record, or one past `frame_count`, is a located error."""
    path = Path(path)
    by_frame: dict[int, list[Detection]] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) != 7:
            raise DataError(f"expected 7 fields, got {len(fields)}", str(path), lineno)
        frame = _parse_int(fields[0], "frame index", path, lineno)
        if frame_count is not None and frame >= frame_count:
            raise DataError(
                f"frame {frame} is past the sequence's {frame_count} frames", str(path), lineno
            )
        score = _parse_float(fields[2], "score", path, lineno)
        corners = [_parse_float(t, "coordinate", path, lineno) for t in fields[3:7]]
        try:
            det = Detection(BoundingBox(*corners), class_map.id_of(fields[1]), score, frame)
        except ValueError as exc:
            raise DataError(str(exc), str(path), lineno) from None
        by_frame.setdefault(frame, []).append(det)
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


@dataclass
class KittiLabels:
    """Parsed KITTI tracking labels: real tracks plus DontCare regions."""

    tracks: list[GroundTruthTrack]
    dontcare_by_frame: dict[int, list[BoundingBox]]


def parse_kitti_tracking_labels(path: str | Path, class_map: ClassMap) -> KittiLabels:
    """Read KITTI tracking labels into per-track frame sequences.

    DontCare lines become frame-indexed don't-care regions instead of tracks;
    frames within a track must be strictly increasing.
    """
    path = Path(path)
    entries: dict[int, list[GtEntry]] = {}
    track_class: dict[int, int] = {}
    dontcare: dict[int, list[BoundingBox]] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) < 17:
            raise DataError(f"expected >= 17 fields, got {len(fields)}", str(path), lineno)
        frame = _parse_int(fields[0], "frame index", path, lineno)
        track_id = _parse_int(fields[1], "track id", path, lineno)
        class_id = class_map.id_of(fields[2])
        truncated = _parse_float(fields[3], "truncation", path, lineno)
        occluded = _parse_int(fields[4], "occlusion", path, lineno)
        corners = [_parse_float(t, "coordinate", path, lineno) for t in fields[6:10]]
        try:
            entry = GtEntry(frame, BoundingBox(*corners), truncated, occluded)
        except ValueError as exc:
            raise DataError(str(exc), str(path), lineno) from None
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
        prior.append(entry)
        track_class[track_id] = class_id

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
        _check_keys(
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


# --- synthetic sequences -------------------------------------------------


@dataclass(frozen=True)
class ObjectScript:
    """A scripted object: linear motion from an initial box between two frames."""

    name: str
    class_name: str
    entry_frame: int
    exit_frame: int  # inclusive
    box: BoundingBox
    velocity: tuple[float, ...] = (0.0, 0.0, 0.0)  # dx, dy[, dwidth] per frame

    def __post_init__(self):
        words = (self.class_name or "").split()
        if len(words) != 1 or "#" in words[0]:  # it is one field of the label file
            raise ValueError("class must be one word without '#'")
        if not 0 <= self.entry_frame <= self.exit_frame:
            raise ValueError("need 0 <= entry <= exit")
        b = self.box
        if not all(map(math.isfinite, (b.x1, b.y1, b.x2, b.y2))) or b.width <= 0:
            # box_at scales the height by height / width.
            raise ValueError("box corners must be finite, with width > 0")
        if len(self.velocity) not in (2, 3) or not all(map(math.isfinite, self.velocity)):
            raise ValueError("velocity must be 2 or 3 finite numbers")
        object.__setattr__(self, "velocity", (*map(float, self.velocity), 0.0)[:3])

    def box_at(self, frame: int) -> BoundingBox:
        age = frame - self.entry_frame
        cx, cy = self.box.center
        width = self.box.width + self.velocity[2] * age
        height = width * (self.box.height / self.box.width)
        return BoundingBox.from_center(
            cx + self.velocity[0] * age, cy + self.velocity[1] * age, max(width, 0.0),
            max(height, 0.0),
        )


MAX_FP_PER_FRAME = 1000.0


@dataclass(frozen=True)
class NoiseModel:
    """Detector-oracle noise: misses, false positives, jitter and scoring."""

    miss_prob: float = 0.0
    fp_per_frame: float = 0.0
    jitter: float = 0.0  # std-dev of per-corner Gaussian noise, pixels
    score_mean: float = 0.9
    score_sigma: float = 0.0
    fp_score_mean: float = 0.4
    fp_score_sigma: float = 0.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not 0.0 <= self.miss_prob <= 1.0:
            raise ValueError("miss_prob must be in [0, 1]")
        if self.fp_per_frame > MAX_FP_PER_FRAME:  # each one is drawn, boxed and written
            raise ValueError(f"fp_per_frame must be <= {MAX_FP_PER_FRAME}")
        for name in ("fp_per_frame", "jitter", "score_sigma", "fp_score_sigma"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class SyntheticScenario:
    meta: SequenceMeta  # of the generated sequence
    seed: int
    objects: list[ObjectScript]
    sources: dict[str, NoiseModel] = field(default_factory=dict)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


# Keys of the [scenario] and [object.*] sections of a scenario file, and
# those of them without a default.
_SCENARIO_KEYS = ("name", "frames", "frame_w", "frame_h", "seed", "frame_rate")
_SCENARIO_REQUIRED = ("frames", "frame_w", "frame_h")
_OBJECT_KEYS = ("class", "entry", "exit", "box", "velocity")
_OBJECT_REQUIRED = ("class", "entry", "exit", "box")


def parse_scenario(path: str | Path) -> SyntheticScenario:
    """Read a scenario file; a bad value is a DataError naming its [section]."""
    path = Path(path)
    parser = read_ini(
        path, "scenario", lambda name: name == "scenario" or name.startswith(("object.", "source."))
    )
    section = "scenario"
    try:
        sec = parser[section]
        _check_keys(sec, _SCENARIO_KEYS, _SCENARIO_REQUIRED)
        scenario = SyntheticScenario(
            meta=SequenceMeta(
                sequence_id=sec.get("name", path.stem),
                frame_count=sec.getint("frames"),
                frame_w=sec.getfloat("frame_w"),
                frame_h=sec.getfloat("frame_h"),
                frame_rate=sec.getfloat("frame_rate", fallback=SequenceMeta.frame_rate),
            ),
            seed=sec.getint("seed", fallback=0),
            objects=[],
        )
        for section in parser.sections():
            if section.startswith("object."):
                o = parser[section]
                _check_keys(o, _OBJECT_KEYS, _OBJECT_REQUIRED)
                scenario.objects.append(
                    ObjectScript(
                        name=section.split(".", 1)[1],
                        class_name=o.get("class"),
                        entry_frame=o.getint("entry"),
                        exit_frame=o.getint("exit"),
                        box=BoundingBox(*(float(v) for v in o.get("box").split())),
                        velocity=tuple(float(v) for v in o.get("velocity", fallback="0 0").split()),
                    )
                )
            elif section.startswith("source."):
                s = parser[section]
                fields = dataclasses.fields(NoiseModel)
                _check_keys(s, (f.name for f in fields))
                scenario.sources[section.split(".", 1)[1]] = NoiseModel(
                    **{f.name: s.getfloat(f.name, fallback=f.default) for f in fields}
                )
        return scenario
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"bad scenario: [{section}] {exc}", str(path)) from None


@dataclass
class SyntheticData:
    meta: SequenceMeta
    labels: KittiLabels
    detections: dict[str, DetectionStore]
    class_map: ClassMap


def generate_synthetic(scenario: SyntheticScenario) -> SyntheticData:
    """Deterministic ground truth plus noisy oracle detections per source.

    A single RNG seeded from the scenario drives every draw in a fixed order
    (frames ascending, objects in script order, sources in name order), so a
    given scenario is reproducible bit for bit.
    """
    meta = scenario.meta
    rng = np.random.default_rng(scenario.seed)
    class_names = sorted({o.class_name.strip().lower() for o in scenario.objects})
    class_map = ClassMap(class_names)

    tracks: list[GroundTruthTrack] = []
    live: dict[int, list[tuple[GtEntry, int]]] = {}  # frame -> (entry, class id), script order
    for tid, obj in enumerate(scenario.objects, start=1):
        class_id = class_map.id_of(obj.class_name)
        entries = []
        for frame in range(obj.entry_frame, min(obj.exit_frame, meta.frame_count - 1) + 1):
            scripted = obj.box_at(frame)
            clipped = scripted.clip(meta.frame_w, meta.frame_h)
            if clipped.area <= 0 or scripted.area <= 0:
                continue
            entries.append(GtEntry(frame, clipped, truncated=1.0 - clipped.area / scripted.area))
            live.setdefault(frame, []).append((entries[-1], class_id))
        if entries:
            tracks.append(GroundTruthTrack(tid, class_id, entries))

    stores: dict[str, DetectionStore] = {name: DetectionStore() for name in sorted(scenario.sources)}
    for frame in range(meta.frame_count):
        for source_name in sorted(scenario.sources):
            noise = scenario.sources[source_name]
            store = stores[source_name]
            for entry, class_id in live.get(frame, ()):
                if rng.random() < noise.miss_prob:
                    continue
                corners = np.array([entry.box.x1, entry.box.y1, entry.box.x2, entry.box.y2])
                corners = corners + rng.normal(0.0, noise.jitter, size=4)
                x1, x2 = sorted((corners[0], corners[2]))
                y1, y2 = sorted((corners[1], corners[3]))
                box = BoundingBox(x1, y1, x2, y2).clip(meta.frame_w, meta.frame_h)
                score = float(np.clip(rng.normal(noise.score_mean, noise.score_sigma), 0.01, 0.999))
                if box.area > 0:
                    store.add(Detection(box, class_id, score, frame))
            for _ in range(int(rng.poisson(noise.fp_per_frame))):
                w = rng.uniform(20.0, 120.0)
                h = w * rng.uniform(0.5, 2.0)
                cx = rng.uniform(0.0, meta.frame_w)
                cy = rng.uniform(0.0, meta.frame_h)
                box = BoundingBox.from_center(cx, cy, w, h).clip(meta.frame_w, meta.frame_h)
                score = float(
                    np.clip(rng.normal(noise.fp_score_mean, noise.fp_score_sigma), 0.01, 0.999)
                )
                class_id = class_map.id_of(class_names[int(rng.integers(len(class_names)))])
                if box.area > 0:
                    store.add(Detection(box, class_id, score, frame))

    labels = KittiLabels(tracks=tracks, dontcare_by_frame={})
    return SyntheticData(meta, labels, stores, class_map)


def write_sequence_dir(data: SyntheticData, out_dir: str | Path) -> None:
    """Write the standard sequence layout: meta.cfg, labels.txt, <source>.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_meta(data.meta, out / "meta.cfg")
    write_tracks(data.labels, data.class_map, out / "labels.txt")
    for name, store in sorted(data.detections.items()):
        write_detections(store.all(), data.class_map, out / f"{name}.txt")
