"""The synthetic sequence generator: scripted objects seen by noisy oracle detectors.

A scenario file (INI) scripts objects moving linearly through a frame and
describes each detector source by its noise; `generate_synthetic` turns it
into ground truth and per-source detections, deterministically from the
scenario's seed, and `write_sequence_dir` writes them in the standard
sequence layout that `run` and `eval` read.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import DataError
from .geometry import BoundingBox, Detection
from .ingest import (
    DONTCARE,
    ClassMap,
    DetectionStore,
    GroundTruthTrack,
    GtEntry,
    KittiLabels,
    SequenceMeta,
    check_keys,
    check_name,
    read_ini,
    write_detections,
    write_meta,
    write_tracks,
)


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
        if words[0].lower() == DONTCARE:
            raise ValueError(f"class {words[0]!r} names KITTI's DontCare regions, not a track")
        if not 0 <= self.entry_frame <= self.exit_frame:
            raise ValueError("need 0 <= entry <= exit")
        b = self.box
        corners = (b.x1, b.y1, b.x2, b.y2)
        if not all(map(math.isfinite, corners)) or b.width <= 0 or b.height <= 0:
            # path scales the height by height / width, and a box of no height is never seen.
            raise ValueError("box corners must be finite, with width > 0 and height > 0")
        if len(self.velocity) not in (2, 3) or not all(map(math.isfinite, self.velocity)):
            raise ValueError("velocity must be 2 or 3 finite numbers")
        object.__setattr__(self, "velocity", (*map(float, self.velocity), 0.0)[:3])

    def path(self, last_frame: int) -> Iterator[tuple[int, tuple[float, float, float, float]]]:
        """(frame, (x1, y1, x2, y2)) of the scripted box, unclipped, up to `last_frame`.

        The centre moves by (dx, dy) and the width by dwidth per frame; the
        height keeps the initial aspect ratio, and both stay >= 0.
        """
        b = self.box
        cx, cy = (b.x1 + b.x2) / 2.0, (b.y1 + b.y2) / 2.0
        width0 = b.x2 - b.x1
        aspect = (b.y2 - b.y1) / width0
        dx, dy, dwidth = self.velocity
        for frame in range(self.entry_frame, min(self.exit_frame, last_frame) + 1):
            age = frame - self.entry_frame
            width = width0 + dwidth * age
            height = width * aspect
            x, y = cx + dx * age, cy + dy * age
            width, height = max(width, 0.0), max(height, 0.0)
            yield frame, (x - width / 2.0, y - height / 2.0, x + width / 2.0, y + height / 2.0)


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
        check_keys(sec, _SCENARIO_KEYS, _SCENARIO_REQUIRED)
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
                check_keys(o, _OBJECT_KEYS, _OBJECT_REQUIRED)
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
                name = section.split(".", 1)[1]
                check_name(name, f"[{section}]")  # it names the file <name>.txt
                if name == "labels":
                    raise ValueError(
                        f"bad name 'labels' in [{section}]: labels.txt holds the ground truth"
                    )
                s = parser[section]
                fields = dataclasses.fields(NoiseModel)
                check_keys(s, (f.name for f in fields))
                scenario.sources[name] = NoiseModel(
                    **{f.name: s.getfloat(f.name, fallback=f.default) for f in fields}
                )
        for name, noise in scenario.sources.items():
            if noise.fp_per_frame > 0 and not scenario.objects:
                section = f"source.{name}"
                raise ValueError(
                    "fp_per_frame > 0 needs an [object.*]: false positives take its classes"
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

    One RNG seeded from the scenario drives every draw, and the draw order is
    the contract that byte-identical reruns rest on: frames ascending; within
    a frame, sources in name order; within a source, first each live object
    in script order, then the false positives.  A live object draws a uniform
    for the miss and, unless missed, five standard normals: the jitter of
    x1, y1, x2, y2, then the score.  The false positives draw one Poisson
    count, then for each four uniforms (width, aspect, centre x, centre y), a
    standard normal for the score and an integer for the class.

    Each detection makes one numpy call per draw group and does its box
    arithmetic on Python floats, with the same operations `Generator.normal`
    (`loc + scale * z`), `Generator.uniform` (`low + (high - low) * u`),
    `BoundingBox.from_center` and `BoundingBox.clip` do.  No block is drawn
    ahead: the normal and Poisson draws take a variable number of words from
    the stream, so that would shift every later value.
    """
    import numpy as np  # only the generator needs it; keeps it out of every other command

    meta = scenario.meta
    frame_w, frame_h = float(meta.frame_w), float(meta.frame_h)
    rng = np.random.default_rng(scenario.seed)
    random, standard_normal, integers = rng.random, rng.standard_normal, rng.integers
    class_names = sorted({o.class_name.strip().lower() for o in scenario.objects})
    class_map = ClassMap(class_names)
    class_ids = [class_map.id_of(name) for name in class_names]

    tracks: list[GroundTruthTrack] = []
    # frame -> (x1, y1, x2, y2, class id) of each object in view, in script order
    live: dict[int, list[tuple[float, float, float, float, int]]] = {}
    for tid, obj in enumerate(scenario.objects, start=1):
        class_id = class_map.id_of(obj.class_name)
        entries = []
        for frame, (x1, y1, x2, y2) in obj.path(meta.frame_count - 1):
            cx1, cy1 = min(max(x1, 0.0), frame_w), min(max(y1, 0.0), frame_h)
            cx2, cy2 = min(max(x2, 0.0), frame_w), min(max(y2, 0.0), frame_h)
            clipped_area = (cx2 - cx1) * (cy2 - cy1)
            scripted_area = (x2 - x1) * (y2 - y1)
            # An overflowed box has a NaN area; like one that clips to nothing, it is out of view.
            if not (clipped_area > 0 and scripted_area > 0):
                continue
            box = BoundingBox(cx1, cy1, cx2, cy2)
            entries.append(GtEntry(frame, box, truncated=1.0 - clipped_area / scripted_area))
            live.setdefault(frame, []).append((cx1, cy1, cx2, cy2, class_id))
        if entries:
            tracks.append(GroundTruthTrack(tid, class_id, entries))

    stores = {name: DetectionStore() for name in sorted(scenario.sources)}
    sources = [(scenario.sources[name], store.add) for name, store in stores.items()]
    for frame in range(meta.frame_count):
        in_view = live.get(frame, ())
        for noise, add in sources:
            miss_prob, jitter = noise.miss_prob, noise.jitter
            score_mean, score_sigma = noise.score_mean, noise.score_sigma
            for x1, y1, x2, y2, class_id in in_view:
                if random() < miss_prob:
                    continue
                z0, z1, z2, z3, z4 = standard_normal(5).tolist()
                x1 += 0.0 + jitter * z0
                y1 += 0.0 + jitter * z1
                x2 += 0.0 + jitter * z2
                y2 += 0.0 + jitter * z3
                if x2 < x1:
                    x1, x2 = x2, x1
                if y2 < y1:
                    y1, y2 = y2, y1
                x1, y1 = min(max(x1, 0.0), frame_w), min(max(y1, 0.0), frame_h)
                x2, y2 = min(max(x2, 0.0), frame_w), min(max(y2, 0.0), frame_h)
                score = min(max(score_mean + score_sigma * z4, 0.01), 0.999)
                if (x2 - x1) * (y2 - y1) > 0:
                    add(Detection(BoundingBox(x1, y1, x2, y2), class_id, score, frame))
            for _ in range(int(rng.poisson(noise.fp_per_frame))):
                u0, u1, u2, u3 = random(4).tolist()
                w = 20.0 + (120.0 - 20.0) * u0
                h = w * (0.5 + (2.0 - 0.5) * u1)
                cx = 0.0 + (frame_w - 0.0) * u2
                cy = 0.0 + (frame_h - 0.0) * u3
                x1 = min(max(cx - w / 2.0, 0.0), frame_w)
                y1 = min(max(cy - h / 2.0, 0.0), frame_h)
                x2 = min(max(cx + w / 2.0, 0.0), frame_w)
                y2 = min(max(cy + h / 2.0, 0.0), frame_h)
                z = standard_normal()
                score = min(max(noise.fp_score_mean + noise.fp_score_sigma * z, 0.01), 0.999)
                class_id = class_ids[int(integers(len(class_ids)))]
                if (x2 - x1) * (y2 - y1) > 0:
                    add(Detection(BoundingBox(x1, y1, x2, y2), class_id, score, frame))

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
