"""Seeded scenario files for the benchmark workloads.

Each workload is a list of scenario files in the format that
`trackcascade gen-synthetic --scenario` reads.  Everything in them (object
layout, lifetimes, classes, velocities and the generator's own noise seed)
is drawn from one `random.Random` seeded with the benchmark's `--seed`, so
the same seed always gives byte-identical files.

Objects are laid out in `lanes`: each lane holds one object of a fixed class
at a time, and the next object of a lane enters a few frames after the
previous one leaves.  The number of live objects of each class per frame
therefore stays close to the lane counts on every seed, which keeps the
per-frame work, and so the timings, comparable between seeds.  Every
object's path stays inside the frame for its whole lifetime, so no track is
cut short by clipping.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FRAME_W = 1242.0  # KITTI frame size
FRAME_H = 375.0


@dataclass(frozen=True)
class Noise:
    miss_prob: float
    fp_per_frame: float
    jitter: float
    score_mean: float
    score_sigma: float
    fp_score_mean: float
    fp_score_sigma: float


@dataclass(frozen=True)
class SequenceSpec:
    name: str
    frames: int
    lanes: int  # objects live per frame, apart from the short gaps in a lane
    lifetime: tuple[int, int]  # inclusive range of an object's lifetime, frames
    gap: tuple[int, int]  # inclusive range of empty frames between lane objects
    car_share: float  # share of lanes that carry cars; the others carry pedestrians
    proposal: Noise
    refine: Noise


@dataclass(frozen=True)
class Workload:
    name: str
    sequences: tuple[SequenceSpec, ...]
    eval_args: tuple[str, ...]  # extra `trackcascade eval` arguments, per sequence
    eval_difficulties: tuple[str, ...]  # what eval then reports; they name its curve files


# Both oracles sit on the same ground truth.  The proposal oracle is cheap
# and sloppy (misses, many false positives, loose boxes); the refinement
# oracle is accurate.
PROPOSAL_CROWDED = Noise(0.2, 8.0, 3.0, 0.6, 0.15, 0.45, 0.15)
REFINE_CROWDED = Noise(0.03, 2.0, 1.0, 0.88, 0.06, 0.35, 0.12)
PROPOSAL_SPARSE = Noise(0.2, 0.8, 3.0, 0.6, 0.15, 0.45, 0.15)
REFINE_SPARSE = Noise(0.03, 0.3, 1.0, 0.88, 0.06, 0.35, 0.12)

# Many boxes per frame: geometry, tracker and greedy_merge carry `run`, and
# the number of detections makes the per-threshold rescans carry `eval`.
CROWDED = Workload(
    "crowded",
    (
        SequenceSpec(
            "crowded", 250, 12, (25, 100), (0, 6), 0.65, PROPOSAL_CROWDED, REFINE_CROWDED
        ),
    ),
    (),
    ("moderate", "hard"),
)

# Few boxes per frame over long sequences: per-frame Python overhead, file
# parsing and writing, and the generator carry the cost.  Two sequences make
# `run` use its sequence-level parallelism.
SPARSE_MULTI = Workload(
    "sparse-multi",
    tuple(
        SequenceSpec(
            f"sparse{i}", 1000, 3, (60, 400), (0, 40), 0.6, PROPOSAL_SPARSE, REFINE_SPARSE
        )
        for i in (1, 2)
    ),
    ("--set", "eval.difficulties=all"),
    ("all",),
)

WORKLOADS = {w.name: w for w in (CROWDED, SPARSE_MULTI)}


def _object_section(
    rng: random.Random, name: str, cls: str, entry: int, exit_: int
) -> str:
    life = exit_ - entry
    if cls == "car":
        width, aspect = rng.uniform(60.0, 200.0), rng.uniform(0.45, 0.8)
    else:
        width, aspect = rng.uniform(25.0, 60.0), rng.uniform(1.8, 2.8)
    # Width changes by at most a third over the lifetime.
    dw = rng.uniform(-1.0, 1.0) * (width / 3.0) / max(life, 1)
    max_w = max(width, width + dw * life)
    max_h = max_w * aspect
    # Pick start and end centres inside the frame, then the constant velocity between them.
    half_w, half_h = max_w / 2.0 + 1.0, max_h / 2.0 + 1.0
    x0 = rng.uniform(half_w, FRAME_W - half_w)
    x1 = rng.uniform(half_w, FRAME_W - half_w)
    y0 = rng.uniform(half_h, FRAME_H - half_h)
    y1 = min(max(y0 + rng.uniform(-40.0, 40.0), half_h), FRAME_H - half_h)
    vx = (x1 - x0) / max(life, 1)
    vy = (y1 - y0) / max(life, 1)
    h = width * aspect
    box = (x0 - width / 2.0, y0 - h / 2.0, x0 + width / 2.0, y0 + h / 2.0)
    return (
        f"[object.{name}]\n"
        f"class = {cls}\n"
        f"entry = {entry}\n"
        f"exit = {exit_}\n"
        f"box = {box[0]!r} {box[1]!r} {box[2]!r} {box[3]!r}\n"
        f"velocity = {vx!r} {vy!r} {dw!r}\n\n"
    )


def _noise_section(name: str, n: Noise) -> str:
    return (
        f"[source.{name}]\n"
        f"miss_prob = {n.miss_prob}\n"
        f"fp_per_frame = {n.fp_per_frame}\n"
        f"jitter = {n.jitter}\n"
        f"score_mean = {n.score_mean}\n"
        f"score_sigma = {n.score_sigma}\n"
        f"fp_score_mean = {n.fp_score_mean}\n"
        f"fp_score_sigma = {n.fp_score_sigma}\n\n"
    )


def scenario_text(spec: SequenceSpec, rng: random.Random) -> str:
    """One scenario file, drawing every random choice from `rng`."""
    parts = [
        "# generated by perfbench/scenarios.py\n",
        "[scenario]\n",
        f"name = {spec.name}\n",
        f"frames = {spec.frames}\n",
        f"frame_w = {FRAME_W}\n",
        f"frame_h = {FRAME_H}\n",
        f"seed = {rng.randrange(2**31)}\n\n",
    ]
    n = 0
    car_lanes = round(spec.lanes * spec.car_share)
    for lane in range(spec.lanes):
        cls = "car" if lane < car_lanes else "pedestrian"
        # Stagger lane starts so that objects do not all enter on frame 0.
        entry = rng.randint(0, spec.lifetime[0] // 2) if lane else 0
        while entry < spec.frames:
            exit_ = min(entry + rng.randint(*spec.lifetime), spec.frames - 1)
            parts.append(_object_section(rng, f"o{n}", cls, entry, exit_))
            n += 1
            entry = exit_ + 1 + rng.randint(*spec.gap)
    parts.append(_noise_section("proposal", spec.proposal))
    parts.append(_noise_section("refine", spec.refine))
    return "".join(parts)


def workload_scenarios(workload: Workload, seed: int) -> dict[str, str]:
    """Sequence name -> scenario file text for one workload and seed."""
    rng = random.Random(f"{workload.name}:{seed}")
    return {spec.name: scenario_text(spec, rng) for spec in workload.sequences}
