"""Stage-and-layer benchmark of trackcascade.

Run from the repository root:

    python3 perfbench/run.py --workload crowded --seed 1 --seconds 30 --trace 0

The benchmark writes the workload's scenario files from `--seed`, then
drives the whole user chain in this process through `trackcascade.cli.main`:
`gen-synthetic` (the set-up), `run` in every mode, `run` with the timing
model, `eval` and `cost-report`.  It also runs `Pipeline.run_frame` frame by
frame, as the README's library example does.  Each stage starts when the
previous one ends (a closed loop with one client).  The chain, set-up
included, repeats in rounds, at least MIN_REPEATS times, and each stage runs
once per round, so every stage's samples are spread over the whole run.  The
run stops at the first stage that would end past `--seconds`, so the last
round may be partial and the stages before that point have one more sample.

A CLI stage's time is the mean of its rounds, and `setup_s` is the median of
its rounds.  The work is deterministic, so the spread between rounds is the
shared host's speed, which drifts over seconds to minutes; the mean weighs
every part of the run alike, where the median or the fastest of a handful of
rounds depends on which speed those few rounds happened to catch.  A frame's
latency is the median of its rounds, and `frame_p50_ms` and `frame_p99_ms` are
percentiles over the frames of those medians: a frame takes milliseconds, so
one stall inside it would move a mean, and the heaviest frames set the p99.

`--trace 1` is a separate run for the per-layer metrics.  Each round runs
every stage twice back to back, once plain and once with spans recorded
around every call into the package's layers (see tracing.py), alternating
which goes first.  It reports each layer's calls, time and self time per
round, and each stage's tracing overhead: the median over rounds of the
traced time over the plain one, minus 1.  Rounds repeat until `--seconds`
have passed, at least MIN_TRACE_ROUNDS times.  Sequences run serially there.

Every CLI call and every library frame loop is one attempted operation.  It
fails on a non-zero exit, an exception, SystemExit or a failed check:

- the sha256 of every output (generated sequences, detections.txt, work.txt
  and masks.txt per mode, eval curves, cost-report `record` lines, library
  detections) is the same in every repeat, and for seed 1 equals the digest
  in reference_digests.json;
- cost-report's `record` totals equal the totals rows of the runs' work.txt;
- the timed run's Gops equal the plain catdet run's;
- the library loop's detections are byte-equal to the CLI catdet run's.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  The lines before it give every metric
with its unit, the failed share, the environment and, when tracing, the
per-stage split.  Work files, a fuller result.json and, when tracing, the
spans go to `.perfbench_work/` in the repository root.

To refresh the reference digests after an intended output change, run seed 1
of each workload and copy `digests` from its result.json into
reference_digests.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import scenarios  # noqa: E402
import tracing  # noqa: E402

REFERENCE_SEED = 1
REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
MIN_REPEATS = 3
MIN_TRACE_ROUNDS = 2
CLASSES = ["car", "pedestrian"]
# Under these constants some but not all mask regions merge.
TIMING_ARGS = ["--set", "cost.alpha=0.001", "--set", "cost.b=0.005"]
DUMP_MODES = ("single", "cascaded", "catdet")

END_TO_END = {
    "setup_s": "s",
    "run_single_s": "s",
    "run_cascaded_s": "s",
    "run_catdet_s": "s",
    "run_timed_s": "s",
    "eval_s": "s",
    "cost_report_s": "s",
    "frame_p50_ms": "ms",
    "frame_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import trackcascade from this checkout's src/, never from elsewhere."""
    init = ROOT / "src" / "trackcascade" / "__init__.py"
    if not init.is_file():
        raise RuntimeError(f"no trackcascade package at {init.parent}")
    sys.path.insert(0, str(init.parent.parent))
    package = importlib.import_module("trackcascade")
    if Path(package.__file__).resolve() != init.resolve():
        raise RuntimeError(f"imported trackcascade from {package.__file__}, not {init}")
    return package


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def work_totals(path: Path) -> list[str]:
    """work.txt's totals row: proposal, refine, total, from_tracker and from_proposal ops."""
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("total "):
            return line.split()[1:6]
    raise ValueError(f"{path}: no totals row")


class Bench:
    """One workload's files, operations, checks and measurements."""

    def __init__(self, workload: scenarios.Workload, seed: int, work: Path, reference, trace: bool):
        from trackcascade import cascade, cli, ingest

        self.cli, self.cascade, self.ingest = cli, cascade, ingest
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.seqs = [spec.name for spec in workload.sequences]
        self.tracer: tracing.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.times: dict[str, list[float]] = defaultdict(list)
        # (sequence, frame) -> run_frame latency in every round, ms
        self.frame_ms: dict[tuple[str, int], list[float]] = defaultdict(list)
        jobs = min(len(os.sched_getaffinity(0)), len(self.seqs))
        # `--jobs` is only passed while `run --help` lists it; tracing runs serially.
        self.jobs_args = []
        if jobs > 1 and not trace and "--jobs" in self._cli(["run", "--help"])[1]:
            self.jobs_args = ["--jobs", str(jobs)]

    # --- paths --------------------------------------------------------------

    def seq_dir(self, seq: str) -> Path:
        return self.work / "seq" / seq

    def run_root(self, stage: str) -> Path:
        return self.work / stage

    def run_dir(self, stage: str, seq: str) -> Path:
        return self.run_root(stage) / seq if len(self.seqs) > 1 else self.run_root(stage)

    # --- operations ---------------------------------------------------------

    def _cli(self, argv: list[str]) -> tuple[int | None, str, str]:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        return rc, out.getvalue(), err.getvalue()

    def _op(self, stage, label, action, outputs, check=None) -> float:
        """Run and time one operation, check its outputs; returns its wall seconds."""
        span = self.tracer.stage_span(stage) if self.tracer else nullcontext()
        # Collect before timing so that no operation pays for its predecessor's garbage.
        gc.collect()
        start = time.perf_counter()
        try:
            with span:
                rc, out, err = action()
        except Exception:  # counted as a failed operation; the benchmark goes on
            rc, out, err = None, "", traceback.format_exc()
        seconds = time.perf_counter() - start
        errors = [] if rc == 0 else [f"exit status {rc}: {err.strip()[-800:]}"]
        if not errors and check is not None:
            try:
                errors += check(out)
            except Exception as exc:  # a check that cannot run fails the operation
                errors.append(f"check failed: {exc!r}")
        if not errors:
            errors += self._check_digests(outputs)
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{label}: " + "; ".join(errors))
        return seconds

    def _check_digests(self, outputs: dict[str, Path]) -> list[str]:
        errors = []
        for key, path in outputs.items():
            try:
                digest = sha256(path)
            except OSError as exc:
                errors.append(f"{key}: {exc}")
                continue
            first = self.digests.setdefault(key, digest)
            if digest != first:
                errors.append(f"{key}: differs from the first repeat")
            if self.reference is not None and self.reference.get(key) != digest:
                errors.append(f"{key}: differs from the reference digest")
        return errors

    def _files(self, stage: str, names) -> dict[str, Path]:
        return {
            f"{stage}/{seq}/{name}": self.run_dir(stage, seq) / name
            for seq in self.seqs
            for name in names
        }

    # --- stages -------------------------------------------------------------

    def write_scenarios(self) -> None:
        out = self.work / "scenarios"
        out.mkdir(parents=True, exist_ok=True)
        for seq, text in scenarios.workload_scenarios(self.workload, self.seed).items():
            (out / f"{seq}.cfg").write_text(text, encoding="utf-8")

    def setup(self) -> float:
        total = 0.0
        for seq in self.seqs:
            argv = [
                "gen-synthetic",
                "--scenario", str(self.work / "scenarios" / f"{seq}.cfg"),
                "--out", str(self.seq_dir(seq)),
                "--force",
            ]
            outputs = {
                f"setup/{seq}/{name}": self.seq_dir(seq) / name
                for name in ("meta.cfg", "labels.txt", "proposal.txt", "refine.txt")
            }
            total += self._op("setup", f"gen-synthetic {seq}", lambda a=argv: self._cli(a), outputs)
        return total

    def _run(self, stage: str, mode: str, extra: list[str], check=None) -> float:
        argv = ["run", "--mode", mode, "--out", str(self.run_root(stage)), "--force"]
        for seq in self.seqs:
            argv += ["--sequence", str(self.seq_dir(seq))]
        argv += self.jobs_args + extra
        names = ["detections.txt", "work.txt"] + (["masks.txt"] if "--dump-masks" in extra else [])
        outputs = self._files(stage, names)
        return self._op(stage, f"run {stage}", lambda: self._cli(argv), outputs, check)

    def _check_timed(self, _out: str) -> list[str]:
        return [
            f"{seq}: timed Gops {timed} != catdet Gops {plain}"
            for seq in self.seqs
            if (timed := work_totals(self.run_dir("run_timed", seq) / "work.txt"))
            != (plain := work_totals(self.run_dir("run_catdet", seq) / "work.txt"))
        ]

    def _eval(self) -> float:
        total = 0.0
        for seq in self.seqs:
            out = self.work / "eval" / seq
            argv = [
                "eval",
                "--gt", str(self.seq_dir(seq) / "labels.txt"),
                "--det", str(self.run_dir("run_catdet", seq) / "detections.txt"),
                "--out", str(out),
                "--force",
                *self.workload.eval_args,
            ]
            # One curve file per difficulty and class; a missing one fails the operation.
            outputs = {
                f"eval/{seq}/{name}": out / name
                for difficulty in self.workload.eval_difficulties
                for name in (f"curve_{difficulty}_{cls}.txt" for cls in CLASSES)
            }
            total += self._op("eval", f"eval {seq}", lambda a=argv: self._cli(a), outputs)
        return total

    def _cost_report(self) -> float:
        dirs = [self.run_dir(f"run_{mode}", seq) for mode in DUMP_MODES for seq in self.seqs]
        records = self.work / "cost_report" / "records.txt"

        def check(out: str) -> list[str]:
            lines = [line for line in out.splitlines() if line.startswith("record ")]
            records.parent.mkdir(parents=True, exist_ok=True)
            records.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            if len(lines) != len(dirs):
                return [f"{len(lines)} record lines for {len(dirs)} runs"]
            errors = []
            for line, run in zip(lines, dirs):
                fields = dict(f.split("=", 1) for f in line.split()[1:])
                got = [fields[k] for k in ("proposal_ops", "refine_ops", "total_ops",
                                           "from_tracker_ops", "from_proposal_ops")]
                want = work_totals(run / "work.txt")
                # cost-report writes "/" for a source the mode does not have.
                if any(g != w for g, w in zip(got, want) if g != "/"):
                    errors.append(f"{run.name}: record ops {got} != work.txt totals {want}")
            return errors

        argv = ["cost-report", *map(str, dirs)]
        return self._op("cost_report", "cost-report", lambda: self._cli(argv),
                        {"cost_report/records.txt": records}, check)

    def _library_loop(self, seq: str, out: Path) -> tuple[int, str, str]:
        """The README's library use, frame by frame, catdet with default settings."""
        ingest, cascade = self.ingest, self.cascade
        seq_dir = self.seq_dir(seq)
        meta = ingest.parse_meta(seq_dir / "meta.cfg")
        class_map = ingest.ClassMap(CLASSES)
        refine, proposal = (
            cascade.FileBackedSource(
                ingest.parse_detections(seq_dir / f"{name}.txt", class_map), name, meta.frame_count
            )
            for name in ("refine", "proposal")
        )
        pipeline = cascade.Pipeline(
            cascade.PipelineConfig(mode="catdet"), meta, refine, proposal,
            known_classes=set(class_map.configured),
        )
        final = []
        clock = time.perf_counter_ns
        for frame in range(meta.frame_count):
            start = clock()
            result = pipeline.run_frame(frame)
            self.frame_ms[(seq, frame)].append((clock() - start) / 1e6)
            final.extend(result.final_detections)
        out.parent.mkdir(parents=True, exist_ok=True)
        ingest.write_detections(final, class_map, out)
        return 0, "", ""

    def _library(self) -> float:
        total = 0.0
        for seq in self.seqs:
            out = self.work / "library" / seq / "detections.txt"
            cli_out = self.run_dir("run_catdet", seq) / "detections.txt"

            def check(_out, out=out, cli_out=cli_out):
                same = out.read_bytes() == cli_out.read_bytes()
                return [] if same else ["library detections differ from the CLI catdet run"]

            total += self._op(
                "library", f"library {seq}",
                lambda seq=seq, out=out: self._library_loop(seq, out),
                {f"library/{seq}/detections.txt": out}, check,
            )
        return total

    def stages(self) -> list[tuple[str, Callable[[], float]]]:
        """Every stage in user order, set-up first; each action returns its wall seconds."""
        stages = [("setup", self.setup)]
        stages += [
            (f"run_{mode}", lambda mode=mode: self._run(f"run_{mode}", mode, ["--dump-masks"]))
            for mode in DUMP_MODES
        ]
        stages += [
            ("run_timed", lambda: self._run("run_timed", "catdet", TIMING_ARGS, self._check_timed)),
            ("eval", self._eval),
            ("cost_report", self._cost_report),
            ("library", self._library),
        ]
        return stages


# --- metrics ------------------------------------------------------------------


def end_to_end_metrics(bench: Bench) -> dict[str, float]:
    metrics = {f"{stage}_s": statistics.fmean(bench.times[stage]) for stage in tracing.CLI_STAGES}
    metrics["setup_s"] = statistics.median(bench.times["setup"])
    frame_ms = [statistics.median(samples) for samples in bench.frame_ms.values()]
    metrics["frame_p50_ms"] = statistics.median(frame_ms)
    metrics["frame_p99_ms"] = statistics.quantiles(frame_ms, n=100)[98]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def _span(name: str, field: int):
    return lambda L: None if name in L["absent"] else L["spans"].get(name, (0, 0.0, 0.0))[field]


# A counter is absent with its span, and also when it broke on a changed return type.
def _ratio(num: str, den: str, span: str):
    def get(L):
        if span in L["absent"] | L["broken"] or not L["counts"].get(den):
            return None
        return L["counts"].get(num, 0.0) / L["counts"][den]

    return get


def _count(key: str, span: str):
    return lambda L: None if span in L["absent"] | L["broken"] else L["counts"].get(key, 0.0)


def _mean(key: str, span: str):
    def get(L):
        values = L["values"].get(key)
        return None if span in L["absent"] | L["broken"] or not values else statistics.fmean(values)

    return get


def _gops(mode: str):
    return lambda L: L["gops"].get(mode)


def _overhead(stage: str):
    return lambda L: L["overhead"].get(stage)


# name -> (unit, getter over the aggregated trace)
PER_LAYER = {
    "geometry.nms.calls": ("count", _span("geometry.nms", 0)),
    "geometry.nms.s": ("s", _span("geometry.nms", 1)),
    "geometry.nms.kept_ratio": (
        "ratio", _ratio("geometry.nms.out", "geometry.nms.in", "geometry.nms")),
    "geometry.union_area.calls": ("count", _span("geometry.union_area", 0)),
    "geometry.union_area.s": ("s", _span("geometry.union_area", 1)),
    "geometry.mask_overlap_fraction.s": ("s", _span("geometry.mask_overlap_fraction", 1)),
    "geometry.from_boxes.calls": ("count", _span("geometry.from_boxes", 0)),
    "geometry.from_boxes.s": ("s", _span("geometry.from_boxes", 1)),
    "cascade.run_frame.calls": ("count", _span("cascade.run_frame", 0)),
    "cascade.run_frame.s": ("s", _span("cascade.run_frame", 1)),
    "cascade.run_frame.self_s": ("s", _span("cascade.run_frame", 2)),
    "cascade.detect.s": ("s", _span("cascade.detect", 1)),
    "cascade.detect.kept_ratio": (
        "ratio", _ratio("cascade.detect.out", "cascade.detect.in", "cascade.detect")),
    "tracker.step.s": ("s", _span("tracker.step", 1)),
    "tracker.step.self_s": ("s", _span("tracker.step", 2)),
    "tracker.associate.calls": ("count", _span("tracker.associate", 0)),
    "tracker.associate.s": ("s", _span("tracker.associate", 1)),
    "tracker.live_tracks_mean": (
        "count", _ratio("tracker.live_tracks", "tracker.steps", "tracker.step")),
    "costmodel.refine_cost.s": ("s", _span("costmodel.refine_cost", 1)),
    "costmodel.greedy_merge.s": ("s", _span("costmodel.greedy_merge", 1)),
    "costmodel.greedy_merge.regions_in": (
        "count", _count("costmodel.greedy_merge.in", "costmodel.greedy_merge")),
    "costmodel.greedy_merge.merge_ratio": (
        "ratio",
        _ratio("costmodel.greedy_merge.out", "costmodel.greedy_merge.in", "costmodel.greedy_merge"),
    ),
    "costmodel.total_gops.single": ("Gops", _gops("single")),
    "costmodel.total_gops.cascaded": ("Gops", _gops("cascaded")),
    "costmodel.total_gops.catdet": ("Gops", _gops("catdet")),
    "metrics.evaluate_classes.s": ("s", _span("metrics.evaluate_classes", 1)),
    "metrics.label_class_detections.s": ("s", _span("metrics.label_class_detections", 1)),
    "metrics.precision_recall_at.calls": ("count", _span("metrics.precision_recall_at", 0)),
    "metrics.precision_recall_at.s": ("s", _span("metrics.precision_recall_at", 1)),
    "metrics.delay_from_labels.calls": ("count", _span("metrics.delay_from_labels", 0)),
    "metrics.delay_from_labels.s": ("s", _span("metrics.delay_from_labels", 1)),
    "metrics.average_precision.s": ("s", _span("metrics.average_precision", 1)),
    "metrics.find_t_beta.s": ("s", _span("metrics.find_t_beta", 1)),
    "metrics.labels": ("count", _count("metrics.labels", "metrics.label_class_detections")),
    "metrics.mAP": ("fraction", _mean("metrics.mAP", "metrics.evaluate_classes")),
    "metrics.mD": ("frames", _mean("metrics.mD", "metrics.evaluate_classes")),
    "ingest.generate_synthetic.s": ("s", _span("ingest.generate_synthetic", 1)),
    "ingest.write_sequence_dir.s": ("s", _span("ingest.write_sequence_dir", 1)),
    "ingest.parse_detections.s": ("s", _span("ingest.parse_detections", 1)),
    "ingest.parse_detections.records": (
        "count", _count("ingest.parse_detections.records", "ingest.parse_detections")),
    "ingest.parse_kitti_tracking_labels.s": ("s", _span("ingest.parse_kitti_tracking_labels", 1)),
    "ingest.write_detections.s": ("s", _span("ingest.write_detections", 1)),
    "runio.write_work_records.s": ("s", _span("runio.write_work_records", 1)),
    "runio.write_mask_dump.s": ("s", _span("runio.write_mask_dump", 1)),
    "runio.parse_mask_dump.s": ("s", _span("runio.parse_mask_dump", 1)),
    "runio.write_manifest.s": ("s", _span("runio.write_manifest", 1)),
    **{f"cli.{stage}.self_s": ("s", _span(stage, 2)) for stage in tracing.CLI_STAGES},
    "config.load_settings.s": ("s", _span("config.load_settings", 1)),
    **{f"trace.overhead.{stage}": ("share", _overhead(stage)) for stage in tracing.STAGES},
}


def trace_summary(bench: Bench, tracer: tracing.Tracer, absent: set[str], rounds: int) -> dict:
    """Per-round span totals and counters, summed over stages, plus the per-stage split."""
    per_stage: dict[str, dict] = defaultdict(dict)
    spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for (stage, name), stats in tracer.span_stats().items():
        calls, total, own = (x / rounds for x in stats)
        per_stage[stage][name] = {"calls": calls, "s": total, "self_s": own}
        agg = spans[name]
        agg[0] += calls
        agg[1] += total
        agg[2] += own
    counts: dict[str, float] = defaultdict(float)
    for (stage, key), value in tracer.counts.items():
        per_stage[stage].setdefault("counters", {})[key] = value / rounds
        counts[key] += value / rounds
    values: dict[str, list[float]] = defaultdict(list)
    for (_, key), vals in tracer.values.items():
        values[key] += vals
    gops = {}
    for mode in DUMP_MODES:
        try:
            gops[mode] = sum(
                float(work_totals(bench.run_dir(f"run_{mode}", seq) / "work.txt")[2])
                for seq in bench.seqs
            )
        except (OSError, ValueError):
            pass
    return {
        "absent": absent,
        "broken": tracer.broken_counters,
        "spans": dict(spans),
        "counts": dict(counts),
        "values": dict(values),
        "gops": gops,
        "per_stage": dict(per_stage),
    }


# --- runs ---------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_start": list(os.getloadavg()),
    }


def _rounds(seconds: float, minimum: int, one_round: Callable[[], None]) -> int:
    """Run rounds until the next would end past `seconds`, but at least `minimum`."""
    start = time.perf_counter()
    rounds = 0
    elapsed = 0.0
    while rounds < minimum or elapsed + elapsed / rounds <= seconds:
        one_round()
        rounds += 1
        elapsed = time.perf_counter() - start
    return rounds


def _measure(bench: Bench, seconds: float, detail: dict) -> dict:
    """Run the chain in rounds; after MIN_REPEATS rounds, stop at the first stage
    whose last duration would take the run past `seconds`."""
    stages = bench.stages()
    start = time.perf_counter()
    for n, (stage, action) in enumerate(itertools.cycle(stages)):
        times = bench.times[stage]
        if n >= MIN_REPEATS * len(stages) and time.perf_counter() - start + times[-1] > seconds:
            break
        times.append(action())
    detail["repeats"] = n // len(stages)
    detail["frame_samples"] = len(bench.frame_ms)
    detail["frame_ms"] = list(bench.frame_ms.values())
    detail["times"] = dict(bench.times)
    values = end_to_end_metrics(bench)
    return {name: (unit, values[name]) for name, unit in END_TO_END.items()}


def _trace(bench: Bench, seconds: float, detail: dict) -> dict:
    """Run each stage plain and traced back to back; their ratio is the tracing overhead."""
    tracer = tracing.Tracer()
    times: dict[str, dict[str, list[float]]] = {k: defaultdict(list) for k in ("plain", "traced")}
    absent: set[str] = set()
    order = ["plain", "traced"]

    def one_round():
        nonlocal absent
        for stage, action in bench.stages():
            for kind in order:
                installed = []
                if kind == "traced":
                    installed, absent = tracing.install(tracer)
                    bench.tracer = tracer
                try:
                    times[kind][stage].append(action())
                finally:
                    tracing.uninstall(installed)
                    bench.tracer = None
        order.reverse()

    rounds = _rounds(seconds, MIN_TRACE_ROUNDS, one_round)
    summary = trace_summary(bench, tracer, absent, rounds)
    summary["overhead"] = {
        stage: statistics.median(t / p for t, p in zip(times["traced"][stage], plain)) - 1.0
        for stage, plain in times["plain"].items()
    }
    detail.update(
        times={f"{kind} {stage}": t for kind, per in times.items() for stage, t in per.items()},
        repeats=rounds,
        per_stage=summary["per_stage"],
        absent_hooks=sorted(absent),
        broken_counters=sorted(tracer.broken_counters),
        overhead=summary["overhead"],
    )
    with open(bench.work / "spans.json", "w", encoding="utf-8") as fh:
        json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "stage"],
                   "spans": tracer.spans}, fh)
    return {name: (unit, get(summary)) for name, (unit, get) in PER_LAYER.items()}


def run_benchmark(workload, seed: int, seconds: float, trace: bool, work: Path, reference) -> dict:
    """Run one workload; returns the details, with the result line's fields under "result"."""
    env = environment()
    if work.exists():
        shutil.rmtree(work)
    bench = Bench(workload, seed, work, reference, trace)
    bench.write_scenarios()
    detail: dict = {"workload": workload.name, "seed": seed, "trace": trace, "environment": env}
    metrics = _trace(bench, seconds, detail) if trace else _measure(bench, seconds, detail)
    env["loadavg_end"] = list(os.getloadavg())
    detail.update(digests=bench.digests, errors=bench.errors, jobs_args=bench.jobs_args)
    detail["result"] = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: ({"value": value, "unit": unit} if value is not None
                   else {"value": None, "unit": unit, "absent": True})
            for name, (unit, value) in metrics.items()
        },
    }
    with open(work / "result.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    return detail


def report(detail: dict) -> None:
    """Human-readable lines; the caller prints the JSON result line after them."""
    result = detail["result"]
    env = detail["environment"]
    print(f"workload {detail['workload']} seed {detail['seed']} trace {int(detail['trace'])}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds {detail['repeats']}")
    if not detail["trace"]:
        print(f"frame latency samples {detail['frame_samples']} frames x {detail['repeats']} rounds"
              f" (catdet Pipeline.run_frame; each frame's median over its rounds)")
    for stage, times in detail["times"].items():
        print(f"stage {stage:<19} " + " ".join(f"{t:.4f}" for t in times) + " s")
    for name, m in result["metrics"].items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"metric {name} {value} {m['unit']}")
    print(f"metric failed_share {result['failed'] / result['attempted']:.6g} share"
          f" ({result['failed']} of {result['attempted']} operations)")
    for error in detail["errors"]:
        print(f"FAILED {error}")
    if detail["trace"]:
        print(f"absent hooks: {detail['absent_hooks'] or 'none'}")
        for stage, spans in detail["per_stage"].items():
            ranked = sorted(((v["self_s"], k) for k, v in spans.items()
                             if k not in ("counters", stage)), reverse=True)[:5]
            overhead = detail["overhead"].get(stage)
            head = f"stage {stage}"
            if overhead is not None:
                head += f" (tracing overhead {overhead:+.1%})"
            print(head + ": " + ", ".join(f"{k} {s:.3f}s" for s, k in ranked))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenarios.WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_package()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    # The benchmark's runs must not pick up a user's default config file.
    os.environ.pop("TRACKCASCADE_CONFIG", None)
    reference = None
    if args.seed == REFERENCE_SEED:
        reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[args.workload]
    name = f"{args.workload}-s{args.seed}" + ("-trace" if args.trace else "")
    detail = run_benchmark(
        scenarios.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        ROOT / ".perfbench_work" / name, reference,
    )
    report(detail)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
