"""Spans around the calls into each trackcascade layer, from outside the package.

Hooks rebind the names that callers look up at call time (a module global
such as `trackcascade.cascade.nms`, or a class attribute such as
`Pipeline.run_frame`), so the package itself is not edited.  A target that
no longer exists is reported as absent instead of failing, which keeps the
traced run usable while the package is refactored.

Each span records its name, start, end and parent span.  Spans stay in
memory until the run ends.  Self time is a span's duration minus the time
its direct children cover; spans nest properly because the traced run is
single-threaded (the benchmark runs sequences serially when tracing).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

# Stages of the benchmark chain, in order.  All but "library" are CLI calls.
STAGES = (
    "setup",
    "run_single",
    "run_cascaded",
    "run_catdet",
    "run_timed",
    "eval",
    "cost_report",
    "library",
)
CLI_STAGES = STAGES[:-1]


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent index or -1, stage]
        self.spans: list[list] = []
        self._open: list[int] = []
        self.stage = ""
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.values: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.broken_counters: set[str] = set()

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.stage])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def stage_span(self, stage: str):
        """Root span of one benchmark operation; every hook inside belongs to `stage`."""
        self.stage = stage
        index = self.begin(stage)
        try:
            yield
        finally:
            self.end(index)
            self.stage = ""

    def count(self, key: str, value: float) -> None:
        self.counts[(self.stage, key)] += value

    def record(self, key: str, value: float) -> None:
        self.values[(self.stage, key)].append(value)

    def span_stats(self) -> dict[tuple[str, str], list[float]]:
        """(stage, span name) -> [calls, total seconds, self seconds]."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, stage) in enumerate(self.spans):
            s = stats[(stage, name)]
            s[0] += 1
            s[1] += (end - start) / 1e9
            s[2] += (end - start - child_ns[i]) / 1e9
        return stats


# --- counters: called after the hooked call returns, outside its span -------


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count_nms(t: Tracer, args, kwargs, result) -> None:
    t.count("geometry.nms.in", len(_arg(args, kwargs, 0, "detections")))
    t.count("geometry.nms.out", len(result))


def _count_detect(t: Tracer, args, kwargs, result) -> None:
    # Only masked calls can drop detections; `kept_ratio` is over those.
    source, frame = args[0], _arg(args, kwargs, 1, "frame_index")
    if _arg(args, kwargs, 2, "mask") is not None:
        t.count("cascade.detect.in", len(source.store.get(frame)))
        t.count("cascade.detect.out", len(result))


def _count_step(t: Tracer, args, kwargs, result) -> None:
    t.count("tracker.live_tracks", len(args[0].tracks))
    t.count("tracker.steps", 1)


def _count_merge(t: Tracer, args, kwargs, result) -> None:
    t.count("costmodel.greedy_merge.in", len(_arg(args, kwargs, 0, "regions")))
    t.count("costmodel.greedy_merge.out", len(result))


def _count_labels(t: Tracer, args, kwargs, result) -> None:
    t.count("metrics.labels", len(result.labels))


def _record_report(t: Tracer, args, kwargs, result) -> None:
    if result.mean_ap is not None:
        t.record("metrics.mAP", result.mean_ap)
    if result.delay is not None:
        t.record("metrics.mD", result.delay.mean_delay)


def _count_records(t: Tracer, args, kwargs, result) -> None:
    t.count("ingest.parse_detections.records", len(result.all()))


@dataclass(frozen=True)
class Hook:
    name: str  # span name, "<layer>.<function>"
    module: str
    attr: str  # "func", "Class.method" or "Class.classmethod"
    counter: Callable | None = None


P = "trackcascade."
# One span name may have several targets: one per module that calls the
# function through its own global name.
HOOKS = (
    Hook("geometry.nms", P + "cascade", "nms", _count_nms),
    Hook("geometry.union_area", P + "geometry", "union_area"),
    Hook("geometry.mask_overlap_fraction", P + "cascade", "mask_overlap_fraction"),
    Hook("geometry.from_boxes", P + "geometry", "RegionMask.from_boxes"),
    Hook("cascade.run_frame", P + "cascade", "Pipeline.run_frame"),
    Hook("cascade.detect", P + "cascade", "FileBackedSource.detect", _count_detect),
    Hook("tracker.step", P + "tracker", "Tracker.step", _count_step),
    Hook("tracker.associate", P + "tracker", "associate"),
    Hook("costmodel.refine_cost", P + "cascade", "refine_cost"),
    Hook("costmodel.refine_cost", P + "cli", "refine_cost"),
    Hook("costmodel.greedy_merge", P + "cascade", "greedy_merge", _count_merge),
    Hook("metrics.evaluate_classes", P + "cli", "evaluate_classes", _record_report),
    Hook("metrics.label_class_detections", P + "metrics", "label_class_detections", _count_labels),
    Hook("metrics.precision_recall_at", P + "metrics", "precision_recall_at"),
    Hook("metrics.delay_from_labels", P + "metrics", "delay_from_labels"),
    Hook("metrics.average_precision", P + "metrics", "average_precision"),
    Hook("metrics.find_t_beta", P + "metrics", "find_t_beta"),
    Hook("ingest.generate_synthetic", P + "cli", "generate_synthetic"),
    Hook("ingest.write_sequence_dir", P + "cli", "write_sequence_dir"),
    Hook("ingest.parse_detections", P + "cli", "parse_detections", _count_records),
    Hook("ingest.parse_detections", P + "ingest", "parse_detections", _count_records),
    Hook("ingest.parse_kitti_tracking_labels", P + "cli", "parse_kitti_tracking_labels"),
    Hook("ingest.write_detections", P + "cli", "write_detections"),
    Hook("ingest.write_detections", P + "ingest", "write_detections"),
    Hook("runio.write_work_records", P + "cli", "write_work_records"),
    Hook("runio.write_mask_dump", P + "cli", "write_mask_dump"),
    Hook("runio.parse_mask_dump", P + "cli", "parse_mask_dump"),
    Hook("runio.write_manifest", P + "cli", "write_manifest"),
    Hook("config.load_settings", P + "cli", "load_settings"),
)


def _wrap(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    def hooked(*args, **kwargs):
        index = tracer.begin(hook.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if hook.counter is not None and hook.name not in tracer.broken_counters:
            try:
                hook.counter(tracer, args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError):
                tracer.broken_counters.add(hook.name)
        return result

    return functools.wraps(fn)(hooked)


def resolve(hook: Hook):
    """(owner, attribute, raw attribute value) for a hook, or None when absent."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, attr = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # getattr_static keeps a classmethod's descriptor and finds inherited methods.
    raw = inspect.getattr_static(owner, attr, None)
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        return None
    return owner, attr, raw


def install(tracer: Tracer) -> tuple[list[tuple], set[str]]:
    """Install every resolvable hook.

    Returns what `uninstall` needs to restore the originals, and the span
    names none of whose targets exist.
    """
    installed, present = [], set()
    for hook in HOOKS:
        found = resolve(hook)
        if found is None:
            continue
        present.add(hook.name)
        owner, attr, raw = found
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrap(tracer, hook, raw.__func__))
        else:
            wrapped = _wrap(tracer, hook, raw)
        own = attr in vars(owner)
        setattr(owner, attr, wrapped)
        installed.append((owner, attr, raw, own))
    return installed, {hook.name for hook in HOOKS} - present


def uninstall(installed: list[tuple]) -> None:
    for owner, attr, raw, own in reversed(installed):
        if own:
            setattr(owner, attr, raw)
        else:  # the hook shadowed an inherited attribute
            delattr(owner, attr)
