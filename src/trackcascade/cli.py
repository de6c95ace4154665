"""Command-line entry point: run, eval, cost-report and gen-synthetic.

Exit codes: 0 success, 1 usage, 2 data error, 3 evaluation refused.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import __version__
from .cascade import FileBackedSource, Pipeline, SequenceResult
from .config import Settings, load_settings
# refine_cost and parse_mask_dump are unused here since cost-report reads
# work.txt; they stay importable from this module because perfbench/tracing.py
# hooks them on it.
from .costmodel import MODES, WorkReport, refine_cost  # noqa: F401
from .errors import ConfigError, DataError
from .ingest import (
    ClassMap,
    SequenceMeta,
    parse_detections,
    parse_kitti_tracking_labels,
    parse_meta,
    write_detections,
)
from .metrics import DifficultyReport, evaluate_classes
from .runio import (
    fmt_opt,
    parse_mask_dump,  # noqa: F401
    parse_work_total,
    read_manifest,
    source_date_epoch,
    write_manifest,
    write_mask_dump,
    write_work_records,
)
from .synthetic import generate_synthetic, parse_scenario, write_sequence_dir

CONFIG_ENV = "TRACKCASCADE_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REFUSED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


COMMANDS = ("run", "eval", "cost-report", "gen-synthetic")


def _build_parser(command: str | None = None) -> _Parser:
    """The CLI's parser; given one of `COMMANDS`, it builds only that command's subparser.

    A call that names no command, or names it wrongly, gets every subparser,
    so that help and errors list them all. With one subparser, the metavar
    keeps the top-level usage line as it is with all four.
    """
    names = [command] if command in COMMANDS else COMMANDS
    parser = _Parser(prog="trackcascade", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        parser_class=_Parser,
        metavar="{" + ",".join(COMMANDS) + "}" if len(names) == 1 else None,
    )

    if "run" in names or "eval" in names:
        common = argparse.ArgumentParser(add_help=False)
        common.add_argument(
            "--config",
            default=os.environ.get(CONFIG_ENV),
            help=f"config file (default: ${CONFIG_ENV})",
        )
        common.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value; repeatable",
        )

    if "run" in names:
        run = sub.add_parser("run", parents=[common], help="run the cascade over sequences")
        run.add_argument("--sequence", action="append", required=True, help="sequence directory")
        run.add_argument(
            "--mode",
            choices=MODES,
            help="same as --set pipeline.mode=MODE, and applied after every --set",
        )
        run.add_argument("--out", required=True, help="output directory")
        run.add_argument(
            "--dump-masks", action="store_true", help="also dump per-frame region boxes"
        )
        run.add_argument(
            "--force", action="store_true", help="overwrite an existing output directory"
        )

    if "eval" in names:
        ev = sub.add_parser(
            "eval", parents=[common], help="evaluate detections against ground truth"
        )
        ev.add_argument("--gt", required=True, help="KITTI tracking label file")
        ev.add_argument("--det", required=True, help="detections file")
        ev.add_argument("--out", help="directory for curve data and manifest")
        ev.add_argument("--force", action="store_true")

    if "cost-report" in names:
        cr = sub.add_parser("cost-report", help="op break-down from run outputs")
        cr.add_argument("runs", nargs="+", help="run output directories")

    if "gen-synthetic" in names:
        gen = sub.add_parser("gen-synthetic", help="generate a synthetic sequence")
        gen.add_argument("--scenario", required=True, help="scenario file")
        gen.add_argument("--out", required=True, help="output sequence directory")
        gen.add_argument("--force", action="store_true")
    return parser


def _check_out(out: Path, force: bool, inputs=()) -> None:
    """Refuse an --out that publishing would refuse, before any input is read.

    Publishing with --force deletes `out` first, so an `out` that is, or
    holds, the working directory or one of `inputs` is refused even so. So is
    a malformed SOURCE_DATE_EPOCH, which the manifest's timestamp reads.
    """
    source_date_epoch()
    where = Path(os.path.realpath(out))
    kept = [("the working directory", ".")] + [(f"input {p}", p) for p in inputs if p is not None]
    for what, path in kept:
        path = Path(os.path.realpath(path))
        if where == path or where in path.parents:
            raise DataError(f"--out {out} is or holds {what}")
    if out.exists():
        if not out.is_dir():
            raise DataError(f"--out is a file, not a directory: {out}")
        if not force:
            raise DataError(f"--out exists: {out} (use --force)")
    elif any(parent.exists() and not parent.is_dir() for parent in out.parents):
        raise DataError(f"--out lies under a file: {out}")


@contextlib.contextmanager
def _atomic_dir(out: Path, force: bool):
    """Stage outputs in a temp dir and publish it as `out` on success.

    Commands call `_check_out` before their work; `out` is checked again
    here and on publishing, since it may have appeared in the meantime.
    """
    _check_out(out, force)
    made = [parent for parent in out.parents if not parent.exists()]  # innermost first
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise DataError(f"--out lies under a file: {out}") from None
    tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        yield tmp
        if out.exists():
            if not force:
                raise DataError(f"--out exists: {out} (use --force)")
            shutil.rmtree(out)
        os.replace(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not out.exists():  # nothing was published: neither are the parents made above
            for parent in made:
                with contextlib.suppress(OSError):
                    parent.rmdir()


def _run_and_write(
    settings: Settings, seq_dir: Path, meta: SequenceMeta, dest: Path, dump_masks: bool
) -> tuple[list[str], int, WorkReport]:
    """Run one sequence and write its outputs into `dest`, a new directory.

    Returns only what `cmd_run` prints: the dropped class names, the frame
    count and the totals, so a worker process sends back a few numbers.
    """
    class_map = ClassMap(settings.classes)
    refine_path = seq_dir / "refine.txt"
    proposal_path = seq_dir / "proposal.txt"
    refine_store = parse_detections(refine_path, class_map, meta.frame_count)
    refine = FileBackedSource(refine_store, "refine", meta.frame_count)
    proposal = None
    inputs = [seq_dir / "meta.cfg", refine_path]
    config = settings.pipeline
    if config.mode != "single":
        proposal_store = parse_detections(proposal_path, class_map, meta.frame_count)
        proposal = FileBackedSource(proposal_store, "proposal", meta.frame_count)
        inputs.append(proposal_path)

    pipeline = Pipeline(config, meta, refine, proposal, known_classes=set(class_map.configured))
    result: SequenceResult = pipeline.run_sequence()
    # Every op is >= 0, so a frame's inf or nan shows in the totals, as does
    # a sum of finite frames that overflows.
    t = result.total
    totals = (t.proposal_ops, t.refine_ops, t.total_ops, t.refine_from_tracker_ops,
              t.refine_from_proposal_ops, t.estimated_time)
    if not all(math.isfinite(v) for v in totals if v is not None):
        raise ConfigError(
            f"the [cost] constants make non-finite op totals over {len(result.frames)} frames",
            str(seq_dir),
        )

    dest.mkdir(exist_ok=True)
    final = [d for r in result.frames for d in r.final_detections]
    write_detections(final, class_map, dest / "detections.txt")
    write_work_records(result.frames, result.total, dest / "work.txt")
    outputs = ["detections.txt", "work.txt", "manifest.json"]
    if dump_masks:
        write_mask_dump(result.frames, dest / "masks.txt")
        outputs.append("masks.txt")
    write_manifest(dest / "manifest.json", "run", settings.values, inputs, outputs, meta=meta)
    return sorted(class_map.flagged), len(result.frames), result.total


def _run_sequences(tasks: list[tuple]) -> list[tuple]:
    """`_run_and_write(*task)` for each task; the outcomes come in task order.

    Sequences are independent and their work is pure Python, which one
    process runs on one CPU.  So with several CPUs, forked workers run
    `tasks[1:]`, at most one per CPU, while this process runs `tasks[0]`.
    A failure raises the first failing task's error, as a serial loop
    would.  Only a process without other threads forks, since a lock held
    by another thread stays held in the child.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    jobs = min(len(tasks), cpus or 1)
    if jobs > 1:
        import multiprocessing
        import threading

        if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
            jobs = 1
    if jobs == 1:
        return [_run_and_write(*task) for task in tasks]

    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(jobs - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_run_and_write, *task) for task in tasks[1:]]
        try:
            return [_run_and_write(*tasks[0])] + [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)  # then the with waits for the running ones
            raise


def cmd_run(args) -> int:
    out_root = Path(args.out)
    _check_out(out_root, args.force, [*args.sequence, args.config])
    settings = load_settings(args.config, args.overrides, args.mode)
    sequences = [Path(s) for s in args.sequence]
    metas = [parse_meta(seq / "meta.cfg") for seq in sequences]
    # A lone sequence writes into --out itself, each of several into its own subdirectory.
    subdirs = [""] if len(sequences) == 1 else [meta.sequence_id for meta in metas]
    for i, subdir in enumerate(subdirs if len(subdirs) > 1 else []):
        if subdir in subdirs[:i]:
            problem = f"duplicate sequence id {subdir!r}"
        elif subdir in ("", ".", "..") or any(ch in subdir for ch in "/\\\0"):
            problem = f"sequence id {subdir!r} is not a plain directory name"
        else:
            continue
        raise DataError(
            f"{problem}: each sequence of a run needs its own output directory",
            str(sequences[i] / "meta.cfg"),
        )

    with _atomic_dir(out_root, args.force) as tmp:
        outcomes = _run_sequences([
            (settings, seq, meta, tmp / subdir, args.dump_masks)
            for seq, meta, subdir in zip(sequences, metas, subdirs)
        ])
    for subdir, meta, (flagged, frame_count, t) in zip(subdirs, metas, outcomes):
        if flagged:
            print(f"note: dropped detections of unconfigured classes: {flagged}")
        print(
            f"{meta.sequence_id}: {frame_count} frames, "
            f"total {t.total_ops:.1f} Gops (proposal {t.proposal_ops:.1f}, "
            f"refinement {t.refine_ops:.1f}) -> {out_root / subdir}"
        )
    return EXIT_OK


def _print_difficulty_report(report: DifficultyReport, class_map: ClassMap) -> None:
    print(f"== difficulty {report.difficulty} ==")
    print(f"{'class':<14} {'AP':>8} {'gt_boxes':>9} {'tracks':>7} {'dets':>7}")
    for class_id in sorted(report.classes):
        c = report.classes[class_id]
        print(
            f"{class_map.name_of(class_id):<14} {fmt_opt(c.ap, '.4f'):>8} {c.n_pos:>9} "
            f"{c.n_tracks:>7} {c.n_detections:>7}"
        )
    print(f"mAP {fmt_opt(report.mean_ap, '.4f')}")
    if report.delay is not None:
        d = report.delay
        print(f"mD@{d.beta:.2f} {d.mean_delay:.2f} frames at t_beta {d.threshold}")
        for class_id in sorted(d.per_class):
            pc = d.per_class[class_id]
            note = f" (never detected: {pc.never_detected})" if pc.never_detected else ""
            print(
                f"  {class_map.name_of(class_id)}: delay {pc.mean_delay:.2f} "
                f"over {pc.counted_tracks} tracks{note}"
            )
        if d.has_never_detected:
            print(
                "  warning: never-detected tracks contribute their full length "
                "to the delay average"
            )
    elif report.delay_error is not None:
        print(f"mD@?: unavailable ({report.delay_error})")
    print("# operating point (all detections)")
    for class_id in sorted(report.classes):
        c = report.classes[class_id]
        if c.base_precision is None:
            continue
        print(
            f"# class={class_map.name_of(class_id)} recall={c.base_recall} "
            f"precision={c.base_precision} delay={c.base_delay}"
        )


def cmd_eval(args) -> int:
    if args.out is not None:
        _check_out(Path(args.out), args.force, [args.gt, args.det, args.config])
    settings = load_settings(args.config, args.overrides)
    class_map = ClassMap(settings.eval_classes)

    labels = parse_kitti_tracking_labels(args.gt, class_map)
    det_store = parse_detections(args.det, class_map)
    detections = det_store.all()
    if class_map.flagged:
        print(f"note: unevaluated class names in inputs: {sorted(class_map.flagged)}")

    sparse = settings.eval.sparse_annotations
    reports = []
    for difficulty in settings.difficulties:
        report = evaluate_classes(
            labels.tracks,
            detections,
            settings.eval,
            difficulty,
            labels.dontcare_by_frame,
        )
        reports.append(report)
        _print_difficulty_report(report, class_map)

    beta = settings.eval.beta
    print(f"{'difficulty':<12} {'mAP':>8} {f'mD@{beta:.2f}':>9}")
    for report in reports:
        md_text = fmt_opt(report.delay and report.delay.mean_delay, ".2f")
        print(f"{report.difficulty:<12} {fmt_opt(report.mean_ap, '.4f'):>8} {md_text:>9}")

    if args.out is not None:
        out = Path(args.out)
        with _atomic_dir(out, args.force) as tmp:
            outputs = ["manifest.json"]
            for report in reports:
                for class_id, c in sorted(report.classes.items()):
                    name = f"curve_{report.difficulty}_{class_map.name_of(class_id)}.txt"
                    with open(tmp / name, "w", encoding="utf-8") as fh:
                        fh.write("# threshold precision recall delay\n")
                        for t, precision, recall, delay in c.curve:
                            fh.write(f"{t} {precision} {recall} {fmt_opt(delay)}\n")
                    outputs.append(name)
            write_manifest(
                tmp / "manifest.json",
                "eval",
                settings.values,
                [args.gt, args.det],
                outputs,
            )

    if sparse:
        print(
            "delay evaluation refused: the sparse annotation makes detection "
            "delay unmeasurable (mAP above covers labeled frames only)"
        )
        return EXIT_REFUSED
    return EXIT_OK


def _run_totals(run: Path) -> tuple[str, int, WorkReport]:
    """Mode, frame count and work.txt totals of one run; "/" sources become None."""
    where = str(run / "manifest.json")
    manifest = read_manifest(where)

    def lookup(*keys: str):
        value = manifest
        for depth, key in enumerate(keys):
            if not isinstance(value, dict):
                what = ".".join(keys[:depth]) or "top level"
                raise DataError(f"not a run manifest ({what} is not an object)", where)
            value = value.get(key)
            if value is None:
                break
        return value

    mode = lookup("config", "pipeline", "mode")
    frame_count = lookup("sequence", "frame_count")
    if mode is None or frame_count is None:
        raise DataError("not a run manifest (no pipeline mode or frame count)", where)
    if mode not in MODES:
        raise DataError(f"unknown pipeline mode {mode!r}", where)
    if type(frame_count) is not int or frame_count < 1:  # a bool is not a frame count
        raise DataError(f"frame count must be an integer >= 1, got {frame_count!r}", where)
    work = run / "work.txt"
    total, frame_rows = parse_work_total(work)
    if frame_rows != frame_count:
        raise DataError(
            f"frame count {frame_count}, but {work} holds {frame_rows} frame rows", where
        )
    total = dataclasses.replace(
        total,
        refine_from_tracker_ops=total.refine_from_tracker_ops if mode == "catdet" else None,
        refine_from_proposal_ops=total.refine_from_proposal_ops if mode != "single" else None,
    )
    return mode, frame_count, total


def cmd_cost_report(args) -> int:
    rows = [(Path(run).name, *_run_totals(Path(run))) for run in args.runs]

    print(
        f"{'run':<24} {'mode':<9} {'total':>8} {'proposal':>9} {'refine':>8} "
        f"{'from_trk':>9} {'from_prop':>10}"
    )
    for name, mode, _, t in rows:
        print(
            f"{name:<24} {mode:<9} {t.total_ops:>8.1f} {t.proposal_ops:>9.1f} "
            f"{t.refine_ops:>8.1f} {fmt_opt(t.refine_from_tracker_ops, '.1f'):>9} "
            f"{fmt_opt(t.refine_from_proposal_ops, '.1f'):>10}"
        )
    for name, mode, frame_count, t in rows:
        print(
            f"record run={name} mode={mode} frames={frame_count} total_ops={t.total_ops} "
            f"proposal_ops={t.proposal_ops} refine_ops={t.refine_ops} "
            f"from_tracker_ops={fmt_opt(t.refine_from_tracker_ops)} "
            f"from_proposal_ops={fmt_opt(t.refine_from_proposal_ops)}"
        )
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    out = Path(args.out)
    _check_out(out, args.force, [args.scenario])
    scenario = parse_scenario(args.scenario)
    data = generate_synthetic(scenario)
    with _atomic_dir(out, args.force) as tmp:
        write_sequence_dir(data, tmp)
        outputs = sorted(p.name for p in tmp.iterdir()) + ["manifest.json"]
        write_manifest(
            tmp / "manifest.json",
            "gen-synthetic",
            {"scenario": {"path": str(args.scenario), "seed": scenario.seed}},
            [args.scenario],
            outputs,
        )
    print(
        f"{scenario.meta.sequence_id}: {scenario.meta.frame_count} frames, "
        f"{len(data.labels.tracks)} tracks -> {out}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if args.command == "eval" and args.force and args.out is None:
        parser.error("eval --force needs --out: without it nothing is written")
    handlers = {
        "run": cmd_run,
        "eval": cmd_eval,
        "cost-report": cmd_cost_report,
        "gen-synthetic": cmd_gen_synthetic,
    }
    # A command leaves a few hundred objects in cycles, so the cyclic
    # collector's passes cost time and free almost nothing. The caller's
    # collector state comes back however the command ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
