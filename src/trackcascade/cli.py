"""Command-line entry point: run, eval, cost-report and gen-synthetic.

Exit codes: 0 success, 1 usage, 2 data error, 3 evaluation refused.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import __version__
from .cascade import MODES, FileBackedSource, Pipeline, SequenceResult
from .config import Settings, load_settings
# refine_cost and parse_mask_dump are unused here since cost-report reads
# work.txt; they stay importable from this module because perfbench/tracing.py
# hooks them on it (ROADMAP item 1).
from .costmodel import WorkReport, refine_cost  # noqa: F401
from .errors import DataError, EvaluationRefused
from .ingest import (
    ClassMap,
    SequenceMeta,
    generate_synthetic,
    parse_detections,
    parse_kitti_tracking_labels,
    parse_meta,
    parse_scenario,
    write_detections,
    write_sequence_dir,
)
from .metrics import DifficultyReport, evaluate_classes
from .runio import (
    _fmt_opt,
    parse_mask_dump,  # noqa: F401
    parse_work_total,
    read_manifest,
    write_manifest,
    write_mask_dump,
    write_work_records,
)

CONFIG_ENV = "TRACKCASCADE_CONFIG"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REFUSED = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return seed


def _build_parser() -> _Parser:
    parser = _Parser(prog="trackcascade", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

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

    run = sub.add_parser("run", parents=[common], help="run the cascade over sequences")
    run.add_argument("--sequence", action="append", required=True, help="sequence directory")
    run.add_argument(
        "--mode",
        choices=MODES,
        help="same as --set pipeline.mode=MODE, and applied after every --set",
    )
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--dump-masks", action="store_true", help="also dump per-frame region boxes")
    run.add_argument("--force", action="store_true", help="overwrite an existing output directory")

    ev = sub.add_parser("eval", parents=[common], help="evaluate detections against ground truth")
    ev.add_argument("--gt", required=True, help="KITTI tracking label file")
    ev.add_argument("--det", required=True, help="detections file")
    ev.add_argument("--out", help="directory for curve data and manifest")
    ev.add_argument("--force", action="store_true")

    cr = sub.add_parser("cost-report", help="op break-down from run outputs")
    cr.add_argument("runs", nargs="+", help="run output directories")

    gen = sub.add_parser("gen-synthetic", help="generate a synthetic sequence")
    gen.add_argument("--scenario", required=True, help="scenario file")
    gen.add_argument("--seed", type=_seed, help="override the scenario seed (an integer >= 0)")
    gen.add_argument("--out", required=True, help="output sequence directory")
    gen.add_argument("--force", action="store_true")
    return parser


@contextlib.contextmanager
def _atomic_dir(out: Path, force: bool):
    """Stage outputs in a temp dir and publish it as `out` on success."""
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        yield tmp
        if out.exists():
            if not force:
                raise DataError(f"output directory exists: {out} (use --force)")
            shutil.rmtree(out)
        os.replace(tmp, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run_one_sequence(settings: Settings, seq_dir: Path, meta: SequenceMeta):
    """Execute one sequence; returns everything the writer needs."""
    class_map = ClassMap(settings.classes)
    refine_path = seq_dir / "refine.txt"
    proposal_path = seq_dir / "proposal.txt"
    refine_store = parse_detections(refine_path, class_map, meta.frame_count)
    refine = FileBackedSource(refine_store, "refine", meta.frame_count)
    proposal = None
    inputs = [seq_dir / "meta.cfg", refine_path]
    config = settings.pipeline_config()
    if config.mode != "single":
        proposal_store = parse_detections(proposal_path, class_map, meta.frame_count)
        proposal = FileBackedSource(proposal_store, "proposal", meta.frame_count)
        inputs.append(proposal_path)

    pipeline = Pipeline(config, meta, refine, proposal, known_classes=set(class_map.configured))
    result: SequenceResult = pipeline.run_sequence()
    return class_map, inputs, result


def _write_run_outputs(
    settings: Settings,
    out: Path,
    meta: SequenceMeta,
    class_map: ClassMap,
    inputs,
    result: SequenceResult,
    dump_masks: bool,
    force: bool,
) -> None:
    with _atomic_dir(out, force) as tmp:
        final = [d for r in result.frames for d in r.final_detections]
        write_detections(final, class_map, tmp / "detections.txt")
        write_work_records(result.frames, result.total, tmp / "work.txt")
        outputs = ["detections.txt", "work.txt", "manifest.json"]
        if dump_masks:
            write_mask_dump(result.frames, tmp / "masks.txt")
            outputs.append("masks.txt")
        write_manifest(
            tmp / "manifest.json", "run", settings.snapshot(), inputs, outputs, meta=meta
        )
    if class_map.flagged:
        print(f"note: dropped detections of unconfigured classes: {sorted(class_map.flagged)}")
    t = result.total
    print(
        f"{meta.sequence_id}: {len(result.frames)} frames, "
        f"total {t.total_ops:.1f} Gops (proposal {t.proposal_ops:.1f}, "
        f"refinement {t.refine_ops:.1f}) -> {out}"
    )


def cmd_run(args) -> int:
    mode_override = [f"pipeline.mode={args.mode}"] if args.mode else []
    settings = load_settings(args.config, args.overrides + mode_override)
    sequences = [Path(s) for s in args.sequence]
    out_root = Path(args.out)
    metas = [parse_meta(seq / "meta.cfg") for seq in sequences]
    if len(sequences) == 1:
        outs = [out_root]
    else:
        ids = [meta.sequence_id for meta in metas]
        for i, sequence_id in enumerate(ids):
            if sequence_id in ids[:i]:
                raise DataError(
                    f"duplicate sequence id {sequence_id!r}: each sequence of a run "
                    "needs its own output directory",
                    str(sequences[i] / "meta.cfg"),
                )
        outs = [out_root / sequence_id for sequence_id in ids]

    # Every sequence runs before any is written, so a bad input in any of
    # them leaves no output behind.
    executed = [_run_one_sequence(settings, seq, meta) for seq, meta in zip(sequences, metas)]
    for out, meta, (class_map, inputs, result) in zip(outs, metas, executed):
        _write_run_outputs(
            settings, out, meta, class_map, inputs, result, args.dump_masks, args.force
        )
    return EXIT_OK


def _print_difficulty_report(report: DifficultyReport, class_map: ClassMap) -> None:
    print(f"== difficulty {report.difficulty} ==")
    print(f"{'class':<14} {'AP':>8} {'gt_boxes':>9} {'tracks':>7} {'dets':>7}")
    for class_id in sorted(report.classes):
        c = report.classes[class_id]
        print(
            f"{class_map.name_of(class_id):<14} {_fmt_opt(c.ap, '.4f'):>8} {c.n_pos:>9} "
            f"{c.n_tracks:>7} {c.n_detections:>7}"
        )
    print(f"mAP {_fmt_opt(report.mean_ap, '.4f')}")
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
    settings = load_settings(args.config, args.overrides)
    eval_class_names = sorted(settings.match_iou_by_name())
    alias_names = sorted(settings.dontcare_by_name())
    class_map = ClassMap(eval_class_names + alias_names)
    class_ids = {name: class_map.id_of(name) for name in eval_class_names + alias_names}
    eval_config = settings.eval_config(class_ids)

    labels = parse_kitti_tracking_labels(args.gt, class_map)
    det_store = parse_detections(args.det, class_map)
    detections = det_store.all()
    if class_map.flagged:
        print(f"note: unevaluated class names in inputs: {sorted(class_map.flagged)}")

    sparse = eval_config.sparse_annotations
    reports = []
    for difficulty in settings.difficulties():
        report = evaluate_classes(
            labels.tracks,
            detections,
            eval_config,
            difficulty,
            labels.dontcare_by_frame,
            with_delay=not sparse,
        )
        reports.append(report)
        _print_difficulty_report(report, class_map)

    beta = eval_config.beta
    print(f"{'difficulty':<12} {'mAP':>8} {f'mD@{beta:.2f}':>9}")
    for report in reports:
        md_text = _fmt_opt(report.delay and report.delay.mean_delay, ".2f")
        print(f"{report.difficulty:<12} {_fmt_opt(report.mean_ap, '.4f'):>8} {md_text:>9}")

    if args.out:
        out = Path(args.out)
        with _atomic_dir(out, args.force) as tmp:
            outputs = ["manifest.json"]
            for report in reports:
                for class_id, c in sorted(report.classes.items()):
                    name = f"curve_{report.difficulty}_{class_map.name_of(class_id)}.txt"
                    with open(tmp / name, "w", encoding="utf-8") as fh:
                        fh.write("# threshold precision recall delay\n")
                        for t, precision, recall, delay in c.curve:
                            fh.write(f"{t} {precision} {recall} {_fmt_opt(delay)}\n")
                    outputs.append(name)
            write_manifest(
                tmp / "manifest.json",
                "eval",
                settings.snapshot(),
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
    manifest_path = run / "manifest.json"
    manifest = read_manifest(manifest_path)
    mode = manifest.get("config", {}).get("pipeline", {}).get("mode")
    frame_count = manifest.get("sequence", {}).get("frame_count")
    if mode is None or frame_count is None:
        raise DataError("not a run manifest (no pipeline mode or frame count)", str(manifest_path))
    total = parse_work_total(run / "work.txt")
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
            f"{t.refine_ops:>8.1f} {_fmt_opt(t.refine_from_tracker_ops, '.1f'):>9} "
            f"{_fmt_opt(t.refine_from_proposal_ops, '.1f'):>10}"
        )
    for name, mode, frame_count, t in rows:
        print(
            f"record run={name} mode={mode} frames={frame_count} total_ops={t.total_ops} "
            f"proposal_ops={t.proposal_ops} refine_ops={t.refine_ops} "
            f"from_tracker_ops={_fmt_opt(t.refine_from_tracker_ops)} "
            f"from_proposal_ops={_fmt_opt(t.refine_from_proposal_ops)}"
        )
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    scenario = parse_scenario(args.scenario)
    if args.seed is not None:
        scenario.seed = args.seed
    data = generate_synthetic(scenario)
    out = Path(args.out)
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
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "eval": cmd_eval,
        "cost-report": cmd_cost_report,
        "gen-synthetic": cmd_gen_synthetic,
    }
    try:
        return handlers[args.command](args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except EvaluationRefused as exc:
        print(f"evaluation refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
