import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import multiprocessing
import os
import random
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trackcascade import (
    ClassMap,
    DataError,
    FileBackedSource,
    Pipeline,
    PipelineConfig,
    geometry,
    parse_detections,
    parse_meta,
)
from trackcascade import cli, runio
from trackcascade.cli import _check_out, main
from trackcascade.costmodel import CostModelConfig
from trackcascade.geometry import nms
from trackcascade.ingest import DetectionStore, SequenceMeta, write_detections
from trackcascade.runio import (
    MASK_KINDS,
    parse_mask_dump,
    parse_work_total,
    write_work_records,
)

from conftest import (
    DATA,
    WORK_MODES,
    make_store,
    python312_sum,
    reference_parser,
    write_sequence,
)

README = Path(__file__).resolve().parents[1] / "README.md"

pytestmark = pytest.mark.usefixtures("fixed_epoch")


@pytest.fixture
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


@pytest.fixture
def cmap():
    return ClassMap(["car", "pedestrian"])


@pytest.fixture
def seq_dir(tmp_path, cmap) -> Path:
    meta = SequenceMeta("seq0", 4, 1000.0, 400.0)
    proposal, refine = [], []
    for f in range(4):
        x = 100.0 + 10 * f
        proposal.append((f, 0, 0.6, x - 5, 95.0, x + 105, 205.0))
        refine.append((f, 0, 0.9, x, 100.0, x + 100, 200.0))
        refine.append((f, 0, 0.85, x + 2, 101.0, x + 102, 201.0))  # near-duplicate for NMS
    return write_sequence(tmp_path, meta, make_store(proposal), make_store(refine), cmap)


def run_cli(*argv) -> int:
    return main(list(argv))


def read_tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


def sequences(tmp_path, cmap, n=2) -> list[Path]:
    """Sequences seq0, seq1, ... whose refinement detections differ."""
    seqs = []
    for i in range(n):
        meta = SequenceMeta(f"seq{i}", 3, 1000.0, 400.0)
        proposal = make_store([(f, 0, 0.6, 100, 100, 200, 200) for f in range(3)])
        refine = make_store([(f, 0, 0.9 - 0.1 * i, 100, 100 + 10 * i, 200, 200) for f in range(3)])
        seqs.append(write_sequence(tmp_path, meta, proposal, refine, cmap))
    return seqs


def all_files(root: Path) -> dict[str, bytes | None]:
    """Every path under `root`, with a file's bytes and None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def spy_on_row_reader(monkeypatch) -> list[Path]:
    """The paths `runio._check_work_rows` is called with from now on; it still runs."""
    check_work_rows, calls = runio._check_work_rows, []

    def spy(path):
        calls.append(path)
        return check_work_rows(path)

    monkeypatch.setattr(runio, "_check_work_rows", spy)
    return calls


def run_on_cpus(monkeypatch, capsys, cpus: int, argv: list[str]):
    """Run the CLI as if `cpus` CPUs were available; returns (exit, stdout, stderr, forks)."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        m.setattr(os, "fork", counted_fork)
        code = run_cli(*argv)
    assert multiprocessing.active_children() == []  # every worker was joined
    out, err = capsys.readouterr()
    return code, out, err, len(forks)


class TestRun:
    def test_single_mode_equals_refinement_post_nms(self, seq_dir, tmp_path, cmap):
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--mode", "single", "--out", str(out)) == 0
        got = parse_detections(out / "detections.txt", cmap)
        oracle = parse_detections(seq_dir / "refine.txt", cmap)
        for f in range(4):
            assert got.get(f) == nms(oracle.get(f), 0.5)

    def test_rerun_is_byte_identical(self, seq_dir, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli(
                "run", "--sequence", str(seq_dir), "--mode", "catdet",
                "--out", str(out), "--dump-masks",
            ) == 0
            outs.append(read_tree(out))
        assert outs[0] == outs[1]

    def test_mask_dump_inverted_corners_is_data_error(self, tmp_path):
        path = tmp_path / "masks.txt"
        path.write_text("0 mask 0 0 5 10\n0 mask 10 0 5 10\n")
        with pytest.raises(DataError, match="invalid box corners") as err:
            parse_mask_dump(path)
        assert (err.value.path, err.value.line) == (str(path), 2)

    def test_mask_dump_round_trip(self, seq_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet",
                "--out", str(out), "--dump-masks")
        frames = parse_mask_dump(out / "masks.txt")
        rows = [l.split() for l in (out / "work.txt").read_text().splitlines()
                if l and l[0].isdigit()]
        assert len(rows) == 4
        for row in rows:
            per = frames.get(int(row[0]), {k: [] for k in MASK_KINDS})
            # n_tracker_props n_proposal_props n_refine_props
            assert [len(per[k]) for k in ("tracker", "proposal", "refine")] == [
                int(t) for t in row[7:10]
            ]
        assert any(per["mask"] for per in frames.values())

    def test_merge_heavy_timed_run_is_pinned(self, tmp_path):
        # A launch cost b far above alpha * work merges every frame's refine
        # mask down to one region, so greedy_merge runs on every frame.
        seq = tmp_path / "seq"
        assert run_cli("gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg"),
                       "--out", str(seq)) == 0
        out = tmp_path / "out"
        assert run_cli(
            "run", "--sequence", str(seq), "--mode", "catdet", "--out", str(out),
            "--set", "cost.alpha=0.001", "--set", "cost.b=0.05", "--set", "pipeline.c_thresh=0.05",
        ) == 0
        rows = [l.split() for l in (out / "work.txt").read_text().splitlines() if l[0].isdigit()]
        assert len(rows) == 50 and all(row[10] == "1" for row in rows)
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("work.txt", "detections.txt")
        }
        assert digests == {
            "work.txt": "02a94acaf2d40a32e4f7d5602f1303c55feb6b0d0ad574a035b02f83392ec3b9",
            "detections.txt": "ee8bf265c6a089dbfa5091d9ce580a944c9395e10766dc2d32162c7635de4d19",
        }

    def test_partial_merge_timed_run_is_pinned(self, tmp_path):
        # The benchmark's timing constants merge most frames only part way,
        # so the order in which greedy_merge takes pairs shows in the output.
        seq = tmp_path / "seq"
        assert run_cli("gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg"),
                       "--out", str(seq)) == 0
        out = tmp_path / "out"
        assert run_cli(
            "run", "--sequence", str(seq), "--mode", "catdet", "--out", str(out),
            "--set", "cost.alpha=0.001", "--set", "cost.b=0.005",
        ) == 0
        rows = [l.split() for l in (out / "work.txt").read_text().splitlines() if l[0].isdigit()]
        # n_refine_props and merged_regions
        partial = [row for row in rows if 1 < int(row[10]) < int(row[9])]
        assert len(rows) == 50 and len(partial) == 41
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("work.txt", "detections.txt")
        }
        assert digests == {
            "work.txt": "92151a916ad596d4b94a5e9d81c223ce020448319e1ce795f9e1b30406d3b0f5",
            "detections.txt": "ee8bf265c6a089dbfa5091d9ce580a944c9395e10766dc2d32162c7635de4d19",
        }

    def test_cascade_outputs_are_pinned(self, tmp_path):
        # Masks, work and detections of the cascade modes, to the bit.
        seq = tmp_path / "seq"
        assert run_cli("gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg"),
                       "--out", str(seq)) == 0
        digests = {}
        for mode in ("cascaded", "catdet"):
            out = tmp_path / mode
            assert run_cli("run", "--sequence", str(seq), "--mode", mode, "--out", str(out),
                           "--dump-masks") == 0
            for name in ("masks.txt", "work.txt", "detections.txt"):
                digests[f"{mode}/{name}"] = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digests == {
            "cascaded/masks.txt": "892cad1c35e787b845a7a7eb52a42afd792161202ca5220461821a77e08be006",
            "cascaded/work.txt": "00ef201ed55c8b82aa51c8450c7800cd34910cf8bfb863c0be7b59fb8d470e75",
            "cascaded/detections.txt": "44c5d3ac14f702f024f226e3a310a09e5a0796e8087b857c05462b5a9ffe25a9",
            "catdet/masks.txt": "0c17873edea3994cd1b2e85c2cf26b0cf95fc12fc742ee9c19a8c6fdef02b1c5",
            "catdet/work.txt": "1b9e05fe74bd6c7731c84acecb7bf7863520f874200e38445ad9c6f6f48638b4",
            "catdet/detections.txt": "ee8bf265c6a089dbfa5091d9ce580a944c9395e10766dc2d32162c7635de4d19",
        }

    @pytest.mark.parametrize("pinned", [
        "test_merge_heavy_timed_run_is_pinned",
        "test_partial_merge_timed_run_is_pinned",
        "test_cascade_outputs_are_pinned",
    ])
    def test_pinned_runs_hold_under_the_312_sum(self, tmp_path, pinned):
        # CPython 3.12's float sum rounds differently; the package's sums must not follow it.
        with python312_sum():
            getattr(self, pinned)(tmp_path)

    def test_detection_whose_aspect_underflows_is_written_not_tracked(self, tmp_path, cmap):
        # The refinement box's height / width underflows to 0.0, so the tracker skips it.
        meta = SequenceMeta("seq0", 3, 200.0, 100.0)
        proposal = make_store([(0, 0, 0.9, 10, 0, 60, 50)])
        refine = make_store([(0, 0, 0.9, 10, 0, 20, 5e-324)])
        seq = write_sequence(tmp_path, meta, proposal, refine, cmap)
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq), "--mode", "catdet", "--out", str(out)) == 0
        lines = (out / "detections.txt").read_text().splitlines()
        assert lines[1:] == ["0 car 0.9 10.0 0.0 20.0 5e-324"]

    def test_manifest_contents(self, seq_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["config"]["pipeline"]["mode"] == "catdet"
        assert manifest["sequence"]["frame_count"] == 4
        assert all(digest.startswith("sha256:") for digest in manifest["inputs"].values())

    def test_config_env_var_is_the_default_config(self, seq_dir, tmp_path, monkeypatch):
        env_config, explicit = tmp_path / "env.cfg", tmp_path / "explicit.cfg"
        env_config.write_text("[pipeline]\nmargin = 12.5\n")
        explicit.write_text("[pipeline]\nmargin = 7.0\n")
        monkeypatch.setenv("TRACKCASCADE_CONFIG", str(env_config))
        margins = []
        for name, argv in [("env", []), ("explicit", ["--config", str(explicit)])]:
            out = tmp_path / name
            assert run_cli("run", "--sequence", str(seq_dir), "--out", str(out), *argv) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            margins.append(manifest["config"]["pipeline"]["margin"])
        assert margins == [12.5, 7.0]

    def test_cascaded_equals_catdet_when_tracker_disabled(self, seq_dir, tmp_path):
        trees = []
        for mode in ("cascaded", "catdet"):
            out = tmp_path / mode
            assert run_cli(
                "run", "--sequence", str(seq_dir), "--mode", mode, "--out", str(out),
                "--set", "pipeline.t_thresh=1.01",
            ) == 0
            tree = read_tree(out)
            tree.pop("manifest.json")  # differs: mode is recorded
            trees.append(tree)
        assert trees[0] == trees[1]

    def test_existing_out_requires_force(self, seq_dir, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        assert run_cli("run", "--sequence", str(seq_dir), "--mode", "single", "--out", str(out)) == 2
        assert (out / "keep.txt").exists()  # nothing was clobbered
        assert run_cli(
            "run", "--sequence", str(seq_dir), "--mode", "single", "--out", str(out), "--force"
        ) == 0
        assert not (out / "keep.txt").exists()

    def test_multiple_sequences(self, tmp_path, cmap):
        seqs = sequences(tmp_path, cmap)
        out = tmp_path / "multi"
        args = ["run", "--mode", "catdet", "--out", str(out)]
        for s in seqs:
            args += ["--sequence", str(s)]
        assert run_cli(*args) == 0
        assert (out / "seq0" / "detections.txt").exists()
        assert (out / "seq1" / "detections.txt").exists()
        for s in seqs:
            alone = tmp_path / f"alone_{s.name}"
            assert run_cli("run", "--mode", "catdet", "--out", str(alone), "--sequence", str(s)) == 0
            got = (out / s.name / "detections.txt").read_bytes()
            assert got == (alone / "detections.txt").read_bytes()

    def test_bad_later_sequence_writes_nothing(self, tmp_path, cmap):
        seqs = sequences(tmp_path, cmap)
        (seqs[1] / "refine.txt").write_text("0 car 0.9 100 100 not-a-number 200\n")
        out = tmp_path / "multi"
        args = ["run", "--mode", "catdet", "--out", str(out)]
        for s in seqs:
            args += ["--sequence", str(s)]
        assert run_cli(*args) == 2
        assert not (out / "seq0").exists()
        assert not (out / "seq1").exists()

    @pytest.mark.parametrize("force", [False, True])
    def test_duplicate_sequence_ids_write_nothing(self, seq_dir, tmp_path, capsys, force):
        out = tmp_path / "multi"
        args = ["run", "--mode", "single", "--out", str(out),
                "--sequence", str(seq_dir), "--sequence", str(seq_dir)]
        assert run_cli(*args, *(["--force"] if force else [])) == 2
        assert "duplicate sequence id 'seq0'" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_option_wins_over_set(self, seq_dir, tmp_path):
        trees = []
        for extra in ([], ["--set", "pipeline.mode=single"]):
            out = tmp_path / f"out{len(trees)}"
            assert run_cli(
                "run", "--sequence", str(seq_dir), "--out", str(out), *extra, "--mode", "catdet",
            ) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1]
        manifest = json.loads(trees[1]["manifest.json"])
        assert manifest["config"]["pipeline"]["mode"] == "catdet"

    def test_mode_option_wins_over_the_config_file(self, seq_dir, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("[pipeline]\nmode = single\nmargin = 12.5\n")
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--config", str(config),
                       "--mode", "cascaded", "--out", str(out)) == 0
        pipeline = json.loads((out / "manifest.json").read_text())["config"]["pipeline"]
        assert (pipeline["mode"], pipeline["margin"]) == ("cascaded", 12.5)

    @pytest.mark.parametrize("mode", [[], ["--mode", "catdet"], ["--mode", "single"]])
    def test_pipeline_error_names_the_config_file_with_or_without_mode(
        self, seq_dir, tmp_path, capsys, mode
    ):
        config = tmp_path / "c7.cfg"
        config.write_text("[pipeline]\nc_thresh = 7\n")
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--config", str(config), *mode,
                       "--out", str(out)) == 2
        captured = capsys.readouterr()
        message = "bad [pipeline] value: c_thresh must be in [0, 1]"
        assert captured.err == f"error: {config}: {message}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("source", ["refine", "proposal"])
    def test_detection_past_last_frame_is_data_error(self, seq_dir, tmp_path, capsys, source):
        path = seq_dir / f"{source}.txt"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("57 car 0.9 100 100 200 200\n3 car 0.9 100 100 200 200\n9 car 0.9 0 0 9 9\n")
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "frame 57 is past the sequence's 4 frames" in err
        assert not out.exists()

    def test_missing_sequence_dir_is_data_error(self, tmp_path):
        assert run_cli(
            "run", "--sequence", str(tmp_path / "nope"), "--mode", "single",
            "--out", str(tmp_path / "out"),
        ) == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("frame_rat = 3", "[sequence] unknown key 'frame_rat'"),
            # Keys are case-sensitive: this line replaces frame_count
            ("FRAME_COUNT = 4", "[sequence] unknown key 'FRAME_COUNT'"),
            ("frame_w = nan", "[sequence] frame dimensions must be finite and positive"),
            ("frame_h = inf", "[sequence] frame dimensions must be finite and positive"),
            ("frame_rate = nan", "[sequence] frame_rate must be finite and > 0"),
            ("frame_rate = 0", "[sequence] frame_rate must be finite and > 0"),
            ("frame_rate = -10", "[sequence] frame_rate must be finite and > 0"),
            ("[extra]\nkey = 1", "unknown section [extra]"),
            ("[DEFAULT]\nframe_rate = 5", "unknown section [DEFAULT]"),
            ("frame_count", "[sequence] missing key 'frame_count'"),
            ("frame_w", "[sequence] missing key 'frame_w'"),
            ("frame_h", "[sequence] missing key 'frame_h'"),
        ],
    )
    def test_bad_meta_is_data_error(self, seq_dir, tmp_path, capsys, line, message):
        # A line is set in place of its key's line, in any case; a bare key is left out.
        meta = seq_dir / "meta.cfg"
        key = line.split(" = ")[0].lower()
        kept = [l for l in meta.read_text().splitlines() if not l.startswith(f"{key} =")]
        meta.write_text("\n".join(kept + [line] * ("=" in line)) + "\n")
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(meta) in err and message in err
        assert not out.exists()


class TestParallelRun:
    """Several sequences run in forked workers, one per CPU beyond the first.

    The CPU count is patched, so a one-CPU host takes the fork path too.
    """

    @staticmethod
    def argv(seqs, out):
        argv = ["run", "--mode", "catdet", "--out", str(out), "--dump-masks", "--force"]
        for seq in seqs:
            argv += ["--sequence", str(seq)]
        return argv

    @pytest.mark.parametrize("n, cpus, forks", [(2, 2, 1), (3, 2, 1), (3, 3, 2), (3, 8, 2)])
    def test_outputs_and_stdout_equal_a_serial_run(self, tmp_path, cmap, monkeypatch, capsys,
                                                   n, cpus, forks):
        seqs = sequences(tmp_path, cmap, n)
        # The last sequence, which a worker runs, drops an unconfigured class.
        with open(seqs[-1] / "refine.txt", "a", encoding="utf-8") as fh:
            fh.write("1 truck 0.9 10 10 50 50\n")
        out = tmp_path / "out"
        runs = []
        for c in (1, cpus):
            code, stdout, err, made = run_on_cpus(monkeypatch, capsys, c, self.argv(seqs, out))
            assert (code, err, made) == (0, "", forks if c > 1 else 0)
            runs.append((stdout, all_files(out)))
        assert runs[0] == runs[1]
        stdout, files = runs[0]
        assert "note: dropped detections of unconfigured classes: ['truck']\n" in stdout
        ids = [line.split(":")[0] for line in stdout.splitlines() if not line.startswith("note")]
        assert ids == [s.name for s in seqs]
        names = ("detections.txt", "manifest.json", "masks.txt", "work.txt")
        want = [p for s in seqs for p in (s.name, *(f"{s.name}/{x}" for x in names))]
        assert list(files) == want

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("bad", [(0,), (1,), (2,), (1, 2), (0, 2)])
    def test_bad_sequence_writes_nothing(self, tmp_path, cmap, monkeypatch, capsys, cpus, bad):
        # On two CPUs this process runs seq0 and one worker seq1 and seq2;
        # on three, each of seq1 and seq2 has its own worker.
        seqs = sequences(tmp_path / "in", cmap, 3)
        for i in bad:
            (seqs[i] / "refine.txt").write_text("0 car 0.9 100 100 not-a-number 200\n")
        out = tmp_path / "runs" / "out"
        errs = []
        for c in (1, cpus):
            code, stdout, err, made = run_on_cpus(monkeypatch, capsys, c, self.argv(seqs, out))
            assert (code, stdout, made) == (2, "", cpus - 1 if c > 1 else 0)
            assert not (tmp_path / "runs").exists()
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].startswith(f"error: {seqs[bad[0]] / 'refine.txt'}:1:")


class TestEval:
    def test_fig4_numbers_printed_exactly(self, capsys):
        code = run_cli(
            "eval", "--gt", str(DATA / "fig4_labels.txt"), "--det", str(DATA / "fig4_detections.txt"),
            "--set", "eval.difficulties=all",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recall=0.6 " in out
        assert "precision=0.42857142857142855" in out
        assert "delay=1.0" in out
        assert "mD@0.80 1.00 frames at t_beta 0.8" in out

    def test_perfect_detections(self, tmp_path, capsys, cmap):
        gt = tmp_path / "gt.txt"
        det = tmp_path / "det.txt"
        lines, dets = [], []
        for f in range(3):
            lines.append(f"{f} 1 car 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10")
            dets.append(f"{f} car 0.9 100 100 200 200")
        gt.write_text("\n".join(lines) + "\n")
        det.write_text("\n".join(dets) + "\n")
        assert run_cli("eval", "--gt", str(gt), "--det", str(det),
                       "--set", "eval.difficulties=all") == 0
        out = capsys.readouterr().out
        assert "mAP 1.0000" in out
        assert "mD@0.80 0.00 frames" in out

    def test_curve_files_monotone_in_threshold(self, tmp_path):
        out = tmp_path / "eval_out"
        run_cli(
            "eval", "--gt", str(DATA / "fig4_labels.txt"), "--det", str(DATA / "fig4_detections.txt"),
            "--set", "eval.difficulties=all", "--out", str(out),
        )
        curve = (out / "curve_all_car.txt").read_text().splitlines()
        thresholds = [float(l.split()[0]) for l in curve if not l.startswith("#")]
        assert thresholds == sorted(thresholds)
        assert len(thresholds) == 7  # all distinct score cut-points

    def test_sparse_refusal_exit_code(self, capsys):
        code = run_cli(
            "eval", "--gt", str(DATA / "fig4_labels.txt"), "--det", str(DATA / "fig4_detections.txt"),
            "--set", "eval.difficulties=all", "--set", "eval.sparse_annotations=true",
        )
        assert code == 3
        out = capsys.readouterr().out
        assert "mAP" in out  # AP still reported for labeled frames
        assert "refused" in out

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("max_occlusion", "-1", "max_occlusion must be >= 0"),
            ("min_size", "-1", "min_size must be >= 0"),
            ("max_truncation", "1.5", "max_truncation must be in [0, 1]"),
            ("max_truncation", "-0.1", "max_truncation must be in [0, 1]"),
        ],
    )
    def test_out_of_range_difficulty_is_data_error(self, capsys, key, value, message):
        code = run_cli(
            "eval", "--gt", str(DATA / "fig4_labels.txt"), "--det", str(DATA / "fig4_detections.txt"),
            "--set", f"difficulty.x.{key}={value}", "--set", "eval.difficulties=x",
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_unknown_difficulty_in_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("[eval]\ndifficulties = moderate, medium\n")
        code = run_cli("eval", "--gt", str(DATA / "fig4_labels.txt"),
                       "--det", str(DATA / "fig4_detections.txt"), "--config", str(config))
        assert code == 2
        assert f"{config}: unknown difficulty 'medium'" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_ap_recall_points_below_two_is_data_error(self, tmp_path, capsys, points):
        out = tmp_path / "ev"
        code = run_cli(
            "eval", "--gt", str(DATA / "fig4_labels.txt"), "--det", str(DATA / "fig4_detections.txt"),
            "--set", f"eval.ap_recall_points={points}", "--out", str(out),
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "[eval] value: ap_recall_points must be >= 2 or all" in captured.err
        assert captured.out == "" and not out.exists()

    def test_missing_gt_is_data_error(self, tmp_path):
        assert run_cli("eval", "--gt", str(tmp_path / "nope.txt"),
                       "--det", str(DATA / "fig4_detections.txt")) == 2

    def test_negative_label_frame_is_data_error(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        lines = (DATA / "fig4_labels.txt").read_text().splitlines(keepends=True)
        lines.append("-3 1 Car 0 0 -10 100 100 200 200 -1 -1 -1 -1000 -1000 -1000 -10\n")
        labels.write_text("".join(lines))
        assert run_cli("eval", "--gt", str(labels),
                       "--det", str(DATA / "fig4_detections.txt")) == 2
        assert f"{labels}:{len(lines)}: negative frame index -3" in capsys.readouterr().err

    def test_run_then_eval_round_trip(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        gt = tmp_path / "gt.txt"
        lines = []
        for f in range(4):
            x = 100 + 10 * f
            lines.append(
                f"{f} 1 car 0 0 -10 {x} 100 {x + 100} 200 -1 -1 -1 -1000 -1000 -1000 -10"
            )
        gt.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", "--gt", str(gt), "--det", str(out / "detections.txt"),
                       "--set", "eval.difficulties=all") == 0
        printed = capsys.readouterr().out
        assert "mAP 1.0000" in printed
        assert "mD@0.80 0.00 frames" in printed


class TestUsageErrors:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as err:
            run_cli("frobnicate")
        assert err.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--out", "x")
        assert err.value.code == 1

    def test_eval_force_without_out_exits_one(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("eval", "--gt", str(DATA / "fig4_labels.txt"),
                    "--det", str(DATA / "fig4_detections.txt"), "--force")
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert "--force needs --out" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--gt", "g", "--det", "d", "--force"],
             "eval --force needs --out: without it nothing is written"),
            (["cost-report", "r", "--force"], "unrecognized arguments: --force"),
            (["run", "--sequence", "s", "--out", "o", "--version"],
             "unrecognized arguments: --version"),
        ],
    )
    def test_top_level_usage_lists_every_command(self, capsys, argv, message):
        # Only the named command's subparser is built, yet the usage is the full parser's.
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        usage = reference_parser().format_usage()
        assert "{run,eval,cost-report,gen-synthetic}" in usage
        assert captured.err == f"{usage}trackcascade: error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-5", "2"])
    def test_jobs_is_usage_error(self, seq_dir, tmp_path, jobs):
        with pytest.raises(SystemExit) as err:
            run_cli("run", "--sequence", str(seq_dir), "--out", str(tmp_path / "o"),
                    "--jobs", jobs)
        assert err.value.code == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "override",
        ["pipeline.nms_iou=7", "pipeline.nms_iou=-0.1",
         "pipeline.proposal_dedup_iou=-3", "pipeline.proposal_dedup_iou=1.5"],
    )
    def test_nms_threshold_out_of_range_is_data_error(self, seq_dir, tmp_path, capsys, override):
        assert run_cli(
            "run", "--sequence", str(seq_dir), "--mode", "catdet",
            "--out", str(tmp_path / "o"), "--set", override,
        ) == 2
        key = override.split("=")[0].split(".")[1]
        assert f"{key} must be in [0, 1]" in capsys.readouterr().err

    def test_bad_override_is_data_error(self, seq_dir, tmp_path):
        assert run_cli(
            "run", "--sequence", str(seq_dir), "--mode", "single",
            "--out", str(tmp_path / "o"), "--set", "pipeline.nonsense=1",
        ) == 2

    def test_tracker_input_score_threshold_is_unknown_key(self, seq_dir, tmp_path, capsys):
        # The tracker takes its input threshold from pipeline.t_thresh.
        assert run_cli(
            "run", "--sequence", str(seq_dir), "--mode", "catdet",
            "--out", str(tmp_path / "o"), "--set", "tracker.input_score_threshold=0.99",
        ) == 2
        assert "unknown key tracker.input_score_threshold" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["pipeline.margin=nan"], "bad value 'nan' for pipeline.margin"),
            (["pipeline.t_thresh=nan"], "bad value 'nan' for pipeline.t_thresh"),
            (["cost.refine_feature_fullframe_ops=nan"],
             "bad value 'nan' for cost.refine_feature_fullframe_ops"),
            (["cost.refine_feature_fullframe_ops=inf"],
             "[cost] value: refine_feature_fullframe_ops must be finite and >= 0"),
            (["cost.alpha=0.001"], "[cost] value: alpha and b must be set together"),
            (["cost.b=0.01"], "[cost] value: alpha and b must be set together"),
            (["cost.alpha=-1", "cost.b=0"], "[cost] value: alpha must be finite and >= 0"),
            (["tracker.boundary_chop_fraction=-1"],
             "[tracker] value: boundary_chop_fraction must be in [0, 1]"),
            (["tracker.boundary_chop_fraction=1.5"],
             "[tracker] value: boundary_chop_fraction must be in [0, 1]"),
            (["tracker.min_width=-1"], "[tracker] value: min_width must be >= 0"),
            # An int too large for a float, which the accounting would need.
            (["cost.baseline_proposal_count=1" + "0" * 400],
             "[cost] value: baseline_proposal_count must be finite and >= 0"),
        ],
    )
    def test_out_of_range_config_is_data_error(self, seq_dir, tmp_path, capsys, overrides, message):
        out = tmp_path / "o"
        args = ["run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        assert run_cli(*args) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, overrides",
        [
            ("single", ["cost.refine_per_proposal_ops=1e308"]),  # one frame's product is inf
            ("catdet", ["cost.proposal_fullframe_ops=1e307"]),  # 50 finite frames sum to inf
            ("catdet", ["cost.alpha=1e308", "cost.b=1e308"]),  # the estimated time
            ("cascaded", ["cost.refine_feature_fullframe_ops=1e308",
                          "cost.refine_per_proposal_ops=1e308"]),
        ],
    )
    def test_non_finite_accounting_is_refused(self, tmp_path, capsys, mode, overrides):
        seq = tmp_path / "seq"
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg"),
                           "--out", str(seq)) == 0
        out = tmp_path / "o"
        args = ["run", "--sequence", str(seq), "--mode", mode, "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        assert run_cli(*args) == 2
        assert f"{seq}: the [cost] constants make non-finite op totals" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_in_config_file_names_the_file(self, seq_dir, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("[pipeline]\nmargin = nan\n")
        out = tmp_path / "o"
        assert run_cli("run", "--sequence", str(seq_dir), "--config", str(config),
                       "--out", str(out)) == 2
        assert f"{config}: bad value 'nan' for pipeline.margin" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[DEFAULT]\nmargin = 5\n", "bad config: unknown section [DEFAULT]"),
            ("[DEFAULT]\nmargin = 5\n\n[pipeline]\nc_thresh = 0.3\n",
             "bad config: unknown section [DEFAULT]"),
            # Values are literal: '%' is not interpolation syntax.
            ("[pipeline]\nmode = %x\n", "bad [pipeline] value: mode must be one of"),
        ],
    )
    def test_bad_config_file_is_data_error(self, seq_dir, tmp_path, capsys, text, message):
        config = tmp_path / "c.cfg"
        config.write_text(text)
        out = tmp_path / "o"
        assert run_cli("run", "--sequence", str(seq_dir), "--config", str(config),
                       "--out", str(out)) == 2
        assert f"{config}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_t_thresh_disables_tracker(self, seq_dir, tmp_path):
        trees = []
        for mode, extra in (("cascaded", []), ("catdet", ["--set", "pipeline.t_thresh=inf"])):
            out = tmp_path / mode
            assert run_cli("run", "--sequence", str(seq_dir), "--mode", mode,
                           "--out", str(out), *extra) == 0
            tree = read_tree(out)
            tree.pop("manifest.json")
            trees.append(tree)
        assert trees[0] == trees[1]


# The CLI's vocabulary: every command and two near misses, the help and version
# flags, every option, a few option values, "--", a stray positional and "".
VOCABULARY = [
    *cli.COMMANDS, "bogus", "RUN", "-h", "--help", "--version",
    "--config", "--set", "--sequence", "--mode", "--out", "--dump-masks", "--force",
    "--gt", "--det", "--scenario", "catdet", "pipeline.mode=single", "--", "stray", "",
]

cli_argvs = st.one_of(
    st.lists(st.sampled_from(VOCABULARY), max_size=7),
    st.tuples(st.sampled_from(cli.COMMANDS), st.lists(st.sampled_from(VOCABULARY), max_size=6))
    .map(lambda drawn: [drawn[0], *drawn[1]]),
)


def parse_outcome(parser: argparse.ArgumentParser, argv: list[str]):
    """(exit code or None, stdout, stderr, parsed namespace or None) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, parsed = None, vars(parser.parse_args(argv))
        except SystemExit as exc:
            code, parsed = exc.code, None
    return code, out.getvalue(), err.getvalue(), parsed


def subcommands(parser: argparse.ArgumentParser) -> list[str]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(action.choices)


class TestParser:
    """`main` builds only the named command's subparser, and parses as the full parser does."""

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_a_command_builds_its_subparser_only(self, command):
        assert subcommands(cli._build_parser(command)) == [command]

    @pytest.mark.parametrize("command", [None, "", "bogus", "RUN", "-h", "--version", "--"])
    def test_anything_else_builds_every_subparser(self, command):
        assert subcommands(cli._build_parser(command)) == list(cli.COMMANDS)

    @pytest.mark.parametrize("env_config", [None, "env.cfg"])
    @settings(max_examples=500, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=cli_argvs)
    def test_parses_as_the_full_parser(self, monkeypatch, env_config, argv):
        # --config's default is read from the environment when the parser is built.
        if env_config is None:
            monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.CONFIG_ENV, env_config)
        built = cli._build_parser(argv[0] if argv else None)
        assert parse_outcome(built, argv) == parse_outcome(reference_parser(), argv)


def scaled_scenario(frames: int) -> str:
    """Eight still objects in view throughout `frames` frames, seen by both sources."""
    objects = "".join(
        f"[object.o{i}]\nclass = {'pedestrian' if i % 3 == 0 else 'car'}\n"
        f"entry = 0\nexit = {frames - 1}\nbox = {60 + 110 * i} {100 + 10 * i} "
        f"{140 + 110 * i} {180 + 10 * i}\n\n"
        for i in range(8)
    )
    sources = "".join(
        f"[source.{name}]\nmiss_prob = {miss}\nfp_per_frame = {fp}\njitter = 2.0\n"
        f"score_mean = {score}\nscore_sigma = 0.1\nfp_score_mean = 0.4\nfp_score_sigma = 0.1\n\n"
        for name, miss, fp, score in [("proposal", 0.25, 1.2, 0.55), ("refine", 0.05, 0.3, 0.88)]
    )
    return (f"[scenario]\nname = s{frames}\nframes = {frames}\nframe_w = 1000\nframe_h = 400\n"
            f"seed = 3\n\n{objects}{sources}")


def set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_kept():
    """Put the collector's state back after the test, whatever it did."""
    enabled = gc.isenabled()
    yield
    set_collector(enabled)


class TestCollector:
    """A command runs with the cyclic collector paused, and `main` gives back its state."""

    @staticmethod
    def eval_argv(*extra):
        return ["eval", "--gt", str(DATA / "fig4_labels.txt"),
                "--det", str(DATA / "fig4_detections.txt"), *extra]

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--set", "eval.difficulties=all"], 0),
            (["--bogus"], 1),
            (["--force"], 1),  # refused after parsing
            (["--set", "eval.beta=2"], 2),
            (["--set", "eval.difficulties=all", "--set", "eval.sparse_annotations=true"], 3),
        ],
    )
    def test_state_comes_back_on_every_exit(self, collector_kept, capsys, enabled, argv, code):
        set_collector(enabled)
        try:
            assert run_cli(*self.eval_argv(*argv)) == code
        except SystemExit as exc:
            assert exc.code == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_state_comes_back_when_the_command_raises(self, collector_kept, monkeypatch, enabled,
                                                      error):
        seen = []

        def broken(args):
            seen.append(gc.isenabled())
            raise error("boom")

        monkeypatch.setattr(cli, "cmd_eval", broken)
        set_collector(enabled)
        with pytest.raises(error):
            run_cli(*self.eval_argv())
        assert seen == [False]  # the command ran with the collector paused
        assert gc.isenabled() is enabled

    def test_no_cycle_grows_with_the_sequence(self, tmp_path, capsys):
        # While the collector is paused, a cycle made per frame would stay in
        # memory until the command ends; so `run` and `eval` must leave as many
        # cyclic objects behind on a sequence 4 times longer. gen-synthetic is
        # left out: configparser's own cycles grow with a scenario's sections.
        def cyclic_after(argv: list[str]) -> int:
            gc.collect()
            assert main(argv) == 0
            return gc.collect()

        counts = []
        for i, frames in enumerate([25, 25, 100]):  # the first round warms up
            root = tmp_path / str(i)
            root.mkdir()
            seq, run = root / "seq", root / "run"
            scenario = root / "s.cfg"
            scenario.write_text(scaled_scenario(frames))
            assert main(["gen-synthetic", "--scenario", str(scenario), "--out", str(seq)]) == 0
            counts.append((
                cyclic_after(["run", "--sequence", str(seq), "--mode", "catdet", "--dump-masks",
                              "--out", str(run)]),
                cyclic_after(["eval", "--gt", str(seq / "labels.txt"),
                              "--det", str(run / "detections.txt")]),
            ))
        assert counts[1] == counts[2], counts


class TestConfigCheckedByEveryCommand:
    """run and eval build every config section, so they refuse the same configs."""

    @pytest.mark.parametrize(
        "config, overrides, message",
        [
            (None, ["eval.beta=2"], "bad [eval] value: beta must be in (0, 1)"),
            (None, ["difficulty.x.max_truncation=2", "eval.difficulties=x"],
             "bad [difficulty.x] value: max_truncation must be in [0, 1]"),
            ("[eval]\nbeta = 3\n", [], "bad [eval] value: beta must be in (0, 1)"),
            (None, ["cost.alpha=1"], "bad [cost] value: alpha and b must be set together"),
            (None, ["pipeline.c_thresh=7"], "bad [pipeline] value: c_thresh must be in [0, 1]"),
            (None, ["eval.difficulties=hard,hard"],
             "eval.difficulties must name at least one difficulty, each once"),
            (None, ["eval.difficulties="], "eval.difficulties must name at least one difficulty"),
            # Names that eval --out would make part of a curve file name
            (None, ["eval.match_iou.a/b=0.5"], "bad name 'a/b' in eval.match_iou.a/b"),
            (None, ["difficulty.x/y.min_size=1", "eval.difficulties=x/y"],
             "bad name 'x/y' in difficulty.x/y.min_size"),
            # Sections are judged by name, keys or not
            ("[bogus]\n[difficulty.x]\n", [], "unknown config section 'bogus'"),
            # KITTI's DontCare regions are no class, and an alias needs an evaluated class
            (None, ["eval.match_iou.dontcare=0.5"],
             "bad name 'dontcare' in eval.match_iou.dontcare"),
            (None, ["eval.dontcare.van=carr"],
             "[eval.dontcare] van = carr: 'carr' is not an [eval.match_iou] class"),
            ("[eval.dontcare]\nvan = carr\n", [],
             "[eval.dontcare] van = carr: 'carr' is not an [eval.match_iou] class"),
            # A run with no class would drop every detection
            (None, ["pipeline.classes="], "pipeline.classes must name at least one class"),
            (None, ["pipeline.classes=DontCare"], "pipeline.classes must name at least one class"),
            (None, ["pipeline.classes=car,DontCare"], "bad name 'dontcare' in pipeline.classes"),
            (None, ["pipeline.classes= DONTCARE ,pedestrian"],
             "bad name 'dontcare' in pipeline.classes"),
            # Keys removed from the config: each rule they chose is fixed at their old default
            (None, ["pipeline.class_agnostic_nms=false"],
             "unknown key pipeline.class_agnostic_nms"),
            ("[pipeline]\nclass_agnostic_nms = false\n", [],
             "unknown key pipeline.class_agnostic_nms"),
            (None, ["tracker.match_gain=1"], "unknown key tracker.match_gain"),
            ("[tracker]\nmatch_gain = 1\n", [], "unknown key tracker.match_gain"),
            (None, ["tracker.miss_cost=1"], "unknown key tracker.miss_cost"),
            ("[tracker]\nmiss_cost = 1\n", [], "unknown key tracker.miss_cost"),
            (None, ["difficulty.x.size_axis=height", "eval.difficulties=x"],
             "unknown key difficulty.x.size_axis"),
            ("[difficulty.x]\nsize_axis = height\n[eval]\ndifficulties = x\n", [],
             "unknown key difficulty.x.size_axis"),
            # Each setting has one spelling: the eval class sections have one name ...
            (None, ["match_iou.car=0.6"], "unknown config section 'match_iou'"),
            ("[match_iou]\ncar = 0.6\n", [], "unknown config section 'match_iou'"),
            (None, ["dontcare.van=car"], "unknown config section 'dontcare'"),
            ("[dontcare]\nvan = car\n", [], "unknown config section 'dontcare'"),
            # ... each value one form ...
            (None, ["cost.alpha=", "cost.b=0"], "bad value '' for cost.alpha"),
            ("[cost]\nalpha =\nb = 0\n", [], "bad value '' for cost.alpha"),
            (None, ["eval.ap_recall_points=all-points"],
             "bad value 'all-points' for eval.ap_recall_points"),
            ("[eval]\nap_recall_points = all-points\n", [],
             "bad value 'all-points' for eval.ap_recall_points"),
            (None, ["eval.sparse_annotations=yes"], "bad value 'yes' for eval.sparse_annotations"),
            ("[eval]\nsparse_annotations = yes\n", [],
             "bad value 'yes' for eval.sparse_annotations"),
            # ... and each key one case, in a file as in --set
            (None, ["pipeline.C_Thresh=0.4"], "unknown key pipeline.C_Thresh"),
            ("[pipeline]\nC_Thresh = 0.4\n", [], "unknown key pipeline.C_Thresh"),
            # Class names are case-insensitive, so a file may not give one twice
            ("[eval.match_iou]\nCar = 0.6\ncar = 0.7\n", [], "[eval.match_iou] names a class twice"),
            # A class is run once
            (None, ["pipeline.classes=car,Car"],
             "pipeline.classes must name each class once; got ['car', 'car']"),
            # A KITTI preset keeps its definition, even one restated key of it
            (None, ["difficulty.moderate.min_size=25"],
             "[difficulty.moderate] may not redefine the preset 'moderate'"),
            ("[difficulty.hard]\nmin_size = 10\n", [],
             "[difficulty.hard] may not redefine the preset 'hard'"),
            ("[difficulty.All]\n", [], "[difficulty.All] may not redefine the preset 'all'"),
            (None, ["difficulty.easy.max_occlusion=0", "eval.difficulties=easy"],
             "[difficulty.easy] may not redefine the preset 'easy'"),
            # eval.difficulties lowercases the names it lists, so a difficulty has one spelling
            (None, ["difficulty.Strict.min_size=10", "eval.difficulties=Strict"],
             "[difficulty.Strict]: difficulty name 'Strict' must be lower case"),
            ("[difficulty.Strict]\nmin_size = 10\n[eval]\ndifficulties = strict\n", [],
             "[difficulty.Strict]: difficulty name 'Strict' must be lower case"),
        ],
    )
    def test_run_and_eval_refuse_alike(self, seq_dir, tmp_path, capsys, config, overrides,
                                       message):
        args = [arg for item in overrides for arg in ("--set", item)]
        if config is not None:
            path = tmp_path / "c.cfg"
            path.write_text(config)
            args += ["--config", str(path)]
            message = f"{path}: {message}"
        commands = {
            "run": ["run", "--sequence", str(seq_dir), "--mode", "catdet"],
            "eval": ["eval", "--gt", str(DATA / "fig4_labels.txt"),
                     "--det", str(DATA / "fig4_detections.txt")],
        }
        for name, argv in commands.items():
            out = tmp_path / f"{name}_out"
            assert run_cli(*argv, "--out", str(out), *args) == 2, name
            captured = capsys.readouterr()
            assert message in captured.err, (name, captured.err)
            assert captured.out == "" and not out.exists(), name

    def test_keyless_difficulty_section_declares_it(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_text("[difficulty.x]\n")
        argv = ["eval", "--gt", str(DATA / "fig4_labels.txt"),
                "--det", str(DATA / "fig4_detections.txt")]
        assert run_cli(*argv, "--set", "eval.difficulties=all") == 0
        expected = capsys.readouterr().out
        assert run_cli(*argv, "--config", str(path), "--set", "eval.difficulties=x") == 0
        # A filter with the default values is the "all" preset under another name.
        printed = capsys.readouterr().out
        assert printed.replace("difficulty x ==", "difficulty all ==").replace(
            "\nx           ", "\nall         "
        ) == expected


class TestWorkFile:
    """work.txt is written from each frame's WorkReport and read back into one."""

    @staticmethod
    def run_library(seq_dir, cmap, config):
        meta = parse_meta(seq_dir / "meta.cfg")
        refine = FileBackedSource(parse_detections(seq_dir / "refine.txt", cmap))
        proposal = FileBackedSource(parse_detections(seq_dir / "proposal.txt", cmap))
        pipeline = Pipeline(config, meta, refine, proposal, known_classes=set(cmap.configured))
        return pipeline.run_sequence()

    def test_writing_computes_no_union_area(self, seq_dir, tmp_path, cmap, monkeypatch):
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet",
                       "--out", str(out)) == 0
        result = self.run_library(seq_dir, cmap, PipelineConfig(mode="catdet"))

        def refuse(boxes):
            raise AssertionError("union_area called while writing work.txt")

        monkeypatch.setattr(geometry, "union_area", refuse)
        write_work_records(result.frames, result.total, tmp_path / "work.txt")
        assert (tmp_path / "work.txt").read_bytes() == (out / "work.txt").read_bytes()

    @pytest.mark.parametrize("mode", ["single", "cascaded", "catdet", "timed"])
    def test_total_round_trips(self, seq_dir, tmp_path, cmap, mode):
        if mode == "timed":
            config = PipelineConfig(mode="catdet", cost=CostModelConfig(alpha=1e-3, b=5e-3))
        else:
            config = PipelineConfig(mode=mode)
        result = self.run_library(seq_dir, cmap, config)
        path = tmp_path / "work.txt"
        write_work_records(result.frames, result.total, path)
        total, _ = parse_work_total(path)
        for f in dataclasses.fields(total):
            assert getattr(total, f.name) == getattr(result.total, f.name), f.name
        assert (total.estimated_time is None) == (mode != "timed")

    @pytest.mark.parametrize("row", ["frame", "total"])
    def test_edited_total_is_data_error(self, seq_dir, tmp_path, capsys, row):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        work = out / "work.txt"
        lines = work.read_text().splitlines()
        index = len(lines) - 1 if row == "total" else 2
        fields = lines[index].split()
        fields[3] = repr(float(fields[3]) + 1.0)
        lines[index] = " ".join(fields)
        work.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("cost-report", str(out)) == 2
        captured = capsys.readouterr()
        assert f"{work}:{index + 1}: total_ops {fields[3]} is not proposal_ops + refine_ops" in (
            captured.err
        )
        assert captured.out == ""


class TestNotUtf8:
    """Bytes that are not UTF-8 give a DataError naming the file (and line), never a traceback."""

    BAD = "caf\N{LATIN SMALL LETTER E WITH ACUTE}".encode("latin-1")

    def spoil(self, path: Path, line: int) -> None:
        lines = path.read_bytes().splitlines(keepends=True)
        lines.insert(line - 1, b"# " + self.BAD + b"\n")
        path.write_bytes(b"".join(lines))

    def test_detections(self, seq_dir, tmp_path, capsys):
        path = seq_dir / "refine.txt"
        self.spoil(path, 3)
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--mode", "single",
                       "--out", str(out)) == 2
        assert f"{path}:3: file is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_kitti_labels(self, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_bytes((DATA / "fig4_labels.txt").read_bytes())
        self.spoil(labels, 2)
        out = tmp_path / "ev"
        assert run_cli("eval", "--gt", str(labels), "--det", str(DATA / "fig4_detections.txt"),
                       "--out", str(out)) == 2
        assert f"{labels}:2: file is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, line", [("work.txt", 4), ("manifest.json", 2)])
    def test_run_outputs(self, seq_dir, tmp_path, capsys, name, line):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        path = out / name
        if name == "manifest.json":  # JSON has no comments: spoil a string instead
            path.write_bytes(path.read_bytes().replace(b'"run"', b'"' + self.BAD + b'"', 1))
            line = next(i for i, l in enumerate(path.read_bytes().splitlines(), 1) if self.BAD in l)
        else:
            self.spoil(path, line)
        capsys.readouterr()
        assert run_cli("cost-report", str(out)) == 2
        captured = capsys.readouterr()
        assert f"{path}:{line}: " in captured.err and "is not UTF-8 text" in captured.err
        assert captured.out == ""

    def test_mask_dump(self, seq_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet",
                "--out", str(out), "--dump-masks")
        path = out / "masks.txt"
        self.spoil(path, 5)
        with pytest.raises(DataError, match="not UTF-8 text") as err:
            parse_mask_dump(path)
        assert (err.value.path, err.value.line) == (str(path), 5)

    def test_config(self, seq_dir, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_bytes(b"[pipeline]\nmargin = 25\n# " + self.BAD + b"\n")
        out = tmp_path / "o"
        assert run_cli("run", "--sequence", str(seq_dir), "--config", str(config),
                       "--out", str(out)) == 2
        assert f"{config}:3: config is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()


class TestCostReport:
    def test_matches_run_totals(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet",
                "--out", str(out), "--dump-masks")
        total, _ = parse_work_total(out / "work.txt")
        assert run_cli("cost-report", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        record = next(l for l in lines if l.startswith("record "))
        fields = dict(kv.split("=", 1) for kv in record.split()[1:])
        assert float(fields["total_ops"]) == pytest.approx(total.total_ops, abs=1e-9)
        assert float(fields["refine_ops"]) == pytest.approx(total.refine_ops, abs=1e-9)
        assert float(fields["from_tracker_ops"]) == pytest.approx(
            total.refine_from_tracker_ops, abs=1e-9
        )

    def test_records_are_work_totals_without_mask_dump(self, seq_dir, tmp_path, capsys):
        runs = []
        for mode in ("single", "cascaded", "catdet"):
            out = tmp_path / mode
            assert run_cli("run", "--sequence", str(seq_dir), "--mode", mode,
                           "--out", str(out)) == 0
            assert not (out / "masks.txt").exists()
            runs.append(out)
        capsys.readouterr()
        assert run_cli("cost-report", *map(str, runs)) == 0
        records = [l for l in capsys.readouterr().out.splitlines() if l.startswith("record ")]
        assert len(records) == 3
        for record, run in zip(records, runs):
            fields = dict(kv.split("=", 1) for kv in record.split()[1:])
            assert (fields["run"], fields["mode"], fields["frames"]) == (run.name, run.name, "4")
            totals = (run / "work.txt").read_text().splitlines()[-1].split()
            assert totals[0] == "total"
            assert fields["proposal_ops"] == totals[1]
            assert fields["refine_ops"] == totals[2]
            assert fields["total_ops"] == totals[3]
            # "/" marks a source the mode does not have
            assert fields["from_tracker_ops"] == (totals[4] if run.name == "catdet" else "/")
            assert fields["from_proposal_ops"] == (totals[5] if run.name != "single" else "/")

    @pytest.mark.parametrize("damage", ["missing", "malformed"])
    def test_bad_work_file_is_data_error(self, seq_dir, tmp_path, capsys, damage):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        work = out / "work.txt"
        if damage == "missing":
            work.unlink()
        else:
            work.write_text("total 1.0 2.0\n")
        capsys.readouterr()
        assert run_cli("cost-report", str(out)) == 2
        assert str(work) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, line, message",
        [
            ("append", 7, "second totals row"),
            ("repeat_frame_after_total", 7, "frame row after the totals row"),
            ("skip_frame", 3, "frame 2 out of order: expected frame 1"),
            ("repeat_frame", 3, "frame 0 out of order: expected frame 1"),
            ("from_one", 2, "frame 1 out of order: expected frame 0"),
        ],
    )
    def test_misplaced_work_rows_are_data_errors(self, seq_dir, tmp_path, capsys, edit, line,
                                                 message):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        work = out / "work.txt"
        lines = work.read_text().splitlines()  # a header, frames 0-3, then the totals
        assert len(lines) == 6 and lines[-1].startswith("total ")
        if edit == "append":
            lines.append("total 1.0 2.0 3.0 / / / / / / 0 /")
        elif edit == "repeat_frame_after_total":
            lines.append(lines[4])
        elif edit == "skip_frame":
            del lines[2]
        elif edit == "repeat_frame":
            lines[2] = lines[1]
        else:
            lines[1:5] = [f"{i + 1} {l.split(maxsplit=1)[1]}" for i, l in enumerate(lines[1:5])]
        work.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("cost-report", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {work}:{line}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("sequence", ["seq_dir", "benchmark_scenario"])
    def test_run_outputs_take_the_column_path(self, seq_dir, tmp_path, capsys, monkeypatch,
                                              scenario_runs, sequence):
        if sequence == "benchmark_scenario":
            runs = list(scenario_runs.values())
        else:
            runs = [tmp_path / mode for mode in WORK_MODES]
            for run, args in zip(runs, WORK_MODES.values()):
                assert run_cli("run", "--sequence", str(seq_dir), *args, "--out", str(run)) == 0
        check_work_rows = runio._check_work_rows
        calls = spy_on_row_reader(monkeypatch)
        capsys.readouterr()
        assert run_cli("cost-report", *map(str, runs)) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * len(runs)
        for run in runs:
            work = run / "work.txt"
            assert repr(parse_work_total(work)) == repr(check_work_rows(work))
        assert calls == []

    # Edits of the benchmark scenario's catdet work.txt: {frame: {column: token}} or a
    # named edit; the "line: message" of the error, or None for a valid file; and whether
    # the column pass refuses the file, leaving it to the row-by-row reader.
    @pytest.mark.parametrize("case, edit, error, refused", [
        ("inf_total_beside_overflow", {3: {1: "1e308", 2: "1e308", 3: "inf"}},
         "5: non-finite ops 'inf'", True),
        ("nan_from_proposal", {3: {5: "nan"}}, "5: non-finite ops 'nan'", True),
        ("overflowing_refine", {3: {2: "1e309"}}, "5: non-finite ops '1e309'", True),
        ("eleven_then_thirteen_fields", "ragged", "5: expected 12 fields, got 11", True),
        ("slash_in_one_from_tracker", {3: {4: "/"}}, None, True),
        ("frame_written_007", {7: {0: "007"}}, None, True),
        ("comment_after_the_last_row", "comment", None, True),
        ("crlf_and_a_blank_line", "crlf", None, False),
    ])
    def test_edited_work_gives_the_row_readers_outcome(self, scenario_runs, tmp_path, capsys,
                                                       monkeypatch, case, edit, error, refused):
        run = tmp_path / "catdet"
        shutil.copytree(scenario_runs["catdet"], run)
        work = run / "work.txt"
        rows = [line.split(" ") for line in work.read_text().splitlines()]
        assert len(rows) == 52 and rows[51][0] == "total"
        if isinstance(edit, dict):
            for frame, fields in edit.items():
                for column, token in fields.items():
                    rows[frame + 1][column] = token
        elif edit == "ragged":  # frame 3 gives frame 4 its last field: 11 then 13 fields
            rows[5].insert(0, rows[4].pop())
        lines, newline = [" ".join(row) for row in rows], "\n"
        if edit == "comment":
            lines.append("# the run ends here")
        elif edit == "crlf":
            lines.insert(20, "")
            newline = "\r\n"
        work.write_bytes("".join(line + newline for line in lines).encode())

        def cost_report():
            capsys.readouterr()
            code = run_cli("cost-report", str(run))
            return code, *capsys.readouterr()

        calls = spy_on_row_reader(monkeypatch)
        got = cost_report()
        assert calls == ([work] if refused else [])
        with monkeypatch.context() as m:  # the row-by-row reader alone, as before the fast path
            m.setattr(cli, "parse_work_total", runio._check_work_rows)
            assert got == cost_report()
        if error is None:
            shutil.copy(scenario_runs["catdet"] / "work.txt", work)
            assert got == cost_report()  # the totals are the unedited file's
        else:
            assert got == (2, "", f"error: {work}:{error}\n")

    def test_rejects_config_options(self, seq_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        with pytest.raises(SystemExit) as err:
            run_cli("cost-report", "--set", "cost.b=1", str(out))
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: [1, 2],
            lambda m: {**m, "config": "x"},
            lambda m: {**m, "config": {**m["config"], "pipeline": 3}},
            lambda m: {**m, "sequence": [4]},
            lambda m: {**m, "config": {**m["config"], "pipeline": {"mode": ["catdet"]}}},
            lambda m: {**m, "config": {**m["config"], "pipeline": {"mode": "turbo"}}},
            lambda m: {**m, "sequence": {**m["sequence"], "frame_count": "4"}},
            lambda m: {**m, "sequence": {**m["sequence"], "frame_count": 4.0}},
            lambda m: {**m, "sequence": {**m["sequence"], "frame_count": 0}},
            lambda m: {**m, "sequence": {**m["sequence"], "frame_count": True}},
            lambda m: {**m, "sequence": {**m["sequence"], "frame_count": 7}},
            # A str is the manifest's raw text: neither shape survives json.dumps.
            lambda m: "[" * 100_000,
            lambda m: json.dumps(m).replace(
                f'"frame_count": {m["sequence"]["frame_count"]}', '"frame_count": ' + "9" * 5000
            ),
        ],
        ids=["top_level", "config", "pipeline", "sequence", "mode_list", "mode_unknown",
             "frames_text", "frames_float", "frames_zero", "frames_bool", "frames_not_work_rows",
             "deep_nesting", "frames_5000_digits"],
    )
    def test_bad_manifest_is_data_error(self, seq_dir, tmp_path, capsys, edit):
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out)) == 0
        manifest = out / "manifest.json"
        spoiled = edit(json.loads(manifest.read_text()))
        if not isinstance(spoiled, str):
            spoiled = json.dumps(spoiled)
        manifest.unlink()
        manifest.write_text(spoiled)
        capsys.readouterr()
        assert run_cli("cost-report", str(out)) == 2
        captured = capsys.readouterr()
        assert f"error: {manifest}: " in captured.err
        assert captured.out == ""

    def test_single_mode_report(self, seq_dir, tmp_path, capsys):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "single",
                "--out", str(out), "--dump-masks")
        assert run_cli("cost-report", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        record = next(l for l in lines if l.startswith("record "))
        fields = dict(kv.split("=", 1) for kv in record.split()[1:])
        # 4 frames at the stock full-frame cost, no attribution columns
        assert float(fields["total_ops"]) == pytest.approx(4 * 254.3, abs=0.2)
        assert fields["from_tracker_ops"] == "/" and fields["from_proposal_ops"] == "/"
        table = next(l for l in lines if l.startswith("out") and " single " in l)
        assert " / " in table


def _command_argv(command: str, seq_dir: Path, out: Path) -> list[str]:
    """A valid call of `command` that writes into `out`."""
    if command == "run":
        return ["run", "--sequence", str(seq_dir), "--mode", "single", "--out", str(out)]
    if command == "eval":
        return ["eval", "--gt", str(DATA / "fig4_labels.txt"),
                "--det", str(DATA / "fig4_detections.txt"), "--out", str(out)]
    return ["gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg"), "--out", str(out)]


class TestBadOut:
    """An --out that is a file, or lies under one, is a data error; nothing is written."""

    @pytest.mark.parametrize("command", ["run", "eval", "gen-synthetic"])
    @pytest.mark.parametrize(
        "where, force",
        [("afile", True), ("afile/sub", False), ("afile/sub", True), ("afile/x/sub", True)],
    )
    def test_file_in_out_path(self, seq_dir, tmp_path, capsys, command, where, force):
        root = tmp_path / "outs"
        root.mkdir()
        (root / "afile").write_text("keep")
        out = root / where
        argv = _command_argv(command, seq_dir, out) + (["--force"] if force else [])
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert "--out" in err and str(out) in err
        assert [p.name for p in root.iterdir()] == ["afile"]
        assert (root / "afile").read_text() == "keep"


    @pytest.mark.parametrize("command", ["run", "eval", "gen-synthetic"])
    def test_existing_out_is_refused_before_inputs_are_read(self, seq_dir, tmp_path, capsys,
                                                            command):
        # Every input of the command is broken; the existing --out is named first.
        (seq_dir / "refine.txt").write_text("0 car 0.9 1 2\n")
        missing = str(tmp_path / "missing.txt")
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("keep")
        argv = {
            "run": ["run", "--sequence", str(seq_dir), "--mode", "single", "--out", str(out)],
            "eval": ["eval", "--gt", missing, "--det", missing, "--out", str(out)],
            "gen-synthetic": ["gen-synthetic", "--scenario", missing, "--out", str(out)],
        }[command]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: --out exists: {out} (use --force)\n"
        assert [p.name for p in out.iterdir()] == ["keep.txt"]


class TestSourceDateEpoch:
    """A SOURCE_DATE_EPOCH the manifest timestamp cannot use is refused before any work."""

    # int() reads the last three, but they are not the ASCII form `date +%s` prints.
    @pytest.mark.parametrize(
        "value",
        ["abc", "1e9", "99999999999999999", "", "1_700_000_000", " +1700000000 ",
         "\u0661\u0667\u0660\u0660\u0660\u0660\u0660\u0660\u0660\u0660"],
    )
    @pytest.mark.parametrize("command", ["run", "eval", "gen-synthetic"])
    def test_malformed_value_is_refused_first(self, seq_dir, tmp_path, capsys, monkeypatch,
                                              command, value):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", value)
        out = tmp_path / "out"
        assert run_cli(*_command_argv(command, seq_dir, out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no note, no report: nothing was read
        assert captured.err == (
            f"error: SOURCE_DATE_EPOCH={value!r} is not a whole number of seconds "
            "that a date can hold\n"
        )
        assert not out.exists()

    def test_commands_without_a_manifest_ignore_it(self, seq_dir, tmp_path, monkeypatch):
        run = tmp_path / "run"
        assert run_cli(*_command_argv("run", seq_dir, run)) == 0
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("cost-report", str(run)) == 0
            assert run_cli(*_command_argv("eval", seq_dir, run)[:-2]) == 0  # no --out


class TestOutKeepsInputs:
    """--out may not be, or hold, the working directory or an input; --force or not.

    Publishing with --force deletes --out first, so each case would lose
    data.  The working directory is `tree/work`; the inputs are `work/seq`,
    `tree/cfg/c.cfg` and `tree/scen/s.cfg`.
    """

    COMMANDS = {
        "run": ["run", "--sequence", "seq", "--config", "../cfg/c.cfg", "--mode", "single"],
        "eval": ["eval", "--gt", "seq/labels.txt", "--det", "seq/refine.txt",
                 "--config", "../cfg/c.cfg"],
        "gen-synthetic": ["gen-synthetic", "--scenario", "../scen/s.cfg"],
    }
    CWD = "the working directory"

    @pytest.fixture
    def tree(self, tmp_path, monkeypatch) -> Path:
        root = tmp_path / "tree"
        work = root / "work"
        for part in ("cfg", "scen", "work"):
            (root / part).mkdir(parents=True)
        (root / "cfg" / "c.cfg").write_text("[pipeline]\nmode = single\n")
        shutil.copy(DATA / "benchmark_scenario.cfg", root / "scen" / "s.cfg")
        (work / "other.txt").write_text("keep")
        (work / "seq-link").symlink_to("seq", target_is_directory=True)
        monkeypatch.chdir(work)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("gen-synthetic", "--scenario", "../scen/s.cfg", "--out", "seq") == 0
        return root

    def check_refused(self, tree, capsys, command, out, force, what):
        before = all_files(tree)
        argv = self.COMMANDS[command] + ["--out", out] + (["--force"] if force else [])
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: --out {Path(out)} is or holds {what}\n"
        assert all_files(tree) == before

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize("command", ["run", "eval", "gen-synthetic"])
    @pytest.mark.parametrize("out", ["", ".", "..", "../..", "ABS_CWD"])
    def test_working_directory_and_its_parents(self, tree, capsys, command, out, force):
        out = str(tree / "work") if out == "ABS_CWD" else out
        self.check_refused(tree, capsys, command, out, force, self.CWD)

    @pytest.mark.parametrize("force", [False, True])
    @pytest.mark.parametrize(
        "command, out, what",
        [
            ("run", "seq", "input seq"),
            ("run", "seq-link", "input seq"),
            ("run", "../cfg", "input ../cfg/c.cfg"),
            ("run", "../cfg/c.cfg", "input ../cfg/c.cfg"),
            ("eval", "seq", "input seq/labels.txt"),
            ("eval", "../cfg", "input ../cfg/c.cfg"),
            ("gen-synthetic", "../scen", "input ../scen/s.cfg"),
        ],
    )
    def test_inputs_and_their_parents(self, tree, capsys, command, out, what, force):
        self.check_refused(tree, capsys, command, out, force, what)

    @pytest.mark.parametrize("force", [False, True])
    def test_filesystem_root(self, force):
        with pytest.raises(DataError, match="^--out / is or holds the working directory$"):
            _check_out(Path("/"), force)

    def test_gen_synthetic_may_replace_a_sequence(self, tree, capsys):
        scenario = tree / "scen" / "s.cfg"
        scenario.write_text(scenario.read_text().replace("seed = 11\n", "seed = 5\n"))
        argv = self.COMMANDS["gen-synthetic"] + ["--out", "seq", "--force"]
        assert run_cli(*argv) == 0
        manifest = json.loads((tree / "work" / "seq" / "manifest.json").read_text())
        assert manifest["config"]["scenario"]["seed"] == 5
        assert (tree / "work" / "other.txt").read_text() == "keep"


TINY_SCENARIO = (
    "[scenario]\nname = tiny\nframes = 4\nframe_w = 200\nframe_h = 100\nseed = 2\n\n"
    "[object.a]\nclass = car\nentry = 0\nexit = 3\nbox = 20 20 60 60\nvelocity = 5 0\n\n"
    "[source.proposal]\nfp_per_frame = 1\njitter = 2\n\n[source.refine]\njitter = 1\n"
)


@pytest.fixture(scope="module")
def out_tree_template(tmp_path_factory) -> Path:
    """tree/{cfg/c.cfg, scen/s.cfg, work/{seq/, notes.txt, deep/}}."""
    tree = tmp_path_factory.mktemp("template") / "tree"
    for part in ("cfg", "scen", "work/deep"):
        (tree / part).mkdir(parents=True)
    (tree / "cfg" / "c.cfg").write_text("[pipeline]\nmode = single\n")
    (tree / "scen" / "s.cfg").write_text(TINY_SCENARIO)
    (tree / "work" / "notes.txt").write_text("keep")
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["gen-synthetic", "--scenario", str(tree / "scen" / "s.cfg")]
        assert run_cli(*argv, "--out", str(tree / "work" / "seq")) == 0
    return tree


class TestOutPathProperty:
    """Over drawn working directories, commands and --out paths, with and
    without --force: files outside --out and the inputs keep their bytes,
    the exit is 0 or 2, and a refused --out is left exactly as it was.

    Every tree is a fresh copy under tmp_path, so a broken rule could only
    delete inside it; "/" is never drawn (see TestOutKeepsInputs).
    """

    INPUTS = {  # command -> (flag, path under tree) of each input
        "run": [("--sequence", "work/seq"), ("--config", "cfg/c.cfg")],
        "eval": [("--gt", "work/seq/labels.txt"), ("--det", "work/seq/refine.txt"),
                 ("--config", "cfg/c.cfg")],
        "gen-synthetic": [("--scenario", "scen/s.cfg")],
    }
    CWDS = ["", "work", "work/deep"]
    # "", "." and ".." as given; CWD as the absolute working directory; the
    # rest under tree: every input and its parent, a file, the tree itself
    # and fresh siblings.
    OUTS = ["", ".", "..", "CWD", "work/seq", "work/seq/labels.txt", "work/seq/refine.txt",
            "cfg/c.cfg", "cfg", "scen/s.cfg", "scen", "work", "work/notes.txt", "tree",
            "fresh", "work/fresh"]

    @staticmethod
    def snapshot(root: Path, within: Path, inside: bool) -> dict[str, bytes | None]:
        """all_files(root), keeping only the paths that are (or are not) `within`."""
        return {name: data for name, data in all_files(root).items()
                if ((root / name) == within or within in (root / name).parents) == inside}

    @settings(derandomize=True, max_examples=100, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(sorted(INPUTS)),
        cwd=st.sampled_from(CWDS),
        out=st.sampled_from(OUTS),
        absolute=st.booleans(),
        force=st.booleans(),
    )
    def test_out_keeps_what_lies_outside_it(
        self, tmp_path, out_tree_template, command, cwd, out, absolute, force
    ):
        root = Path(tempfile.mkdtemp(dir=tmp_path)).resolve()
        tree = root / "tree"
        shutil.copytree(out_tree_template, tree, symlinks=True)
        work_dir = tree / cwd

        def arg(path: Path) -> str:
            return str(path) if absolute else os.path.relpath(path, work_dir)

        if out == "CWD":
            out = str(work_dir)
        elif out not in ("", ".", ".."):
            out = arg(tree / out.removeprefix("tree"))
        argv = [command, "--out", out] + ["--force"] * force
        for flag, path in self.INPUTS[command]:
            argv += [flag, arg(tree / path)]
        if command == "run":
            argv += ["--mode", "single"]

        where = Path(os.path.realpath(work_dir / out))
        outside = self.snapshot(root, where, inside=False)
        at_out = self.snapshot(root, where, inside=True)
        inputs = {path: self.snapshot(root, tree / path, inside=True)
                  for _, path in self.INPUTS[command]}
        home = os.getcwd()
        os.chdir(work_dir)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run_cli(*argv)
        finally:
            os.chdir(home)
        assert code in (0, 2), argv
        assert self.snapshot(root, where, inside=False) == outside, argv
        for path, files in inputs.items():
            assert self.snapshot(root, tree / path, inside=True) == files, argv
        if code == 0:
            assert (where / "manifest.json").is_file(), argv
        else:
            assert self.snapshot(root, where, inside=True) == at_out, argv
        shutil.rmtree(root)


class TestReadme:
    def test_library_block_matches_catdet_run(self, tmp_path, monkeypatch, capsys):
        text = README.read_text(encoding="utf-8")
        block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        scenario = DATA / "benchmark_scenario.cfg"
        assert run_cli("gen-synthetic", "--scenario", str(scenario), "--out", "seq") == 0
        assert run_cli("run", "--sequence", "seq", "--mode", "catdet", "--out", "run") == 0
        namespace = {}
        exec(block, namespace)
        final = [d for r in namespace["result"].frames for d in r.final_detections]
        write_detections(final, namespace["class_map"], tmp_path / "library.txt")
        want = (tmp_path / "run" / "detections.txt").read_bytes()
        assert (tmp_path / "library.txt").read_bytes() == want


class TestGenSynthetic:
    def test_deterministic_and_runnable(self, tmp_path, cmap):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = gen\nframes = 6\nframe_w = 1000\nframe_h = 400\nseed = 3\n\n"
            "[object.a]\nclass = car\nentry = 0\nexit = 5\nbox = 100 100 220 180\n"
            "velocity = 10 0\n\n"
            "[source.proposal]\nmiss_prob = 0.2\nfp_per_frame = 0.5\njitter = 2\n"
            "score_mean = 0.6\nscore_sigma = 0.1\n\n"
            "[source.refine]\nscore_mean = 0.9\n"
        )
        trees = []
        for name in ("g1", "g2"):
            out = tmp_path / name
            assert run_cli("gen-synthetic", "--scenario", str(scenario), "--out", str(out)) == 0
            tree = read_tree(out)
            tree.pop("manifest.json")  # input path differs only via --out? keep strict below
            trees.append(tree)
        assert trees[0] == trees[1]

        run_out = tmp_path / "run_out"
        assert run_cli("run", "--sequence", str(tmp_path / "g1"), "--mode", "catdet",
                       "--out", str(run_out)) == 0
        assert (run_out / "detections.txt").exists()

    def test_scenario_seed_changes_output(self, tmp_path):
        outs = []
        for seed in (1, 2):
            scenario = tmp_path / f"s{seed}.cfg"
            scenario.write_text(
                "[scenario]\nname = gen\nframes = 4\nframe_w = 500\nframe_h = 300\n"
                f"seed = {seed}\n\n"
                "[object.a]\nclass = car\nentry = 0\nexit = 3\nbox = 50 50 150 120\n\n"
                "[source.proposal]\njitter = 3\nscore_sigma = 0.2\n\n[source.refine]\njitter = 1\n"
            )
            out = tmp_path / f"g{seed}"
            assert run_cli("gen-synthetic", "--scenario", str(scenario), "--out", str(out)) == 0
            outs.append((out / "proposal.txt").read_bytes())
        assert outs[0] != outs[1]

    def test_percent_in_name_round_trips(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = run 50%\nframes = 3\nframe_w = 500\nframe_h = 300\n\n"
            "[object.a]\nclass = car\nentry = 0\nexit = 2\nbox = 50 50 150 120\n\n"
            "[source.proposal]\n\n[source.refine]\n"
        )
        seq = tmp_path / "g"
        assert run_cli("gen-synthetic", "--scenario", str(scenario), "--out", str(seq)) == 0
        assert "sequence_id = run 50%\n" in (seq / "meta.cfg").read_text()
        assert run_cli("run", "--sequence", str(seq), "--mode", "catdet",
                       "--out", str(tmp_path / "r")) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("run 50%: 3 frames")

    def test_seed_option_is_usage_error(self, tmp_path, capsys):
        # The scenario's seed key is the only seed.
        with pytest.raises(SystemExit) as err:
            run_cli("gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg"),
                    "--seed", "5", "--out", str(tmp_path / "g"))
        assert err.value.code == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()


    def test_rejects_config_options(self, tmp_path):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = gen\nframes = 2\nframe_w = 500\nframe_h = 300\n\n"
            "[object.a]\nclass = car\nentry = 0\nexit = 1\nbox = 50 50 150 120\n"
        )
        with pytest.raises(SystemExit) as err:
            run_cli("gen-synthetic", "--scenario", str(scenario), "--out", str(tmp_path / "g"),
                    "--set", "x.y=1")
        assert err.value.code == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ("score_meen = 0.5", "unknown key 'score_meen'"),
            ("miss_prob = 1.5", "miss_prob must be in [0, 1]"),
            ("miss_prob = -0.1", "miss_prob must be in [0, 1]"),
            ("fp_per_frame = -1", "fp_per_frame must be >= 0"),
            ("jitter = -2", "jitter must be >= 0"),
            ("score_sigma = -0.1", "score_sigma must be >= 0"),
            ("fp_score_sigma = -0.1", "fp_score_sigma must be >= 0"),
            ("fp_per_frame = inf", "fp_per_frame must be finite"),
            ("score_mean = nan", "score_mean must be finite"),
            ("fp_per_frame = 1e308", "fp_per_frame must be <= 1000.0"),
        ],
    )
    def test_bad_noise_value_is_data_error(self, tmp_path, capsys, line, message):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = gen\nframes = 2\nframe_w = 500\nframe_h = 300\n\n"
            "[object.a]\nclass = car\nentry = 0\nexit = 1\nbox = 50 50 150 120\n\n"
            f"[source.proposal]\n{line}\n"
        )
        assert run_cli("gen-synthetic", "--scenario", str(scenario),
                       "--out", str(tmp_path / "g")) == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and f"[source.proposal] {message}" in err
        assert not (tmp_path / "g").exists()

    def test_false_positives_without_objects_are_data_error(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = gen\nframes = 2\nframe_w = 500\nframe_h = 300\n\n"
            "[source.refine]\n\n[source.proposal]\nfp_per_frame = 2\n"
        )
        assert run_cli("gen-synthetic", "--scenario", str(scenario),
                       "--out", str(tmp_path / "g")) == 2
        err = capsys.readouterr().err  # no class to draw a false positive's from
        assert f"{scenario}: bad scenario: [source.proposal] fp_per_frame > 0 needs" in err
        assert not (tmp_path / "g").exists()

    def test_zero_width_object_is_data_error(self, tmp_path, capsys):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = gen\nframes = 2\nframe_w = 500\nframe_h = 300\n\n"
            "[object.thin]\nclass = car\nentry = 0\nexit = 1\nbox = 50 50 50 120\n"
        )
        assert run_cli("gen-synthetic", "--scenario", str(scenario),
                       "--out", str(tmp_path / "g")) == 2
        err = capsys.readouterr().err  # exit 2 means no exception escaped main
        assert str(scenario) in err and "[object.thin]" in err
        assert not (tmp_path / "g").exists()

    def test_zero_height_object_is_data_error(self, tmp_path, capsys):
        # A width overflowing to inf once made the height inf * 0 = nan: a traceback.
        scenario = tmp_path / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = gen\nframes = 3\nframe_w = 500\nframe_h = 300\n\n"
            "[object.flat]\nclass = car\nentry = 0\nexit = 2\nbox = 10 10 20 10\n"
            "velocity = 0 0 1e308\n"
        )
        assert run_cli("gen-synthetic", "--scenario", str(scenario),
                       "--out", str(tmp_path / "g")) == 2
        err = capsys.readouterr().err
        assert f"{scenario}: bad scenario: [object.flat] box corners must be finite, with width > 0" \
            " and height > 0" in err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "scenario_line, object_line, message",
        [
            ("sede = 3", "", "[scenario] unknown key 'sede'"),
            ("frame_rat = 3", "", "[scenario] unknown key 'frame_rat'"),
            ("", "velocty = 5 0", "[object.a] unknown key 'velocty'"),
            ("frame_w = nan", "", "[scenario] frame dimensions must be finite and positive"),
            ("frame_h = inf", "", "[scenario] frame dimensions must be finite and positive"),
            ("frame_w = 1e308", "", "[scenario] frame area frame_w * frame_h must be finite"),
            ("frame_rate = nan", "", "[scenario] frame_rate must be finite and > 0"),
            ("frame_rate = 0", "", "[scenario] frame_rate must be finite and > 0"),
            ("frame_rate = -10", "", "[scenario] frame_rate must be finite and > 0"),
            ("seed = -1", "", "[scenario] seed must be >= 0"),
            ("seed = x", "", "[scenario] invalid literal for int() with base 10: 'x'"),
            # Keys are case-sensitive: this line replaces frames
            ("Frames = 2", "", "[scenario] unknown key 'Frames'"),
            ("", "class =", "[object.a] class must be one word without '#'"),
            ("", "class = big car", "[object.a] class must be one word without '#'"),
            ("", "class = DontCare", "[object.a] class 'DontCare' names KITTI's DontCare regions"),
            ("", "class = dontcare", "[object.a] class 'dontcare' names KITTI's DontCare regions"),
            ("", "box = 60 120 inf 220", "[object.a] box corners must be finite, with width > 0"),
            ("", "velocity = nan 0", "[object.a] velocity must be 2 or 3 finite numbers"),
            ("", "velocity = 1 2 3 4", "[object.a] velocity must be 2 or 3 finite numbers"),
            ("", "velocity = 1", "[object.a] velocity must be 2 or 3 finite numbers"),
            ("", "entry = 30", "[object.a] need 0 <= entry <= exit"),
            ("", "entry = -3", "[object.a] need 0 <= entry <= exit"),
            ("frames", "", "[scenario] missing key 'frames'"),
            ("frame_w", "", "[scenario] missing key 'frame_w'"),
            ("frame_h", "", "[scenario] missing key 'frame_h'"),
            ("", "class", "[object.a] missing key 'class'"),
            ("", "entry", "[object.a] missing key 'entry'"),
            ("", "exit", "[object.a] missing key 'exit'"),
            ("", "box", "[object.a] missing key 'box'"),
        ],
    )
    def test_bad_scenario_is_data_error(
        self, tmp_path, capsys, scenario_line, object_line, message
    ):
        # A line is set in place of its key's line, in any case; a bare key is left out.
        scenario = tmp_path / "s.cfg"
        scenario_lines = ["name = gen", "frames = 2", "frame_w = 500", "frame_h = 300"]
        key = scenario_line.split(" = ")[0].lower()
        scenario_lines = [l for l in scenario_lines if not l.startswith(f"{key} =")]
        object_lines = ["class = car", "entry = 0", "exit = 1", "box = 50 50 150 120"]
        key = object_line.split("=")[0].strip()
        object_lines = [l for l in object_lines if not l.startswith(f"{key} =")]
        scenario_lines += [scenario_line] * ("=" in scenario_line)
        object_lines += [object_line] * ("=" in object_line)
        scenario.write_text(
            "[scenario]\n" + "\n".join(scenario_lines) + "\n\n"
            "[object.a]\n" + "\n".join(object_lines) + "\n"
        )
        out = tmp_path / "g"
        assert run_cli("gen-synthetic", "--scenario", str(scenario), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name, message",
        [
            ("../escape", "bad name '../escape' in [source.../escape]: empty, or holds"),
            ("a/b", "bad name 'a/b' in [source.a/b]: empty, or holds"),
            ("a\\b", "bad name 'a\\\\b' in [source.a\\b]: empty, or holds"),
            ("a b", "bad name 'a b' in [source.a b]: empty, or holds"),
            ("a\tb", "bad name 'a\\tb' in [source.a\tb]: empty, or holds"),
            ("", "bad name '' in [source.]: empty, or holds"),
            ("labels", "bad name 'labels' in [source.labels]: labels.txt holds the ground truth"),
        ],
    )
    def test_source_name_that_is_no_file_name_is_data_error(self, tmp_path, capsys, name, message):
        # Each source is written to <name>.txt in --out; these would land
        # outside it, overwrite the ground truth or hold a space.
        (tmp_path / "work").mkdir()
        scenario = tmp_path / "work" / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = gen\nframes = 2\nframe_w = 500\nframe_h = 300\n\n"
            "[object.a]\nclass = car\nentry = 0\nexit = 1\nbox = 50 50 150 120\n\n"
            f"[source.{name}]\njitter = 1\n"
        )
        before = all_files(tmp_path)
        out = tmp_path / "work" / "seq" / "x"
        assert run_cli("gen-synthetic", "--scenario", str(scenario), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {scenario}: bad scenario: [source.{name}] {message}")
        assert all_files(tmp_path) == before

    @pytest.mark.parametrize(
        "old, new",
        [
            ("[object.c]", "[objet.c]"),
            ("[source.refine]", "[sources.refine]"),
            ("[source.refine]", "[extra]\nkey = 1\n\n[source.refine]"),
        ],
    )
    def test_unknown_section_is_data_error(self, tmp_path, capsys, old, new):
        scenario = tmp_path / "s.cfg"
        text = (DATA / "benchmark_scenario.cfg").read_text()
        scenario.write_text(text.replace(old, new))
        out = tmp_path / "g"
        assert run_cli("gen-synthetic", "--scenario", str(scenario), "--out", str(out)) == 2
        err = capsys.readouterr().err
        section = new.split("]")[0] + "]"
        assert str(scenario) in err and f"unknown section {section}" in err
        assert not out.exists()


ORDER_SCENARIO = """\
[scenario]
name = order
frames = 30
frame_w = 800
frame_h = 300
seed = 3

[object.a]
class = car
entry = 0
exit = 29
box = 40 100 160 180
velocity = 14 1

[object.b]
class = car
entry = 3
exit = 25
box = 600 90 720 170
velocity = -12 0

[object.c]
class = car
entry = 8
exit = 29
box = 300 150 400 220
velocity = 4 -1 1

[object.d]
class = pedestrian
entry = 0
exit = 20
box = 200 60 230 130
velocity = 3 0

[object.e]
class = pedestrian
entry = 10
exit = 29
box = 500 80 530 150
velocity = -3 1

[source.proposal]
miss_prob = 0.25
fp_per_frame = 3
jitter = 3
score_mean = 0.55
score_sigma = 0.18
fp_score_mean = 0.45
fp_score_sigma = 0.15

[source.refine]
miss_prob = 0.05
fp_per_frame = 1
jitter = 1
score_mean = 0.88
score_sigma = 0.05
fp_score_mean = 0.3
fp_score_sigma = 0.1
"""

ORDER_RUNS = {  # name -> run arguments
    "single": ["--mode", "single"],
    "cascaded": ["--mode", "cascaded"],
    "catdet": ["--mode", "catdet"],
    "timed": ["--mode", "catdet", "--set", "cost.alpha=0.001", "--set", "cost.b=0.005"],
}


def run_outputs(seq: Path, out: Path, argv: list[str]) -> dict[str, bytes]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("run", "--sequence", str(seq), "--out", str(out), "--dump-masks", *argv) == 0
    return {name: (out / name).read_bytes() for name in ("detections.txt", "work.txt", "masks.txt")}


def eval_outputs(labels: Path, detections: Path, out: Path) -> tuple[str, dict[str, bytes]]:
    """eval's stdout and its curve files."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert run_cli("eval", "--gt", str(labels), "--det", str(detections), "--out", str(out)) == 0
    curves = {p.name: p.read_bytes() for p in sorted(out.glob("curve_*.txt"))}
    assert curves
    return stdout.getvalue(), curves


def shuffle_file(path: Path, rng, keep_order_of=None) -> None:
    """Shuffle the data lines of `path` across and within frames, comments first.

    With `keep_order_of`, the lines of equal `keep_order_of(line)` keep their
    order: each group's lines go back, in file order, into the places the
    shuffle gave the group.
    """
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    shuffled = data[:]
    rng.shuffle(shuffled)
    if keep_order_of is not None:
        groups: dict[str, list[str]] = {}
        for line in data:
            groups.setdefault(keep_order_of(line), []).append(line)
        queues = {key: iter(group) for key, group in groups.items()}
        shuffled = [next(queues[keep_order_of(line)]) for line in shuffled]
    assert sorted(shuffled) == sorted(data)
    path.write_text("".join(line + "\n" for line in comments + shuffled))


@pytest.fixture(scope="module")
def order_baseline(tmp_path_factory) -> tuple[Path, dict, tuple]:
    """A generated two-class sequence, each run's outputs and the catdet run's eval."""
    root = tmp_path_factory.mktemp("order")
    (root / "s.cfg").write_text(ORDER_SCENARIO)
    seq = root / "seq"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("gen-synthetic", "--scenario", str(root / "s.cfg"), "--out", str(seq)) == 0
    runs = {name: run_outputs(seq, root / name, argv) for name, argv in ORDER_RUNS.items()}
    evaluated = eval_outputs(seq / "labels.txt", root / "catdet" / "detections.txt", root / "eval")
    return seq, runs, evaluated


@st.composite
def tied_pairs(draw):
    """Two boxes a x b and b x a at one corner, with b in (2a/3, a): IoU b / (2a - b) > 0.5."""
    x1, y1 = draw(st.integers(0, 900)), draw(st.integers(0, 300))
    a = draw(st.integers(10, 90))
    b = draw(st.integers(2 * a // 3 + 1, a - 1))
    return (x1, y1, x1 + a, y1 + b), (x1, y1, x1 + b, y1 + a)


class TestRecordOrder:
    """Outputs do not depend on the order of the input records (a metamorphic test):
    shuffled detection files give byte-identical run outputs in every mode, and a
    shuffled labels.txt whose tracks keep their rows in frame order gives the
    same eval output."""

    @settings(derandomize=True, max_examples=10, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32))
    def test_run_outputs_ignore_detection_order(self, tmp_path, order_baseline, seed):
        seq, runs, _ = order_baseline
        rng = random.Random(seed)
        shuffled = Path(tempfile.mkdtemp(dir=tmp_path)) / "seq"
        shutil.copytree(seq, shuffled)
        for name in ("proposal.txt", "refine.txt"):
            shuffle_file(shuffled / name, rng)
        assert (shuffled / "refine.txt").read_bytes() != (seq / "refine.txt").read_bytes()
        for name, argv in ORDER_RUNS.items():
            assert run_outputs(shuffled, shuffled.parent / name, argv) == runs[name], name

    @settings(derandomize=True, max_examples=10, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=tied_pairs())
    def test_run_outputs_ignore_the_order_of_tied_boxes(self, tmp_path, cmap, pair):
        # Both orders of two boxes that tie on everything but x2 and y2, and
        # overlap enough for NMS to keep one: a one-frame sequence for each.
        outputs = []
        for order in (pair, pair[::-1]):
            root = Path(tempfile.mkdtemp(dir=tmp_path))
            empty = DetectionStore()
            seq = write_sequence(root, SequenceMeta("tie", 1, 1000.0, 400.0), empty, empty, cmap)
            lines = "".join(f"0 car 0.9 {x1} {y1} {x2} {y2}\n" for x1, y1, x2, y2 in order)
            for name in ("proposal.txt", "refine.txt"):
                (seq / name).write_text(lines)
            outputs.append(
                {name: run_outputs(seq, root / name, argv) for name, argv in ORDER_RUNS.items()}
            )
        assert outputs[0] == outputs[1]

    @settings(derandomize=True, max_examples=20, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32), detections_too=st.booleans())
    def test_eval_output_ignores_label_order(self, tmp_path, order_baseline, seed, detections_too):
        seq, _, evaluated = order_baseline
        rng = random.Random(seed)
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        labels, detections = work / "labels.txt", work / "detections.txt"
        shutil.copy(seq / "labels.txt", labels)
        shutil.copy(seq.parent / "catdet" / "detections.txt", detections)
        shuffle_file(labels, rng, keep_order_of=lambda line: line.split()[1])  # the track id
        if detections_too:
            shuffle_file(detections, rng)
        assert eval_outputs(labels, detections, work / "eval") == evaluated
