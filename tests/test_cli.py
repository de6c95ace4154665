import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from trackcascade import (
    ClassMap,
    CostModelConfig,
    DataError,
    FileBackedSource,
    Pipeline,
    PipelineConfig,
    SequenceMeta,
    geometry,
    nms,
    parse_detections,
    parse_meta,
)
from trackcascade.cli import main
from trackcascade.runio import (
    MASK_KINDS,
    parse_mask_dump,
    parse_work_total,
    write_work_records,
)

from conftest import DATA, make_store, write_sequence

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


def two_sequences(tmp_path, cmap) -> list[Path]:
    """Sequences seq0 and seq1 whose refinement detections differ."""
    seqs = []
    for i in range(2):
        meta = SequenceMeta(f"seq{i}", 3, 1000.0, 400.0)
        proposal = make_store([(f, 0, 0.6, 100, 100, 200, 200) for f in range(3)])
        refine = make_store([(f, 0, 0.9 - 0.1 * i, 100, 100 + 10 * i, 200, 200) for f in range(3)])
        seqs.append(write_sequence(tmp_path, meta, proposal, refine, cmap))
    return seqs


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

    def test_manifest_contents(self, seq_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "run"
        assert manifest["config"]["pipeline"]["mode"] == "catdet"
        assert manifest["sequence"]["frame_count"] == 4
        assert all(digest.startswith("sha256:") for digest in manifest["inputs"].values())

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
        seqs = two_sequences(tmp_path, cmap)
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
        seqs = two_sequences(tmp_path, cmap)
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
        # A line is set in place of its key's line; a bare key is left out.
        meta = seq_dir / "meta.cfg"
        key = line.split(" = ")[0]
        kept = [l for l in meta.read_text().splitlines() if not l.startswith(f"{key} =")]
        meta.write_text("\n".join(kept + [line] * ("=" in line)) + "\n")
        out = tmp_path / "out"
        assert run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet",
                       "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(meta) in err and message in err
        assert not out.exists()


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
            ("size_axis", "banana", "size_axis must be height or width"),
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
        total = parse_work_total(path)
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
        total = parse_work_total(out / "work.txt")
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

    def test_rejects_config_options(self, seq_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--sequence", str(seq_dir), "--mode", "catdet", "--out", str(out))
        with pytest.raises(SystemExit) as err:
            run_cli("cost-report", "--set", "cost.b=1", str(out))
        assert err.value.code == 1

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

    def test_seed_override_changes_output(self, tmp_path):
        scenario = tmp_path / "s.cfg"
        scenario.write_text(
            "[scenario]\nname = gen\nframes = 4\nframe_w = 500\nframe_h = 300\nseed = 1\n\n"
            "[object.a]\nclass = car\nentry = 0\nexit = 3\nbox = 50 50 150 120\n\n"
            "[source.proposal]\njitter = 3\nscore_sigma = 0.2\n\n[source.refine]\njitter = 1\n"
        )
        outs = []
        for seed, name in ((1, "s1"), (2, "s2")):
            out = tmp_path / name
            run_cli("gen-synthetic", "--scenario", str(scenario), "--seed", str(seed),
                    "--out", str(out))
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

    @pytest.mark.parametrize("seed", ["-1", "x"])
    def test_bad_seed_option_is_usage_error(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as err:
            run_cli("gen-synthetic", "--scenario", str(DATA / "benchmark_scenario.cfg"),
                    "--seed", seed, "--out", str(tmp_path / "g"))
        assert err.value.code == 1
        assert f"--seed: expected an integer >= 0, got '{seed}'" in capsys.readouterr().err
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

    @pytest.mark.parametrize(
        "scenario_line, object_line, message",
        [
            ("sede = 3", "", "[scenario] unknown key 'sede'"),
            ("frame_rat = 3", "", "[scenario] unknown key 'frame_rat'"),
            ("", "velocty = 5 0", "[object.a] unknown key 'velocty'"),
            ("frame_w = nan", "", "[scenario] frame dimensions must be finite and positive"),
            ("frame_h = inf", "", "[scenario] frame dimensions must be finite and positive"),
            ("frame_rate = nan", "", "[scenario] frame_rate must be finite and > 0"),
            ("frame_rate = 0", "", "[scenario] frame_rate must be finite and > 0"),
            ("frame_rate = -10", "", "[scenario] frame_rate must be finite and > 0"),
            ("seed = -1", "", "[scenario] seed must be >= 0"),
            ("", "class =", "[object.a] class must be one word without '#'"),
            ("", "class = big car", "[object.a] class must be one word without '#'"),
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
        # A line is set in place of its key's line; a bare key is left out.
        scenario = tmp_path / "s.cfg"
        scenario_lines = ["name = gen", "frames = 2", "frame_w = 500", "frame_h = 300"]
        key = scenario_line.split(" = ")[0]
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
