from pathlib import Path

import pytest

from trackcascade import ConfigError, DifficultyFilter, PipelineConfig
from trackcascade.config import load_settings

README = Path(__file__).resolve().parents[1] / "README.md"

SAMPLE = """\
[pipeline]
mode = cascaded
c_thresh = 0.45
classes = car, pedestrian, cyclist

[tracker]
decay_eta = 0.6
confidence_cap = 5

[cost]
proposal_fullframe_ops = 7.5
alpha = 0.001
b = 0.02

[eval]
beta = 0.75
ap_recall_points = all
difficulties = moderate, strict

[eval.match_iou]
car = 0.7
cyclist = 0.5

[difficulty.strict]
min_size = 50
max_occlusion = 0
max_truncation = 0.1
"""


class TestDefaults:
    def test_paper_default_constants(self):
        s = load_settings()
        assert s.values["tracker"]["decay_eta"] == 0.7
        assert s.values["tracker"]["iou_threshold_beta"] == 0.0
        assert s.values["tracker"]["min_width"] == 10.0
        assert s.values["pipeline"]["margin"] == 30.0
        assert s.values["eval"]["beta"] == 0.8
        assert s.values["cost"]["baseline_proposal_count"] == 300
        assert s.match_iou_by_name() == {"car": 0.7, "pedestrian": 0.5}
        assert s.dontcare_by_name() == {"van": "car", "person_sitting": "pedestrian"}

    def test_default_mode_and_classes(self):
        s = load_settings()
        assert s.values["pipeline"]["mode"] == "catdet"
        assert s.pipeline_config().mode == "catdet"
        assert s.classes == ["car", "pedestrian"]

    def test_typed_configs_build(self):
        s = load_settings()
        assert s.pipeline_config().nms_iou == 0.5
        assert s.pipeline_config().cost.alpha is None
        assert [d.name for d in s.difficulties()] == ["moderate", "hard"]

    def test_defaults_are_the_dataclass_defaults(self):
        s = load_settings()
        assert s.pipeline_config() == PipelineConfig()  # tracker and cost compared too
        custom = load_settings(None, ["difficulty.x.max_occlusion=2", "eval.difficulties=x"])
        assert custom.difficulties() == [DifficultyFilter("x", max_occlusion=2)]

    def test_readme_defaults_block(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        block = text.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "readme.cfg"
        p.write_text(block)
        got, want = load_settings(p).values, load_settings().values
        assert got.keys() == want.keys()
        for section, kv in want.items():
            assert got[section].keys() == kv.keys()
            for key, value in kv.items():
                if isinstance(value, float):
                    assert got[section][key] == pytest.approx(value), f"{section}.{key}"
                else:
                    assert got[section][key] == value, f"{section}.{key}"


class TestFileLoading:
    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(SAMPLE)
        s = load_settings(p)
        assert s.values["pipeline"]["mode"] == "cascaded"
        assert s.values["pipeline"]["c_thresh"] == 0.45
        assert s.classes == ["car", "pedestrian", "cyclist"]
        assert s.pipeline_config().tracker.confidence_cap == 5
        assert s.pipeline_config().cost.alpha == 0.001
        assert s.values["eval"]["ap_recall_points"] is None  # "all"
        # match_iou section replaces keys but keeps unmentioned defaults
        assert s.match_iou_by_name()["cyclist"] == 0.5
        assert s.match_iou_by_name()["pedestrian"] == 0.5

    def test_custom_difficulty(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(SAMPLE)
        filters = load_settings(p).difficulties()
        strict = filters[1]
        assert strict.name == "strict"
        assert strict.min_size == 50.0 and strict.max_occlusion == 0

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_settings(tmp_path / "absent.cfg")

    def test_inline_comments_allowed(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[pipeline]\nmargin = 25  # tighter regions\n")
        assert load_settings(p).values["pipeline"]["margin"] == 25.0


class TestOverrides:
    def test_override_wins_over_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(SAMPLE)
        s = load_settings(p, ["pipeline.mode=single", "eval.beta=0.9"])
        assert s.values["pipeline"]["mode"] == "single"
        assert s.values["eval"]["beta"] == 0.9

    def test_match_iou_override(self):
        s = load_settings(None, ["eval.match_iou.car=0.6"])
        assert s.match_iou_by_name()["car"] == 0.6

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_settings(None, ["pipeline.wibble=1"])

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            load_settings(None, ["nonsense.x=1"])

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            load_settings(None, ["pipeline.margin=wide"])

    @pytest.mark.parametrize(
        "override",
        ["pipeline.margin=nan", "pipeline.t_thresh=NaN", "cost.alpha=nan",
         "match_iou.car=nan", "difficulty.x.min_size=nan"],
    )
    def test_nan_rejected(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"bad value .* for {key}"):
            load_settings(None, [override])

    def test_infinity_allowed(self):
        s = load_settings(None, ["pipeline.t_thresh=inf"])
        assert s.pipeline_config().t_thresh == float("inf")

    def test_file_value_error_names_the_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[tracker]\ndecay_eta = nan\n")
        with pytest.raises(ConfigError, match="bad value 'nan' for tracker.decay_eta") as err:
            load_settings(p)
        assert err.value.path == str(p)

    def test_malformed_override_rejected(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            load_settings(None, ["margin=30"])

    def test_unknown_difficulty_name_rejected(self):
        s = load_settings(None, ["eval.difficulties=nonexistent"])
        with pytest.raises(ConfigError, match="unknown difficulty"):
            s.difficulties()


class TestEvalConfigBuild:
    def test_ids_and_dontcare_wiring(self):
        s = load_settings()
        ids = {"car": 0, "pedestrian": 1, "van": 2, "person_sitting": 3}
        cfg = s.eval_config(ids)
        assert cfg.match_iou == {0: 0.7, 1: 0.5}
        assert cfg.dontcare_classes[0] == frozenset({2})
        assert cfg.dontcare_classes[1] == frozenset({3})

    def test_snapshot_is_plain_data(self):
        snap = load_settings().snapshot()
        assert snap["pipeline"]["mode"] == "catdet"
        assert isinstance(snap["match_iou"], dict)


class TestRanges:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (["cost.alpha=0.001"], "alpha and b must be set together"),
            (["cost.b=0"], "alpha and b must be set together"),
            (["cost.alpha=-1", "cost.b=0"], "alpha must be finite and >= 0"),
            (["cost.alpha=0.001", "cost.b=-0.5"], "b must be finite and >= 0"),
            (["cost.alpha=inf", "cost.b=0"], "alpha must be finite and >= 0"),
            (["cost.proposal_fullframe_ops=inf"], "proposal_fullframe_ops must be finite"),
            (["tracker.boundary_chop_fraction=-1"], r"boundary_chop_fraction must be in \[0, 1\]"),
            (["tracker.boundary_chop_fraction=2"], r"boundary_chop_fraction must be in \[0, 1\]"),
            (["tracker.min_width=-0.5"], "min_width must be >= 0"),
        ],
    )
    def test_pipeline_values_rejected(self, overrides, message):
        s = load_settings(None, overrides)
        section = overrides[0].split(".")[0]
        with pytest.raises(ConfigError, match=rf"bad \[{section}\] value: {message}"):
            s.pipeline_config()

    def test_error_names_the_config_file_that_set_the_section(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[cost]\nalpha = -1\nb = 0\n\n[eval.match_iou]\ncar = 1.5\n")
        with pytest.raises(ConfigError, match=r"bad \[cost\] value: alpha") as err:
            load_settings(p).pipeline_config()
        assert err.value.path == str(p)
        with pytest.raises(ConfigError, match=r"bad \[eval\] value: match IoU") as err:
            load_settings(p).eval_config({"car": 0})
        assert err.value.path == str(p)
        # With an override in the section, either source may hold the bad value.
        with pytest.raises(ConfigError, match=r"bad \[cost\] value: alpha") as err:
            load_settings(p, ["cost.b=0.5"]).pipeline_config()
        assert err.value.path is None

    def test_timing_pair_and_edges_accepted(self):
        s = load_settings(None, ["cost.alpha=0", "cost.b=0", "tracker.boundary_chop_fraction=1",
                                 "tracker.min_width=0"])
        config = s.pipeline_config()
        assert config.cost.has_timing
        assert config.tracker.boundary_chop_fraction == 1.0 and config.tracker.min_width == 0.0

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_ap_recall_points_below_two_rejected(self, points):
        s = load_settings(None, [f"eval.ap_recall_points={points}"])
        with pytest.raises(ConfigError, match=r"bad \[eval\] value: ap_recall_points must be >= 2"):
            s.eval_config({"car": 0, "pedestrian": 1})

    def test_two_recall_points_accepted(self):
        s = load_settings(None, ["eval.ap_recall_points=2"])
        assert s.eval_config({"car": 0}).ap_recall_points == 2
