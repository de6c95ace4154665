from pathlib import Path

import pytest

from trackcascade import ConfigError, PipelineConfig
from trackcascade.config import _DIFFICULTY_KEYS, load_settings
from trackcascade.metrics import DifficultyFilter

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
        assert s.values["eval.match_iou"] == {"car": 0.7, "pedestrian": 0.5}
        assert s.values["eval.dontcare"] == {"van": "car", "person_sitting": "pedestrian"}

    def test_default_mode_and_classes(self):
        s = load_settings()
        assert s.values["pipeline"]["mode"] == "catdet"
        assert s.pipeline.mode == "catdet"
        assert s.classes == ["car", "pedestrian"]

    def test_typed_configs_build(self):
        s = load_settings()
        assert s.pipeline.nms_iou == 0.5
        assert s.pipeline.cost.alpha is None
        assert [d.name for d in s.difficulties] == ["moderate", "hard"]

    def test_defaults_are_the_dataclass_defaults(self):
        s = load_settings()
        assert s.pipeline == PipelineConfig()  # tracker and cost compared too
        custom = load_settings(None, ["difficulty.x.max_occlusion=2", "eval.difficulties=x"])
        assert custom.difficulties == [DifficultyFilter("x", max_occlusion=2)]

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

    def test_readme_difficulty_block(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        block = text.split("## Configuration", 1)[1].split("```ini\n", 2)[2].split("```", 1)[0]
        p = tmp_path / "readme.cfg"
        p.write_text(block)
        keys = [line.split("=")[0].strip() for line in block.splitlines() if "=" in line]
        assert keys == list(_DIFFICULTY_KEYS) == ["min_size", "max_occlusion", "max_truncation"]
        s = load_settings(p, ["eval.difficulties=<name>"])
        assert s.values["difficulty"] == {"<name>": {k: d for k, (_, d) in _DIFFICULTY_KEYS.items()}}
        assert s.difficulties == [DifficultyFilter("<name>")]


class TestFileLoading:
    def test_file_values_override_defaults(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(SAMPLE)
        s = load_settings(p)
        assert s.values["pipeline"]["mode"] == "cascaded"
        assert s.values["pipeline"]["c_thresh"] == 0.45
        assert s.classes == ["car", "pedestrian", "cyclist"]
        assert s.pipeline.tracker.confidence_cap == 5
        assert s.pipeline.cost.alpha == 0.001
        assert s.values["eval"]["ap_recall_points"] is None  # "all"
        # match_iou section replaces keys but keeps unmentioned defaults
        assert s.values["eval.match_iou"]["cyclist"] == 0.5
        assert s.values["eval.match_iou"]["pedestrian"] == 0.5

    def test_custom_difficulty(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(SAMPLE)
        filters = load_settings(p).difficulties
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

    def test_mode_applies_last_and_keeps_the_file_named(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[pipeline]\nmode = single\nmargin = 12.5\n")
        s = load_settings(p, ["pipeline.mode=cascaded"], "catdet")
        assert (s.pipeline.mode, s.values["pipeline"]["mode"], s.pipeline.margin) == (
            "catdet", "catdet", 12.5)
        p.write_text("[pipeline]\nc_thresh = 7\n")
        with pytest.raises(ConfigError, match=r"bad \[pipeline\] value: c_thresh") as err:
            load_settings(p, [], "catdet")
        assert err.value.path == str(p)

    def test_match_iou_override(self):
        s = load_settings(None, ["eval.match_iou.car=0.6"])
        assert s.values["eval.match_iou"]["car"] == 0.6
        assert s.eval.match_iou[0] == 0.6

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            load_settings(None, ["pipeline.wibble=1"])

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            load_settings(None, ["nonsense.x=1"])

    @pytest.mark.parametrize(
        "text, section",
        [("[bogus]\n", "bogus"), ("[difficulty.x]\n[bogus]\n", "bogus"),
         ("[difficulty]\n", "difficulty"), ("[eval.bogus]\n", "eval.bogus")],
    )
    def test_keyless_unknown_section_in_file_rejected(self, tmp_path, text, section):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown config section '{section}'") as err:
            load_settings(p)
        assert err.value.path == str(p)

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            load_settings(None, ["pipeline.margin=wide"])

    @pytest.mark.parametrize(
        "override",
        ["pipeline.margin=nan", "pipeline.t_thresh=NaN", "cost.alpha=nan",
         "eval.match_iou.car=nan", "difficulty.x.min_size=nan"],
    )
    def test_nan_rejected(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"bad value .* for {key}"):
            load_settings(None, [override])

    def test_one_spelling_per_value_in_any_case(self):
        others = ["cost.alpha=1", "cost.b=1", "eval.ap_recall_points=11",
                  "eval.sparse_annotations=true"]
        s = load_settings(None, others + ["cost.alpha=None", "cost.b=NONE",
                                          "eval.ap_recall_points=All",
                                          "eval.sparse_annotations=False"])
        assert s.values["cost"]["alpha"] is None and s.values["cost"]["b"] is None
        assert s.values["eval"]["ap_recall_points"] is None
        assert s.values["eval"]["sparse_annotations"] is False
        assert load_settings(None, ["eval.sparse_annotations=TRUE"]).eval.sparse_annotations

    @pytest.mark.parametrize(
        "override",
        ["cost.alpha=", "cost.b= ", "eval.ap_recall_points=all-points",
         *(f"eval.sparse_annotations={v}" for v in ("yes", "on", "1", "no", "off", "0"))],
    )
    def test_other_spellings_rejected(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=f"bad value .* for {key}"):
            load_settings(None, [override])

    def test_keys_are_case_sensitive_in_files(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[pipeline]\nC_Thresh = 0.4\n")
        with pytest.raises(ConfigError, match="unknown key pipeline.C_Thresh") as err:
            load_settings(p)
        assert err.value.path == str(p)

    def test_class_names_are_case_insensitive_in_files(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[eval.match_iou]\nCyclist = 0.5\n\n[eval.dontcare]\nTram = CYCLIST\n")
        s = load_settings(p)
        assert s.values["eval.match_iou"]["cyclist"] == 0.5
        assert s.values["eval.dontcare"]["tram"] == "cyclist"
        p.write_text("[eval.match_iou]\ncar = 0.5\nCAR = 0.6\n")
        with pytest.raises(ConfigError, match=r"\[eval.match_iou\] names a class twice") as err:
            load_settings(p)
        assert err.value.path == str(p)

    def test_infinity_allowed(self):
        s = load_settings(None, ["pipeline.t_thresh=inf"])
        assert s.pipeline.t_thresh == float("inf")

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
        with pytest.raises(ConfigError, match="unknown difficulty"):
            load_settings(None, ["eval.difficulties=nonexistent"])


class TestEvalConfigBuild:
    def test_ids_and_dontcare_wiring(self):
        s = load_settings()
        # evaluated names, then alias names; ClassMap gives ids in this order
        assert s.eval_classes == ["car", "pedestrian", "person_sitting", "van"]
        assert s.eval.match_iou == {0: 0.7, 1: 0.5}
        assert s.eval.dontcare_classes[0] == frozenset({3})  # van
        assert s.eval.dontcare_classes[1] == frozenset({2})  # person_sitting

    def test_snapshot_is_plain_data(self):
        snap = load_settings().values
        assert snap["pipeline"]["mode"] == "catdet"
        assert isinstance(snap["eval.match_iou"], dict)


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
            (["tracker.confidence_cap=-1"], "confidence_cap must be >= 0"),
        ],
    )
    def test_pipeline_values_rejected(self, overrides, message):
        section = overrides[0].split(".")[0]
        with pytest.raises(ConfigError, match=rf"bad \[{section}\] value: {message}"):
            load_settings(None, overrides)

    def test_error_names_the_config_file_that_set_the_section(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[cost]\nalpha = -1\nb = 0\n\n[eval.match_iou]\ncar = 1.5\n")
        with pytest.raises(ConfigError, match=r"bad \[cost\] value: alpha") as err:
            load_settings(p)
        assert err.value.path == str(p)
        # An override that mends [cost] leaves the file named for [eval].
        with pytest.raises(ConfigError, match=r"bad \[eval\] value: match IoU") as err:
            load_settings(p, ["cost.alpha=0"])
        assert err.value.path == str(p)
        # With an override in the section, either source may hold the bad value.
        with pytest.raises(ConfigError, match=r"bad \[cost\] value: alpha") as err:
            load_settings(p, ["cost.b=0.5"])
        assert err.value.path is None

    def test_timing_pair_and_edges_accepted(self):
        s = load_settings(None, ["cost.alpha=0", "cost.b=0", "tracker.boundary_chop_fraction=1",
                                 "tracker.min_width=0"])
        config = s.pipeline
        assert config.cost.has_timing
        assert config.tracker.boundary_chop_fraction == 1.0 and config.tracker.min_width == 0.0

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_ap_recall_points_below_two_rejected(self, points):
        with pytest.raises(ConfigError, match=r"bad \[eval\] value: ap_recall_points must be >= 2"):
            load_settings(None, [f"eval.ap_recall_points={points}"])

    def test_two_recall_points_accepted(self):
        s = load_settings(None, ["eval.ap_recall_points=2"])
        assert s.eval.ap_recall_points == 2

    def test_empty_class_list_in_file_names_the_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[pipeline]\nclasses = ,\n")
        with pytest.raises(ConfigError, match="pipeline.classes must name at least one class") as err:
            load_settings(p)
        assert err.value.path == str(p)

    @pytest.mark.parametrize("listed", ["car,car", "car, Pedestrian, CAR"])
    def test_repeated_class_rejected(self, tmp_path, listed):
        with pytest.raises(ConfigError, match="pipeline.classes must name each class once") as err:
            load_settings(None, [f"pipeline.classes={listed}"])
        assert err.value.path is None
        p = tmp_path / "c.cfg"
        p.write_text(f"[pipeline]\nclasses = {listed}\n")
        with pytest.raises(ConfigError, match="pipeline.classes must name each class once") as err:
            load_settings(p)
        assert err.value.path == str(p)


class TestNames:
    """Class and difficulty names become part of eval's curve file names.

    `dontcare` names KITTI's DontCare regions, so it is no class or alias name,
    and an alias must point at an evaluated class.
    """

    @pytest.mark.parametrize(
        "override",
        ["eval.match_iou.a/b=0.5", "eval.match_iou.a\\b=0.5", "eval.match_iou.a b=0.5",
         "eval.match_iou.=0.5", "eval.match_iou.x\ty=0.5", "difficulty.x/y.min_size=1",
         "difficulty.x\\y.min_size=1", "difficulty.x y.min_size=1", "difficulty..min_size=1",
         # KITTI's DontCare regions are no class
         "eval.match_iou.dontcare=0.5", "eval.match_iou.DontCare=0.5",
         "eval.dontcare.dontcare=car"],
    )
    def test_name_that_is_no_file_name_part_rejected(self, override):
        where = override.split("=")[0]
        with pytest.raises(ConfigError, match="bad name") as err:
            load_settings(None, [override, "eval.difficulties=all"])
        assert where in str(err.value) and err.value.path is None

    @pytest.mark.parametrize(
        "text",
        ["[eval.match_iou]\na\\b = 0.5\n", "[eval.match_iou]\na b = 0.5\n",
         "[difficulty.a\0b]\nmin_size = 1\n", "[difficulty.a/b]\nmin_size = 1\n",
         "[difficulty.a b]\n", "[eval.match_iou]\ndontcare = 0.5\n"],
    )
    def test_bad_name_in_file_names_the_file(self, tmp_path, text):
        p = tmp_path / "c.cfg"
        p.write_text(text)
        with pytest.raises(ConfigError, match="bad name") as err:
            load_settings(p)
        assert err.value.path == str(p)

    @pytest.mark.parametrize("target", ["carr", "person_sitting", "dontcare", ""])
    def test_alias_target_must_be_an_evaluated_class(self, target):
        with pytest.raises(ConfigError, match=r"is not an \[eval.match_iou\] class") as err:
            load_settings(None, [f"eval.dontcare.van={target}"])
        assert f"van = {target}:" in str(err.value) and err.value.path is None

    def test_alias_target_in_file_names_the_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[eval.dontcare]\nvan = carr\n")
        with pytest.raises(ConfigError, match="'carr' is not an") as err:
            load_settings(p)
        assert err.value.path == str(p)

    def test_alias_of_an_added_class_accepted(self):
        s = load_settings(None, ["eval.match_iou.cyclist=0.5", "eval.dontcare.tram=cyclist"])
        ids = {name: i for i, name in enumerate(s.eval_classes)}
        assert s.eval.dontcare_classes[ids["cyclist"]] == frozenset({ids["tram"]})

    def test_plain_names_accepted(self):
        s = load_settings(None, ["eval.match_iou.cyclist=0.5", "difficulty.my-size_2.min_size=1",
                                 "eval.difficulties=my-size_2, all"])
        assert "cyclist" in s.eval_classes
        assert [d.name for d in s.difficulties] == ["my-size_2", "all"]


class TestDifficulties:
    @pytest.mark.parametrize("listed", ["", " , ", "hard,hard", "all, Hard, hard"])
    def test_empty_or_repeated_list_rejected(self, listed):
        with pytest.raises(ConfigError, match="eval.difficulties must name at least one") as err:
            load_settings(None, [f"eval.difficulties={listed}"])
        assert err.value.path is None

    def test_repeated_list_in_file_names_the_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[eval]\ndifficulties = moderate, moderate\n")
        with pytest.raises(ConfigError, match="each once; got") as err:
            load_settings(p)
        assert err.value.path == str(p)

    def test_keyless_difficulty_section_declares_default_filter(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("[difficulty.x]\n")
        s = load_settings(p, ["eval.difficulties=x"])
        assert s.difficulties == [DifficultyFilter("x")]
        assert s.values["difficulty"]["x"]["min_size"] == 0.0

    @pytest.mark.parametrize("name", ["all", "easy", "moderate", "hard", "Moderate"])
    def test_preset_may_not_be_redefined(self, tmp_path, name):
        message = rf"\[difficulty.{name}\] may not redefine the preset '{name.lower()}'"
        with pytest.raises(ConfigError, match=message) as err:
            load_settings(None, [f"difficulty.{name}.min_size=25"])
        assert err.value.path is None
        p = tmp_path / "c.cfg"
        p.write_text(f"[difficulty.{name}]\n")
        with pytest.raises(ConfigError, match=message) as err:
            load_settings(p)
        assert err.value.path == str(p)

    def test_unlisted_custom_difficulty_is_checked(self):
        with pytest.raises(ConfigError, match=r"bad \[difficulty\.x\] value: max_occlusion"):
            load_settings(None, ["difficulty.x.max_occlusion=-1"])

    @pytest.mark.parametrize("name", ["Strict", "STRICT", "sTrict"])
    def test_name_must_be_lower_case(self, tmp_path, name):
        # eval.difficulties lowercases the names it lists, so only a lower-case
        # section could ever be selected.
        message = rf"\[difficulty.{name}\]: difficulty name '{name}' must be lower case"
        with pytest.raises(ConfigError, match=message) as err:
            load_settings(None, [f"difficulty.{name}.min_size=10"])
        assert err.value.path is None
        p = tmp_path / "c.cfg"
        p.write_text(f"[difficulty.{name}]\n")
        with pytest.raises(ConfigError, match=message) as err:
            load_settings(p)
        assert err.value.path == str(p)
