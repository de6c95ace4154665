"""Declarative key = value configuration with defaults, file values and overrides.

Files use INI sections, one per module; `--set section.key=value` overrides
win over file values, which win over the built-in defaults. The fully
resolved snapshot is what run manifests record.
"""

from __future__ import annotations

import configparser
from pathlib import Path
from typing import Any

from .cascade import PipelineConfig
from .costmodel import CostModelConfig
from .errors import ConfigError
from .metrics import DIFFICULTY_PRESETS, DifficultyFilter, EvalConfig
from .tracker import TrackerConfig

# kind: float | int | bool | str | strlist | optfloat | recall
_SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "pipeline": {
        "mode": ("str", "catdet"),
        "c_thresh": ("float", 0.3),
        "t_thresh": ("float", 0.5),
        "margin": ("float", 30.0),
        "nms_iou": ("float", 0.5),
        "proposal_dedup_iou": ("float", 0.7),
        "class_agnostic_nms": ("bool", False),
        "classes": ("strlist", ["car", "pedestrian"]),
    },
    "tracker": {
        "iou_threshold_beta": ("float", 0.0),
        "decay_eta": ("float", 0.7),
        "min_width": ("float", 10.0),
        "boundary_chop_fraction": ("float", 0.5),
        "confidence_cap": ("int", 3),
        "match_gain": ("int", 1),
        "miss_cost": ("int", 1),
    },
    "cost": {
        "proposal_fullframe_ops": ("float", CostModelConfig().proposal_fullframe_ops),
        "refine_feature_fullframe_ops": ("float", CostModelConfig().refine_feature_fullframe_ops),
        "refine_per_proposal_ops": ("float", CostModelConfig().refine_per_proposal_ops),
        "baseline_proposal_count": ("int", 300),
        "alpha": ("optfloat", None),
        "b": ("optfloat", None),
    },
    "eval": {
        "beta": ("float", 0.8),
        "ap_recall_points": ("recall", 11),
        "difficulties": ("strlist", ["moderate", "hard"]),
        "sparse_annotations": ("bool", False),
    },
}

_DEFAULT_MATCH_IOU = {"car": 0.7, "pedestrian": 0.5}
_DEFAULT_DONTCARE = {"van": "car", "person_sitting": "pedestrian"}

_DIFFICULTY_KEYS = {
    "min_size": ("float", 0.0),
    "size_axis": ("str", "height"),
    "max_occlusion": ("int", 99),
    "max_truncation": ("float", 1.0),
}


def _convert(kind: str, raw: Any, where: str) -> Any:
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if kind == "float":
            return float(text)
        if kind == "int":
            return int(text)
        if kind == "bool":
            if text.lower() in ("true", "yes", "on", "1"):
                return True
            if text.lower() in ("false", "no", "off", "0"):
                return False
            raise ValueError(text)
        if kind == "strlist":
            return [t.strip().lower() for t in text.split(",") if t.strip()]
        if kind == "optfloat":
            return None if text.lower() in ("none", "") else float(text)
        if kind == "recall":
            return None if text.lower() in ("all", "all-points") else int(text)
        return text
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {where}") from None


class Settings:
    """Resolved configuration snapshot plus typed accessors."""

    def __init__(self, values: dict[str, dict[str, Any]]):
        self.values = values

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {s: dict(kv) for s, kv in sorted(self.values.items())}

    @property
    def classes(self) -> list[str]:
        return list(self.values["pipeline"]["classes"])

    @property
    def mode(self) -> str:
        return self.values["pipeline"]["mode"]

    def tracker_config(self) -> TrackerConfig:
        v = self.values["tracker"]
        try:
            return TrackerConfig(**v)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def cost_config(self) -> CostModelConfig:
        v = self.values["cost"]
        try:
            return CostModelConfig(**v)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def pipeline_config(self) -> PipelineConfig:
        p = self.values["pipeline"]
        try:
            return PipelineConfig(
                mode=p["mode"],
                c_thresh=p["c_thresh"],
                t_thresh=p["t_thresh"],
                margin=p["margin"],
                nms_iou=p["nms_iou"],
                proposal_dedup_iou=p["proposal_dedup_iou"],
                class_agnostic_nms=p["class_agnostic_nms"],
                tracker=self.tracker_config(),
                cost=self.cost_config(),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def match_iou_by_name(self) -> dict[str, float]:
        return dict(self.values["match_iou"])

    def dontcare_by_name(self) -> dict[str, str]:
        return dict(self.values["dontcare"])

    def difficulties(self) -> list[DifficultyFilter]:
        out = []
        for name in self.values["eval"]["difficulties"]:
            custom = self.values.get("difficulty", {}).get(name)
            if custom is not None:
                out.append(DifficultyFilter(name=name, **custom))
            elif name in DIFFICULTY_PRESETS:
                out.append(DIFFICULTY_PRESETS[name])
            else:
                raise ConfigError(
                    f"unknown difficulty {name!r}; presets: {sorted(DIFFICULTY_PRESETS)}"
                )
        return out

    def eval_config(self, class_ids: dict[str, int]) -> EvalConfig:
        """Build the id-keyed EvalConfig given a name -> id mapping."""
        match_iou = {}
        for name, thr in self.match_iou_by_name().items():
            if name in class_ids:
                match_iou[class_ids[name]] = thr
        dontcare: dict[int, frozenset[int]] = {}
        for alias, target in self.dontcare_by_name().items():
            if alias in class_ids and target in class_ids:
                tid = class_ids[target]
                dontcare[tid] = dontcare.get(tid, frozenset()) | {class_ids[alias]}
        e = self.values["eval"]
        try:
            return EvalConfig(
                match_iou=match_iou,
                ap_recall_points=e["ap_recall_points"],
                beta=e["beta"],
                dontcare_classes=dontcare,
                sparse_annotations=e["sparse_annotations"],
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _defaults() -> dict[str, dict[str, Any]]:
    values: dict[str, dict[str, Any]] = {
        section: {k: default for k, (_, default) in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    values["match_iou"] = dict(_DEFAULT_MATCH_IOU)
    values["dontcare"] = dict(_DEFAULT_DONTCARE)
    values["difficulty"] = {}
    return values


def _apply(values: dict[str, dict[str, Any]], section: str, key: str, raw: Any) -> None:
    where = f"{section}.{key}"
    if section in _SCHEMA:
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {where}")
        kind, _ = _SCHEMA[section][key]
        values[section][key] = _convert(kind, raw, where)
    elif section == "match_iou":
        values["match_iou"][key.lower()] = _convert("float", raw, where)
    elif section == "dontcare":
        values["dontcare"][key.lower()] = _convert("str", raw, where).lower()
    elif section.startswith("difficulty."):
        name = section.split(".", 1)[1]
        if key not in _DIFFICULTY_KEYS:
            raise ConfigError(f"unknown key {where}")
        kind, default = _DIFFICULTY_KEYS[key]
        custom = values["difficulty"].setdefault(
            name, {k: d for k, (_, d) in _DIFFICULTY_KEYS.items()}
        )
        custom[key] = _convert(kind, raw, where)
    else:
        raise ConfigError(f"unknown config section {section!r}")


def load_settings(
    path: str | Path | None = None, overrides: list[str] | None = None
) -> Settings:
    """Defaults, then file values, then `section.key=value` overrides."""
    values = _defaults()
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}", str(path)) from None
        except configparser.Error as exc:
            raise ConfigError(f"bad config syntax: {exc}", str(path)) from None
        # eval.match_iou / eval.dontcare accepted as section aliases
        for section in parser.sections():
            target = {"eval.match_iou": "match_iou", "eval.dontcare": "dontcare"}.get(
                section, section
            )
            for key, raw in parser[section].items():
                _apply(values, target, key, raw)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.rsplit(".", 1)
        section = {"eval.match_iou": "match_iou", "eval.dontcare": "dontcare"}.get(
            section, section
        )
        _apply(values, section, key, raw)
    return Settings(values)
