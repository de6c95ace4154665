"""Declarative key = value configuration with defaults, file values and overrides.

Files use INI sections, one per module; `--set section.key=value` overrides
win over file values, which win over the built-in defaults. Every key but
`pipeline.classes` and `eval.difficulties` is a field of a config dataclass,
and its default is that field's default. The fully resolved snapshot is what
run manifests record.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any

from .cascade import PipelineConfig
from .costmodel import CostModelConfig
from .errors import ConfigError
from .ingest import read_ini
from .metrics import DIFFICULTY_PRESETS, DifficultyFilter, EvalConfig
from .tracker import TrackerConfig

# A config key is a config dataclass field with a plain default; its kind
# comes from the field's annotation. Nested configs, mappings and
# DifficultyFilter.name have no plain default, so they are not keys.
_KINDS = {
    "float": "float",
    "int": "int",
    "bool": "bool",
    "str": "str",
    "float | None": "optfloat",
    "int | None": "recall",
}


def _keys(cls) -> dict[str, tuple[str, Any]]:
    """key -> (kind, default) for every config key of a config dataclass."""
    return {
        f.name: (_KINDS[f.type], f.default)
        for f in dataclasses.fields(cls)
        if f.default is not dataclasses.MISSING
    }


# kind: the values of _KINDS, plus strlist for the keys declared here
_SCHEMA: dict[str, dict[str, tuple[str, Any]]] = {
    "pipeline": {**_keys(PipelineConfig), "classes": ("strlist", ["car", "pedestrian"])},
    "tracker": _keys(TrackerConfig),
    "cost": _keys(CostModelConfig),
    "eval": {**_keys(EvalConfig), "difficulties": ("strlist", ["moderate", "hard"])},
}
_DIFFICULTY_KEYS = _keys(DifficultyFilter)

_DEFAULT_MATCH_IOU = {"car": 0.7, "pedestrian": 0.5}
_DEFAULT_DONTCARE = {"van": "car", "person_sitting": "pedestrian"}

# eval.match_iou / eval.dontcare are accepted as section aliases
_SECTION_ALIASES = {"eval.match_iou": "match_iou", "eval.dontcare": "dontcare"}
# Sections whose values are checked when another section's config is built
_CHECKED_WITH = {"match_iou": "eval", "dontcare": "eval"}


def _convert(kind: str, raw: Any, where: str) -> Any:
    if not isinstance(raw, str):
        return raw
    text = raw.strip()
    try:
        if kind == "optfloat" and text.lower() in ("none", ""):
            return None
        if kind in ("float", "optfloat"):
            value = float(text)
            if math.isnan(value):
                raise ValueError(text)
            return value
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
        if kind == "recall":
            return None if text.lower() in ("all", "all-points") else int(text)
        return text
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {where}") from None


class Settings:
    """Resolved configuration snapshot plus typed accessors."""

    def __init__(self, values: dict[str, dict[str, Any]], files: dict[str, str] | None = None):
        self.values = values
        # section -> the config file, when only that file set values in it
        self.files = files or {}

    def snapshot(self) -> dict[str, dict[str, Any]]:
        return {s: dict(kv) for s, kv in sorted(self.values.items())}

    @property
    def classes(self) -> list[str]:
        return list(self.values["pipeline"]["classes"])

    def pipeline_config(self) -> PipelineConfig:
        return self._build(
            PipelineConfig,
            "pipeline",
            self.values["pipeline"],
            tracker=self._build(TrackerConfig, "tracker", self.values["tracker"]),
            cost=self._build(CostModelConfig, "cost", self.values["cost"]),
        )

    def match_iou_by_name(self) -> dict[str, float]:
        return dict(self.values["match_iou"])

    def dontcare_by_name(self) -> dict[str, str]:
        return dict(self.values["dontcare"])

    def difficulties(self) -> list[DifficultyFilter]:
        out = []
        for name in self.values["eval"]["difficulties"]:
            custom = self.values.get("difficulty", {}).get(name)
            if custom is not None:
                out.append(self._build(DifficultyFilter, f"difficulty.{name}", custom, name=name))
            elif name in DIFFICULTY_PRESETS:
                out.append(DIFFICULTY_PRESETS[name])
            else:
                raise ConfigError(
                    f"unknown difficulty {name!r}; presets: {sorted(DIFFICULTY_PRESETS)}",
                    self.files.get("eval"),
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
        return self._build(
            EvalConfig, "eval", self.values["eval"], match_iou=match_iou, dontcare_classes=dontcare
        )

    def _build(self, cls, section: str, values: dict[str, Any], **nested):
        """Instantiate a config dataclass from its keys' values plus nested arguments."""
        names = {f.name for f in dataclasses.fields(cls)}
        try:
            return cls(**{k: v for k, v in values.items() if k in names}, **nested)
        except ValueError as exc:
            raise ConfigError(f"bad [{section}] value: {exc}", self.files.get(section)) from None


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
        kind, _ = _DIFFICULTY_KEYS[key]
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
    files: dict[str, str] = {}
    if path is not None:
        # Section names are judged by _apply, for the file and --set alike.
        parser = read_ini(path, "config", lambda name: True, ConfigError)
        try:
            for section in parser.sections():
                target = _SECTION_ALIASES.get(section, section)
                for key, raw in parser[section].items():
                    _apply(values, target, key, raw)
                files[_CHECKED_WITH.get(target, target)] = str(path)
        except ConfigError as exc:
            raise ConfigError(str(exc), str(path)) from None
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.rsplit(".", 1)
        target = _SECTION_ALIASES.get(section, section)
        _apply(values, target, key, raw)
        files.pop(_CHECKED_WITH.get(target, target), None)
    return Settings(values, files)
