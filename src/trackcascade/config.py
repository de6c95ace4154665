"""Declarative key = value configuration with defaults, file values and overrides.

Files use INI sections, one per module; `--set section.key=value` overrides
win over file values, which win over the built-in defaults. Every key but
`pipeline.classes` and `eval.difficulties` is a field of a config dataclass,
and its default is that field's default. `load_settings` builds and checks
every section at once, so a config is accepted or refused whichever command
reads it, and manifests record only the checked snapshot.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from typing import Any

from .cascade import PipelineConfig
from .costmodel import CostModelConfig
from .errors import ConfigError
from .ingest import DONTCARE, ClassMap, check_name, read_ini
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

# Sections whose values are checked when another section's config is built
_CHECKED_WITH = {"eval.match_iou": "eval", "eval.dontcare": "eval"}


def _convert(kind: str, raw: str, where: str) -> Any:
    text = raw.strip()
    try:
        if kind == "optfloat" and text.lower() == "none":
            return None
        if kind in ("float", "optfloat"):
            value = float(text)
            if math.isnan(value):
                raise ValueError(text)
            return value
        if kind == "int":
            return int(text)
        if kind == "bool":
            if text.lower() not in ("true", "false"):
                raise ValueError(text)
            return text.lower() == "true"
        if kind == "strlist":
            return [t.strip().lower() for t in text.split(",") if t.strip()]
        if kind == "recall":
            return None if text.lower() == "all" else int(text)
        return text
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for {where}") from None


@dataclasses.dataclass(frozen=True)
class Settings:
    """The resolved configuration, every section built and checked."""

    values: dict[str, dict[str, Any]]  # the snapshot that manifests record
    classes: list[str]  # the run's configured class names, in ClassMap order
    pipeline: PipelineConfig
    eval_classes: list[str]  # evaluated names, then alias names, in ClassMap order
    eval: EvalConfig  # keyed by the ids that ClassMap(eval_classes) gives
    difficulties: list[DifficultyFilter]


def _defaults() -> dict[str, dict[str, Any]]:
    values: dict[str, dict[str, Any]] = {
        section: {k: default for k, (_, default) in keys.items()}
        for section, keys in _SCHEMA.items()
    }
    values["eval.match_iou"] = dict(_DEFAULT_MATCH_IOU)
    values["eval.dontcare"] = dict(_DEFAULT_DONTCARE)
    values["difficulty"] = {}
    return values


def _declare(values: dict[str, dict[str, Any]], section: str, where: str) -> dict[str, Any]:
    """The values of a known section; a new [difficulty.<name>] starts from the defaults."""
    if section.startswith("difficulty."):
        name = section.split(".", 1)[1]
        check_name(name, where, ConfigError)
        if name.lower() in DIFFICULTY_PRESETS:
            raise ConfigError(f"[{section}] may not redefine the preset {name.lower()!r}")
        if name != name.lower():  # eval.difficulties lowercases the names it lists
            raise ConfigError(f"[{section}]: difficulty name {name!r} must be lower case")
        return values["difficulty"].setdefault(
            name, {k: d for k, (_, d) in _DIFFICULTY_KEYS.items()}
        )
    if section == "difficulty" or section not in values:
        raise ConfigError(f"unknown config section {section!r}")
    return values[section]


def _apply(values: dict[str, dict[str, Any]], section: str, key: str, raw: str) -> None:
    where = f"{section}.{key}"
    target = _declare(values, section, where)
    if section in ("eval.match_iou", "eval.dontcare"):
        name = key.lower()
        if name == DONTCARE:
            raise ConfigError(f"bad name {name!r} in {where}: it names KITTI's DontCare regions")
        if section == "eval.match_iou":
            check_name(name, where, ConfigError)
            target[name] = _convert("float", raw, where)
        else:
            target[name] = _convert("str", raw, where).lower()
        return
    keys = _SCHEMA.get(section, _DIFFICULTY_KEYS)
    if key not in keys:
        raise ConfigError(f"unknown key {where}")
    target[key] = _convert(keys[key][0], raw, where)


def _resolve(values: dict[str, dict[str, Any]], files: dict[str, str]) -> Settings:
    """Build and check every section; `files` names the file that alone set a section."""

    def build(cls, section: str, section_values: dict[str, Any], **nested):
        names = {f.name for f in dataclasses.fields(cls)}
        try:
            return cls(**{k: v for k, v in section_values.items() if k in names}, **nested)
        except ValueError as exc:
            raise ConfigError(f"bad [{section}] value: {exc}", files.get(section)) from None

    tracker = build(TrackerConfig, "tracker", values["tracker"])
    cost = build(CostModelConfig, "cost", values["cost"])
    pipeline = build(PipelineConfig, "pipeline", values["pipeline"], tracker=tracker, cost=cost)
    classes = list(values["pipeline"]["classes"])
    if all(name == DONTCARE for name in classes):  # DontCare regions are no class
        raise ConfigError("pipeline.classes must name at least one class", files.get("pipeline"))
    if DONTCARE in classes:
        raise ConfigError(
            f"bad name {DONTCARE!r} in pipeline.classes: it names KITTI's DontCare regions",
            files.get("pipeline"),
        )
    if len(set(classes)) < len(classes):
        raise ConfigError(
            f"pipeline.classes must name each class once; got {classes}", files.get("pipeline")
        )

    eval_classes = sorted(values["eval.match_iou"]) + sorted(values["eval.dontcare"])
    class_map = ClassMap(eval_classes)
    ids = {name: class_map.id_of(name) for name in eval_classes}
    match_iou = {ids[name]: thr for name, thr in values["eval.match_iou"].items()}
    dontcare: dict[int, frozenset[int]] = {}
    for alias, target in values["eval.dontcare"].items():
        if target not in values["eval.match_iou"]:
            raise ConfigError(
                f"[eval.dontcare] {alias} = {target}: {target!r} is not an [eval.match_iou] class",
                files.get("eval"),
            )
        dontcare[ids[target]] = dontcare.get(ids[target], frozenset()) | {ids[alias]}
    eval_config = build(
        EvalConfig, "eval", values["eval"], match_iou=match_iou, dontcare_classes=dontcare
    )

    known = dict(DIFFICULTY_PRESETS)
    for name, kv in values["difficulty"].items():
        known[name] = build(DifficultyFilter, f"difficulty.{name}", kv, name=name)
    names = values["eval"]["difficulties"]
    if not names or len(set(names)) < len(names):
        raise ConfigError(
            f"eval.difficulties must name at least one difficulty, each once; got {names}",
            files.get("eval"),
        )
    for name in names:
        if name not in known:
            raise ConfigError(
                f"unknown difficulty {name!r}; presets: {sorted(DIFFICULTY_PRESETS)}",
                files.get("eval"),
            )

    snapshot = {s: dict(kv) for s, kv in sorted(values.items())}
    difficulties = [known[name] for name in names]
    return Settings(snapshot, classes, pipeline, eval_classes, eval_config, difficulties)


def load_settings(
    path: str | Path | None = None, overrides: list[str] | None = None, mode: str | None = None
) -> Settings:
    """Defaults, then file values, then `section.key=value` overrides; then every check.

    `mode`, given, is `pipeline.mode`, applied last. It is `run --mode`, which
    argparse limits to `costmodel.MODES`; so unlike an override, it can never be
    the bad value, and a `[pipeline]` error still names the config file.
    """
    values = _defaults()
    # section -> the config file, when only that file set values in it
    files: dict[str, str] = {}
    if path is not None:
        # Section names are judged by _declare, for the file and --set alike.
        parser = read_ini(path, "config", lambda name: True, ConfigError)
        try:
            for section in parser.sections():
                _declare(values, section, f"[{section}]")
                for key, raw in parser[section].items():
                    _apply(values, section, key, raw)
                # Only class names, which _apply lowercases, pass in two spellings.
                if len({key.lower() for key in parser[section]}) < len(parser[section]):
                    raise ConfigError(f"[{section}] names a class twice")
                files[_CHECKED_WITH.get(section, section)] = str(path)
        except ConfigError as exc:
            raise ConfigError(str(exc), str(path)) from None
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.rsplit(".", 1)
        _apply(values, section, key, raw)
        files.pop(_CHECKED_WITH.get(section, section), None)
    if mode is not None:
        values["pipeline"]["mode"] = mode
    return _resolve(values, files)
