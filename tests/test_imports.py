"""What a CLI call imports: only `gen-synthetic` needs numpy, nothing needs scipy,
and only a run of several sequences loads the process pool; `eval` and
`cost-report` load none of them.

Importing numpy and scipy costs most of a short CLI call's wall time and
about half its peak memory, and `multiprocessing` with `concurrent.futures`
about 17 ms more, so a call must not import what it does not use.

The package root exports only the README's library API, and no module of the
package imports from the root but `__version__`, so `__init__` stays a leaf.

The modules form layers, and a module imports at module level only from its
own layer or a lower one, never another module's underscore name.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import trackcascade
from trackcascade import ClassMap
from trackcascade.cli import main
from trackcascade.ingest import SequenceMeta

from conftest import DATA, make_store, write_sequence

SRC = Path(trackcascade.__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
import trackcascade, trackcascade.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = trackcascade.cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
assert code == 0, code
roots = ("numpy", "scipy", "multiprocessing", "concurrent")
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in roots)))
"""


def loaded_modules(argv: list[str]) -> str:
    """The heavy modules loaded by one CLI call, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_package_and_cli_start_without_numpy_or_scipy():
    assert loaded_modules(["--version"]) == ""


@pytest.mark.parametrize(
    "mode, extra",
    [
        pytest.param("single", [], id="single"),
        pytest.param("catdet", [], id="catdet"),
        pytest.param("cascaded", ["--dump-masks"], id="cascaded-dump-masks"),
    ],
)
def test_single_sequence_run_loads_neither_numpy_nor_a_process_pool(tmp_path, mode, extra):
    cmap = ClassMap(["car", "pedestrian"])
    store = make_store([(f, 0, 0.9, 100, 100, 200, 200) for f in range(3)])
    seq = write_sequence(tmp_path, SequenceMeta("seq0", 3, 1000.0, 400.0), store, store, cmap)
    out = tmp_path / "out"
    argv = ["run", "--sequence", str(seq), "--mode", mode, "--out", str(out), *extra]
    assert loaded_modules(argv) == ""
    assert (out / "masks.txt").exists() == bool(extra)


def test_eval_and_cost_report_load_neither_numpy_nor_a_process_pool(tmp_path):
    argv = ["eval", "--gt", str(DATA / "fig4_labels.txt"),
            "--det", str(DATA / "fig4_detections.txt"), "--out", str(tmp_path / "eval")]
    assert loaded_modules(argv) == ""
    assert (tmp_path / "eval" / "manifest.json").exists()

    cmap = ClassMap(["car", "pedestrian"])
    store = make_store([(f, 0, 0.9, 100, 100, 200, 200) for f in range(3)])
    seq = write_sequence(tmp_path, SequenceMeta("seq0", 3, 1000.0, 400.0), store, store, cmap)
    run = tmp_path / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--sequence", str(seq), "--mode", "catdet", "--out", str(run)]) == 0
    assert loaded_modules(["cost-report", str(run)]) == ""


# The README's "Library use" imports, the two errors a caller catches, and the version.
ROOT_API = [
    "__version__", "FileBackedSource", "Pipeline", "PipelineConfig", "ClassMap",
    "parse_detections", "parse_meta", "DataError", "ConfigError",
]


def test_package_root_exports_only_the_library_api():
    assert sorted(trackcascade.__all__) == sorted(ROOT_API)
    for name in ROOT_API:
        assert hasattr(trackcascade, name), name


def root_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each name imported from the package root, relatively or absolutely."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative_root = node.level == 1 and node.module is None
            if relative_root or (node.level == 0 and node.module == "trackcascade"):
                found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name == "trackcascade"]
    return found


def test_modules_import_only_the_version_from_the_package_root():
    found = []
    for path in sorted((SRC / "trackcascade").glob("*.py")):
        for line, name in root_imports(ast.parse(path.read_text())):
            if name != "__version__":
                found.append(f"{path.name}:{line}: {name}")
    assert found == []


def test_the_scan_sees_root_imports():
    code = (
        "from . import __version__\n"
        "from .cascade import Pipeline\n"
        "from . import cascade\n"
        "from trackcascade import ClassMap\n"
        "from trackcascade.ingest import parse_meta\n"
        "import trackcascade\n"
        "def f():\n"
        "    from . import DataError\n"
    )
    assert root_imports(ast.parse(code)) == [
        (1, "__version__"), (3, "cascade"), (4, "ClassMap"), (6, "trackcascade"), (8, "DataError")
    ]


# The package's layers, lowest first. A module may import, at module level, only
# from its own layer or a lower one.
LAYERS = (
    ("errors",),
    ("geometry",),
    ("ingest",),  # the file formats and the records they hold
    ("_lsap", "costmodel", "tracker"),
    ("cascade", "metrics", "synthetic"),
    ("config", "runio"),
    ("cli",),
)
LAYER = {module: depth for depth, layer in enumerate(LAYERS) for module in layer}


def is_type_checking(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) in (
        "TYPE_CHECKING", "typing.TYPE_CHECKING"
    )


def module_level_statements(body: list[ast.stmt]):
    """The statements that run on import: those outside any function body and
    outside `if TYPE_CHECKING:`."""
    for node in body:
        if is_type_checking(node) or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        for field in ("body", "orelse", "handlers", "finalbody"):
            inner = getattr(node, field, None)
            if isinstance(inner, list):
                yield from module_level_statements(inner)


def package_imports(nodes) -> list[tuple[int, str, list[str]]]:
    """(line, package module, imported names) of each import of a module of the package.

    `from . import x` counts as an import of module `x`, except `__version__`.
    """
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            absolute = node.level == 0 and (node.module or "").split(".")[0] == "trackcascade"
            if node.level == 1 or absolute:
                module = (node.module or "").removeprefix("trackcascade").lstrip(".")
                if module:
                    found.append((node.lineno, module.split(".")[0], names))
                else:  # from the package root
                    found += [(node.lineno, n, []) for n in names if n != "__version__"]
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "trackcascade" and len(parts) > 1:
                    found.append((node.lineno, parts[1], []))
    return found


def upward_imports(module: str, tree: ast.Module) -> list[str]:
    """Each module-level import by `module` of a module in a higher layer, or of no layer."""
    return [
        f"{module}.py:{line}: imports {target}"
        for line, target, _ in package_imports(module_level_statements(tree.body))
        if LAYER.get(target, len(LAYERS)) > LAYER[module]
    ]


def parse_modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "trackcascade").glob("*.py"))
    }


def test_every_module_has_one_layer():
    modules = set(parse_modules()) - {"__init__"}
    assert sorted(LAYER) == sorted(modules)
    assert len(LAYER) == sum(map(len, LAYERS))


def test_no_module_imports_a_higher_layer():
    found = []
    for module, tree in parse_modules().items():
        if module != "__init__":
            found += upward_imports(module, tree)
    assert found == []


def test_the_layer_scan_sees_an_upward_import():
    code = (
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "from .errors import DataError\n"
        "from .metrics import DetLabel\n"
        "from . import runio, __version__\n"
        "import trackcascade.cli\n"
        "try:\n"
        "    from .cascade import Pipeline\n"
        "except ImportError:\n"
        "    pass\n"
        "if TYPE_CHECKING:\n"
        "    from .cascade import FrameResult\n"
        "def lazy():\n"
        "    from .cli import main\n"
    )
    assert upward_imports("ingest", ast.parse(code)) == [
        "ingest.py:4: imports metrics",
        "ingest.py:5: imports runio",
        "ingest.py:6: imports cli",
        "ingest.py:8: imports cascade",
    ]


def closure(module: str, trees: dict[str, ast.Module]) -> set[str]:
    """The package modules that importing `module` runs, by its module-level imports
    (the package root, which every import runs first, aside)."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        for _, target, _ in package_imports(module_level_statements(trees[todo.pop()].body)):
            if target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def test_the_records_and_the_run_writers_stand_below_the_pipeline():
    trees = parse_modules()
    assert closure("ingest", trees) == {"errors", "geometry"}
    assert closure("runio", trees) == {"costmodel", "errors", "geometry", "ingest"}
    assert "cascade" not in closure("metrics", trees)


def test_numpy_is_imported_only_by_the_generator():
    found = []
    for module, tree in parse_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [a.name.split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            if "scipy" in roots or ("numpy" in roots and module != "synthetic"):
                found.append(f"{module}.py:{node.lineno}")
    assert found == []


def test_no_module_imports_another_modules_private_name():
    found = []
    for module, tree in parse_modules().items():
        for line, target, names in package_imports(ast.walk(tree)):
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            found += [f"{module}.py:{line}: {target}.{n}" for n in private]
    assert found == []


def test_the_package_root_loads_neither_the_evaluator_nor_the_generator():
    code = "import sys, trackcascade; print(*sorted(m for m in sys.modules if 'trackcascade' in m))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    loaded = {m.removeprefix("trackcascade.") for m in done.stdout.split()}
    assert loaded.isdisjoint({"metrics", "synthetic", "config", "runio", "cli"}), sorted(loaded)
