"""What a CLI call imports: only `gen-synthetic` needs numpy, nothing needs scipy,
and only a run of several sequences loads the process pool; `eval` and
`cost-report` load none of them.

Importing numpy and scipy costs most of a short CLI call's wall time and
about half its peak memory, and `multiprocessing` with `concurrent.futures`
about 17 ms more, so a call must not import what it does not use.

The package root exports only the README's library API, and no module of the
package imports from the root but `__version__`, so `__init__` stays a leaf.
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
