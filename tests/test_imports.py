"""Only `gen-synthetic` needs numpy, and nothing in the package needs scipy.

Importing numpy and scipy costs most of a short CLI call's wall time and
about half its peak memory, so the package and the CLI's start-up must not
import them.
"""

import os
import subprocess
import sys
from pathlib import Path

import trackcascade

SRC = Path(trackcascade.__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, sys
import trackcascade, trackcascade.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        trackcascade.cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0, exc.code
heavy = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
print(" ".join(heavy))
"""


def test_package_and_cli_start_without_numpy_or_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
