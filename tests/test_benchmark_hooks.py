"""Every name the benchmark's tracer rebinds must exist in the package.

`perfbench/tracing.py` times layers by rebinding module globals and class
attributes of trackcascade. A refactor that removes or renames one of them
silently drops that layer from the benchmark, so each target is resolved here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up while defining Hook
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("hook", tracing.HOOKS, ids=lambda h: f"{h.module}.{h.attr}")
def test_hook_target_exists(hook):
    assert tracing.resolve(hook) is not None, f"{hook.name}: no {hook.attr} in {hook.module}"
