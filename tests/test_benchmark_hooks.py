"""Every name the benchmark's tracer rebinds must exist in the package.

`perfbench/tracing.py` times layers by rebinding module globals and class
attributes of trackcascade. A refactor that removes or renames one of them
silently drops that layer from the benchmark, so each target is resolved here.
"""

import contextlib
import importlib.util
import io
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


def test_timed_catdet_run_feeds_the_cost_layer_metrics(tmp_path):
    # Moving the op accounting must not zero or break the per-layer metrics
    # that BENCHMARK.json reads from these spans and counters.
    from trackcascade.cli import main

    seq = tmp_path / "seq"
    scenario = Path(__file__).parent / "data" / "benchmark_scenario.cfg"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-synthetic", "--scenario", str(scenario), "--out", str(seq)]) == 0
    tracer = tracing.Tracer()
    installed, _ = tracing.install(tracer)
    try:
        with tracer.stage_span("run_timed"), contextlib.redirect_stdout(io.StringIO()):
            code = main([
                "run", "--sequence", str(seq), "--mode", "catdet", "--out", str(tmp_path / "run"),
                "--set", "cost.alpha=0.001", "--set", "cost.b=0.005",
            ])
    finally:
        tracing.uninstall(installed)
    assert code == 0
    assert tracer.broken_counters == set()
    recorded = {name for name, *_ in tracer.spans}
    assert {"costmodel.refine_cost", "costmodel.greedy_merge"} <= recorded
    assert tracer.counts[("run_timed", "costmodel.greedy_merge.in")] > 0
