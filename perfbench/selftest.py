"""Smoke test of the benchmark itself, on tiny versions of its workloads.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that every hook resolves against the current package, that the outputs pass
every check, and that a corrupted reference digest or a missing eval curve
makes operations fail.
It exits 0 when all of that holds and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import scenarios
import tracing

TINY_FRAMES = {"crowded": 30, "sparse-multi": 40}


def tiny(workload: scenarios.Workload) -> scenarios.Workload:
    frames = TINY_FRAMES[workload.name]
    return dataclasses.replace(
        workload,
        sequences=tuple(dataclasses.replace(s, frames=frames) for s in workload.sequences),
    )


def main() -> int:
    run.load_package()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    reference = json.loads(run.REFERENCE_FILE.read_text(encoding="utf-8"))
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    expect({w["name"] for w in spec["workloads"]} == set(scenarios.WORKLOADS),
           "BENCHMARK.json workloads are the benchmark's workloads")
    expect(set(units[0]) == set(run.END_TO_END), "BENCHMARK.json lists the end-to-end metrics")
    expect(set(units[1]) == set(run.PER_LAYER), "BENCHMARK.json lists the per-layer metrics")
    unresolved = [f"{h.module}.{h.attr}" for h in tracing.HOOKS if tracing.resolve(h) is None]
    expect(not unresolved, f"every hook target resolves {unresolved}")

    for name, full in scenarios.WORKLOADS.items():
        workload = tiny(full)
        work = run.ROOT / ".perfbench_work" / f"selftest-{name}"
        expect(bool(reference.get(name)), f"{name}: reference digests are recorded")
        for trace in (0, 1):
            detail = run.run_benchmark(workload, 7, 0.0, bool(trace), work, None)
            result = detail["result"]
            expect(result["failed"] == 0 and result["correct"],
                   f"{name} trace={trace}: every operation passes {detail['errors']}")
            emitted = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(emitted == units[trace], f"{name} trace={trace}: metrics have their units")
            missing = [k for k, m in result["metrics"].items() if m["value"] is None]
            expect(not missing, f"{name} trace={trace}: no metric absent {missing}")
            if trace:
                expect(not detail["absent_hooks"], f"{name}: no hook absent")
                expect(not detail["broken_counters"], f"{name}: no counter broken")
        digests = detail["digests"]

        detail = run.run_benchmark(workload, 7, 0.0, False, work, digests)
        expect(detail["result"]["failed"] == 0, f"{name}: matching reference digests pass")
        corrupted = dict(digests)
        key = sorted(corrupted)[0]
        corrupted[key] = "0" * 64
        detail = run.run_benchmark(workload, 7, 0.0, False, work, corrupted)
        result = detail["result"]
        expect(result["failed"] > 0 and not result["correct"],
               f"{name}: a corrupted reference digest ({key}) makes failed_share "
               f"{result['failed']}/{result['attempted']} non-zero")
        # An eval curve that is expected but not written must fail the eval operations.
        missing_curve = dataclasses.replace(
            workload, eval_difficulties=workload.eval_difficulties + ("easy",)
        )
        detail = run.run_benchmark(missing_curve, 7, 0.0, False, work, None)
        eval_errors = [e for e in detail["errors"] if e.startswith("eval ")]
        expect(detail["result"]["failed"] > 0 and len(eval_errors) == detail["result"]["failed"],
               f"{name}: a missing eval curve fails only the eval operations")

    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problem(s)"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
