"""Smoke test for the benchmark: every workload at its smallest size.

    python3 perfbench/smoke.py

For each workload it runs the untraced and the traced measurement on the
smoke corpus and checks that every output passes, that the reported metrics
match ``BENCHMARK.json``, that the traced run repeats the untraced run's
counts, and that an output with one edge dropped is counted as a failure.
Takes a few seconds; exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mops.sts  # noqa: E402
from run import run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Layers every smoke corpus reaches, whatever its triangles.
ALWAYS_TRACED = {
    "sts.run_sts.s", "sts.run_sts.self_s", "sts.phase2_add_squares.s", "sts.phase3_spanning.s",
    "cactus.max_triangular_cactus.self_s", "cactus.enumerate_triangles.s",
    "oracle.exact_max_outerplanar.s", "oracle.exact_max_outerplanar.self_s",
    "oracle.upper_bound.s", "outerplanar.block_decomposition.s",
    "outerplanar.validate_sts_structure.s", "graph.graph_new.s",
    "graph.connected_components.s", "setup.import_mops_s", "setup.import_networkx_s",
    "trace.overhead_s",
}


def smoke_run(name: str, trace: bool) -> dict:
    return run_workload(name, seed=1, seconds=0, trace=trace, smoke=True, setup_repeats=1)


def check_workloads(spec: dict) -> None:
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    for name in WORKLOADS:
        plain = smoke_run(name, trace=False)
        assert plain["failed"] == 0, (name, plain["problems"])
        assert end_to_end <= set(plain["metrics"]), (name, sorted(plain["metrics"]))
        assert all(plain["metrics"][k] > 0 for k in end_to_end), (name, plain["metrics"])
        traced = smoke_run(name, trace=True)
        assert traced["failed"] == 0, (name, traced["problems"])
        assert traced["counts"] == plain["counts"], (name, traced["counts"], plain["counts"])
        assert ALWAYS_TRACED <= set(traced["metrics"]) <= per_layer, (
            name, sorted(ALWAYS_TRACED - set(traced["metrics"])),
            sorted(set(traced["metrics"]) - per_layer),
        )
        print(f"ok {name}: {plain['attempted']} attempts, counts {plain['counts']}")


def check_dropped_edge_fails() -> None:
    original = mops.sts.run_sts
    calls = 0

    def drop_one_edge(g, seed=0, adversarial=False):
        nonlocal calls
        calls += 1
        solution = original(g, seed=seed, adversarial=adversarial)
        if calls == 1:
            solution = dataclasses.replace(solution, edges=solution.edges[:-1])
        return solution

    mops.sts.run_sts = drop_one_edge
    try:
        report = smoke_run("desk-exact", trace=False)
    finally:
        mops.sts.run_sts = original
    assert report["failed"] == 1, report["problems"]
    assert report["fail_share"] == 1 / report["attempted"], report
    assert report["metrics"]["ok_share"] < 1
    print(f"ok dropped edge: {report['problems'][0]}")


def main() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_workloads(spec)
    check_dropped_edge_fails()


if __name__ == "__main__":
    main()
