"""Workload corpora for the mops benchmark.

Every corpus is a deterministic function of the workload name and the seed:
graphs come from ``mops.generators.gen_random`` and each graph carries the
seed its ``run_sts`` call uses. Graphs are stratified over fixed ``(n, p)``
cells with equal counts per cell, so a seed changes which graphs are drawn
but not the mix of sizes and densities; that keeps per-graph percentiles
steady from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mops import generators
from mops.graph import Graph


@dataclass(frozen=True)
class Workload:
    """One corpus recipe; ``BENCHMARK.json`` says why each was chosen.

    ``oracle_on_input`` selects what the exact oracle scores: the input graph
    (desk scale, giving the optimum for ``edge_ratio``) or, where the input is
    too large for it, the pipeline's output graph, which the oracle must find
    already outerplanar. ``smoke_per_cell`` is the smallest size, used by the
    smoke test.
    """

    name: str
    cells: tuple[tuple[int, float], ...]
    per_cell: int
    smoke_per_cell: int
    oracle_on_input: bool


@dataclass(frozen=True)
class Instance:
    graph: Graph
    run_seed: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-squares",
            cells=tuple((n, 3.0 / n) for n in (28, 29, 30, 31)),
            per_cell=60,
            smoke_per_cell=1,
            oracle_on_input=False,
        ),
        Workload(
            name="dense-block",
            cells=((22, 0.4),),
            per_cell=150,
            smoke_per_cell=2,
            oracle_on_input=False,
        ),
        Workload(
            name="desk-exact",
            cells=tuple((n, p) for n in (7, 8) for p in (0.4, 0.5, 0.6, 0.7)),
            per_cell=240,
            smoke_per_cell=2,
            oracle_on_input=True,
        ),
    )
}


def build_corpus(workload: Workload, seed: int, smoke: bool = False) -> list[Instance]:
    """The workload's graphs for ``seed``, interleaved across its cells."""
    rng = random.Random(f"{workload.name}/{seed}")
    count = workload.smoke_per_cell if smoke else workload.per_cell
    corpus = []
    for _ in range(count):
        for n, p in workload.cells:
            graph = generators.gen_random(n, p, rng.randrange(2**32))
            corpus.append(Instance(graph, rng.randrange(2**32)))
    return corpus
