"""Timed passes over a corpus, output checks and the metrics built from them.

A pass solves every corpus graph once with ``run_sts``, back to back in this
one process (a closed loop with one caller). Only the library calls sit
inside the timed regions; every check runs after them, outside the timing.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from time import perf_counter

import mops.cactus
import mops.oracle
import mops.outerplanar
import mops.sts
from mops.errors import BudgetExceededError, SizeLimitError
from mops.graph import connected_components, graph_new

# Graphs re-solved after the timed passes to check that outputs repeat.
RECHECK_COUNT = 8


@dataclass
class Outcome:
    """One graph in one pass. ``error`` is set when the attempt failed."""

    solution: object = None
    solve_start: float = 0.0
    solve_s: float = 0.0
    exact: object = None
    exact_start: float = 0.0
    exact_s: float | None = None
    bound: int | None = None
    error: str | None = None


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def output_graph(instance, solution):
    return graph_new(instance.graph.n, solution.edges)


def solve_pass(corpus, workload, with_oracle: bool, between=None,
               tracer=None, label=0) -> list[Outcome]:
    """Solve every graph once; time ``run_sts`` and, if asked, the oracle.

    ``between`` runs before each graph, outside the timed regions. Any
    exception, ``RandomizationError`` included, marks that attempt failed and
    the pass goes on.
    """
    outcomes = []
    for index, instance in enumerate(corpus):
        if between is not None:
            between()
        if tracer is not None:
            tracer.instance = (label, index)
        outcome = Outcome()
        outcomes.append(outcome)
        try:
            outcome.solve_start = perf_counter()
            outcome.solution = mops.sts.run_sts(instance.graph, seed=instance.run_seed)
            outcome.solve_s = perf_counter() - outcome.solve_start
        except Exception as exc:  # counted as a failed attempt
            outcome.error = _failure(exc)
            continue
        if not with_oracle:
            continue
        if workload.oracle_on_input:
            target = instance.graph
        else:
            with _paused(tracer):
                target = output_graph(instance, outcome.solution)
        try:
            outcome.exact_start = perf_counter()
            outcome.exact = mops.oracle.exact_max_outerplanar(target)
            outcome.exact_s = perf_counter() - outcome.exact_start
        except Exception as exc:  # BudgetExceededError included: no optimum to check
            outcome.error = _failure(exc)
    return outcomes


def _paused(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


def fingerprint(solution) -> tuple:
    return solution.edges, solution.triangles, solution.squares


def check(instance, outcome, workload, tracer=None) -> str | None:
    """Why the output is wrong, or None. Runs outside every timed region."""
    g = instance.graph
    sol = outcome.solution
    m = len(sol.edges)
    for u, v in sol.edges:
        if not g.has_edge(u, v):
            return f"output edge ({u}, {v}) is not an input edge"
    h = output_graph(instance, sol)
    if not mops.outerplanar.validate_sts_structure(h):
        return "output is not a square-triangular structure"
    ub = mops.oracle.upper_bound(g)
    if workload.oracle_on_input:
        if outcome.exact.opt > ub:
            return f"optimum {outcome.exact.opt} exceeds the outerplanar edge bound {ub}"
        if 10 * m < 7 * outcome.exact.opt:
            return f"{m} edges is below 7/10 of the optimum {outcome.exact.opt}"
        outcome.bound = outcome.exact.opt
    else:
        if outcome.exact.opt != m:
            return f"oracle finds {outcome.exact.opt} edges in the {m}-edge output"
        outcome.bound = ub
    with _paused(tracer):
        if not mops.outerplanar.is_outerplanar(h):
            return "output is not outerplanar"
        k = max(connected_components(g)) + 1
        if m != (g.n - k) + sol.r + sol.c:
            return f"{m} edges, expected (n - k) + r + c = {(g.n - k) + sol.r + sol.c}"
        try:
            best_r = mops.cactus.brute_force_cactus(g).r
        except SizeLimitError:
            best_r = None  # beyond the brute-force bound: r stays unchecked
        if best_r is not None and sol.r != best_r:
            return f"cactus has r = {sol.r}, the exhaustive maximum is {best_r}"
    return None


def verify_pass(corpus, outcomes, workload, tracer=None) -> None:
    """Check every output of a full pass; failed outcomes get ``error`` set."""
    for instance, outcome in zip(corpus, outcomes):
        if outcome.error is None:
            outcome.error = check(instance, outcome, workload, tracer)


def compare_pass(reference, outcomes) -> None:
    """Mark outcomes whose output differs from the reference pass."""
    for ref, outcome in zip(reference, outcomes):
        if outcome.error is None and ref.solution is not None:
            if fingerprint(outcome.solution) != fingerprint(ref.solution):
                outcome.error = "output differs from the first pass at the same seed"


def recheck(corpus, reference, workload) -> tuple[int, list[str]]:
    """Solve a spread of graphs again, oracle too; outputs must repeat exactly.

    Returns the number of graphs solved again and what did not repeat.
    """
    step = max(1, len(corpus) // RECHECK_COUNT)
    picked = list(range(0, len(corpus), step))[:RECHECK_COUNT]
    again = solve_pass([corpus[i] for i in picked], workload, with_oracle=True)
    problems = []
    for i, outcome in zip(picked, again):
        ref = reference[i]
        if ref.error is not None:
            continue
        if outcome.error is not None:
            problems.append(f"graph {i}: repeat failed: {outcome.error}")
        elif fingerprint(outcome.solution) != fingerprint(ref.solution):
            problems.append(f"graph {i}: output changed on repeat")
        elif (outcome.exact.opt, outcome.exact.nodes_explored) != (
            ref.exact.opt, ref.exact.nodes_explored
        ):
            problems.append(f"graph {i}: oracle result changed on repeat")
    return len(picked), problems


def counts(corpus, outcomes, tracer=None) -> dict:
    """Output counts of a checked pass; they must repeat exactly at one seed."""
    good = [(i, o) for i, o in zip(corpus, outcomes) if o.error is None]
    ratios = [len(o.solution.edges) / o.bound if o.bound else 1.0 for _, o in good]
    with _paused(tracer):
        triangles = sum(len(mops.cactus.enumerate_triangles(i.graph)) for i, _ in good)
        certified, blocks = certified_blocks(good)
    return {
        "cactus.triangles": triangles,
        "cactus.r": sum(o.solution.r for _, o in good),
        "cactus.certified_blocks": certified,
        "cactus.blocks": blocks,
        "sts.squares": sum(o.solution.c for _, o in good),
        "sts.spanning_edges": sum(
            1 for _, o in good for p in o.solution.edge_phase.values() if p == 3
        ),
        "oracle.nodes_explored": sum(o.exact.nodes_explored for _, o in good),
        "oracle.budget_exhausted": sum(
            1 for o in outcomes if o.error and o.error.startswith(BudgetExceededError.__name__)
        ),
        "edge_ratio.mean": statistics.fmean(ratios) if ratios else 1.0,
        "edge_ratio.min": min(ratios) if ratios else 1.0,
    }


def certified_blocks(good) -> tuple[int, int]:
    """(certified, total) blocks of the triangle graph.

    A block is certified when it holds ``floor((n_b - 1) / 2)`` chosen
    triangles, the most a triangular cactus on its ``n_b`` vertices can have,
    which proves its share of ``r`` maximum without the random rank.
    """
    certified = blocks = 0
    for instance, outcome in good:
        g = instance.graph
        tri_edges = set()
        for u, v, w in mops.cactus.enumerate_triangles(g):
            tri_edges.update(((u, v), (v, w), (u, w)))
        if not tri_edges:
            continue
        for block in mops.outerplanar.block_decomposition(graph_new(g.n, tri_edges)).blocks:
            if len(block.vertices) < 3:
                continue
            members = set(block.vertices)
            r_b = sum(1 for t in outcome.solution.triangles if members.issuperset(t))
            blocks += 1
            certified += r_b == (len(block.vertices) - 1) // 2
    return certified, blocks


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(solve: list[float], exact: list[float]) -> dict:
    """End-to-end timing metrics from per-call ``run_sts`` and oracle times."""
    return {
        "solve_s.p50": statistics.median(solve),
        "solve_s.p90": percentile(solve, 90),
        "throughput_gps": len(solve) / sum(solve),
        "exact_s.mean": statistics.fmean(exact),
        "exact_s.p90": percentile(exact, 90),
    }
