"""Exact maximum outerplanar subgraph at desk scale, plus the edge bound.

The optimum decomposes over blocks of the input: a cycle of any subgraph
stays inside one block, so per-block optima can be summed. Within a
non-outerplanar block the search enumerates circular orders of the block's
vertices (one per rotation and reflection class) and, for each order, runs
the classic interval DP for the best triangulated-polygon template,
scoring a template edge only when the input actually has it. Every
outerplanar subgraph extends to such a template, so the sweep is exact;
it stops early when a block hits its Euler bound ``2 n_b - 3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import BudgetExceededError, ValidationError
from .graph import Edge, Graph, component_sizes, induced_subgraph
from .outerplanar import block_decomposition, is_outerplanar

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    opt: int
    witness: tuple[Edge, ...]
    nodes_explored: int


def upper_bound(g: Graph) -> int:
    """Per-component outerplanar edge bound: min(m_i, 2 n_i - 3) for n_i >= 3."""
    return sum(m if size <= 2 else min(m, 2 * size - 3) for size, m in component_sizes(g))


def _dp_cost(nb: int) -> int:
    # split candidates over all intervals: sum over lengths of count * (len-1)
    return sum((nb - length) * (length - 1) for length in range(2, nb))


def _interval_table(order: tuple[int, ...], w: list[list[int]]) -> list[list[int]]:
    """``m[i][j]``: most input edges among the chords inside polygon ``order[i..j]``."""
    nb = len(order)
    m = [[0] * nb for _ in range(nb)]
    for length in range(2, nb):
        for i in range(nb - length):
            j = i + length
            oi = order[i]
            oj = order[j]
            row_i = m[i]
            best = 0
            for k in range(i + 1, j):
                ok = order[k]
                val = row_i[k] + m[k][j]
                if k > i + 1:
                    val += w[oi][ok]
                if j > k + 1:
                    val += w[ok][oj]
                if val > best:
                    best = val
            row_i[j] = best
    return m


def _polygon_dp(order: tuple[int, ...], w: list[list[int]]) -> int:
    nb = len(order)
    boundary = sum(w[order[i - 1]][order[i]] for i in range(nb))
    return boundary + _interval_table(order, w)[0][nb - 1]


def _polygon_dp_witness(order: tuple[int, ...], w: list[list[int]]) -> list[tuple[int, int]]:
    """Input edges of one best template for ``order``: each interval's first optimal split."""
    nb = len(order)
    m = _interval_table(order, w)
    edges = [(order[i - 1], order[i]) for i in range(nb) if w[order[i - 1]][order[i]]]
    stack = [(0, nb - 1)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        for k in range(i + 1, j):
            left = w[order[i]][order[k]] if k > i + 1 else 0
            right = w[order[k]][order[j]] if j > k + 1 else 0
            if m[i][k] + m[k][j] + left + right == m[i][j]:
                break
        if left:
            edges.append((order[i], order[k]))
        if right:
            edges.append((order[k], order[j]))
        stack.append((i, k))
        stack.append((k, j))
    return edges


def _block_optimum(
    block: Graph, budget_left: int
) -> tuple[int, list[tuple[int, int]], int, bool]:
    """(best, local witness edges, nodes used, finished) for one 2-connected block."""
    nb = block.n
    w = [[0] * nb for _ in range(nb)]
    for u, v in block.edges:
        w[u][v] = w[v][u] = 1
    ub = min(block.m, 2 * nb - 3)
    cost = _dp_cost(nb)
    best = -1
    best_order: tuple[int, ...] | None = None
    nodes = 0
    finished = True
    others = tuple(range(1, nb))
    for perm in permutations(others):
        if perm[0] > perm[-1]:
            continue  # reflection of an order already tried
        if nodes + cost > budget_left:
            finished = False
            break
        nodes += cost
        order = (0,) + perm
        val = _polygon_dp(order, w)
        if val > best:
            best = val
            best_order = order
            if best == ub:
                break
    witness = _polygon_dp_witness(best_order, w) if best_order is not None else []
    if best < 0:
        best = nb - 1  # spanning tree fallback when no order was evaluated
        witness = []
    return best, witness, nodes, finished


def exact_max_outerplanar(g: Graph, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Edge count and witness of a maximum outerplanar subgraph of ``g``.

    Raises :class:`BudgetExceededError` carrying the best lower bound proved
    so far when the search exceeds ``budget`` candidate evaluations, and
    :class:`ValidationError` when ``budget`` is negative.
    """
    if budget < 0:
        raise ValidationError(f"budget must be at least 0, got {budget}")
    blocks = [b for b in block_decomposition(g).blocks if b.edges]
    total = 0
    witness: list[Edge] = []
    nodes = 0
    for idx, block in enumerate(blocks):
        if block.is_bridge:
            total += 1
            witness.append(block.edges[0])
            continue
        sub, back = induced_subgraph(g, block.vertices)
        if is_outerplanar(sub):
            total += sub.m
            witness.extend(block.edges)
            continue
        best, local_edges, used, finished = _block_optimum(sub, budget - nodes)
        nodes += used
        if not finished:
            remaining = sum(len(b.vertices) - 1 for b in blocks[idx + 1:])
            lower = total + max(best, sub.n - 1) + remaining
            raise BudgetExceededError(
                f"budget of {budget} nodes exhausted", lower, nodes
            )
        total += best
        for a, b in local_edges:
            u, v = back[a], back[b]
            witness.append((u, v) if u < v else (v, u))
    return ExactResult(total, tuple(sorted(witness)), nodes)
