"""Exact maximum outerplanar subgraph at desk scale, plus the edge bound.

The optimum decomposes over blocks of the input: a cycle of any subgraph
stays inside one block, so per-block optima can be summed. Within a
non-outerplanar block the search enumerates circular orders of the block's
vertices (one per rotation and reflection class) and, for each order, runs
the polygon-triangulation interval DP (Klincsek 1980) for the best
template, scoring a template edge only when the input actually has it:
each side, chord and closing edge is scored once, at the interval it
closes. Every outerplanar subgraph extends to such a template, so the
sweep is exact; it stops early when a block hits its Euler bound
``2 n_b - 3``. One order costs C(n_b, 3) nodes of the budget: its DP has
one split candidate per triple ``i < k < j`` of positions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from math import comb

from .errors import BudgetExceededError, ValidationError
from .graph import Edge, Graph, connected_components
from .outerplanar import block_decomposition, is_outerplanar

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class ExactResult:
    opt: int
    witness: tuple[Edge, ...]
    nodes_explored: int


def upper_bound(g: Graph) -> int:
    """Per-component outerplanar edge bound: min(m_i, 2 n_i - 3) for n_i >= 3."""
    labels = connected_components(g)
    sizes, edges = Counter(labels), Counter(labels[u] for u, _v in g.edges)
    return sum(m if sizes[c] <= 2 else min(m, 2 * sizes[c] - 3) for c, m in edges.items())


def _interval_table(order: tuple[int, ...], w: list[list[int]]) -> list[list[int]]:
    """``f[i][j]``: most input edges on a triangulated polygon ``order[i..j]``.

    Each side, chord and closing edge counts once, at the interval it closes
    (Klincsek 1980): ``f[i][j] = w(order[i], order[j]) + max_k f[i][k] + f[k][j]``,
    where the max over no ``k`` (a side, ``j = i + 1``) is 0.
    """
    nb = len(order)
    f = [[0] * nb for _ in range(nb)]
    for length in range(1, nb):
        for i in range(nb - length):
            j = i + length
            row_i = f[i]
            best = 0
            for k in range(i + 1, j):
                val = row_i[k] + f[k][j]
                if val > best:
                    best = val
            row_i[j] = best + w[order[i]][order[j]]
    return f


def _polygon_dp_witness(order: tuple[int, ...], w: list[list[int]], f: list[list[int]]) -> list[Edge]:
    """Input edges of one best template for ``order``, given its table ``f``.

    Each interval takes its first optimal split.
    """
    edges = []
    stack = [(0, len(order) - 1)]
    while stack:
        i, j = stack.pop()
        a, b = order[i], order[j]
        if w[a][b]:
            edges.append((a, b))
        if j - i > 1:
            k = next(k for k in range(i + 1, j) if f[i][k] + f[k][j] + w[a][b] == f[i][j])
            stack.append((i, k))
            stack.append((k, j))
    return edges


def _block_optimum(
    block: Graph, budget_left: int
) -> tuple[int, list[tuple[int, int]], int, bool]:
    """(best, local witness edges, nodes used, finished) for one 2-connected block.

    Unfinished: the witness is empty and ``best`` is -1 if no order was tried.
    """
    nb = block.n
    w = [[0] * nb for _ in range(nb)]
    for u, v in block.edges:
        w[u][v] = w[v][u] = 1
    ub = min(block.m, 2 * nb - 3)
    cost = comb(nb, 3)  # one split candidate per triple i < k < j of the order
    best = -1
    best_order: tuple[int, ...] = ()
    best_table: list[list[int]] = []
    nodes = 0
    others = tuple(range(1, nb))
    for perm in permutations(others):
        if perm[0] > perm[-1]:
            continue  # reflection of an order already tried
        if nodes + cost > budget_left:
            return best, [], nodes, False
        nodes += cost
        order = (0,) + perm
        f = _interval_table(order, w)
        if f[0][-1] > best:
            best, best_order, best_table = f[0][-1], order, f
            if best == ub:
                break
    return best, _polygon_dp_witness(best_order, w, best_table), nodes, True


def exact_max_outerplanar(g: Graph, budget: int = DEFAULT_BUDGET) -> ExactResult:
    """Edge count and witness of a maximum outerplanar subgraph of ``g``.

    Raises :class:`BudgetExceededError` carrying the best lower bound proved
    so far when the search exceeds ``budget`` candidate evaluations, and
    :class:`ValidationError` when ``budget`` is negative.
    """
    if budget < 0:
        raise ValidationError(f"budget must be at least 0, got {budget}")
    blocks = block_decomposition(g).blocks
    total = 0
    witness: list[Edge] = []
    nodes = 0
    for idx, block in enumerate(blocks):
        # a bridge is a whole block too, and needs no local graph to say so
        if len(block.edges) == 1 or is_outerplanar(sub := block.local_graph()):
            total += len(block.edges)
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
            u, v = block.vertices[a], block.vertices[b]
            witness.append((u, v) if u < v else (v, u))
    return ExactResult(total, tuple(sorted(witness)), nodes)
