"""Instance generators: tight families for the 7/10 bound, diamond-cactus
inputs that trap greedy diamond-first heuristics at 2/3, and random graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import ValidationError
from .graph import Edge, Graph, check_vertex_count, graph_new


def _fan_edges(q: int) -> list[Edge]:
    # hub 0 joined to the path 1..q-1: a triangulated outerplanar graph
    edges = [(0, i) for i in range(1, q)]
    edges.extend((i, i + 1) for i in range(1, q - 1))
    return edges


def gen_tight_family(q: int) -> Graph:
    """Worst-case family: triangulated core plus a 2-vertex path per outeredge.

    The core is a fan on vertices ``0..q-1`` (hub 0). For each edge ``(u, v)``
    of the core's outer boundary, two fresh vertices ``a, b`` are attached by
    the path ``u-a-b-v``. The result is outerplanar with ``3q`` vertices and
    ``5q - 3`` edges; the pipeline keeps exactly ``3q - 1 + q//2`` of them.
    """
    if q < 3 or q % 2 == 0:
        raise ValidationError(f"q must be odd and >= 3, got {q}")
    check_vertex_count(3 * q)
    edges = _fan_edges(q)
    boundary = [(i, i + 1) for i in range(q - 1)] + [(q - 1, 0)]
    nxt = q
    for u, v in boundary:
        a, b = nxt, nxt + 1
        nxt += 2
        edges.extend([(u, a), (a, b), (b, v)])
    return graph_new(3 * q, edges)


@dataclass(frozen=True)
class DiamondInstance:
    """Union of a triangulated instance H_k and a diamond cactus D_k.

    ``h_edges`` and ``d_edges`` label the two sides (they may overlap);
    ``d_vertices`` lists the diamond cactus's vertices. k = 0 carries the
    base triangle alone.
    """

    k: int
    graph: Graph
    h_edges: frozenset[Edge]
    d_edges: frozenset[Edge]
    d_vertices: tuple[int, ...]


_DIAMOND_MAX_K = 10


def gen_diamond_family(k: int) -> DiamondInstance:
    """Level-``k`` instance of the greedy-diamond trap.

    H_0 is a triangle; H_k doubles and subdivides every boundary edge of
    H_{k-1}, staying triangulated with ``3 * 2^k`` vertices and
    ``2 * 3 * 2^k - 3`` edges. D_k chains ``2^(k-1)`` diamonds (4-cycles
    with one chord) through the vertices inherited from H_{k-1} plus the
    first new vertex, consecutive diamonds sharing an endpoint.
    """
    if k < 0 or k > _DIAMOND_MAX_K:
        raise ValidationError(f"k must be in 0..{_DIAMOND_MAX_K}, got {k}")
    boundary = [0, 1, 2]
    h_edges = {(0, 1), (1, 2), (0, 2)}
    n = 3
    for _ in range(k):
        new_boundary = []
        for i, u in enumerate(boundary):
            v = boundary[(i + 1) % len(boundary)]
            w = n
            n += 1
            h_edges.add((u, w) if u < w else (w, u))
            h_edges.add((v, w) if v < w else (w, v))
            new_boundary.extend([u, w])
        boundary = new_boundary
    if k == 0:
        return DiamondInstance(0, graph_new(3, sorted(h_edges)), frozenset(h_edges), frozenset(), ())

    old_count = 3 * 2 ** (k - 1)
    pool = list(range(old_count)) + [old_count]  # inherited vertices plus one new
    d_edges: set[Edge] = set()
    for i in range(2 ** (k - 1)):
        a, b, c, d = pool[3 * i: 3 * i + 4]
        for e in ((a, b), (b, c), (c, d), (a, d), (a, c)):
            d_edges.add((min(e), max(e)))
    union = sorted(h_edges | d_edges)
    return DiamondInstance(
        k, graph_new(n, union), frozenset(h_edges), frozenset(d_edges), tuple(pool)
    )


def gen_random(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p), deterministic in ``seed``.

    Each of the n (n - 1) / 2 pairs draws once, so the walk costs O(n^2)
    for any p > 0; at p = 0 no draw keeps an edge, and the edgeless graph
    is returned without the walk.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    check_vertex_count(n)
    if p == 0.0:
        return graph_new(n, [])
    rng = random.Random(seed)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return graph_new(n, edges)


def gen_random_maximal_outerplanar(n: int, seed: int) -> Graph:
    """Random triangulated polygon on ``n >= 3`` vertices, labels shuffled."""
    if n < 3:
        raise ValidationError(f"need n >= 3, got {n}")
    check_vertex_count(n)
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]

    def triangulate(i: int, j: int) -> None:
        if j - i < 2:
            return
        pivot = rng.randint(i + 1, j - 1)
        if pivot - i >= 2:
            edges.append((i, pivot))
        if j - pivot >= 2:
            edges.append((pivot, j))
        triangulate(i, pivot)
        triangulate(pivot, j)

    triangulate(0, n - 1)
    relabel = list(range(n))
    rng.shuffle(relabel)
    return graph_new(n, [(relabel[u], relabel[v]) for u, v in edges])
