"""Spanning square-triangular structures with a 7/10 edge guarantee.

The pipeline has three phases: pick a maximum triangular cactus, greedily
add squares (induced 4-cycles) whose four vertices lie in four distinct
components of the current selection, then join remaining components with
single edges. Every block of the result is an edge, a triangle, or a
square, so the output is outerplanar, and on any input it keeps at least
7/10 of the edges of a maximum outerplanar subgraph.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .cactus import Triangle, TriangularCactus, brute_force_cactus, max_triangular_cactus
from .errors import ValidationError
from .graph import Edge, Graph, Partition, connected_components

Square = tuple[int, int, int, int]


@dataclass(frozen=True)
class StsSolution:
    """Output edge set with per-phase provenance and component history.

    ``component_history`` records the component count of the growing
    selection: initial, after the cactus, after each square, after spanning.
    Always ``len(edges) == (n - k) + r + c`` for an input with k components.
    """

    n: int
    input_components: int
    triangles: tuple[Triangle, ...]
    squares: tuple[Square, ...]
    edges: tuple[Edge, ...]
    edge_phase: dict[Edge, int]
    component_history: tuple[int, ...]

    @property
    def r(self) -> int:
        return len(self.triangles)

    @property
    def c(self) -> int:
        return len(self.squares)

    @property
    def m(self) -> int:
        return len(self.edges)


def _spanning_square(g: Graph, part: Partition, quad: Square) -> list[Edge] | None:
    """The edges of ``quad`` if it induces a 4-cycle spanning four components."""
    if len({part.find(v) for v in quad}) < 4:
        return None
    quad_edges = [(a, b) for a, b in combinations(quad, 2) if g.has_edge(a, b)]
    if len(quad_edges) != 4:
        return None
    degree = Counter(v for edge in quad_edges for v in edge)
    return quad_edges if all(degree[v] == 2 for v in quad) else None


def find_addable_square(g: Graph, part: Partition) -> tuple[Square, list[Edge]] | None:
    """Lexicographically first induced 4-cycle of ``g`` spanning four components.

    Reference for :func:`phase2_add_squares`: calling this until it returns
    None, merging each square's components, must add the same squares.
    """
    for quad in combinations(range(g.n), 4):
        quad_edges = _spanning_square(g, part, quad)
        if quad_edges is not None:
            return quad, quad_edges
    return None


def phase2_add_squares(
    g: Graph, cactus: TriangularCactus
) -> tuple[list[Edge], list[Square]]:
    """Grow the cactus edge set with component-spanning squares until none fit.

    One pass over 4-subsets in lexicographic order adds each induced 4-cycle
    spanning four components at that point. This equals rescanning from the
    start after every addition: components only merge, so a rejected 4-subset
    stays rejected. Returns the enlarged edge set and the squares added.
    """
    for u, v in cactus.edges:
        if not g.has_edge(u, v):
            raise ValidationError(f"cactus edge ({u}, {v}) is not an edge of the graph")
    selected = set(cactus.edges)
    part = Partition(g.n)
    for u, v in selected:
        part.union(u, v)
    squares: list[Square] = []
    for quad in combinations(range(g.n), 4):
        quad_edges = _spanning_square(g, part, quad)
        if quad_edges is None:
            continue
        squares.append(quad)
        selected.update(quad_edges)
        anchor = quad[0]
        for v in quad[1:]:
            part.union(anchor, v)
    return sorted(selected), squares


def phase3_spanning(g: Graph, e1) -> list[Edge]:
    """Add edges joining distinct components, in lexicographic edge order."""
    e1 = list(e1)
    for u, v in e1:
        if not g.has_edge(u, v):
            raise ValidationError(f"edge ({u}, {v}) is not an edge of the graph")
    part = Partition(g.n)
    selected = set(e1)
    for u, v in selected:
        part.union(u, v)
    for u, v in g.edges:
        if part.union(u, v):
            selected.add((u, v))
    return sorted(selected)


def run_sts(g: Graph, seed: int = 0, adversarial: bool = False) -> StsSolution:
    """Run the three phases end to end.

    ``adversarial`` swaps the randomized cactus solver for the deterministic
    lexicographic-first exhaustive one, reproducing worst-case tie-breaking
    on small instances.
    """
    cactus = brute_force_cactus(g) if adversarial else max_triangular_cactus(g, seed)
    history = [g.n]
    part = Partition(g.n)
    for u, v in cactus.edges:
        part.union(u, v)
    history.append(part.count)

    e1, squares = phase2_add_squares(g, cactus)
    for quad in squares:
        anchor = quad[0]
        for v in quad[1:]:
            part.union(anchor, v)
        history.append(part.count)

    e2 = phase3_spanning(g, e1)
    labels = connected_components(g)
    k = max(labels) + 1 if labels else 0
    history.append(k)

    phase: dict[Edge, int] = {}
    cactus_edges = set(cactus.edges)
    e1_set = set(e1)
    for e in e2:
        if e in cactus_edges:
            phase[e] = 1
        elif e in e1_set:
            phase[e] = 2
        else:
            phase[e] = 3
    return StsSolution(
        n=g.n,
        input_components=k,
        triangles=cactus.triangles,
        squares=tuple(squares),
        edges=tuple(e2),
        edge_phase=phase,
        component_history=tuple(history),
    )
