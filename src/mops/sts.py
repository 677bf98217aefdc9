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
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations

from .cactus import Triangle, brute_force_cactus, max_triangular_cactus
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


def _check_partition(g: Graph, part: Partition) -> None:
    if len(part.parent) != g.n:
        raise ValidationError(
            f"partition has {len(part.parent)} vertices but the graph has {g.n}"
        )


def _candidate_quads(g: Graph, part: Partition) -> Iterator[tuple[Square, list[Edge]]]:
    """The induced 4-cycles of ``g`` spanning four components, with their edges.

    An induced 4-cycle with smallest vertex ``s`` is ``s-x-y-z`` with
    non-adjacent diagonals ``{s, y}`` and ``{x, z}``. So, for each ``s`` in
    turn, grouping the paths ``s-x-y`` with ``x, y > s`` by their end ``y``
    and pairing the middles of each group lists each such 4-cycle once.
    Edges inside a component of ``part`` are skipped, as are ends and middle
    pairs that are adjacent or share a component, so every candidate spans
    four components of ``part`` as it stands when the listing starts. Each
    comes as its sorted 4-subset and its four edges, sorted: with ``x < z``
    they are ``s-x``, ``s-z``, then ``x-y`` before ``y-z``. The candidates
    of one ``s`` are sorted, when there are two or more, and yielded before
    the next ``s`` is looked at, so the sequence is lexicographic and only
    one vertex's candidates are held at a time.

    Call an edge across when it joins two components of ``part``. Each
    vertex of a candidate has two across-neighbours on it, so the candidate
    lies in the 2-core of the across graph, which peeling vertices with
    fewer than two across-neighbours finds in O(n + m) (Batagelj and
    Zaversnik, 2003). Wedges start only at an ``s`` with two or more higher
    neighbours in that core and run inside it. An ``s-y`` edge would be
    across, so that diagonal is looked up in a set of the across-neighbours
    of ``s``; the ``x-z`` one asks :meth:`Graph.has_edge`. The work is
    O(n + m) plus the wedges inside the core, at most the sum of squared
    core degrees, plus the number of candidates, rather than C(n, 4); an
    across forest costs O(n + m). It stays quadratic where the core has a
    hub of high index: a fan of 5-cycles ``H-a-m-m'-b-H`` with ``H`` last
    has every vertex in the core and no square, yet each ``a`` walks all of
    ``H``'s neighbours.
    """
    root = part.roots()
    across = [[u for u in g.neighbors(v) if root[u] != r] for v, r in enumerate(root)]
    # peel the across graph to its 2-core: afterwards degree[v] >= 2 marks the core
    degree = list(map(len, across))
    low = [v for v, d in enumerate(degree) if d < 2]
    for v in low:
        for u in across[v]:
            degree[u] -= 1
            if degree[u] == 1:
                low.append(u)
    for s, r in enumerate(root):
        if degree[s] < 2:
            continue
        higher = [x for x in across[s] if x > s and degree[x] > 1]
        if len(higher) < 2:
            continue
        near = set(across[s])
        ends: dict[int, list[int]] = {}
        for x in higher:
            for y in across[x]:
                if y > s and degree[y] > 1 and root[y] != r and y not in near:
                    if y in ends:
                        ends[y].append(x)
                    else:
                        ends[y] = [x]
        # mids follow the sorted adjacency, so x < z in each pair
        found = [
            (
                (s, *sorted((x, y, z))),
                [(s, x), (s, z), (x, y) if x < y else (y, x), (y, z) if y < z else (z, y)],
            )
            for y, mids in ends.items()
            if len(mids) > 1
            for x, z in combinations(mids, 2)
            if root[x] != root[z] and not g.has_edge(x, z)
        ]
        if len(found) > 1:
            found.sort()
        yield from found


def phase2_add_squares(g: Graph, part: Partition) -> list[tuple[Square, list[Edge]]]:
    """Add component-spanning squares to the selection ``part`` until none fit.

    One pass in lexicographic order over the candidates of
    :func:`_candidate_quads`, listed from wedges inside the 2-core of the
    edges across components, against the components before any square is
    added; where those edges form a forest the listing is O(n + m). Each
    candidate is already an induced 4-cycle that spanned four components
    then; components only merge, so spanning four is the one condition that
    can fail later, and the only one re-checked. A candidate that passes is
    added and its components merged in ``part``. This equals rescanning all
    4-subsets from the start after every addition: a 4-subset rejected once,
    or left out of the candidates, stays rejected. For the same reason the
    pass stops, or never lists candidates, once fewer than four components
    remain. Returns each added square with its four edges, in the order
    added.
    """
    _check_partition(g, part)
    added = []
    if part.count < 4:
        return added
    for quad, quad_edges in _candidate_quads(g, part):
        if len({part.find(v) for v in quad}) < 4:
            continue
        added.append((quad, quad_edges))
        part.merge(quad_edges)
        if part.count < 4:
            break
    return added


def phase3_spanning(g: Graph, part: Partition) -> list[Edge]:
    """Merge components of ``part`` along edges of ``g`` in lexicographic order.

    Returns the edges that joined two components.
    """
    _check_partition(g, part)
    return part.merge(g.edges)


def run_sts(g: Graph, seed: int = 0, adversarial: bool = False) -> StsSolution:
    """Run the three phases end to end on one growing selection.

    ``adversarial`` swaps the randomized cactus solver for the deterministic
    lexicographic-first exhaustive one, reproducing worst-case tie-breaking
    on small instances.
    """
    cactus = brute_force_cactus(g) if adversarial else max_triangular_cactus(g, seed)
    part = Partition(g.n)
    part.merge_triples(cactus.triangles, 0)  # a cactus keeps every triangle: 2 unions each
    phase = dict.fromkeys(cactus.edges, 1)
    after_cactus = part.count

    added = phase2_add_squares(g, part)
    for _quad, quad_edges in added:
        phase.update(dict.fromkeys(quad_edges, 2))
    phase.update(dict.fromkeys(phase3_spanning(g, part), 3))

    labels = connected_components(g)
    # Each square spans four components, so it leaves three fewer.
    history = [g.n, *(after_cactus - 3 * i for i in range(len(added) + 1)), part.count]
    edge_phase = dict(sorted(phase.items()))
    return StsSolution(
        n=g.n,
        input_components=max(labels) + 1 if labels else 0,
        triangles=cactus.triangles,
        squares=tuple(quad for quad, _edges in added),
        edges=tuple(edge_phase),
        edge_phase=edge_phase,
        component_history=tuple(history),
    )
