"""Outerplanarity testing, block decomposition, and outerplane embeddings.

A graph is outerplanar when it can be drawn with every vertex on the outer
face. The main test augments the graph with an apex vertex joined to all
others and checks planarity of the result, after a cheap edge-count filter
(an outerplanar component on ``k >= 2`` vertices has at most ``2k - 3``
edges). A brute-force search over circular vertex orders serves as an
independent oracle at small scale.

For a biconnected outerplanar block the boundary of the outer face is the
block's unique Hamiltonian cycle; its inner faces are recovered from the
laminar structure of the chords over that cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import networkx as nx

from .errors import ValidationError
from .graph import Edge, Graph, component_sizes, induced_subgraph


def is_outerplanar(g: Graph) -> bool:
    """True iff ``g`` has an outerplane embedding."""
    if any(size >= 2 and m > 2 * size - 3 for size, m in component_sizes(g)):
        return False
    if g.m == 0:
        return True
    apex = nx.Graph()
    apex.add_nodes_from(range(g.n + 1))
    apex.add_edges_from(g.edges)
    apex.add_edges_from((g.n, v) for v in range(g.n))
    return nx.check_planarity(apex, counterexample=False)[0]


def outerplanar_brute_force(g: Graph) -> bool:
    """Embedding-search oracle: try circular vertex orders directly.

    A circular order admits an outerplane drawing iff no two edges
    interleave around the circle. Backtracks over placements with an
    incremental crossing check; intended for small graphs (n <= 12).
    """
    n = g.n
    if n <= 3:
        return True
    pos = [-1] * n
    placed: list[int] = []
    chords: list[tuple[int, int]] = []

    def place(v: int) -> bool:
        p = len(placed)
        new_chords = []
        for w in g.neighbors(v):
            q = pos[w]
            if q < 0:
                continue
            # chord (q, p): crosses (a, b) iff a < q < b, since b < p
            for a, b in chords:
                if a < q < b:
                    return False
            new_chords.append((q, p))
        pos[v] = p
        placed.append(v)
        chords.extend(new_chords)
        rest = [u for u in range(n) if pos[u] < 0]
        if not rest:
            return True
        for u in rest:
            if place(u):
                return True
        del chords[len(chords) - len(new_chords):]
        placed.pop()
        pos[v] = -1
        return False

    return place(0)


@dataclass(frozen=True)
class Block:
    """One block: a maximal biconnected subgraph, a bridge, or a lone vertex."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    @property
    def is_bridge(self) -> bool:
        return len(self.edges) == 1

    @property
    def is_trivial(self) -> bool:
        return not self.edges


@dataclass(frozen=True)
class BlockDecomposition:
    blocks: tuple[Block, ...]
    cut_vertices: frozenset[int]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Biconnected components of ``g``, blocks ordered by their smallest edge.

    Isolated vertices appear as edgeless single-vertex blocks, ordered after
    the edge blocks by vertex index.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    edge_stack: list[Edge] = []
    raw_blocks: list[list[Edge]] = []
    cuts: set[int] = set()
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        # stack entries: (vertex, parent, iterator over neighbors)
        stack = [(root, -1, iter(g.neighbors(root)))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    edge_stack.append((min(v, w), max(v, w)))
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                if w != parent and disc[w] < disc[v]:
                    edge_stack.append((min(v, w), max(v, w)))
                    low[v] = min(low[v], disc[w])
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            u = stack[-1][0]
            low[u] = min(low[u], low[v])
            if low[v] >= disc[u]:
                if u == root:
                    root_children += 1
                    if root_children > 1:
                        cuts.add(root)
                else:
                    cuts.add(u)
                mark = (min(u, v), max(u, v))
                comp = []
                while True:
                    e = edge_stack.pop()
                    comp.append(e)
                    if e == mark:
                        break
                raw_blocks.append(comp)

    blocks = []
    for comp in raw_blocks:
        vs = sorted({v for e in comp for v in e})
        blocks.append(Block(tuple(vs), tuple(sorted(comp))))
    blocks.sort(key=lambda b: b.edges[0])
    for v in range(n):
        if not g.neighbors(v):
            blocks.append(Block((v,), ()))
    return BlockDecomposition(tuple(blocks), frozenset(cuts))


@dataclass(frozen=True)
class BlockEmbedding:
    """Outerplane embedding of one biconnected block with >= 3 vertices."""

    boundary: tuple[int, ...]
    inner_faces: tuple[tuple[int, ...], ...]

    @property
    def boundary_edges(self) -> tuple[Edge, ...]:
        cyc = self.boundary
        out = []
        for i, u in enumerate(cyc):
            v = cyc[(i + 1) % len(cyc)]
            out.append((u, v) if u < v else (v, u))
        return tuple(sorted(out))


@dataclass(frozen=True)
class OuterplaneEmbedding:
    """Blockwise embedding with inner-face counts by length.

    ``t`` counts length-3 inner faces, ``s`` length-4 faces; longer faces are
    tallied in ``face_counts``. Bridges and isolated vertices contribute no
    inner faces.
    """

    blocks: tuple[BlockEmbedding, ...]
    face_counts: dict[int, int] = field(default_factory=dict)

    @property
    def t(self) -> int:
        return self.face_counts.get(3, 0)

    @property
    def s(self) -> int:
        return self.face_counts.get(4, 0)

    def inner_faces(self) -> list[tuple[int, ...]]:
        return [f for b in self.blocks for f in b.inner_faces]


def _is_connected_after_removal(block: Graph, u: int, v: int) -> bool:
    alive = [w for w in range(block.n) if w != u and w != v]
    if len(alive) <= 1:
        return True
    seen = {alive[0]}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for y in block.neighbors(x):
            if y != u and y != v and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(alive)


def _boundary_cycle(block: Graph) -> list[int]:
    """Hamiltonian boundary cycle of a biconnected outerplanar block.

    An edge is on the outer boundary exactly when deleting its two endpoints
    leaves the block connected (deleting a chord's endpoints separates the
    two arcs it spans). The boundary edges then form the unique Hamiltonian
    cycle, walked here starting from vertex 0 toward its smaller neighbor.
    """
    boundary_adj: list[list[int]] = [[] for _ in range(block.n)]
    for u, v in block.edges:
        if _is_connected_after_removal(block, u, v):
            boundary_adj[u].append(v)
            boundary_adj[v].append(u)
    for v in range(block.n):
        if len(boundary_adj[v]) != 2:
            raise ValidationError(
                "block has no outerplane boundary cycle; graph is not outerplanar"
            )
    cycle = [0, min(boundary_adj[0])]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        a, b = boundary_adj[cur]
        nxt = b if a == prev else a
        if nxt == 0:
            break
        cycle.append(nxt)
    if len(cycle) != block.n:
        raise ValidationError(
            "boundary edges do not form a Hamiltonian cycle; graph is not outerplanar"
        )
    return cycle


def _faces_from_boundary(
    boundary: tuple[int, ...], chords: list[Edge]
) -> list[tuple[int, ...]]:
    """Inner faces of a block given its boundary order and chord set.

    Chords of an outerplane block never interleave, so as position
    intervals they form a laminar family. Each chord bounds one face
    together with the tops of its immediate sub-intervals; the closing
    boundary edge (last position, position 0) plays the same role for the
    outermost face.
    """
    pos = {v: i for i, v in enumerate(boundary)}
    intervals = []
    for u, v in chords:
        i, j = sorted((pos[u], pos[v]))
        intervals.append((i, j))
    root = (0, len(boundary) - 1)
    children: dict[tuple[int, int], list[tuple[int, int]]] = {root: []}
    stack = [root]
    for iv in sorted(intervals, key=lambda ij: (ij[0], -ij[1])):
        while not (stack[-1][0] <= iv[0] and iv[1] <= stack[-1][1]):
            stack.pop()
        children[stack[-1]].append(iv)
        children[iv] = []
        stack.append(iv)
    faces = []
    for iv in [root] + sorted(intervals):
        i, j = iv
        jump = {a: b for a, b in children[iv]}
        walk = [i]
        k = i
        while k < j:
            k = jump.get(k, k + 1)
            walk.append(k)
        faces.append(tuple(boundary[x] for x in walk))
    return faces


def outerplane_embedding(g: Graph) -> OuterplaneEmbedding:
    """Blockwise outerplane embedding of an outerplanar graph.

    Raises :class:`ValidationError` for non-outerplanar input; call
    :func:`is_outerplanar` first.
    """
    if not is_outerplanar(g):
        raise ValidationError(
            "graph is not outerplanar; test with is_outerplanar before embedding"
        )
    block_embeddings = []
    face_counts: dict[int, int] = {}
    for block in block_decomposition(g).blocks:
        if len(block.vertices) < 3:
            continue
        sub, back = induced_subgraph(g, block.vertices)
        boundary = tuple(back[v] for v in _boundary_cycle(sub))
        on_boundary = set(BlockEmbedding(boundary, ()).boundary_edges)
        chords = [e for e in block.edges if e not in on_boundary]
        faces = tuple(_faces_from_boundary(boundary, chords))
        block_embeddings.append(BlockEmbedding(boundary, faces))
        for f in faces:
            face_counts[len(f)] = face_counts.get(len(f), 0) + 1
    return OuterplaneEmbedding(tuple(block_embeddings), face_counts)


def validate_sts_structure(g: Graph) -> bool:
    """True iff every block of ``g`` is an edge, a triangle, or a 4-cycle.

    Such graphs (square-triangular structures: every cycle a triangle or a
    square) are always outerplanar.
    """
    for block in block_decomposition(g).blocks:
        nv, ne = len(block.vertices), len(block.edges)
        if nv <= 2:
            continue
        if nv == 3 and ne == 3:
            continue
        if nv == 4 and ne == 4:
            continue
        return False
    return True
