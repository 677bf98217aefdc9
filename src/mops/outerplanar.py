"""Outerplanarity testing, block decomposition, and outerplane embeddings.

A graph is outerplanar when it can be drawn with every vertex on the outer
face, that is, when each of its blocks can. A block on ``k >= 4`` vertices
must have at most ``2k - 3`` edges and pass the degree-2 reduction
(Mitchell, *Linear algorithms to recognize outerplanar and maximal
outerplanar graphs*, IPL 1979): repeatedly remove a degree-2 vertex v with
neighbours a, b, adding the edge ab if absent. The triangles (a, v, b) so
formed triangulate an outerplane supergraph exactly when the reduction
never stalls and no edge lies in more than two of them. This costs O(n + m)
per graph. The edges in exactly one triangle are the block's boundary, its
unique Hamiltonian cycle; the inner faces follow by collapsing the chords
over that cycle, shortest first. A brute-force search over circular vertex
orders serves as an independent oracle at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .graph import Edge, Graph


def _reduce_block(block: Block) -> list[Edge] | None:
    """Boundary edges of a block with at least 3 vertices, or None.

    None means not outerplanar: the reduction stalls with no degree-2
    vertex, or an edge lies in more than two of its triangles.
    """
    adj: dict[int, set[int]] = {v: set() for v in block.vertices}
    for u, v in block.edges:
        adj[u].add(v)
        adj[v].add(u)
    triangles = dict.fromkeys(block.edges, 0)
    ready = [v for v in block.vertices if len(adj[v]) == 2]
    while len(adj) > 2:
        if not ready:
            return None
        v = ready.pop()
        a, b = sorted(adj.pop(v))
        adj[a].discard(v)
        adj[b].discard(v)
        for e in ((min(a, v), max(a, v)), (min(b, v), max(b, v)), (a, b)):
            triangles[e] = triangles.get(e, 0) + 1
            if triangles[e] > 2:
                return None
        # degrees never rise, and stay >= 2 until the last triangle because
        # the reduction keeps the block biconnected: no vertex is queued twice
        if b in adj[a]:
            ready.extend(x for x in (a, b) if len(adj[x]) == 2)
        else:
            adj[a].add(b)
            adj[b].add(a)
    return [e for e, count in triangles.items() if count == 1]


def is_outerplanar(g: Graph) -> bool:
    """True iff ``g`` has an outerplane embedding.

    Each block on ``k >= 4`` vertices needs at most ``2k - 3`` edges and a
    degree-2 reduction that neither stalls nor puts an edge in three
    triangles. One block decomposition and one reduction per block: O(n + m).
    """
    for block in block_decomposition(g).blocks:
        k = len(block.vertices)
        if k >= 4 and (len(block.edges) > 2 * k - 3 or _reduce_block(block) is None):
            return False
    return True


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


def _faces_from_boundary(
    boundary: tuple[int, ...], chords: list[Edge]
) -> list[tuple[int, ...]]:
    """Inner faces of a block given its boundary order and chord set.

    Chords of an outerplane block never interleave, so a chord nested inside
    another spans fewer boundary positions. Collapsing the chords shortest
    first, each chord's face is the walk from i to j over ``nxt``, which
    already skips the chords collapsed inside it; then ``nxt[i] = j``. The
    closing boundary edge (last position, position 0) closes the outermost
    face. Faces are listed outermost first, then by chord position.
    """
    pos = {v: i for i, v in enumerate(boundary)}
    intervals = sorted(tuple(sorted((pos[u], pos[v]))) for u, v in chords)
    root = (0, len(boundary) - 1)
    nxt = list(range(1, len(boundary) + 1))
    faces = {}
    for i, j in sorted(intervals, key=lambda ij: ij[1] - ij[0]) + [root]:
        walk = [i]
        while walk[-1] < j:
            walk.append(nxt[walk[-1]])
        nxt[i] = j
        faces[i, j] = tuple(boundary[x] for x in walk)
    return [faces[iv] for iv in [root] + intervals]


def outerplane_embedding(g: Graph) -> OuterplaneEmbedding:
    """Blockwise outerplane embedding of an outerplanar graph.

    Each block's boundary cycle is walked from its smallest vertex toward
    the smaller of that vertex's boundary neighbours. Raises
    :class:`ValidationError` for non-outerplanar input; call
    :func:`is_outerplanar` first.
    """
    block_embeddings = []
    face_counts: dict[int, int] = {}
    for block in block_decomposition(g).blocks:
        if len(block.vertices) < 3:
            continue
        boundary_edges = _reduce_block(block)
        if boundary_edges is None:
            raise ValidationError(
                "graph is not outerplanar; test with is_outerplanar before embedding"
            )
        boundary_adj: dict[int, list[int]] = {v: [] for v in block.vertices}
        for u, v in boundary_edges:
            boundary_adj[u].append(v)
            boundary_adj[v].append(u)
        start = block.vertices[0]
        cycle = [start, min(boundary_adj[start])]
        while len(cycle) < len(block.vertices):
            a, b = boundary_adj[cycle[-1]]
            cycle.append(b if a == cycle[-2] else a)
        boundary = tuple(cycle)
        on_boundary = set(boundary_edges)
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
