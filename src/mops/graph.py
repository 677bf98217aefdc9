"""Simple undirected graphs in canonical form, plus edge-list file I/O.

Vertices are dense integers ``0..n-1``. Edges are stored as sorted pairs in
lexicographic order, so iteration order is deterministic everywhere. Graphs
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError

Edge = tuple[int, int]

MAX_VERTICES = 10_000_000


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: vertex count, canonical edge tuple, adjacency.

    The edges are held in two forms. ``edges`` holds sorted canonical pairs
    ``u < v``, as :func:`graph_new` makes them, so the neighbour tuples come
    out sorted: x meets its ``(u, x)`` pairs in increasing u, all before its
    ``(x, w)`` pairs in increasing w. :meth:`has_edge` bisects u's tuple in
    O(log deg u); it is False for ``u == v`` and for u outside ``0..n-1``.
    """

    n: int
    edges: tuple[Edge, ...]
    _adjacency: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adjacency", tuple(map(tuple, adj)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self._adjacency[u] if 0 <= u < self.n else ()
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v


def check_vertex_count(n: int) -> None:
    """Raise :class:`ValidationError` unless ``1 <= n <= MAX_VERTICES``."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValidationError(f"graph needs 1 to {MAX_VERTICES} vertices, got n={n}")


def graph_new(n: int, edges) -> Graph:
    """Build a canonical :class:`Graph` from a vertex count and edge pairs.

    Duplicate pairs collapse silently; self-loops and out-of-range indices
    are rejected, and so is an ``n`` outside ``1..MAX_VERTICES``, before
    anything of size n is allocated.
    """
    check_vertex_count(n)
    canon: set[Edge] = set()
    for pair in edges:
        u, v = pair
        if u == v:
            raise ValidationError(f"self-loop in pair ({u}, {v})")
        if not (0 <= u < n) or not (0 <= v < n):
            raise ValidationError(f"vertex index out of range 0..{n - 1} in pair ({u}, {v})")
        canon.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(canon)))


class Partition:
    """Union-find over ``n`` vertices: path halving, no union by rank.

    The package's only union-find: no other module walks a ``parent`` list
    or writes ``parent`` or ``count``. It has four walks, each a loop of its own so
    that a batch costs one method call: :meth:`find`, :meth:`merge`,
    :meth:`merge_triples` and :meth:`roots`. A union links the root of v
    under the root of u. Callers read only ``count`` and whether two roots
    differ, never which vertex is a root. Path halving alone stays
    O(log n) amortized per operation (Tarjan and van Leeuwen, *Worst-case
    analysis of set union algorithms*, JACM 1984).

    Single-owner mutable: safe to move between threads, not to share while
    mutating.
    """

    __slots__ = ("parent", "count")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, v: int) -> int:
        parent = self.parent
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def merge(self, pairs) -> list:
        """Union along each pair ``(u, v)`` in turn; the pairs that joined two components."""
        parent = self.parent
        joined = []
        for pair in pairs:
            u, v = pair
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[v] = u
                joined.append(pair)
        self.count -= len(joined)
        return joined

    def union(self, u: int, v: int) -> bool:
        """Merge the components of u and v; True iff they were distinct."""
        return bool(self.merge(((u, v),)))

    def merge_triples(self, triples, stop: int) -> list:
        """Triples of ``triples`` kept in turn when their vertices lie in three components.

        A kept triple ``(u, v, w)`` links the v and w roots under the u root
        and takes 2 off ``count``. Drawing from ``triples`` stops once
        ``stop`` are kept, so a lazy order is drawn no further; a ``stop``
        of 0 is never reached. This is phase 1's greedy pass.
        """
        parent = self.parent
        kept = []
        for t in triples:
            u, v, w = t
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            while parent[w] != w:
                parent[w] = w = parent[parent[w]]
            if u != v and u != w and v != w:
                parent[v] = parent[w] = u
                kept.append(t)
                if len(kept) == stop:
                    break
        self.count -= 2 * len(kept)
        return kept

    def roots(self) -> list[int]:
        """Each vertex's root, in vertex order, halving paths as :meth:`find` does."""
        parent = self.parent
        out = []
        for v in range(len(parent)):
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            out.append(v)
        return out

    def copy(self) -> "Partition":
        dup = Partition.__new__(Partition)
        dup.parent = self.parent[:]
        dup.count = self.count
        return dup


def connected_components(g: Graph) -> list[int]:
    """Label vertices by component id; ids run 0..k-1 ordered by smallest member."""
    labels = [-1] * g.n
    next_id = 0
    for start in range(g.n):
        if labels[start] != -1:
            continue
        labels[start] = next_id
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if labels[w] == -1:
                    labels[w] = next_id
                    queue.append(w)
        next_id += 1
    return labels


def read_edgelist(text: str) -> Graph:
    """Parse the ``p <n> <m>`` / ``e <u> <v>`` edge-list format (1-indexed).

    Comment lines starting with ``c`` are ignored. The header must precede
    all edges and ``m`` must match the number of ``e`` lines.
    """
    n = None
    m = None
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise ParseError("duplicate header", lineno)
            if len(tokens) != 3:
                raise ParseError(f"malformed header {line!r}, expected 'p <n> <m>'", lineno)
            try:
                n, m = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"non-integer header fields in {line!r}", lineno) from None
            if n < 1 or m < 0:
                raise ParseError(f"invalid sizes n={n}, m={m}", lineno)
        elif tokens[0] == "e":
            if n is None:
                raise ParseError("edge line before header", lineno)
            if len(tokens) != 3:
                raise ParseError(f"malformed edge line {line!r}", lineno)
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise ParseError(f"non-integer endpoints in {line!r}", lineno) from None
            for idx in (u, v):
                if not (1 <= idx <= n):
                    raise ParseError(f"index {idx} > n={n}" if idx > n else f"index {idx} < 1", lineno)
            if u == v:
                raise ParseError(f"self-loop e {u} {v}", lineno)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise ParseError(f"header claims {m} edges, found {len(edges)}")
    return graph_new(n, edges)


def load_edgelist(path: str) -> Graph:
    """Read and parse the UTF-8 edge-list file at ``path`` (see :func:`read_edgelist`).

    A leading byte-order mark is dropped; offsets count from the file's start.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"not UTF-8 text ({exc.reason} at offset {exc.start})", line) from None
    return read_edgelist(text)


def write_edgelist(g: Graph) -> str:
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
