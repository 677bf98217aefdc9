"""Maximum triangular cactus via graphic matroid parity, one block at a time.

A triangular cactus is a graph whose cycles are all triangles and whose
every edge lies on a cycle. Selecting a maximum number of triangles whose
union is a cactus reduces to matroid parity in the graphic matroid: give
each triangle the pair formed by two of its edges; a set of pairs is
feasible exactly when the chosen edges form a forest.

A greedy pass, :meth:`Partition.merge_triples`, keeps a triangle when its
three vertices lie in three distinct components of the selection so far. A
cactus on ``t`` vertices has a spanning forest of at most ``t - 1`` edges
and each triangle uses two of them, so it holds at most ``(t - 1) // 2``
triangles. Let H be the union of the triangles' edges; the same bound holds
in each of its components, so a cactus holds at most the sum of
``(c - 1) // 2`` over H's components, c their vertex counts. Every triangle
lies in one block of H, and the graphic matroid of H is the direct sum of its
blocks, so a maximum cactus is the union of per-block maxima; a block on
``n_b`` vertices holds at most ``(n_b - 1) // 2`` triangles. A pass that
reaches one of these bounds is maximum there, deterministically.

Phase 1 takes one bound B for the graph, with t the number of vertices on
some triangle: ``(t - 1) // 2``, lowered to the sum over H's components,
which one union-find pass over the triangles gives, when the lexicographic
pass misses ``(t - 1) // 2`` and the triangles it keeps form two or more
classes. It returns at the first of three steps that certifies:

1. one greedy pass over all triangles in lexicographic order, at B;
2. one greedy pass over all triangles in min-degree order (Matula and Beck,
   *Smallest-last ordering and clustering and graph coloring algorithms*,
   JACM 1983), at B;
3. per block of H: the block's share of the lexicographic pass, then
   greedy in a few shuffled orders, each at ``(n_b - 1) // 2``. Only a block
   none of these certifies goes to the algebra, relabelled to its own
   ``n_b`` coordinates.

The lexicographic pass runs at ``(t - 1) // 2`` before B is known; no
cactus holds more than B triangles, so it keeps what a pass at B would.
The sum is taken only where it can be lower. Each of the k triangles the
pass keeps joins three classes of the selection into one, so the vertices
they cover fall into that many minus 2k classes. Each class lies in one
component of H, and the first triangle of each component is always kept,
since no earlier triangle touches its vertices: there are at least as many
classes as components. So one class means H is connected, and the sum is
then ``(t - 1) // 2``.

Step 1 works on g's vertices. Steps 2 and 3 work on the t triangle
vertices, relabelled once in increasing order, and their result is mapped
back once; when those vertices are ``0..t - 1`` already, the relabelling
is the identity and is skipped. The relabelling is monotone: triples stay
sorted, the lexicographic order and the min-degree order's smallest-vertex
tie-break are kept, and so are H's blocks, their order and their ``n_b``
coordinates. Step 2 sets up the elimination in O(T + t) for T triangles,
and each deletion costs O(log t) per triangle it emits. The order is drawn
lazily: greedy stops at the bound, and the elimination stops with it, so
step 2 costs O(T log t) only when it fails. Building and decomposing H in
step 3 costs O(T), however many vertices lie on no triangle.

A block's share of a whole-graph pass, in any order, is what greedy makes of
the block's restriction of that order. A simple path in H between two
vertices of one block stays in that block, so the selection so far joins
two vertices of the block exactly when its triangles in that block join
them. So step 3 reuses the lexicographic pass instead of running it again.

The block bounds of a component sum to at most ``(c - 1) // 2``, since the
blocks' ``n_b - 1`` sum to ``c - 1``, and those of the graph to at most B.
So step 1 forces every block's lexicographic share to its bound, where
step 3 stops too: steps 1 and 3 choose the same triangles. Step 2 can keep
other triangles than step 3 would; both keep the maximum.

The algebra works over one field, GF(p) with the Mersenne prime
p = 2^31 - 1, in int64: a product of two residues plus a residue stays
below 2^63. Pair vectors (b_i, c_i) are combined into the skew-symmetric
matrix ``Y = sum_i x_i (b_i c_i^T - c_i b_i^T)`` with each ``x_i`` drawn
uniformly from the p - 1 nonzero residues. Let nu be the block's parity
maximum. Then rank Y <= 2 nu for every draw (Lovasz 1980), and equality
fails only when the Pfaffian of one fixed 2 nu x 2 nu principal minor
vanishes. That Pfaffian is a nonzero polynomial of degree nu in the
``x_i``, so by Schwartz-Zippel ``P[rank Y < 2 nu] <= nu / (p - 1)``. With
nu <= (n_b - 1) / 2 this is below ``n_b / 2^32``, and below ``1 / (4 n_b)``
on every block ``build_parity_instance`` accepts: at most 32 767 vertices,
so that ``p > 2 n_b^2``. This failure goes undetected: a low rank yields a
smaller witness, which is still a forest and passes ``pairs_form_forest``.
A witness of ``rank(Y) / 2`` pairs follows by discarding pairs whose removal
keeps the rank, and is verified with a union-find forest check; a failed
check triggers a retry with fresh randomness.

The witness is found by inverse updates (Cheung, Lau and Leung, *Algebraic
algorithms for linear matroid parity problems*, ACM TALG 2014). One
elimination of Y gives its rank and pivot columns S; Y[S, S] is
nonsingular because Y is skew-symmetric, and its inverse N is taken once.
The scan then works on the pair vectors projected onto the coordinates S.
Projection can only lose independence, and Y[S, S], the matrix of the
projected instance, has the rank of Y. So that instance has the same
maximum, and each of its parity bases is one of the original. On Y[S, S]
removing pair i keeps it nonsingular exactly when ``1 + x_i mu_i`` is
nonzero, where ``mu_i = b_i^T N c_i`` is read from three entries of N. So
each test is exact and costs O(1), and each removal is a rank-2 (Woodbury)
update of N costing O(|S|^2). The decisions are those of the reference
loop ``_witness_by_rank``, which eliminates Y[S, S] once per pair.

The kernels come in two copies that keep the same pairs, since both compute
exactly: pure Python in ``mops._gfp_pure``, and numpy in ``mops._gfp``.
Their work is bounded by the instance's size. With T pairs on n vertices,
the rank k of Y is at most n, and at most 2T since each pair adds a term
of rank 2. So finding S costs at most k n^2 row-entry operations, the pure
in-place inverse of Y[S, S] about k^3 and the scan at most T k^2: each at
most ``2 T n^2``. The pure kernels run while that bound is at most
``_PURE_MAX_WORK``, the top of the last bucket, 2048 wide, in which their
median time on uncertified blocks of random graphs stays within 1.5 times
numpy's warm time; numpy's fixed cost per array operation is what they
save. Above the cut numpy runs, and the first instance there imports it,
which costs its import time and 12-13 MiB of memory. So ``import
mops`` does not load numpy, nor does a graph whose uncertified blocks all
stay under the cut, as every block of at most 8 vertices does: K8's
instance, the largest, has bound 7 168.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import ClassVar

from .errors import RandomizationError, SizeLimitError, ValidationError
from .graph import Edge, Graph, Partition
from .outerplanar import block_decomposition

Triangle = tuple[int, int, int]

_ATTEMPTS = 5
_PRIME = 2**31 - 1  # a Mersenne prime; p (p + 1) < 2^63 keeps the int64 kernels exact
_MAX_VERTICES = 32_767  # the largest n with 2 n^2 < _PRIME
_PURE_MAX_WORK = 12_288  # pure-Python kernels while 2 T n^2 is at most this: the measured cut
_SHUFFLES = 8


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All triangles of ``g`` as sorted vertex triples, lexicographic order.

    Forward listing (Chiba and Nishizeki, *Arboricity and subgraph listing
    algorithms*, SIAM J. Comput. 1985): each triangle u < v < w is found
    once, from its lowest edge (u, v). With ``hi[x]`` the sorted neighbours
    above x, its apexes w > v are the common entries of u's list after v
    and ``hi[v]``; the shorter of the two is filtered against the other's
    set, so an edge costs O(min(deg u, deg v)). Edges come in lexicographic
    order and both lists are sorted, so the output needs no sort.
    """
    hi = []
    for u in range(g.n):
        nbrs = g.neighbors(u)
        hi.append(nbrs[bisect_right(nbrs, u):])
    hi_set = [set(h) if h else None for h in hi]  # read only for a vertex with a higher neighbour
    out: list[Triangle] = []
    append = out.append
    for u, hu in enumerate(hi):
        k = len(hu)
        if k < 2:
            continue
        su = hi_set[u]
        i = 0  # u's list after v is hu[i:]
        for v in hu:
            i += 1
            hv = hi[v]
            if not hv:
                continue
            if k - i <= len(hv):
                sv = hi_set[v]
                for w in hu[i:]:
                    if w in sv:
                        append((u, v, w))
            else:
                for w in hv:
                    if w in su:
                        append((u, v, w))
    return tuple(out)


@dataclass(frozen=True)
class ParityInstance:
    """One element pair per triangle, as edge vectors over GF(p), p = 2^31 - 1.

    The pair of triangle ``(u, v, w)`` (sorted) holds the vectors of edges
    ``(u, v)`` and ``(v, w)``; the third edge is implied when the cactus is
    materialized. Edge ``(a, b)`` maps to the vector ``chi_a - chi_b``.
    """

    n: int
    triangles: tuple[Triangle, ...]
    p: ClassVar[int] = _PRIME

    def pair_edges(self, i: int) -> tuple[Edge, Edge]:
        u, v, w = self.triangles[i]
        return (u, v), (v, w)


def build_parity_instance(g: Graph, triangles) -> ParityInstance:
    """The matroid parity instance of ``triangles``, sorted triangles of ``g``.

    The field is fixed to GF(p), p = 2^31 - 1 (``ParityInstance.p``). The
    graph may have at most 32 767 vertices, the largest n with 2 n^2 < p,
    which bounds the algebra's chance of a low rank (module docstring).
    Raises :class:`ValidationError` when ``g`` has more vertices, or when a
    triple is not sorted or is not a triangle of ``g``.
    """
    ts = tuple(triangles)
    if g.n > _MAX_VERTICES:
        raise ValidationError(f"{g.n} vertices exceed the bound {_MAX_VERTICES} for GF(2^31 - 1)")
    for t in ts:
        u, v, w = t
        if not (u < v < w):
            raise ValidationError(f"triangle {t} is not a sorted triple")
        if not (g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)):
            raise ValidationError(f"triple {t} is not a triangle of the graph")
    return ParityInstance(g.n, ts)


def pairs_form_forest(inst: ParityInstance, indices) -> bool:
    """Deterministic feasibility check: chosen pair edges must be a forest."""
    pairs = [edge for i in indices for edge in inst.pair_edges(i)]
    return len(Partition(inst.n).merge(pairs)) == len(pairs)


def matroid_parity_max(inst: ParityInstance, seed: int) -> list[int]:
    """Indices of a maximum set of jointly independent pairs.

    Each attempt draws ``x_i``, assembles Y once, and takes its rank and
    pivot columns S from one forward elimination and ``Y[S, S]^-1`` from a
    second. Pairs are then tried last to first on Y[S, S]: a test costs O(1)
    and a removal a rank-2 update costing O(|S|^2), with no further
    elimination. An instance of T pairs on n vertices whose work bound
    ``2 T n^2`` is at most ``_PURE_MAX_WORK`` runs these steps in pure
    Python (``mops._gfp_pure``), where numpy's fixed cost per array
    operation would outweigh the arithmetic; a larger one runs them in
    numpy (``mops._gfp``), which the first such instance imports. Both keep
    the same pairs from the same draws. Deterministic given ``seed``. A
    rank below 2 nu is not detected (see the module docstring). Raises
    :class:`RandomizationError` when the witness check fails in every
    attempt: a scan ending with ``|S| / 2`` pairs keeps Y[S, S]
    nonsingular, so they form a forest, and only a draw that cancels a
    removal test (the scan then keeps too many) or a bug fails it.
    """
    m = len(inst.triangles)
    if m == 0:
        return []
    if 2 * m * inst.n**2 <= _PURE_MAX_WORK:
        from . import _gfp_pure as kernels
    else:
        from . import _gfp as kernels  # numpy loads here, for the first instance above the cut
    seeds_tried: list[int] = []
    for attempt in range(_ATTEMPTS):
        derived = seed * 1_000_003 + attempt
        seeds_tried.append(derived)
        rng = random.Random(derived)
        xs = [rng.randrange(1, inst.p) for _ in range(m)]
        y = kernels._assemble(inst, xs, range(m))
        pivots = kernels._pivots(y)
        if len(pivots) % 2 != 0:
            continue  # over GF(p), p odd, skew Y is alternating and has even rank: a hit is a bug
        active = kernels._witness_by_inverse(inst, xs, y, pivots)
        if len(active) == len(pivots) // 2 and pairs_form_forest(inst, active):
            return sorted(active)
    raise RandomizationError(
        f"parity witness failed verification {_ATTEMPTS} times", seeds_tried
    )


@dataclass(frozen=True)
class TriangularCactus:
    """A set of triangles whose union is a triangular cactus, plus that union."""

    triangles: tuple[Triangle, ...]
    edges: tuple[Edge, ...]

    @property
    def r(self) -> int:
        return len(self.triangles)


def _materialize(triangles) -> TriangularCactus:
    ts = tuple(sorted(triangles))
    edges = set()
    for u, v, w in ts:
        edges.update([(u, v), (v, w), (u, w)])
    return TriangularCactus(ts, tuple(sorted(edges)))


def _component_bound(triangles, vertices: set[int], n: int) -> int:
    """The sum of ``(c - 1) // 2`` over the components of H, c their vertex counts.

    H is the union of the triangles' edges and ``vertices`` its vertex set,
    the vertices on some triangle; a cactus inside a component of c
    vertices holds at most ``(c - 1) // 2`` triangles.
    """
    part = Partition(n)
    part.merge(pair for u, v, w in triangles for pair in ((u, v), (u, w)))
    sizes = Counter(part.find(x) for x in vertices)
    return sum((c - 1) // 2 for c in sizes.values())


def _min_degree_order(triangles: Sequence[Triangle], n: int) -> Iterator[Triangle]:
    """Repeatedly delete a vertex with the fewest live triangles, yielding those.

    Among vertices with equally few, the smallest goes first; this
    tie-break is the function's only contract. A deleted vertex's live
    triangles are yielded in list order. On a maximal outerplanar block
    this is an ear order. The order is a generator, so a caller that stops
    drawing stops the elimination too; drain it into a list to use it twice.

    A vertex's key is ``live * n + v``, one int that orders as the pair
    ``(live, v)``, held in ``key`` and in the heap. A deletion pushes each
    vertex it touched once, after all of that vertex's decrements; a popped
    key that differs from ``key[v]`` is stale, and a deleted vertex has
    key -1.
    """
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(triangles):
        for v in t:
            incident[v].append(i)
    key = [len(ts) * n + v for v, ts in enumerate(incident)]
    heap = key[:]
    heapify(heap)
    emitted = [False] * len(triangles)
    while heap:
        k = heappop(heap)
        v = k % n
        if key[v] != k:
            continue  # stale
        key[v] = -1
        touched = set()
        for i in incident[v]:
            if emitted[i]:
                continue
            emitted[i] = True
            t = triangles[i]
            yield t
            a, b, c = t
            if a == v:
                a = c
            elif b == v:
                b = c
            # a and b are now the two vertices of t other than v
            key[a] -= n
            key[b] -= n
            touched.add(a)
            touched.add(b)
        for x in touched:
            heappush(heap, key[x])


def _per_block_cactus(
    t: int, triangles: Sequence[Triangle], lexicographic: list[Triangle], seed: int
) -> list[Triangle]:
    """A maximum cactus among ``triangles``, put together from the blocks of H.

    The triangles lie on the vertices ``0..t - 1``, and ``lexicographic`` is
    the full greedy pass over them in that order. H is the union of the
    triangles' edges, on those t vertices, so building and decomposing it
    costs O(T) for T triangles. Each edge of H lies on a triangle, which
    lies in one block, so every block of H gets at least one triangle. A
    block keeps its share of ``lexicographic`` when that share reaches the
    bound ``(n_b - 1) // 2``, which certifies it; failing that, greedy runs
    in up to ``_SHUFFLES`` orders drawn from ``seed`` and the block's index
    until one reaches the bound. Failing that too, the algebra runs on the
    block alone. The shuffles and the algebra work on the block relabelled
    to ``0..n_b - 1``.
    """
    h_edges: set[Edge] = set()
    for u, v, w in triangles:
        h_edges.update(((u, v), (v, w), (u, w)))
    blocks = block_decomposition(Graph(t, tuple(sorted(h_edges)))).blocks
    block_of = {e: b for b, block in enumerate(blocks) for e in block.edges}

    def by_block(ts) -> list[list[Triangle]]:
        out: list[list[Triangle]] = [[] for _ in blocks]
        for tri in ts:
            out[block_of[tri[:2]]].append(tri)
        return out

    members, shares = by_block(triangles), by_block(lexicographic)
    chosen: list[Triangle] = []
    for index, block in enumerate(blocks):
        n = len(block.vertices)
        bound = (n - 1) // 2
        if len(shares[index]) == bound:
            chosen += shares[index]
            continue
        local = {v: i for i, v in enumerate(block.vertices)}
        # block.vertices is sorted, so the relabelling keeps triples sorted and in order
        ts = [(local[u], local[v], local[w]) for u, v, w in members[index]]
        rng = random.Random(f"cactus/{seed}/{index}")
        for _ in range(_SHUFFLES):
            order = ts[:]
            rng.shuffle(order)
            kept = Partition(n).merge_triples(order, bound)
            if len(kept) == bound:
                break
        else:
            inst = build_parity_instance(block.local_graph(), ts)
            kept = [ts[i] for i in matroid_parity_max(inst, seed)]
        chosen += [tuple(block.vertices[x] for x in tri) for tri in kept]
    return chosen


def max_triangular_cactus(g: Graph, seed: int = 0) -> TriangularCactus:
    """A triangular cactus of ``g`` with the maximum number of triangles.

    With t the number of vertices on some triangle and H the union of the
    triangles' edges, the bound B is ``(t - 1) // 2``, lowered to the sum of
    ``(c - 1) // 2`` over H's components, c their vertex counts, when the
    lexicographic pass misses ``(t - 1) // 2`` and keeps triangles in two or
    more classes. The first of three steps that certifies wins: (1) one
    lexicographic greedy pass over all triangles, if it keeps B; (2) one
    greedy pass in min-degree order, if it keeps B; (3) per block of H, the
    block's share of the lexicographic pass, then greedy in shuffled
    orders, each at ``(n_b - 1) // 2``, and the algebra
    (``matroid_parity_max``, over GF(2^31 - 1), n_b <= 32 767) on the
    blocks left, each in its own coordinates. Steps 2 and 3 run on the
    triangle vertices relabelled ``0..t - 1``. Steps 1 and 3 choose the same
    triangles whenever step 1 certifies; step 2 can keep other triangles
    than step 3 would; both keep the maximum. Deterministic given ``seed``.
    """
    triangles = enumerate_triangles(g)
    if not triangles:
        return TriangularCactus((), ())
    vertices = {v for t in triangles for v in t}
    t = len(vertices)
    bound = (t - 1) // 2
    kept = Partition(g.n).merge_triples(triangles, bound)
    # k kept triangles leave their vertices in that many minus 2k classes; one means H is connected
    if len(kept) < bound and len({v for tri in kept for v in tri}) - 2 * len(kept) > 1:
        bound = _component_bound(triangles, vertices, g.n)
    if len(kept) == bound:
        return _materialize(kept)
    identity = max(vertices) == t - 1  # the triangle vertices are 0..t - 1 already
    if identity:
        ts, lexicographic = triangles, kept
    else:
        # monotone: triples stay sorted and in order, and the min-degree tie-break holds
        labels = sorted(vertices)
        local = {v: i for i, v in enumerate(labels)}
        ts = [(local[u], local[v], local[w]) for u, v, w in triangles]
        lexicographic = [(local[u], local[v], local[w]) for u, v, w in kept]
    chosen = Partition(t).merge_triples(_min_degree_order(ts, t), bound)
    if len(chosen) < bound:
        chosen = _per_block_cactus(t, ts, lexicographic, seed)
    if identity:
        return _materialize(chosen)
    return _materialize((labels[u], labels[v], labels[w]) for u, v, w in chosen)


_BRUTE_TRIANGLE_LIMIT = 25
_BRUTE_VERTEX_LIMIT = 12


def brute_force_cactus(g: Graph) -> TriangularCactus:
    """Exhaustive maximum triangular cactus; oracle for the parity route.

    Backtracks over triangles in lexicographic order, keeping a triangle
    only when its three vertices lie in pairwise distinct components of the
    selection so far (the order-free criterion for the cactus property).
    Bounded to small instances.
    """
    triangles = enumerate_triangles(g)
    if len(triangles) > _BRUTE_TRIANGLE_LIMIT and g.n > _BRUTE_VERTEX_LIMIT:
        raise SizeLimitError(
            f"{len(triangles)} triangles on {g.n} vertices exceeds the "
            f"enumeration bound ({_BRUTE_TRIANGLE_LIMIT} triangles or "
            f"{_BRUTE_VERTEX_LIMIT} vertices)"
        )
    total = len(triangles)
    best: list[Triangle] = []

    def search(idx: int, part: Partition, chosen: list[Triangle]) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = chosen[:]
        if idx == total:
            return
        cap = min(total - idx, (part.count - 1) // 2)
        if len(chosen) + cap <= len(best):
            return
        u, v, w = triangles[idx]
        ru, rv, rw = part.find(u), part.find(v), part.find(w)
        if ru != rv and ru != rw and rv != rw:
            inner = part.copy()
            inner.merge(((u, v), (v, w)))
            chosen.append(triangles[idx])
            search(idx + 1, inner, chosen)
            chosen.pop()
        search(idx + 1, part, chosen)

    search(0, Partition(g.n), [])
    return _materialize(best)
