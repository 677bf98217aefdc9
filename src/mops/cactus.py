"""Maximum triangular cactus via graphic matroid parity, one block at a time.

A triangular cactus is a graph whose cycles are all triangles and whose
every edge lies on a cycle. Selecting a maximum number of triangles whose
union is a cactus reduces to matroid parity in the graphic matroid: give
each triangle the pair formed by two of its edges; a set of pairs is
feasible exactly when the chosen edges form a forest.

A greedy pass keeps a triangle when its three vertices lie in three
distinct components of the selection so far. A cactus on ``t`` vertices has
a spanning forest of at most ``t - 1`` edges and each triangle uses two of
them, so it holds at most ``(t - 1) // 2`` triangles. One lexicographic
greedy pass over all triangles of the graph, with t the number of vertices
on some triangle, runs first; reaching that bound proves the whole graph
maximum, and nothing else runs.

Otherwise, let H be the union of the triangles' edges. Every triangle lies
in one block of H, and the graphic matroid of H is the direct sum of its
blocks, so a maximum cactus is the union of per-block maxima. A block on
``n_b`` vertices holds at most ``(n_b - 1) // 2`` triangles. Greedy is
tried first in a few orders; reaching that bound proves the block maximum
deterministically. Only a block no order certifies goes to the algebra,
relabelled to its own ``n_b`` coordinates.

The whole-graph pass chooses what the per-block route would. A simple path
in H between two vertices of one block stays in that block, so the
lexicographic pass makes the same decisions as the lexicographic pass of
each block on its own. And the per-block bounds sum to at most
``(t - 1) // 2``, so reaching it forces every block to its own bound, where
the per-block route stops at the lexicographic order too.

The algebra works over one field, GF(p) with the Mersenne prime
p = 2^31 - 1, in int64: a product of two residues plus a residue stays
below 2^63. Pair vectors (b_i, c_i) are combined into the skew-symmetric
matrix ``Y = sum_i x_i (b_i c_i^T - c_i b_i^T)`` with each ``x_i`` drawn
uniformly from the p - 1 nonzero residues. Let nu be the block's parity
maximum. Then rank Y <= 2 nu for every draw (Lovasz 1980), and equality
fails only when the Pfaffian of one fixed 2 nu x 2 nu principal minor
vanishes. That Pfaffian is a nonzero polynomial of degree nu in the
``x_i``, so by Schwartz-Zippel ``P[rank Y < 2 nu] <= nu / (p - 1)``. With
nu <= (n_b - 1) / 2 and ``p > 2 n_b^2`` (checked by
``build_parity_instance``) this is below ``1 / (4 n_b)``, and at
p = 2^31 - 1 below ``n_b / 2^32``. This failure goes undetected: a low
rank yields a smaller witness, which is still a forest and passes
``pairs_form_forest``. A witness of ``rank(Y) / 2`` pairs follows by
discarding pairs whose removal keeps the rank, and is verified with a
union-find forest check; a failed check triggers a retry with fresh
randomness.

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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

import numpy as np

from .errors import RandomizationError, SizeLimitError, ValidationError
from .graph import Edge, Graph, Partition
from .outerplanar import Block, block_decomposition

Triangle = tuple[int, int, int]

_ATTEMPTS = 5
_PRIME = 2**31 - 1  # a Mersenne prime; 2 n_b^2 < _PRIME admits blocks up to 32 767 vertices
_SHUFFLES = 8


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All triangles of ``g`` as sorted vertex triples, lexicographic order.

    The edges iterate in lexicographic order and each edge's apexes are
    emitted sorted, so the output needs no sort.
    """
    neighbor_sets = [set(g.neighbors(v)) for v in range(g.n)]
    out: list[Triangle] = []
    for u, v in g.edges:
        for w in sorted(neighbor_sets[u] & neighbor_sets[v]):
            if w > v:
                out.append((u, v, w))
    return tuple(out)


@dataclass(frozen=True)
class ParityInstance:
    """One element pair per triangle, as prime-field edge vectors.

    The pair of triangle ``(u, v, w)`` (sorted) holds the vectors of edges
    ``(u, v)`` and ``(v, w)``; the third edge is implied when the cactus is
    materialized. Edge ``(a, b)`` maps to the vector ``chi_a - chi_b``.
    """

    n: int
    p: int
    triangles: tuple[Triangle, ...]

    def pair_edges(self, i: int) -> tuple[Edge, Edge]:
        u, v, w = self.triangles[i]
        return (u, v), (v, w)


# The first 12 primes: Miller-Rabin to these bases is exact below
# 318665857834031151167461 (about 3.2e23), itself a strong pseudoprime to all 12.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for p < 3.18e23."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def build_parity_instance(g: Graph, triangles, p: int) -> ParityInstance:
    ts = tuple(triangles)
    if p * (p + 1) >= 2**63:
        raise ValidationError(f"p={p} exceeds the int64 bound; need p * (p + 1) < 2**63")
    if not _is_prime(p):
        raise ValidationError(f"p={p} is not prime")
    if p <= 2 * g.n * g.n:
        raise ValidationError(f"p={p} too small; need p > 2 * {g.n}^2 = {2 * g.n * g.n}")
    for t in ts:
        u, v, w = t
        if not (u < v < w):
            raise ValidationError(f"triangle {t} is not a sorted triple")
        if not (g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)):
            raise ValidationError(f"triple {t} is not a triangle of the graph")
    return ParityInstance(g.n, p, ts)


def _row_reduce(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``mat`` over GF(p), and its pivot columns."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    for col in range(cols):
        rank = len(pivots)
        nz = a[rank:, col].nonzero()[0]
        if nz.size == 0:
            continue
        piv = rank + nz[0]
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        # Columns left of ``col`` are already zero in the pivot row.
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), p - 2, p) % p
        factors = a[:, col].copy()
        factors[rank] = 0
        nz = factors.nonzero()[0]
        if nz.size:
            a[nz, col:] = (a[nz, col:] - factors[nz, None] * a[rank, col:]) % p
        pivots.append(col)
        if len(pivots) == rows:
            break
    return a, pivots


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank of ``mat`` over GF(p)."""
    return len(_row_reduce(mat, p)[1])


def _assemble(inst: ParityInstance, xs: list[int], active) -> np.ndarray:
    """``Y = sum x_i (b_i c_i^T - c_i b_i^T)`` mod p over the pairs in ``active``.

    On the triangle's own (u, v, w) coordinates, with b = chi_u - chi_v and
    c = chi_v - chi_w, that skew block is +x at (u, v), (v, w), (w, u).
    Each entry is reduced mod p as it is added.
    """
    p = inst.p
    y = np.zeros((inst.n, inst.n), dtype=np.int64)
    for i in active:
        u, v, w = inst.triangles[i]
        for a, b in ((u, v), (v, w), (w, u)):
            y[a, b] = (y[a, b] + xs[i]) % p
            y[b, a] = (y[b, a] - xs[i]) % p
    return y


def _pivot_inverse(y: np.ndarray, pivots: list[int], p: int) -> tuple[list[int], np.ndarray]:
    """The inverse of ``y[pivots, pivots]`` mod p, with each vertex's index in it.

    A vertex absent from ``pivots`` has index -1, and the inverse has a zero
    row and column appended, so that index -1 reads 0.
    """
    k = len(pivots)
    pos = [-1] * len(y)
    for at, col in enumerate(pivots):
        pos[col] = at
    block = y[np.ix_(pivots, pivots)]
    reduced, _ = _row_reduce(np.hstack([block, np.eye(k, dtype=np.int64)]), p)
    inv = np.zeros((k + 1, k + 1), dtype=np.int64)
    inv[:k, :k] = reduced[:, k:]
    return pos, inv


def _witness_by_inverse(
    inst: ParityInstance, xs: list[int], y: np.ndarray, pivots: list[int]
) -> list[int]:
    """Pairs kept by the reversed removal scan on ``Y[S, S]``, decided on its inverse N.

    ``y`` is the assembled matrix Y of all pairs and ``pivots`` its pivot
    columns S. Pair i is removed when Y[S, S] without it stays nonsingular;
    the scan stops once ``|S| / 2`` pairs remain. With U = [b_i c_i] projected
    onto S, ``Y'[S, S] = Y[S, S] - x_i U J U^T`` (J the 2x2 rotation).
    """
    p = inst.p
    target = len(pivots) // 2
    pos, inv = _pivot_inverse(y, pivots, p)
    dropped: set[int] = set()
    for i in reversed(range(len(xs))):
        if len(xs) - len(dropped) == target:
            break
        x = xs[i]
        su, sv, sw = (pos[t] for t in inst.triangles[i])
        # det Y'[S, S] = det Y[S, S] (1 + x mu)^2 with mu = b_S^T N c_S (N is skew).
        scale = (1 + x * int(inv[su, sv] - inv[su, sw] + inv[sv, sw])) % p
        if not scale:
            continue
        kappa = x * pow(scale, p - 2, p) % p
        beta = (inv[:, su] - inv[:, sv]) * kappa % p  # kappa N b_S
        gamma = (inv[:, sv] - inv[:, sw]) % p  # N c_S
        # Woodbury: N' = N + gamma (kappa beta)^T - (kappa beta) gamma^T. Before the
        # one mod every entry lies within (p - 1)^2 + p < p (p + 1) < 2^63.
        outer = np.outer(gamma, beta)
        outer -= outer.T
        outer += inv
        inv = outer % p
        dropped.add(i)
    return [j for j in range(len(xs)) if j not in dropped]


def _witness_by_rank(inst: ParityInstance, xs: list[int], pivots: list[int]) -> list[int]:
    """Reference for ``_witness_by_inverse``: one elimination of Y[S, S] per pair tried."""
    target = len(pivots) // 2
    on_s = np.ix_(pivots, pivots)
    active = list(range(len(xs)))
    for i in reversed(range(len(xs))):
        if len(active) == target:
            break
        trial = [j for j in active if j != i]
        if _rank_mod_p(_assemble(inst, xs, trial)[on_s], inst.p) == len(pivots):
            active = trial
    return active


def pairs_form_forest(inst: ParityInstance, indices) -> bool:
    """Deterministic feasibility check: chosen pair edges must be a forest."""
    part = Partition(inst.n)
    for i in indices:
        for a, b in inst.pair_edges(i):
            if not part.union(a, b):
                return False
    return True


def matroid_parity_max(inst: ParityInstance, seed: int) -> list[int]:
    """Indices of a maximum set of jointly independent pairs.

    Each attempt draws ``x_i``, assembles Y once, and takes its rank and
    pivot columns S from one elimination and ``Y[S, S]^-1`` from a second.
    Pairs are then tried last to first on Y[S, S]: a test costs O(1) and a
    removal a rank-2 update costing O(|S|^2), with no further elimination.
    Deterministic given ``seed``. A rank below 2 nu is not detected (see
    the module docstring). Raises :class:`RandomizationError` when the
    witness check fails in every attempt: a scan ending with ``|S| / 2``
    pairs keeps Y[S, S] nonsingular, so they form a forest, and only a draw
    that cancels a removal test (the scan then keeps too many) or a bug
    fails it.
    """
    m = len(inst.triangles)
    if m == 0:
        return []
    seeds_tried: list[int] = []
    for attempt in range(_ATTEMPTS):
        derived = seed * 1_000_003 + attempt
        seeds_tried.append(derived)
        rng = random.Random(derived)
        xs = [rng.randrange(1, inst.p) for _ in range(m)]
        y = _assemble(inst, xs, range(m))
        _, pivots = _row_reduce(y, inst.p)
        if len(pivots) % 2 != 0:
            continue  # rank of a skew matrix is even; a hit means numeric trouble
        active = _witness_by_inverse(inst, xs, y, pivots)
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


def _greedy(order, n: int, bound: int) -> list[Triangle]:
    """Triangles of ``order`` kept in turn when their vertices lie in three distinct components.

    Stops once ``bound`` are kept: no triangle can join after that.
    """
    part = Partition(n)
    kept: list[Triangle] = []
    for t in order:
        u, v, w = t
        ru, rv, rw = part.find(u), part.find(v), part.find(w)
        if ru != rv and ru != rw and rv != rw:
            part.union(u, v)
            part.union(v, w)
            kept.append(t)
            if len(kept) == bound:
                break
    return kept


def _min_degree_order(triangles: list[Triangle], n: int) -> list[Triangle]:
    """Repeatedly delete a vertex with the fewest live triangles, emitting those.

    On a maximal outerplanar block this is an ear order.
    """
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, t in enumerate(triangles):
        for v in t:
            incident[v].append(i)
    live = [len(ts) for ts in incident]
    heap = [(d, v) for v, d in enumerate(live)]
    heapify(heap)
    deleted = [False] * n
    emitted = [False] * len(triangles)
    order: list[Triangle] = []
    while heap:
        d, v = heappop(heap)
        if deleted[v] or d != live[v]:
            continue  # a stale entry
        deleted[v] = True
        for i in incident[v]:
            if emitted[i]:
                continue
            emitted[i] = True
            order.append(triangles[i])
            for x in triangles[i]:
                if x != v:
                    live[x] -= 1
                    heappush(heap, (live[x], x))
    return order


def _greedy_orders(triangles: list[Triangle], n: int, seed: int, index: int):
    """Lexicographic, min-degree elimination, then shuffles drawn from ``seed`` and ``index``."""
    yield triangles
    yield _min_degree_order(triangles, n)
    rng = random.Random(f"cactus/{seed}/{index}")
    for _ in range(_SHUFFLES):
        order = triangles[:]
        rng.shuffle(order)
        yield order


def _block_cactus(block: Block, triangles: list[Triangle], seed: int, index: int) -> list[Triangle]:
    """A maximum cactus among ``triangles``, all of which lie in ``block`` of H.

    Greedy in each of ``_greedy_orders`` until one reaches the bound
    ``(n_b - 1) // 2``, which certifies it. Failing that, the algebra runs on
    the block alone, relabelled to ``0..n_b - 1``.
    """
    n = len(block.vertices)
    local = {v: i for i, v in enumerate(block.vertices)}
    # block.vertices is sorted, so the relabelling keeps triples sorted and in order
    ts = [(local[u], local[v], local[w]) for u, v, w in triangles]
    bound = (n - 1) // 2
    for order in _greedy_orders(ts, n, seed, index):
        kept = _greedy(order, n, bound)
        if len(kept) == bound:
            break
    else:
        inst = build_parity_instance(block.local_graph(), ts, _PRIME)
        kept = [ts[i] for i in matroid_parity_max(inst, seed)]
    return [tuple(block.vertices[x] for x in t) for t in kept]


def _per_block_cactus(g: Graph, triangles: tuple[Triangle, ...], seed: int) -> list[Triangle]:
    """A maximum cactus among ``triangles``, put together from the blocks of H.

    H is the union of the triangles' edges; it is built from ``g.edges``,
    which are already canonical and sorted.
    """
    h_edges: set[Edge] = set()
    for u, v, w in triangles:
        h_edges.update(((u, v), (v, w), (u, w)))
    blocks = block_decomposition(Graph(g.n, tuple(e for e in g.edges if e in h_edges))).blocks
    block_of = {e: b for b, block in enumerate(blocks) for e in block.edges}
    members: list[list[Triangle]] = [[] for _ in blocks]
    for t in triangles:
        members[block_of[t[:2]]].append(t)
    chosen: list[Triangle] = []
    for index, (block, ts) in enumerate(zip(blocks, members)):
        if ts:
            chosen += _block_cactus(block, ts, seed, index)
    return chosen


def max_triangular_cactus(g: Graph, seed: int = 0) -> TriangularCactus:
    """A triangular cactus of ``g`` with the maximum number of triangles.

    First one lexicographic greedy pass over all triangles: if it keeps
    ``(t - 1) // 2`` of them, t the number of vertices on some triangle, it
    is maximum and is returned without building H. Otherwise the work goes
    per block of H, the union of the triangles' edges: greedy first, and a
    block it reaches ``(n_b - 1) // 2`` on is certified maximum; the algebra
    (``matroid_parity_max``) runs only on the other blocks, each in its own
    coordinates and over GF(2^31 - 1); it accepts blocks with n_b <= 32 767
    (2 n_b^2 < 2^31 - 1). Both routes choose the same triangles whenever
    the first pass certifies. Deterministic given ``seed``.
    """
    triangles = enumerate_triangles(g)
    if not triangles:
        return TriangularCactus((), ())
    bound = (len({v for t in triangles for v in t}) - 1) // 2
    kept = _greedy(triangles, g.n, bound)
    if len(kept) == bound:
        return _materialize(kept)
    return _materialize(_per_block_cactus(g, triangles, seed))


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
            inner.union(u, v)
            inner.union(v, w)
            chosen.append(triangles[idx])
            search(idx + 1, inner, chosen)
            chosen.pop()
        search(idx + 1, part, chosen)

    search(0, Partition(g.n), [])
    return _materialize(best)
