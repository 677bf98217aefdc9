"""Maximum triangular cactus via graphic matroid parity.

A triangular cactus is a graph whose cycles are all triangles and whose
every edge lies on a cycle. Selecting a maximum number of triangles whose
union is a cactus reduces to matroid parity in the graphic matroid: give
each triangle the pair formed by two of its edges; a set of pairs is
feasible exactly when the chosen edges form a forest.

The solver is algebraic: over a prime field, pair vectors (b_i, c_i) are
combined into the skew-symmetric matrix ``Y = sum_i x_i (b_i c_i^T -
c_i b_i^T)`` with independent random ``x_i``. With probability at least
``1 - pairs * n / p`` the maximum number of selectable pairs equals
``rank(Y) / 2``; a witness follows by discarding pairs whose removal keeps
the rank, and is then verified deterministically with a union-find forest
check. Verification failure triggers a retry with fresh randomness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .errors import RandomizationError, SizeLimitError, ValidationError
from .graph import Edge, Graph, Partition

Triangle = tuple[int, int, int]

# Skew pattern of one pair's contribution to Y, on the triangle's own
# (u, v, w) coordinates: b = chi_u - chi_v, c = chi_v - chi_w.
_PAIR_BLOCK = np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=np.int64)

_DEFAULT_RETRIES = 5
_MIN_PRIME_FLOOR = 10**6


def enumerate_triangles(g: Graph) -> tuple[Triangle, ...]:
    """All triangles of ``g`` as sorted vertex triples, lexicographic order."""
    neighbor_sets = [set(g.neighbors(v)) for v in range(g.n)]
    out: list[Triangle] = []
    for u, v in g.edges:
        for w in sorted(neighbor_sets[u] & neighbor_sets[v]):
            if w > v:
                out.append((u, v, w))
    return tuple(sorted(out))


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

    def element_vector(self, i: int, slot: int) -> np.ndarray:
        a, b = self.pair_edges(i)[slot]
        vec = np.zeros(self.n, dtype=np.int64)
        vec[a] = 1
        vec[b] = self.p - 1
        return vec


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _next_prime(x: int) -> int:
    candidate = x + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not _is_prime(candidate):
        candidate += 2
    return candidate


def choose_prime(num_pairs: int, n: int) -> int:
    """Smallest prime above ``max(2 * pairs * n^2, 10^6)``."""
    return _next_prime(max(2 * num_pairs * n * n, _MIN_PRIME_FLOOR))


def build_parity_instance(g: Graph, triangles, p: int) -> ParityInstance:
    ts = tuple(triangles)
    if not _is_prime(p):
        raise ValidationError(f"p={p} is not prime")
    if p <= 2 * len(ts) * g.n * g.n:
        raise ValidationError(
            f"p={p} too small; need p > 2 * {len(ts)} * {g.n}^2 = {2 * len(ts) * g.n * g.n}"
        )
    for t in ts:
        u, v, w = t
        if not (u < v < w):
            raise ValidationError(f"triangle {t} is not a sorted triple")
        if not (g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)):
            raise ValidationError(f"triple {t} is not a triangle of the graph")
    return ParityInstance(g.n, p, ts)


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Row-echelon rank over GF(p): int64 entries while p^2 + p < 2^63, else Python ints."""
    dtype = np.int64 if p * (p + 1) < 2**63 else object
    a = np.array(mat, dtype=dtype) % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank] = a[rank] * inv % p
        below = a[rank + 1:, col]
        nz = np.nonzero(below)[0]
        if nz.size:
            a[rank + 1 + nz] = (a[rank + 1 + nz] - np.outer(below[nz], a[rank])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def _assemble(inst: ParityInstance, xs: list[int], active) -> np.ndarray:
    y = np.zeros((inst.n, inst.n), dtype=np.int64)
    for i in active:
        u, v, w = inst.triangles[i]
        idx = np.array((u, v, w))
        y[np.ix_(idx, idx)] += xs[i] * _PAIR_BLOCK
    return y % inst.p


def pairs_form_forest(inst: ParityInstance, indices) -> bool:
    """Deterministic feasibility check: chosen pair edges must be a forest."""
    part = Partition(inst.n)
    for i in indices:
        for a, b in inst.pair_edges(i):
            if not part.union(a, b):
                return False
    return True


def matroid_parity_max(
    inst: ParityInstance, seed: int, max_retries: int = _DEFAULT_RETRIES
) -> list[int]:
    """Indices of a maximum set of jointly independent pairs.

    Deterministic given ``seed``. Raises :class:`RandomizationError` if the
    forest verification keeps failing (probability below ``pairs * n / p``
    per attempt).
    """
    m = len(inst.triangles)
    if m == 0:
        return []
    seeds_tried: list[int] = []
    for attempt in range(max_retries):
        derived = seed * 1_000_003 + attempt
        seeds_tried.append(derived)
        rng = random.Random(derived)
        xs = [rng.randrange(1, inst.p) for _ in range(m)]
        full_rank = _rank_mod_p(_assemble(inst, xs, range(m)), inst.p)
        if full_rank % 2 != 0:
            continue  # rank of a skew matrix is even; a hit means numeric trouble
        target = full_rank // 2
        active = list(range(m))
        for i in reversed(range(m)):
            if len(active) == target:
                break
            trial = [j for j in active if j != i]
            if _rank_mod_p(_assemble(inst, xs, trial), inst.p) == full_rank:
                active = trial
        if len(active) == target and pairs_form_forest(inst, active):
            return sorted(active)
    raise RandomizationError(
        f"parity witness failed verification {max_retries} times", seeds_tried
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


def max_triangular_cactus(g: Graph, seed: int = 0) -> TriangularCactus:
    """A triangular cactus of ``g`` with the maximum number of triangles."""
    triangles = enumerate_triangles(g)
    if not triangles:
        return TriangularCactus((), ())
    inst = build_parity_instance(g, triangles, choose_prime(len(triangles), g.n))
    chosen = matroid_parity_max(inst, seed)
    return _materialize(triangles[i] for i in chosen)


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
