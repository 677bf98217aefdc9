"""Pure-Python kernels of the parity algebra over GF(p), for small blocks.

The same steps as ``mops._gfp``, under the same names and contracts, on
lists of Python ints: assembly, the pivot columns, the inverse of Y[S, S]
and the witness scan. ``mops.cactus.matroid_parity_max`` runs these kernels
on every instance whose work bound ``2 T n^2`` (T pairs on n vertices) is
at most ``_PURE_MAX_WORK``, and ``mops._gfp``'s above it. Under the cut
numpy's fixed cost per array operation outweighs the arithmetic it
saves, and loading numpy costs 12-13 MiB of memory besides its import
time. This module does not import numpy, so a graph whose algebra blocks
all stay under the cut never loads it. Every step is exact, so both
kernels keep the same pairs from the same draws.
"""

from __future__ import annotations

from bisect import bisect_left

from .cactus import _PRIME, ParityInstance


def _pivots(mat: list[list[int]]) -> list[int]:
    """Pivot columns of ``mat`` over GF(p), p = 2^31 - 1, by forward elimination.

    Column j is a pivot exactly when it is not in the span of the columns
    before it, so every echelon form has these pivots. Each pivot row
    clears only the column's entries in the rows not yet used, and the
    eliminated matrix is not kept.
    """
    p = _PRIME
    rows = [[x % p for x in row] for row in mat]
    pivots: list[int] = []
    for col in range(len(mat[0]) if mat else 0):
        for at, top in enumerate(rows):
            if top[col]:
                break
        else:
            continue
        del rows[at]
        pivots.append(col)
        if not rows:
            break
        scale = pow(top[col], -1, p)
        tail = top[col + 1:]
        for row in rows:
            f = row[col]
            if f:
                f = f * scale % p
                row[col + 1:] = [(x - f * t) % p for x, t in zip(row[col + 1:], tail)]
    return pivots


def _assemble(inst: ParityInstance, xs: list[int], active) -> list[list[int]]:
    """``Y = sum x_i (b_i c_i^T - c_i b_i^T)`` mod p over the pairs in ``active``.

    As ``mops._gfp._assemble``: +x at (u, v), (v, w), (w, u) of triangle
    (u, v, w), each entry reduced mod p as it is added.
    """
    p = _PRIME
    y = [[0] * inst.n for _ in range(inst.n)]
    for i in active:
        u, v, w = inst.triangles[i]
        x = xs[i]
        for a, b in ((u, v), (v, w), (w, u)):
            y[a][b] = (y[a][b] + x) % p
            y[b][a] = (y[b][a] - x) % p
    return y


def _pivot_inverse(y: list[list[int]], pivots: list[int]) -> tuple[list[int], list[list[int]]]:
    """The inverse of ``y[pivots, pivots]`` mod p, with each vertex's index in it.

    The vertices of ``pivots`` have indices 1..k in the order given. A vertex
    absent from it has index 0, and the inverse has a zero row and column
    put first, so that index 0 reads 0.

    Gauss-Jordan in place: column c of the block, once eliminated, holds
    column c of the inverse, so no identity is carried beside it, and k
    columns cost about k^3 operations for ``k = len(pivots)``. Y[S, S] is
    skew, so its diagonal starts at zero and rows must be swapped to find
    a pivot; swapping rows of the block swaps columns of its inverse, and
    those are swapped back last, in reverse order.
    """
    p = _PRIME
    k = len(pivots)
    pos = [0] * len(y)
    for at, col in enumerate(pivots, 1):
        pos[col] = at
    inv = [[y[r][c] % p for c in pivots] for r in pivots]
    swaps: list[tuple[int, int]] = []
    for c in range(k):
        # Y[S, S] is nonsingular, so a pivot is left in rows c.. of column c
        r = next(r for r in range(c, k) if inv[r][c])
        if r != c:
            inv[c], inv[r] = inv[r], inv[c]
            swaps.append((c, r))
        scale = pow(inv[c][c], -1, p)
        inv[c][c] = 1
        top = inv[c] = [x * scale % p for x in inv[c]]
        for at, row in enumerate(inv):
            f = row[c]
            if f and at != c:
                row[c] = 0
                inv[at] = [(x - f * t) % p for x, t in zip(row, top)]
    for c, r in reversed(swaps):
        for row in inv:
            row[c], row[r] = row[r], row[c]
    return pos, [[0] * (k + 1)] + [[0] + row for row in inv]


def _witness_by_inverse(
    inst: ParityInstance, xs: list[int], y: list[list[int]], pivots: list[int]
) -> list[int]:
    """Pairs kept by the reversed removal scan on ``Y[S, S]``, decided on its inverse N.

    The scan of ``mops._gfp._witness_by_inverse``, with three savings. N stays
    skew-symmetric under every update, so its column t is minus its row t
    and the update vectors are read from rows. Python ints do not overflow,
    so N's entries are left unreduced: each test and update vector is
    reduced as it is formed, so entries grow by at most 2 p^2 per update.
    And N shrinks as the scan goes: once pair i is removed, the tests left
    read only the vertices of pairs before i. N is indexed in the order of
    each vertex's first pair, so those vertices hold a prefix of its
    indices, and each update keeps that prefix alone; the last removal,
    which no further test reads, updates nothing.
    """
    p = _PRIME
    target = len(pivots) // 2
    first: dict[int, int] = {}
    for i, t in enumerate(inst.triangles):
        for v in t:
            first.setdefault(v, i)
    order = sorted(pivots, key=first.__getitem__)  # a pivot column is a vertex of some pair
    firsts = [first[v] for v in order]
    pos, inv = _pivot_inverse(y, order)
    kept = len(xs)
    dropped: set[int] = set()
    for i in reversed(range(len(xs))):
        if kept == target:
            break
        x = xs[i]
        su, sv, sw = (pos[t] for t in inst.triangles[i])
        nu, nv, nw = inv[su], inv[sv], inv[sw]
        # det Y'[S, S] = det Y[S, S] (1 + x mu)^2 with mu = b_S^T N c_S.
        scale = (1 + x * (nu[sv] - nu[sw] + nv[sw])) % p
        if not scale:
            continue
        dropped.add(i)
        kept -= 1
        if kept == target or i == 0:
            break
        kappa = x * pow(scale, -1, p) % p
        live = 1 + bisect_left(firsts, i)  # index 0 and the vertices of pairs before i
        beta = [(b - a) * kappa % p for a, b in zip(nu[:live], nv)]  # kappa N b_S
        gamma = [(c - b) % p for b, c in zip(nv[:live], nw)]  # N c_S
        # Woodbury: N' = N + gamma (kappa beta)^T - (kappa beta) gamma^T
        inv = [
            [e + g * bc - b * gc for e, bc, gc in zip(row, beta, gamma)]
            for row, g, b in zip(inv, gamma, beta)
        ]
    return [j for j in range(len(xs)) if j not in dropped]
