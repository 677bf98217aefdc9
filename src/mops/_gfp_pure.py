"""Pure-Python kernels of the parity algebra over GF(p), for small blocks.

The same steps as ``mops._gfp``, under the same names and contracts, on
lists of Python ints: assembly, elimination, the inverse of Y[S, S] and the
witness scan. On a block of a few vertices each of numpy's array operations
costs more than the arithmetic it does, so ``mops.cactus.matroid_parity_max``
runs these kernels on every instance of at most ``_PURE_MAX_VERTICES``
vertices and ``mops._gfp``'s above that. This module does not import numpy,
so a graph whose algebra blocks all stay that small never loads it. Every
step is exact, so both kernels keep the same pairs from the same draws.
"""

from __future__ import annotations

from .cactus import _PRIME, ParityInstance


def _row_reduce(mat: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of ``mat`` over GF(p), p = 2^31 - 1, and its pivot columns."""
    p = _PRIME
    a = [[x % p for x in row] for row in mat]
    rows = len(a)
    pivots: list[int] = []
    for col in range(len(a[0]) if a else 0):
        rank = len(pivots)
        for piv in range(rank, rows):
            if a[piv][col]:
                break
        else:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
        # Columns left of ``col`` are zero in the pivot row, so whole rows are combined.
        scale = pow(a[rank][col], -1, p)
        top = a[rank] = [x * scale % p for x in a[rank]]
        for r, row in enumerate(a):
            f = row[col]
            if f and r != rank:
                a[r] = [(x - f * t) % p for x, t in zip(row, top)]
        pivots.append(col)
        if len(pivots) == rows:
            break
    return a, pivots


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

    A vertex absent from ``pivots`` has index -1, and the inverse has a zero
    row and column appended, so that index -1 reads 0.
    """
    k = len(pivots)
    pos = [-1] * len(y)
    for at, col in enumerate(pivots):
        pos[col] = at
    augmented = [[y[r][c] for c in pivots] + [int(r == c) for c in pivots] for r in pivots]
    reduced, _ = _row_reduce(augmented)
    return pos, [row[k:] + [0] for row in reduced] + [[0] * (k + 1)]


def _witness_by_inverse(
    inst: ParityInstance, xs: list[int], y: list[list[int]], pivots: list[int]
) -> list[int]:
    """Pairs kept by the reversed removal scan on ``Y[S, S]``, decided on its inverse N.

    The scan of ``mops._gfp._witness_by_inverse``, with two savings. N stays
    skew-symmetric under every update, so its column t is minus its row t
    and the update vectors are read from rows. Python ints do not overflow,
    so N's entries are left unreduced: each test and update vector is
    reduced as it is formed, so entries grow by at most 2 p^2 per update.
    And N is not updated after a removal that no further test reads.
    """
    p = _PRIME
    target = len(pivots) // 2
    pos, inv = _pivot_inverse(y, pivots)
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
        beta = [(b - a) * kappa % p for a, b in zip(nu, nv)]  # kappa N b_S
        gamma = [(c - b) % p for b, c in zip(nv, nw)]  # N c_S
        # Woodbury: N' = N + gamma (kappa beta)^T - (kappa beta) gamma^T
        inv = [
            [e + g * bc - b * gc for e, bc, gc in zip(row, beta, gamma)]
            for row, g, b in zip(inv, gamma, beta)
        ]
    return [j for j in range(len(xs)) if j not in dropped]
