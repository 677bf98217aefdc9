"""numpy kernels of the parity algebra over GF(p): elimination, assembly, witness scan.

``mops.cactus.matroid_parity_max`` imports this module the first time an
instance whose work bound ``2 T n^2`` (T pairs on n vertices) exceeds
``_PURE_MAX_WORK`` reaches the algebra, and nothing else in the package
does, so ``import mops`` does not load numpy. Instances under the cut run
the pure-Python copy in ``mops._gfp_pure``, which keeps the same pairs: it
packs each row into one int of 96-bit slots, and there it stays within 1.5
times this module's warm time, while loading numpy costs 12-13 MiB of
memory besides its import time. Assembly is shared: ``_assemble`` turns the
pure assembler's rows into an array. Entries here are int64 residues, and
every product of two residues plus a residue stays below 2^63.
``_row_reduce`` and ``_witness_by_rank`` are the references the tests
hold both copies to.
"""

from __future__ import annotations

import numpy as np

from . import _gfp_pure
from .cactus import _PRIME, ParityInstance


def _row_reduce(mat: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``mat`` over GF(p), p = 2^31 - 1, and its pivot columns."""
    p = _PRIME
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
        a[rank, col:] = a[rank, col:] * pow(int(a[rank, col]), -1, p) % p
        factors = a[:, col].copy()
        factors[rank] = 0
        nz = factors.nonzero()[0]
        if nz.size:
            a[nz, col:] = (a[nz, col:] - factors[nz, None] * a[rank, col:]) % p
        pivots.append(col)
        if len(pivots) == rows:
            break
    return a, pivots


def _pivots(mat: np.ndarray) -> list[int]:
    """Pivot columns of ``mat`` over GF(p), p = 2^31 - 1, by forward elimination.

    Column j is a pivot exactly when it is not in the span of the columns
    before it, so every echelon form has these pivots, ``_row_reduce``'s
    among them. Each pivot row clears only the rows below it, from the
    next column on, and the eliminated matrix is not kept.
    """
    p = _PRIME
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
        pivots.append(col)
        if len(pivots) == rows:
            break
        factors = a[rank + 1:, col] * pow(int(a[rank, col]), -1, p) % p
        nz = factors.nonzero()[0]
        if nz.size:
            below = nz + rank + 1
            a[below, col + 1:] = (a[below, col + 1:] - factors[nz, None] * a[rank, col + 1:]) % p
    return pivots


def _rank_mod_p(mat: np.ndarray) -> int:
    """Rank of ``mat`` over GF(p), p = 2^31 - 1."""
    return len(_row_reduce(mat)[1])


def _assemble(inst: ParityInstance, xs: list[int], active) -> np.ndarray:
    """``Y = sum x_i (b_i c_i^T - c_i b_i^T)`` mod p over the pairs in ``active``.

    The rows of ``mops._gfp_pure._assemble`` as one int64 array: +x at
    (u, v), (v, w), (w, u) of triangle (u, v, w) and -x at their transposes.
    """
    return np.array(_gfp_pure._assemble(inst, xs, active), dtype=np.int64)


def _pivot_inverse(y: np.ndarray, pivots: list[int]) -> tuple[list[int], np.ndarray]:
    """The inverse of ``y[pivots, pivots]`` mod p, with each vertex's index in it.

    The vertices of ``pivots`` have indices 1..k in the order given. A vertex
    absent from it has index 0, and the inverse has a zero row and column
    put first, so that index 0 reads 0.
    """
    k = len(pivots)
    pos = [0] * len(y)
    for at, col in enumerate(pivots, 1):
        pos[col] = at
    block = y[np.ix_(pivots, pivots)]
    reduced, _ = _row_reduce(np.hstack([block, np.eye(k, dtype=np.int64)]))
    inv = np.zeros((k + 1, k + 1), dtype=np.int64)
    inv[1:, 1:] = reduced[:, k:]
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
    p = _PRIME
    target = len(pivots) // 2
    pos, inv = _pivot_inverse(y, pivots)
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
        kappa = x * pow(scale, -1, p) % p
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
        if _rank_mod_p(_assemble(inst, xs, trial)[on_s]) == len(pivots):
            active = trial
    return active
