"""Pure-Python kernels of the parity algebra over GF(p), on packed rows.

The same steps as ``mops._gfp``, under the same names: assembly, the pivot
columns, the inverse of Y[S, S] and the witness scan. ``mops.cactus.
matroid_parity_max`` runs these kernels on every instance whose work bound
``2 T n^2`` (T pairs on n vertices) is at most ``_PURE_MAX_WORK`` = 917 504,
and ``mops._gfp``'s above it; ``bench/kernel_cut.py`` fits that cut: up to
it, these kernels' median time stays within 1.5 times numpy's warm time,
measured by work bucket on random graphs. This module does not import
numpy, so a graph whose algebra blocks all stay under the cut never loads
it. Every step is exact, so both kernels keep the same pairs from the same
draws.

Assembly gives a list of rows of residues. The other steps pack each row of
Y, of Y[S, S] and of the inverse N into one Python int: entry j sits in
bits ``96 j`` to ``96 j + 95``, a slot of ``_SLOT`` bits. So a step on a
whole row is a few big-int operations instead of one Python operation per
entry: an elimination step is one scale-and-add, and a rank-2 update two.
Every slot stays non-negative, so no slot ever borrows from its neighbour:
a negated row is multiplied by ``p - f`` instead of ``f``, and a
difference of rows adds a multiple of p to each slot first, one at least
as large as the slot it subtracts.

A slot is reduced mod the Mersenne prime p = 2^31 - 1 without division:
``2^31 = 1`` mod p, so a slot's bits 31 and up may be added to its low 31
bits. ``_fold`` does that to every slot of a row at once, three times,
which takes any slot below 2^96 to below 2^31 + 16 < 2^32. One entry is
read with a shift and a mask; a folded row is read all at once, as the low
4 bytes of each 12-byte slot of its bytes.

Why no slot overflows: only folded rows, with slots below 2^32, are
multiplied, and only by scalars below 2^32, so a step adds less than 2^64
to a slot. Elimination adds at most one product per column, the inverse two
per pivot pair, and the scan two per removal, and only the rows it
multiplies are folded. So after the inverse and t removals, a slot of N
stays below ``(k + t + 2) 2^64`` (k = |S| <= n); with t < T that is below
2^96 for every T + k < 2^30. Under the cut, ``2 T n^2 <= 917 504`` with
n >= 3 gives T + k < 2^16, so slots stay below 2^80.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from struct import Struct

from .cactus import _PRIME, ParityInstance

_SLOT = 96  # bits per entry of a packed row
_MASK = (1 << _SLOT) - 1


@lru_cache(maxsize=64)
def _layout(width: int) -> tuple[Struct, int, int, int]:
    """Rows of ``width`` slots: their byte layout, and per slot bits 0-30, bits 0-64 and p.

    A slot is 12 bytes, little-endian; the layout reads and writes its low 4
    bytes, where a folded slot lies, and skips the rest.
    """
    ones = int.from_bytes((b"\1" + bytes(_SLOT // 8 - 1)) * width, "little")
    return (
        Struct("<" + f"I{_SLOT // 8 - 4}x" * width),
        ones * ((1 << 31) - 1),
        ones * ((1 << (_SLOT - 31)) - 1),
        ones * _PRIME,
    )


def _fold(row: int, lo: int, hi: int) -> int:
    """``row`` with every slot below 2^31 + 16 and unchanged mod p: three rounds of ``2^31 = 1``."""
    row = (row & lo) + ((row >> 31) & hi)
    row = (row & lo) + ((row >> 31) & hi)
    return (row & lo) + ((row >> 31) & hi)


def _pack(layout: Struct, values) -> int:
    """One int holding ``values``, each in [0, 2^32), in consecutive slots."""
    return int.from_bytes(layout.pack(*values), "little")


def _unpack(layout: Struct, row: int) -> tuple[int, ...]:
    """The slots of a folded ``row``, read from its bytes at once."""
    return layout.unpack(row.to_bytes(layout.size, "little"))


def _assemble(inst: ParityInstance, xs: list[int], active) -> list[list[int]]:
    """``Y = sum x_i (b_i c_i^T - c_i b_i^T)`` mod p over the pairs in ``active``.

    On the triangle's own (u, v, w) coordinates, with b = chi_u - chi_v and
    c = chi_v - chi_w, that skew block is +x at (u, v), (v, w), (w, u), and
    -x at their transposes. Each entry is reduced mod p as it is added.
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


def _pivots(mat: list[list[int]]) -> list[int]:
    """Pivot columns of ``mat`` over GF(p), p = 2^31 - 1, by forward elimination.

    Entries lie in [0, 2^32) and are read mod p. Column j is a pivot exactly
    when it is not in the span of the columns before it, so every echelon
    form has these pivots. Each pivot row clears the column in the rows not
    yet used, and then every row drops the column: a shift by one slot. So
    the current column is always slot 0, and the rows shorten as the
    elimination goes.
    """
    p, mask, slot = _PRIME, _MASK, _SLOT
    cols = len(mat[0]) if mat else 0
    layout, lo, hi, _ = _layout(cols)
    rows = [_pack(layout, row) for row in mat]
    pivots: list[int] = []
    for col in range(cols):
        for at, top in enumerate(rows):
            if (top & mask) % p:
                break
        else:
            rows = [row >> slot for row in rows]
            continue
        pivots.append(col)
        if len(rows) == 1:
            break
        top = _fold(top, lo, hi)
        scale = pow(top & mask, -1, p)
        # rows before the pivot row are 0 in this column
        rows = [row >> slot for row in rows[:at]] + [
            (row + (p - f) * top) >> slot if (f := (row & mask) * scale % p) else row >> slot
            for row in rows[at + 1:]
        ]
    return pivots


def _pivot_inverse(y: list[list[int]], pivots: list[int]) -> tuple[list[int], list[int]]:
    """The inverse of ``y[pivots, pivots]`` mod p, as packed rows, with each vertex's index in it.

    Entries of ``y`` lie in [0, 2^32) and are read mod p. The vertices of
    ``pivots`` have indices 1..k in the order given. A vertex absent from it
    has index 0, and the inverse has a zero row and slot 0 put first, so
    that index 0 reads 0. Slots are left unreduced.

    Gauss-Jordan in place, pivoting on 2x2 principal blocks: each step
    replaces the block {a, b} by its inverse and every other row and
    column by the Schur complement's. Swept this way, in any order, the
    matrix ends as its inverse with no rows or columns permuted. Y[S, S] is
    skew, and so is every Schur complement of it, so each diagonal entry
    is 0 and each block is ``[[0, beta], [-beta, 0]]``; since the complement
    is nonsingular, the first unswept row has a nonzero ``beta`` in some
    unswept column b. Each step costs two scale-and-adds per row.
    """
    p, mask, slot = _PRIME, _MASK, _SLOT
    k = len(pivots)
    pos = [0] * len(y)
    for at, col in enumerate(pivots, 1):
        pos[col] = at
    layout, lo, hi, _ = _layout(k + 1)
    rows = [0] + [_pack(layout, [0] + [y[r][c] for c in pivots]) for r in pivots]
    todo = list(range(1, k + 1))
    while todo:
        a = todo.pop(0)
        ra = _fold(rows[a], lo, hi)
        entries = _unpack(layout, ra)
        b = next(b for b in todo if entries[b] % p)
        todo.remove(b)
        inv = pow(entries[b], -1, p)
        rb = _fold(rows[b], lo, hi)
        sa, sb = slot * a, slot * b
        # slot a of row a and slot b of row b, both 0 mod p, become p - 1
        ra += (p - 1 - entries[a]) << sa
        rb += (p - 1 - ((rb >> sb) & mask)) << sb
        for i, row in enumerate(rows):
            if i != a and i != b:
                fa = ((row >> sa) & mask) * inv % p
                fb = ((row >> sb) & mask) * inv % p
                if fa or fb:
                    rows[i] = row + (p - fb) * ra + fa * rb
        rows[a] = inv * (rb - (((rb >> sa) & mask) << sa))
        rows[b] = (p - inv) * (ra - (entries[b] << sb))
    return pos, rows


def _witness_by_inverse(
    inst: ParityInstance, xs: list[int], y: list[list[int]], pivots: list[int]
) -> list[int]:
    """Pairs kept by the reversed removal scan on ``Y[S, S]``, decided on its inverse N.

    The scan of ``mops._gfp._witness_by_inverse``, with two savings. N stays
    skew-symmetric under every update, so its column t is minus its row t
    and the update vectors are read from rows. And N shrinks as the scan
    goes: once pair i is removed, the tests left read only the vertices of
    pairs before i. N is indexed in the order of each vertex's first pair,
    so those vertices hold a prefix of its indices, and each update keeps
    only that prefix of the rows and of each row's slots; the last removal,
    which no further test reads, updates nothing. The update vectors are
    folded rows, and each kept row takes them in two scale-and-adds.
    """
    p, mask, slot = _PRIME, _MASK, _SLOT
    target = len(pivots) // 2
    first: dict[int, int] = {}
    for i, t in enumerate(inst.triangles):
        for v in t:
            first.setdefault(v, i)
    order = sorted(pivots, key=first.__getitem__)  # a pivot column is a vertex of some pair
    firsts = [first[v] for v in order]
    pos, inv = _pivot_inverse(y, order)
    layout, lo, hi, primes = _layout(len(order) + 1)
    # a slot of N stays below (k + T + 2) 2^64 (module docstring): p 2^shift exceeds that
    offset = primes << (34 + (len(order) + len(xs) + 2).bit_length())
    kept = len(xs)
    dropped: set[int] = set()
    for i in reversed(range(len(xs))):
        if kept == target:
            break
        x = xs[i]
        tu, tv, tw = (pos[t] for t in inst.triangles[i])
        nu, nv = inv[tu], inv[tv]
        sv, sw = slot * tv, slot * tw
        # det Y'[S, S] = det Y[S, S] (1 + x mu)^2 with mu = b_S^T N c_S.
        scale = (1 + x * (((nu >> sv) & mask) - ((nu >> sw) & mask) + ((nv >> sw) & mask))) % p
        if not scale:
            continue
        dropped.add(i)
        kept -= 1
        if kept == target or i == 0:
            break
        kappa = x * pow(scale, -1, p) % p
        live = 1 + bisect_left(firsts, i)  # index 0 and the vertices of pairs before i
        prefix = (1 << (slot * live)) - 1
        beta = _fold(kappa * _fold((nv + offset - nu) & prefix, lo, hi), lo, hi)  # kappa N b_S
        gamma = _fold((inv[tw] + offset - nv) & prefix, lo, hi)  # N c_S
        negated = 2 * (primes & prefix) - gamma  # -gamma: its slots lie below 2^31 + 16 < 2p
        # Woodbury: N' = N + gamma (kappa beta)^T - (kappa beta) gamma^T
        inv = [
            (row & prefix) + g * beta + b * negated
            for row, g, b in zip(inv[:live], _unpack(layout, gamma), _unpack(layout, beta))
        ]
    return [j for j in range(len(xs)) if j not in dropped]
