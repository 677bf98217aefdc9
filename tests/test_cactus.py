import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mops import (
    RandomizationError,
    Partition,
    SizeLimitError,
    ValidationError,
    block_decomposition,
    brute_force_cactus,
    build_parity_instance,
    connected_components,
    enumerate_triangles,
    gen_diamond_family,
    gen_random,
    gen_random_maximal_outerplanar,
    gen_tight_family,
    graph_new,
    matroid_parity_max,
    max_triangular_cactus,
    pairs_form_forest,
)
import mops._gfp as gfp
import mops._gfp_pure as gfp_pure
import mops.cactus as cactus
from mops._gfp import _rank_mod_p
from mops.cactus import _PRIME
from _builders import complete_graph, cycle_graph, element_vector, hub_graph


def two_disjoint_triangles():
    return graph_new(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def shared_edge_triangles():
    return graph_new(4, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])


def test_triangle_counts():
    assert len(enumerate_triangles(complete_graph(4))) == 4
    assert len(enumerate_triangles(cycle_graph(4))) == 0
    assert len(enumerate_triangles(complete_graph(5))) == 10


def test_triangles_sorted_and_valid():
    rng = random.Random(3)
    for _ in range(60):
        g = gen_random(rng.randint(3, 9), 0.6, rng.randrange(10**6))
        ts = enumerate_triangles(g)
        assert list(ts) == sorted(ts)
        for u, v, w in ts:
            assert u < v < w
            assert g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
    # larger graphs too: the output is emitted in order, with no final sort
    for seed in (1, 2, 3):
        ts = enumerate_triangles(gen_random(40, 0.3, seed))
        assert len(ts) > 50 and list(ts) == sorted(ts)


def triangles_by_subsets(g):
    """Every 3-subset of ``g``'s vertices that is a triangle: the reference lister."""
    return tuple(
        t for t in itertools.combinations(range(g.n), 3)
        if g.has_edge(t[0], t[1]) and g.has_edge(t[1], t[2]) and g.has_edge(t[0], t[2])
    )


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 14),
    p=st.sampled_from([0.3, 0.5, 0.7, 1.0]),
    graph_seed=st.integers(0, 10**6),
)
def test_triangles_match_subset_reference(n, p, graph_seed):
    g = gen_random(n, p, graph_seed)
    assert enumerate_triangles(g) == triangles_by_subsets(g)


def test_triangle_listing_beside_isolated_vertices_stays_small():
    # a 5-page book in the middle of 200 000 isolated vertices: no per-vertex set
    g = graph_new(200_007, book(5, offset=100_000))
    tracemalloc.start()
    try:
        triangles = enumerate_triangles(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(triangles) == 5
    assert peak < 10 * 2**20


def test_triangles_of_the_hub_graph():
    g = hub_graph(30)
    assert enumerate_triangles(g) == triangles_by_subsets(g) == tuple((u, 30, u + 31) for u in range(30))


def test_prime_is_int64_safe():
    assert _PRIME == 2**31 - 1
    assert all(_PRIME % d for d in range(2, math.isqrt(_PRIME) + 1))
    assert _PRIME * (_PRIME + 1) < 2**63


def test_instance_k3_vectors():
    g = complete_graph(3)
    inst = build_parity_instance(g, enumerate_triangles(g))
    assert len(inst.triangles) == 1
    for slot in (0, 1):
        vec = element_vector(inst, 0, slot)
        assert np.count_nonzero(vec) == 2
        assert sorted(vec[vec != 0] % inst.p) == sorted([1, inst.p - 1])


def test_instance_vertex_bound_of_the_prime():
    # 2 * 138 415 triangles * 95^2 = 2.5e9 exceeds 2^31 - 1 on K95; only 2 n^2 counts
    g = complete_graph(95)
    assert build_parity_instance(g, enumerate_triangles(g)).p == _PRIME
    # 2 n^2 < 2^31 - 1 holds up to n = 32 767 and fails from n = 32 768 = 2^15
    assert 2 * 32_767**2 < _PRIME < 2 * 32_768**2
    triangle = [(0, 1), (1, 2), (0, 2)]
    g = graph_new(32_767, triangle)
    assert build_parity_instance(g, enumerate_triangles(g)).n == 32_767
    g = graph_new(32_768, triangle)
    with pytest.raises(ValidationError, match=r"^32768 vertices exceed the bound 32767 for GF"):
        build_parity_instance(g, enumerate_triangles(g))


def test_disjoint_triangles_jointly_independent():
    g = two_disjoint_triangles()
    inst = build_parity_instance(g, enumerate_triangles(g))
    assert pairs_form_forest(inst, [0, 1])
    cols = np.stack(
        [element_vector(inst, i, s) for i in (0, 1) for s in (0, 1)], axis=1
    )
    assert _rank_mod_p(cols) == 4


def test_shared_edge_triangles_conflict():
    g = shared_edge_triangles()
    ts = enumerate_triangles(g)
    assert len(ts) == 2
    inst = build_parity_instance(g, ts)
    assert not pairs_form_forest(inst, [0, 1])
    chosen = matroid_parity_max(inst, seed=5)
    assert len(chosen) == 1


def test_parity_forest_equivalence_exhaustive():
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        g = gen_random(rng.randint(4, 7), 0.5, rng.randrange(10**6))
        ts = enumerate_triangles(g)
        if not 1 <= len(ts) <= 6:
            continue
        inst = build_parity_instance(g, ts)
        for size in range(1, len(ts) + 1):
            for sub in itertools.combinations(range(len(ts)), size):
                cols = np.stack(
                    [element_vector(inst, i, s) for i in sub for s in (0, 1)], axis=1
                )
                assert (_rank_mod_p(cols) == 2 * size) == pairs_form_forest(
                    inst, sub
                )
        checked += 1
    assert checked >= 30


def test_parity_k3_and_disjoint():
    g = complete_graph(3)
    inst = build_parity_instance(g, enumerate_triangles(g))
    assert matroid_parity_max(inst, seed=0) == [0]
    g2 = two_disjoint_triangles()
    inst2 = build_parity_instance(g2, enumerate_triangles(g2))
    assert matroid_parity_max(inst2, seed=0) == [0, 1]


def test_parity_k4_selects_one():
    g = complete_graph(4)
    ts = enumerate_triangles(g)
    inst = build_parity_instance(g, ts)
    # exhaustive: every pair of K4 triangles shares an edge or closes a cycle
    for a, b in itertools.combinations(range(4), 2):
        assert not pairs_form_forest(inst, [a, b])
    assert len(matroid_parity_max(inst, seed=1)) == 1


def test_parity_deterministic_in_seed():
    g = gen_random(8, 0.6, 123)
    ts = enumerate_triangles(g)
    inst = build_parity_instance(g, ts)
    a = matroid_parity_max(inst, seed=42)
    b = matroid_parity_max(inst, seed=42)
    assert a == b


def test_max_cactus_k4_k5():
    assert max_triangular_cactus(complete_graph(4), seed=0).r == 1
    assert max_triangular_cactus(complete_graph(5), seed=0).r == 2


def test_max_cactus_tight_families():
    for q in (3, 5, 7):
        cac = max_triangular_cactus(gen_tight_family(q), seed=q)
        assert cac.r == q // 2


def test_brute_force_examples():
    assert brute_force_cactus(cycle_graph(4)).r == 0
    assert brute_force_cactus(complete_graph(4)).r == 1
    assert brute_force_cactus(gen_tight_family(3)).r == 1


def test_brute_force_size_guard():
    with pytest.raises(SizeLimitError):
        brute_force_cactus(complete_graph(13))


def test_cactus_matches_brute_force_on_corpus():
    rng = random.Random(19)
    for _ in range(120):
        g = gen_random(rng.randint(3, 9), rng.choice([0.3, 0.5, 0.8]), rng.randrange(10**6))
        assert max_triangular_cactus(g, seed=7).r == brute_force_cactus(g).r


def test_cactus_structure_invariants():
    rng = random.Random(29)
    for _ in range(80):
        g = gen_random(rng.randint(3, 9), 0.6, rng.randrange(10**6))
        cac = max_triangular_cactus(g, seed=13)
        assert len(cac.edges) == 3 * cac.r
        # triangles are edge-disjoint and meet in at most one vertex
        for t1, t2 in itertools.combinations(cac.triangles, 2):
            assert len(set(t1) & set(t2)) <= 1
        # cyclomatic number of the derived edge set equals r
        sub = graph_new(g.n, cac.edges) if cac.edges else None
        if sub is not None:
            labels = connected_components(sub)
            assert len(cac.edges) - g.n + max(labels) + 1 == cac.r


def known_rank_matrix(rows, cols, rank, p, rng):
    """L D U mod p, rows shuffled: L, U unit triangular, D with ``rank`` nonzero pivots."""
    lower = [[rng.randrange(p) if c < r else int(c == r) for c in range(rows)] for r in range(rows)]
    upper = [[rng.randrange(p) if c > r else int(c == r) for c in range(cols)] for r in range(cols)]
    diag = [rng.randrange(1, p) if i < rank else 0 for i in range(min(rows, cols))]
    mat = [
        [sum(lower[r][i] * d * upper[i][c] for i, d in enumerate(diag)) % p for c in range(cols)]
        for r in range(rows)
    ]
    rng.shuffle(mat)
    return np.array(mat, dtype=np.int64)


@settings(max_examples=120, deadline=None)
@given(
    rows=st.integers(1, 7),
    cols=st.integers(1, 7),
    rank_share=st.floats(0, 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_mod_large_prime(rows, cols, rank_share, seed):
    rank = round(rank_share * min(rows, cols))
    mat = known_rank_matrix(rows, cols, rank, _PRIME, random.Random(seed))
    assert _rank_mod_p(mat) == rank
    pivots = gfp._row_reduce(mat)[1]
    assert gfp._pivots(mat) == gfp_pure._pivots(mat.tolist()) == pivots


def assert_inverse_mod_p(inv, block):
    """``inv``, less its first row and column, times ``block`` is the identity mod p."""
    product = [[sum(a * b for a, b in zip(row[1:], col)) % _PRIME for col in zip(*block)] for row in inv[1:]]
    assert product == [[int(r == c) for c in range(len(block))] for r in range(len(block))]


def packed_inverse(inv):
    """The rows of a pure ``_pivot_inverse`` result, folded, read from their bytes and reduced mod p."""
    layout, lo, hi, _ = gfp_pure._layout(len(inv))
    return [[v % _PRIME for v in gfp_pure._unpack(layout, gfp_pure._fold(row, lo, hi))] for row in inv]


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 6), density=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_pivot_inverse_of_sparse_skew_blocks(k, density, seed):
    # A nonsingular skew block of 2k rows: a random perfect matching plus random
    # other entries. The first unswept row's pivot column is its first unswept
    # nonzero, on sparse blocks seldom the next index; entries of 1 and p - 1
    # keep some Schur complement entries at 0 and others near p.
    rng = random.Random(seed)
    n = 2 * k
    mat = [[0] * n for _ in range(n)]
    perm = rng.sample(range(n), n)
    matched = {tuple(sorted(perm[i:i + 2])) for i in range(0, n, 2)}
    for r, c in itertools.combinations(range(n), 2):
        if (r, c) in matched or rng.random() < density:
            x = rng.choice([1, _PRIME - 1, rng.randrange(1, _PRIME)])
            mat[r][c], mat[c][r] = x, _PRIME - x
    assume(_rank_mod_p(np.array(mat, dtype=np.int64)) == n)
    order = rng.sample(range(n), n)
    pos, inv = gfp_pure._pivot_inverse(mat, order)
    pos_np, inv_np = gfp._pivot_inverse(np.array(mat, dtype=np.int64), order)
    assert (pos, packed_inverse(inv)) == (pos_np, inv_np.tolist())
    assert_inverse_mod_p(packed_inverse(inv), [[mat[r][c] for c in order] for r in order])


@settings(max_examples=50, deadline=None)
@given(
    slots=st.lists(
        st.one_of(st.integers(0, 2**96 - 1), st.sampled_from([2**96 - 1, _PRIME, _PRIME - 1, 2**64])),
        min_size=1,
        max_size=12,
    )
)
def test_fold_takes_any_slot_below_2_96_below_2_32(slots):
    # Every slot, up to 2^96 - 1, keeps its residue and ends below 2^31 + 16, so
    # that a folded row reads from the low 4 bytes of each slot.
    layout, lo, hi, _ = gfp_pure._layout(len(slots))
    row = sum(v << (gfp_pure._SLOT * j) for j, v in enumerate(slots))
    folded = gfp_pure._fold(row, lo, hi)
    out = [(folded >> (gfp_pure._SLOT * j)) & gfp_pure._MASK for j in range(len(slots))]
    assert folded >> (gfp_pure._SLOT * len(slots)) == 0
    assert all(v < 2**31 + 16 for v in out)
    assert [v % _PRIME for v in out] == [v % _PRIME for v in slots]
    assert list(gfp_pure._unpack(layout, folded)) == out
    assert gfp_pure._pack(layout, out) == folded


def reference_parity_max(inst, seed):
    """``matroid_parity_max`` with its witness taken by one elimination of Y[S, S] per pair.

    Both kernels' scans are replaced, so an instance on either side of the
    cut is checked against the reference, not against itself.
    """

    def by_rank(inst, xs, y, pivots):
        return gfp._witness_by_rank(inst, xs, pivots)

    with mock.patch.object(gfp, "_witness_by_inverse", by_rank), mock.patch.object(
        gfp_pure, "_witness_by_inverse", by_rank
    ):
        return matroid_parity_max(inst, seed)


def parity_instance(g):
    return build_parity_instance(g, enumerate_triangles(g))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 14),
    p=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    graph_seed=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
)
def test_parity_witness_matches_rank_reference(n, p, graph_seed, seed):
    inst = parity_instance(gen_random(n, p, graph_seed))
    assert matroid_parity_max(inst, seed) == reference_parity_max(inst, seed)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_parity_witness_matches_rank_reference_tight(q):
    inst = parity_instance(gen_tight_family(q))
    for seed in range(4):
        chosen = matroid_parity_max(inst, seed)
        assert len(chosen) == q // 2
        assert chosen == reference_parity_max(inst, seed)


@st.composite
def parity_blocks(draw):
    """A parity instance on either side of the kernels' work cut.

    Small dense: all of G(n_b, p), n_b 6 to 12. Dense: all of G(n_b, p) for
    (n_b, p) from (16, 0.5) to (28, 0.6), whose work bounds run from about
    3 10^4 to 1.4 10^6; nine in ten G(28, 0.6) lie above the cut. Sparse:
    the largest block of H with at most 20 vertices in G(n, c/n), c = 3 to
    5, or, like the dense-block corpus, in G(22, 0.4); each in its own
    coordinates.
    """
    graph_seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["small", "dense", "sparse", "dense-block"]))
    if kind == "small":
        n_b, p = draw(st.integers(6, 12)), draw(st.sampled_from([0.5, 0.7, 0.9]))
        return parity_instance(gen_random(n_b, p, graph_seed))
    if kind == "dense":
        n_b, p = draw(st.sampled_from([(16, 0.5), (20, 0.6), (24, 0.6), (28, 0.6)]))
        return parity_instance(gen_random(n_b, p, graph_seed))
    if kind == "sparse":
        n = draw(st.integers(12, 40))
        g = gen_random(n, draw(st.sampled_from([3, 4, 5])) / n, graph_seed)
    else:
        g = gen_random(22, 0.4, graph_seed)
    blocks = [(n_b, ts) for ts, n_b in block_triangle_lists(g) if n_b <= 22]
    assume(blocks)
    n_b, ts = max(blocks)
    return cactus.ParityInstance(n_b, tuple(ts))


@settings(max_examples=200, deadline=None)
@given(inst=parity_blocks(), xs_seed=st.integers(0, 10**6), small_xs=st.booleans())
# K20 has the largest complete-graph instance under the cut; K21's lies just above it
@example(inst=parity_instance(complete_graph(20)), xs_seed=0, small_xs=False)
@example(inst=parity_instance(complete_graph(21)), xs_seed=0, small_xs=True)
def test_pure_kernels_keep_the_pairs_of_numpy_and_the_rank_reference(inst, xs_seed, small_xs):
    # Called directly, so instances above the cut check the pure kernels too.
    # Draws x_i from 1..3 make low ranks and singular removals common.
    rng = random.Random(xs_seed)
    xs = [rng.randrange(1, 4 if small_xs else _PRIME) for _ in inst.triangles]
    y = gfp_pure._assemble(inst, xs, range(len(xs)))
    y_np = gfp._assemble(inst, xs, range(len(xs)))
    assert y == y_np.tolist()
    pivots = gfp._row_reduce(y_np)[1]
    assert gfp_pure._pivots(y) == gfp._pivots(y_np) == pivots
    # the inverse in any order of S: the scans index it differently
    order = rng.sample(pivots, len(pivots))
    pos, inv = gfp_pure._pivot_inverse(y, order)
    pos_np, inv_np = gfp._pivot_inverse(y_np, order)
    assert (pos, packed_inverse(inv)) == (pos_np, inv_np.tolist())
    assert_inverse_mod_p(packed_inverse(inv), [[y[r][c] for c in order] for r in order])
    kept = gfp_pure._witness_by_inverse(inst, xs, y, pivots)
    assert kept == gfp._witness_by_inverse(inst, xs, y_np, pivots)
    assert kept == gfp._witness_by_rank(inst, xs, pivots)


def test_assembly_of_one_triangle():
    inst = cactus.ParityInstance(4, ((0, 2, 3),))
    x = 5
    y = [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, x], [0, 0, _PRIME - x, 0]]
    y[0][2], y[2][0], y[3][0], y[0][3] = x, _PRIME - x, x, _PRIME - x
    assert gfp_pure._assemble(inst, [x], [0]) == y
    assembled = gfp._assemble(inst, [x], [0])
    assert assembled.dtype == np.int64
    assert assembled.tolist() == y


@pytest.mark.parametrize("xs_kind", ["all-p-1", "near-p-1"])
def test_packed_slots_hold_the_most_updates_under_the_cut(xs_kind):
    # K20's 1 140 pairs are the most of any instance under the cut: one on n
    # vertices has at most C(n, 3) pairs, and at most cut / (2 n^2) under it.
    # The scan removes nearly all of them, each with one rank-2 update of N
    # but the last. Draws at or near p - 1 give residues near p - 1
    # throughout, so each update adds close to the most a slot may take.
    inst = parity_instance(complete_graph(20))
    most = max(min(math.comb(n, 3), cactus._PURE_MAX_WORK // (2 * n**2)) for n in range(3, 1000))
    assert len(inst.triangles) == most
    rng = random.Random(20)
    xs = [_PRIME - 1 - (0 if xs_kind == "all-p-1" else rng.randrange(16)) for _ in inst.triangles]
    y = gfp_pure._assemble(inst, xs, range(len(xs)))
    pivots = gfp_pure._pivots(y)
    kept = gfp_pure._witness_by_inverse(inst, xs, y, pivots)
    assert kept == gfp._witness_by_rank(inst, xs, pivots)
    assert len(xs) - len(kept) > 1100


@pytest.mark.parametrize(
    "g",
    [complete_graph(8), complete_graph(12)] + [gen_random(22, 0.4, s) for s in (1, 2, 3)] + [complete_graph(21)],
    ids=["K8", "K12", "gnp22-1", "gnp22-2", "gnp22-3", "K21"],
)
def test_parity_witness_elimination_count(monkeypatch, g):
    calls = {"attempts": 0, "eliminations": 0}

    def counting(module, name, key):
        original = getattr(module, name)

        def counted(*args):
            calls[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    # Y's pivots, then the inverse's elimination: numpy's reduces [Y[S, S] | I],
    # the pure one sweeps 2x2 blocks inside ``_pivot_inverse``. K21 lies above
    # the cut, so numpy runs it; every other graph here runs the pure kernels.
    for module, names in ((gfp, ("_pivots", "_row_reduce")), (gfp_pure, ("_pivots", "_pivot_inverse"))):
        for name in names:
            counting(module, name, "eliminations")
        counting(module, "_witness_by_inverse", "attempts")
    inst = parity_instance(g)
    matroid_parity_max(inst, 3)
    # One elimination of Y and one of Y[S, S] per attempt; the reference
    # loop makes one per pair tried (220 on K12).
    assert calls["attempts"] >= 1
    assert calls["eliminations"] == 2 * calls["attempts"]


@pytest.mark.parametrize("q, pure", [(20, True), (21, False)])
def test_parity_kernels_are_chosen_by_the_work_bound(monkeypatch, q, pure):
    # K20's instance lies under the cut, with bound 912 000, and so does every
    # block of 20 or fewer vertices; K21's, 1 173 060, lies just above it.
    inst = parity_instance(complete_graph(q))
    assert (2 * len(inst.triangles) * inst.n**2 <= cactus._PURE_MAX_WORK) == pure

    def refuse(*args):
        raise AssertionError("the kernels on the other side of the cut ran")

    # both assemblers run the pure one, so the pivots tell the kernels apart
    monkeypatch.setattr(gfp if pure else gfp_pure, "_pivots", refuse)
    assert len(matroid_parity_max(inst, 1)) == (q - 1) // 2


def test_parity_gives_up_after_fixed_attempts(monkeypatch):
    monkeypatch.setattr(cactus, "pairs_form_forest", lambda inst, indices: False)
    with pytest.raises(RandomizationError) as info:
        matroid_parity_max(parity_instance(complete_graph(5)), 4)
    assert len(info.value.seeds) == cactus._ATTEMPTS >= 1


def whole_graph_instance(g):
    return build_parity_instance(g, enumerate_triangles(g))


def assert_valid_cactus(g, cac):
    """Every chosen triangle is one of ``g``'s, and their pair edges form a forest."""
    index = {t: i for i, t in enumerate(enumerate_triangles(g))}
    assert all(t in index for t in cac.triangles), "not a triangle of g"
    assert pairs_form_forest(whole_graph_instance(g), [index[t] for t in cac.triangles])


def book(pages: int, offset: int = 0):
    """Edges of ``pages`` triangles on the one spine edge (offset, offset + 1)."""
    a, b = offset, offset + 1
    return [(a, b)] + [e for x in range(b + 1, b + 1 + pages) for e in ((a, x), (b, x))]


def test_certified_blocks_skip_the_algebra(monkeypatch):
    def no_algebra(inst, seed):
        raise AssertionError("the algebra ran on a block greedy certifies")

    monkeypatch.setattr(cactus, "matroid_parity_max", no_algebra)
    for g, r in (
        (gen_random_maximal_outerplanar(1000, 1), (1000 - 1) // 2),
        (gen_random(150, 0.3, 1), 74),
    ):
        start = time.perf_counter()
        cac = max_triangular_cactus(g, seed=1)
        assert time.perf_counter() - start < 1.0
        assert cac.r == r
        assert_valid_cactus(g, cac)


def test_uncertified_block_runs_the_algebra_on_its_own_coordinates(monkeypatch):
    calls = []  # the vertex count of each instance the algebra gets
    original = cactus.matroid_parity_max

    def counting(inst, seed):
        calls.append(inst.n)
        return original(inst, seed)

    monkeypatch.setattr(cactus, "matroid_parity_max", counting)
    # A K4 on 0..3 (bound 1, certified), then a book of five triangles on
    # 4..10: it holds one triangle against a bound of three.
    k4 = list(itertools.combinations(range(4), 2))
    g = graph_new(11, k4 + book(5, offset=4))
    cac = max_triangular_cactus(g, seed=2)
    assert calls == [7]
    assert cac.r == 2
    assert_valid_cactus(g, cac)
    # a G(22, 0.4) that no greedy order certifies
    calls.clear()
    g = gen_random(22, 0.4, 15)
    cac = max_triangular_cactus(g, seed=1)
    assert len(calls) == 1
    assert cac.r == len(matroid_parity_max(whole_graph_instance(g), 1))
    assert_valid_cactus(g, cac)


def h_of(g):
    """H, the union of the triangles' edges, on all of ``g``'s vertices."""
    return graph_new(g.n, {e for u, v, w in enumerate_triangles(g) for e in ((u, v), (v, w), (u, w))})


def block_shares(g, order):
    """Greedy over ``order`` restricted to each block of H, block by block."""
    shares = []
    for block in block_decomposition(h_of(g)).blocks:
        members = set(block.vertices)
        ts = [t for t in order if members.issuperset(t)]
        shares.append(Partition(g.n).merge_triples(ts, (len(members) - 1) // 2))
    return shares


def reference_shares(g):
    """Per block of H, greedy over its restriction of the lexicographic order."""
    return block_shares(g, enumerate_triangles(g))


def per_block(g, seed):
    """The per-block route's triangles, fed each block's own lexicographic pass.

    ``max_triangular_cactus`` hands the route the whole-graph lexicographic
    pass instead; the module docstring proves each block's share of it
    equal to greedy over the block's restriction of the order, and feeding
    the route these reference passes keeps that claim under test. The route
    works on the triangle vertices relabelled ``0..t - 1`` in increasing
    order, so the passes go in relabelled and the route's choice comes out
    mapped back.
    """
    triangles = enumerate_triangles(g)
    labels = sorted({v for t in triangles for v in t})
    local = {v: i for i, v in enumerate(labels)}

    def relabel(ts):
        return [tuple(local[x] for x in t) for t in ts]

    lexicographic = relabel(t for share in reference_shares(g) for t in share)
    chosen = cactus._per_block_cactus(len(labels), relabel(triangles), lexicographic, seed)
    return tuple(sorted(tuple(labels[x] for x in t) for t in chosen))


def certifying_step(g):
    """The first of ``max_triangular_cactus``'s steps 1-2 that certifies ``g``, or 3; and the min-degree pass.

    Step 1 is the lexicographic pass at the bound B, step 2 the min-degree
    pass at B, step 3 the per-block route. Here B is always the sum of
    ``(c - 1) // 2`` over H's components, taken from ``connected_components``:
    it equals ``(t - 1) // 2`` wherever the lexicographic pass reaches that
    or keeps one class, so it is the library's gated B. Both passes run in
    full; no cactus exceeds B, so each keeps B exactly when a pass stopped
    at B would, and the same triangles.
    """
    triangles = enumerate_triangles(g)
    vertices = {v for t in triangles for v in t}
    labels = connected_components(h_of(g))
    bound = sum((c - 1) // 2 for c in Counter(labels[v] for v in vertices).values())
    lexicographic = Partition(g.n).merge_triples(triangles, len(triangles))
    min_degree = Partition(g.n).merge_triples(scan_min_degree_order(triangles, g.n), len(triangles))
    if len(lexicographic) == bound:
        return 1, min_degree
    if len(min_degree) == bound:
        return 2, min_degree
    return 3, min_degree


def assert_route(g, seed, cac):
    """``cac`` is what the three steps choose; returns the step that certified ``g``.

    Where step 2 certifies, ``cac`` is the min-degree pass and keeps as many
    triangles as the per-block route; elsewhere it is the per-block route's
    choice, and each block whose lexicographic share reaches its bound keeps
    that share.
    """
    step, min_degree = certifying_step(g)
    reference = per_block(g, seed)
    if step == 2:
        assert cac.triangles == tuple(sorted(min_degree))
        assert cac.r == len(reference)
        return step
    assert cac.triangles == reference
    for block, share in zip(block_decomposition(h_of(g)).blocks, reference_shares(g)):
        members = set(block.vertices)
        if len(share) == (len(members) - 1) // 2:
            assert sorted(share) == [t for t in cac.triangles if members.issuperset(t)]
    return step


def two_k5_sharing_a_cut_vertex():
    return graph_new(9, list(itertools.combinations(range(5), 2))
                     + list(itertools.combinations(range(4, 9), 2)))


DIFFERENTIAL_GRAPHS = {
    **{f"gnp50-{s}": (lambda s=s: gen_random(50, 0.4, s)) for s in (1, 2)},
    **{f"gnp300-{s}": (lambda s=s: gen_random(300, 0.05, s)) for s in (1, 2)},
    "maximal-outerplanar-300": lambda: gen_random_maximal_outerplanar(300, 1),
    **{f"tight-{q}": (lambda q=q: gen_tight_family(q)) for q in range(3, 16, 2)},
    **{f"diamond-{k}": (lambda k=k: gen_diamond_family(k).graph) for k in range(7)},
    "two-k5": two_k5_sharing_a_cut_vertex,
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL_GRAPHS))
def test_per_block_matches_whole_graph_algebra(name):
    g = DIFFERENTIAL_GRAPHS[name]()
    cac = max_triangular_cactus(g, seed=1)
    assert cac.r == len(matroid_parity_max(whole_graph_instance(g), 1))
    assert_valid_cactus(g, cac)
    # the whole-graph greedy certificates choose what the per-block route does,
    # except the min-degree pass, which keeps as many
    assert_route(g, 1, cac)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 12),
    p=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    graph_seed=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
    pages=st.integers(0, 5),
)
def test_per_block_matches_brute_force(n, p, graph_seed, seed, pages):
    # a book beside G(n, p), within 12 vertices in all, gives a block that
    # greedy cannot certify once it has three pages
    pages = min(pages, 10 - n)
    g = gen_random(n, p, graph_seed)
    if pages > 0:
        g = graph_new(n + pages + 2, list(g.edges) + book(pages, offset=n))
    cac = max_triangular_cactus(g, seed)
    assert_valid_cactus(g, cac)
    assert cac.r == brute_force_cactus(g).r
    for block in block_decomposition(h_of(g)).blocks:
        members = set(block.vertices)
        r_b = sum(1 for t in cac.triangles if members.issuperset(t))
        assert r_b == brute_force_cactus(graph_new(g.n, block.edges)).r


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 14),
    p=st.sampled_from([0.2, 0.4, 0.6, 0.8, 1.0]),
    graph_seed=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
)
def test_whole_graph_certificate_matches_per_block(n, p, graph_seed, seed):
    g = gen_random(n, p, graph_seed)
    if enumerate_triangles(g):
        assert_route(g, seed, max_triangular_cactus(g, seed))


def test_min_degree_pass_can_keep_other_triangles_than_the_per_block_route():
    # H has two blocks, and the lexicographic share of the first already meets
    # its bound with (0, 2, 7); the per-block route keeps that share, and a
    # shuffle certifies the second
    g = gen_random(8, 0.5, 1298)
    assert certifying_step(g)[0] == 2
    assert len(block_decomposition(h_of(g)).blocks) == 2
    assert max_triangular_cactus(g, seed=0).triangles == ((0, 4, 7), (1, 2, 6), (1, 3, 5))
    assert per_block(g, 0) == ((0, 2, 7), (1, 2, 6), (1, 3, 5))


def test_whole_graph_certificate_builds_no_blocks(monkeypatch):
    def no_blocks(graph):
        raise AssertionError("H was decomposed although one greedy pass certifies the graph")

    monkeypatch.setattr(cactus, "block_decomposition", no_blocks)
    for g, r in ((gen_random(150, 0.3, 1), 74), (complete_graph(5), 2)):
        cac = max_triangular_cactus(g, seed=1)
        assert cac.r == r
        assert_valid_cactus(g, cac)


def test_component_certificate_builds_no_blocks(monkeypatch):
    def no_blocks(graph):
        raise AssertionError("H was decomposed although its components certify the pass")

    def no_min_degree(triangles, n):
        raise AssertionError("the min-degree pass ran although H's components certify the lexicographic one")

    monkeypatch.setattr(cactus, "block_decomposition", no_blocks)
    monkeypatch.setattr(cactus, "_min_degree_order", no_min_degree)
    # two disjoint K4s: t = 8 gives (t - 1) // 2 = 3, but H's components give B = 1 + 1 = 2
    k4 = list(itertools.combinations(range(4), 2))
    g = graph_new(8, k4 + [(u + 4, v + 4) for u, v in k4])
    cac = max_triangular_cactus(g, seed=1)
    assert cac.r == 2
    assert_valid_cactus(g, cac)


def test_min_degree_certificate_builds_no_blocks(monkeypatch):
    def no_blocks(graph):
        raise AssertionError("H was decomposed although the min-degree pass certifies the graph")

    g = gen_random(22, 0.4, 0)
    triangles = enumerate_triangles(g)
    vertices = {v for t in triangles for v in t}
    # t = 21: the lexicographic pass keeps 9 of the bound 10, which is also
    # the sum over H's components; min-degree order reaches 10
    assert (len(vertices) - 1) // 2 == cactus._component_bound(triangles, vertices, g.n) == 10
    assert len(Partition(g.n).merge_triples(triangles, len(triangles))) == 9
    monkeypatch.setattr(cactus, "block_decomposition", no_blocks)
    cac = max_triangular_cactus(g, seed=1)
    assert cac.r == 10
    assert cac.triangles == tuple(sorted(Partition(g.n).merge_triples(scan_min_degree_order(triangles, g.n), 10)))
    assert_valid_cactus(g, cac)


def test_min_degree_pass_certifies_at_the_component_bound(monkeypatch):
    def no_blocks(graph):
        raise AssertionError("H was decomposed although the min-degree pass keeps B")

    # a K4 on 22..25 beside G(22, 0.4, 0): t = 25 gives (t - 1) // 2 = 12, but H has
    # two components, so B = 10 + 1 = 11. The lexicographic pass keeps 9 + 1 = 10,
    # and min-degree order reaches 11
    k4 = list(itertools.combinations(range(22, 26), 2))
    g = graph_new(26, list(gen_random(22, 0.4, 0).edges) + k4)
    triangles = enumerate_triangles(g)
    vertices = {v for t in triangles for v in t}
    assert (len(vertices) - 1) // 2 == 12
    assert cactus._component_bound(triangles, vertices, g.n) == 11
    assert len(Partition(g.n).merge_triples(triangles, len(triangles))) == 10
    monkeypatch.setattr(cactus, "block_decomposition", no_blocks)
    cac = max_triangular_cactus(g, seed=1)
    assert cac.r == 11
    assert cac.triangles == tuple(sorted(Partition(g.n).merge_triples(scan_min_degree_order(triangles, g.n), 11)))
    assert_valid_cactus(g, cac)


def test_one_class_skips_the_component_bound(monkeypatch):
    def no_component_bound(triangles, vertices, n):
        raise AssertionError("the component sum was taken although the kept triangles form one class")

    # the lexicographic pass keeps 9 triangles on 19 vertices: 19 - 2 * 9 = 1 class
    g = gen_random(22, 0.4, 0)
    monkeypatch.setattr(cactus, "_component_bound", no_component_bound)
    cac = max_triangular_cactus(g, seed=1)
    assert cac.r == 10
    assert_valid_cactus(g, cac)


def test_greedy_stops_the_min_degree_elimination_at_the_bound(monkeypatch):
    drawn = []
    original = cactus._min_degree_order

    def counting(triangles, n):
        for t in original(triangles, n):
            drawn.append(t)
            yield t

    g = gen_random(22, 0.4, 0)
    monkeypatch.setattr(cactus, "_min_degree_order", counting)
    cac = max_triangular_cactus(g, seed=1)
    # the min-degree pass certifies with 10 triangles, long before the order's last of 72
    assert cac.r == 10
    assert 10 <= len(drawn) < len(enumerate_triangles(g)) == 72


def test_shuffle_certifies_the_block_its_lexicographic_share_misses(monkeypatch):
    # G(22, 0.4, 0) beside a 3-page book, which nothing certifies: the
    # whole-graph min-degree pass misses the bound, so the per-block route
    # runs. The 21-vertex block's lexicographic share keeps 9 of its bound
    # of 10, a shuffle reaches 10, and only the book goes to the algebra
    calls = []  # the vertex count of each instance the algebra gets
    original = cactus.matroid_parity_max

    def counting(inst, seed):
        calls.append(inst.n)
        return original(inst, seed)

    g = graph_new(27, list(gen_random(22, 0.4, 0).edges) + book(3, offset=22))
    assert certifying_step(g)[0] == 3
    assert [len(share) for share in reference_shares(g)] == [9, 1]
    monkeypatch.setattr(cactus, "matroid_parity_max", counting)
    cac = max_triangular_cactus(g, seed=1)
    monkeypatch.undo()
    assert calls == [5]
    assert cac.r == 11
    assert_route(g, 1, cac)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 14),
    p=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    graph_seed=st.integers(0, 10**6),
    pages=st.integers(0, 5),
    order_seed=st.integers(0, 10**6),
)
def test_block_share_of_a_whole_graph_pass_is_greedy_on_the_block(n, p, graph_seed, pages, order_seed):
    # the book's spine starts at vertex n - 1, so it may meet G(n, p) at a cut vertex
    g = gen_random(n, p, graph_seed)
    if pages > 0:
        g = graph_new(n + pages + 1, list(g.edges) + book(pages, offset=n - 1))
    triangles = enumerate_triangles(g)
    if not triangles:
        return
    shuffled = list(triangles)
    random.Random(order_seed).shuffle(shuffled)
    blocks = block_decomposition(h_of(g)).blocks
    for order in (list(cactus._min_degree_order(triangles, g.n)), shuffled):
        kept = Partition(g.n).merge_triples(order, len(triangles))
        for block, own in zip(blocks, block_shares(g, order)):
            members = set(block.vertices)
            assert [t for t in kept if members.issuperset(t)] == own


def test_min_degree_pass_and_per_block_route_hold_only_the_triangle_vertices(monkeypatch):
    # a 5-page book in the middle of 200 000 isolated vertices reaches the per-block route:
    # the min-degree queue and H both hold the book's 7 vertices, not g.n
    sizes, h_sizes = [], []
    original_heapify = cactus.heapify

    def recording_heapify(heap):
        sizes.append(len(heap))
        original_heapify(heap)

    def recording_blocks(h):
        h_sizes.append(h.n)
        return block_decomposition(h)

    monkeypatch.setattr(cactus, "heapify", recording_heapify)
    monkeypatch.setattr(cactus, "block_decomposition", recording_blocks)
    g = graph_new(200_007, book(5, offset=100_000))
    cac = max_triangular_cactus(g, seed=1)
    assert sizes == [7]
    assert h_sizes == [7]
    assert cac.r == 1 and cac.triangles[0][:2] == (100_000, 100_001)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 16),
    p=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    graph_seed=st.integers(0, 10**6),
    seed=st.integers(0, 10**6),
    spread=st.integers(0, 5000),
    layout=st.randoms(use_true_random=False),
)
def test_cactus_is_invariant_under_monotone_relabelling(n, p, graph_seed, seed, spread, layout):
    # G(n, p) mapped in increasing order onto n of n + spread labels; each free
    # label hangs as a pendant on a mapped vertex, which adds no triangle
    g = gen_random(n, p, graph_seed)
    labels = sorted(layout.sample(range(n + spread), n))
    free = sorted(set(range(n + spread)) - set(labels))
    edges = [(labels[u], labels[v]) for u, v in g.edges]
    edges += [(x, labels[layout.randrange(n)]) for x in free]
    spread_out = graph_new(n + spread, edges)
    expected = tuple(sorted(tuple(labels[x] for x in t) for t in max_triangular_cactus(g, seed).triangles))
    assert max_triangular_cactus(spread_out, seed).triangles == expected


def disjoint_union(graphs):
    offset, edges = 0, []
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edges]
        offset += h.n
    return graph_new(offset, edges)


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(
        st.tuples(st.integers(1, 10), st.sampled_from([0.3, 0.5, 0.7, 0.9]), st.integers(0, 10**6)),
        min_size=2,
        max_size=4,
    ),
    seed=st.integers(0, 10**6),
)
def test_component_certificate_matches_per_block(parts, seed):
    g = disjoint_union([gen_random(n, p, graph_seed) for n, p, graph_seed in parts])
    triangles = enumerate_triangles(g)
    if not triangles:
        return
    # H is decomposed exactly when neither whole-graph pass certifies
    with mock.patch.object(cactus, "block_decomposition", wraps=block_decomposition) as decompose:
        cac = max_triangular_cactus(g, seed)
    step = assert_route(g, seed, cac)
    assert decompose.called == (step == 3)


def always_component_bound(g, seed):
    """``max_triangular_cactus`` with the component sum taken wherever the first pass misses.

    The three steps without the gate on the kept triangles' classes: B is
    lowered to the sum on every graph whose lexicographic pass misses
    ``(t - 1) // 2``. The min-degree order is drawn in full. This is the
    reference for the gate. Returns the chosen triangles, sorted, and the
    step that certified them, 3 for the per-block route.
    """
    triangles = enumerate_triangles(g)
    vertices = {v for t in triangles for v in t}
    bound = (len(vertices) - 1) // 2
    kept = Partition(g.n).merge_triples(triangles, bound)
    if len(kept) < bound:
        bound = cactus._component_bound(triangles, vertices, g.n)
    if len(kept) == bound:
        return tuple(sorted(kept)), 1
    labels = sorted(vertices)
    t = len(labels)
    local = {v: i for i, v in enumerate(labels)}
    ts = [(local[u], local[v], local[w]) for u, v, w in triangles]
    chosen, step = Partition(t).merge_triples(list(cactus._min_degree_order(ts, t)), bound), 2
    if len(chosen) < bound:
        lexicographic = [(local[u], local[v], local[w]) for u, v, w in kept]
        chosen, step = cactus._per_block_cactus(t, ts, lexicographic, seed), 3
    return tuple(sorted((labels[u], labels[v], labels[w]) for u, v, w in chosen)), step


@settings(max_examples=150, deadline=None)
@given(
    parts=st.lists(
        st.tuples(st.integers(1, 10), st.sampled_from([0.3, 0.5, 0.7, 0.9]), st.integers(0, 10**6)),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 10**6),
)
def test_class_gate_matches_always_taking_the_component_bound(parts, seed):
    g = disjoint_union([gen_random(n, p, graph_seed) for n, p, graph_seed in parts])
    if not enumerate_triangles(g):
        return
    expected, step = always_component_bound(g, seed)
    # the gate skips the sum only where it equals (t - 1) // 2, so B and every step are as without it
    with mock.patch.object(cactus, "_min_degree_order", wraps=cactus._min_degree_order) as min_degree:
        cac = max_triangular_cactus(g, seed)
    assert cac.triangles == expected
    assert min_degree.called == (step >= 2)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(
        st.tuples(st.integers(1, 12), st.sampled_from([0.3, 0.5, 0.7, 0.9]), st.integers(0, 10**6)),
        min_size=1,
        max_size=4,
    ),
)
def test_component_bound_sums_over_components_of_h(parts):
    g = disjoint_union([gen_random(n, p, graph_seed) for n, p, graph_seed in parts])
    triangles = enumerate_triangles(g)
    vertices = {v for t in triangles for v in t}
    labels = connected_components(h_of(g))
    sizes = Counter(labels[v] for v in vertices)
    assert cactus._component_bound(triangles, vertices, g.n) == sum((c - 1) // 2 for c in sizes.values())


def find_greedy(order, n: int, stop: int):
    """Greedy on :meth:`Partition.find` calls and explicit links: the reference for ``merge_triples``.

    Returns the kept triples, the parents and count it leaves, and how many
    triples it drew from ``order``.
    """
    part = Partition(n)
    kept, drawn = [], 0
    for t in order:
        drawn += 1
        ru, rv, rw = map(part.find, t)
        if ru != rv and ru != rw and rv != rw:
            part.parent[rv] = part.parent[rw] = ru
            part.count -= 2
            kept.append(t)
            if len(kept) == stop:
                break
    return kept, part.parent, part.count, drawn


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 14),
    p=st.sampled_from([0.3, 0.5, 0.7, 1.0]),
    graph_seed=st.integers(0, 10**6),
    order_seed=st.integers(0, 10**6),
    stop=st.integers(0, 10),
)
def test_greedy_matches_partition_reference(n, p, graph_seed, order_seed, stop):
    # a stop of 0, or above (n - 1) // 2, is never reached, so the pass runs to the end
    order = list(enumerate_triangles(gen_random(n, p, graph_seed)))
    random.Random(order_seed).shuffle(order)
    drawn = 0

    def counted():
        nonlocal drawn
        for t in order:
            drawn += 1
            yield t

    part = Partition(n)
    kept = part.merge_triples(counted(), stop)
    assert (kept, part.parent, part.count, drawn) == find_greedy(order, n, stop)
    assert part.count == n - 2 * len(kept)
    if kept and len(kept) == stop:
        assert drawn == order.index(kept[-1]) + 1


def scan_min_degree_order(triangles, n: int):
    """``_min_degree_order`` by a linear scan: the reference for its packed heap.

    Each step deletes the undeleted vertex with the fewest live triangles,
    the smallest such vertex on a tie, and emits its live triangles in list
    order.
    """
    live = [0] * n
    for t in triangles:
        for x in t:
            live[x] += 1
    undeleted = set(range(n))
    emitted = [False] * len(triangles)
    order = []
    while undeleted:
        v = min(undeleted, key=lambda x: (live[x], x))
        undeleted.remove(v)
        for i, t in enumerate(triangles):
            if v in t and not emitted[i]:
                emitted[i] = True
                order.append(t)
                for x in t:
                    live[x] -= 1
    return order


def block_triangle_lists(g):
    """The triangles of each block of H, relabelled to the block's own vertices."""
    triangles = enumerate_triangles(g)
    if not triangles:
        return []
    lists = []
    for block in block_decomposition(h_of(g)).blocks:
        local = {v: i for i, v in enumerate(block.vertices)}
        edges = set(block.edges)
        ts = [tuple(local[x] for x in t) for t in triangles if t[:2] in edges]
        lists.append((ts, len(block.vertices)))
    return lists


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(3, 16),
    p=st.sampled_from([0.3, 0.5, 0.7, 0.9]),
    graph_seed=st.integers(0, 10**6),
)
def test_min_degree_order_matches_scan_reference(n, p, graph_seed):
    for ts, n_b in block_triangle_lists(gen_random(n, p, graph_seed)):
        assert list(cactus._min_degree_order(ts, n_b)) == scan_min_degree_order(ts, n_b)


def test_min_degree_order_matches_scan_reference_on_dense_blocks():
    # the dense-block benchmark's graph family: one block of 60-140 triangles
    for graph_seed in range(50):
        for ts, n_b in block_triangle_lists(gen_random(22, 0.4, graph_seed)):
            assert list(cactus._min_degree_order(ts, n_b)) == scan_min_degree_order(ts, n_b)


def in_fresh_interpreter(code: str) -> list[str]:
    """What ``code`` prints in a fresh interpreter, then whether it loaded numpy."""
    src = os.path.dirname(os.path.dirname(cactus.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.stdout.split()


@pytest.mark.parametrize("module", ["mops", "mops.cli"])
def test_import_leaves_numpy_unloaded(module):
    assert in_fresh_interpreter(f"import {module}") == ["False"]


K4_AND_BOOK = f"graph_new(11, {list(itertools.combinations(range(4), 2)) + book(5, offset=4)})"


@pytest.mark.parametrize(
    "graph, r, loaded",
    [
        ("gen_random(150, 0.3, 1)", 74, "False"),
        ("gen_random(22, 0.4, 0)", 10, "False"),
        ("gen_random(22, 0.4, 27)", 10, "False"),
        # like dense-block's graphs: its one uncertified block, 22 vertices and
        # 73 triangles (2 T n^2 = 70 664), lies under the cut
        ("gen_random(22, 0.4, 15)", 10, "False"),
        # one uncertified block of 40 vertices and 309 triangles: 988 800, above it
        ("gen_random(40, 0.3, 79)", 19, "True"),
        # its n_b = 7 block reaches the algebra below the cut, where the pure kernels run
        (K4_AND_BOOK, 2, "False"),
        # its one uncertified block has 15 vertices and 13 triangles: 2 T n^2 = 5 850
        ("gen_random(30, 0.1, 344)", 6, "False"),
    ],
    ids=[
        "whole-graph-certified",
        "min-degree-certified",
        "shuffle-certified",
        "uncertified-block",
        "uncertified-block-above-the-cut",
        "uncertified-block-below-the-cut",
        "sparse-block-of-15-vertices-below-the-cut",
    ],
)
def test_numpy_loads_only_when_a_block_reaches_the_algebra(graph, r, loaded):
    code = f"from mops import gen_random, graph_new, run_sts\nprint(run_sts({graph}, seed=1).r)"
    assert in_fresh_interpreter(code) == [str(r), loaded]
