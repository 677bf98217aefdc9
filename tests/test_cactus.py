import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mops import (
    SizeLimitError,
    ValidationError,
    brute_force_cactus,
    build_parity_instance,
    choose_prime,
    connected_components,
    enumerate_triangles,
    gen_random,
    gen_tight_family,
    graph_new,
    matroid_parity_max,
    max_triangular_cactus,
    pairs_form_forest,
)
from mops.cactus import _is_prime, _next_prime, _rank_mod_p
from _builders import complete_graph, cycle_graph


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


def test_choose_prime():
    p = choose_prime(10, 9)
    assert _is_prime(p) and p > max(2 * 10 * 81, 10**6)


def test_instance_k3_vectors():
    g = complete_graph(3)
    inst = build_parity_instance(g, enumerate_triangles(g), choose_prime(1, 3))
    assert len(inst.triangles) == 1
    for slot in (0, 1):
        vec = inst.element_vector(0, slot)
        assert np.count_nonzero(vec) == 2
        assert sorted(vec[vec != 0] % inst.p) == sorted([1, inst.p - 1])


def test_instance_rejects_bad_prime():
    g = complete_graph(3)
    ts = enumerate_triangles(g)
    with pytest.raises(ValidationError, match="not prime"):
        build_parity_instance(g, ts, 10**6)
    with pytest.raises(ValidationError, match="too small"):
        build_parity_instance(g, ts, 17)


def test_disjoint_triangles_jointly_independent():
    g = two_disjoint_triangles()
    inst = build_parity_instance(g, enumerate_triangles(g), choose_prime(2, 6))
    assert pairs_form_forest(inst, [0, 1])
    cols = np.stack(
        [inst.element_vector(i, s) for i in (0, 1) for s in (0, 1)], axis=1
    )
    assert _rank_mod_p(cols, inst.p) == 4


def test_shared_edge_triangles_conflict():
    g = shared_edge_triangles()
    ts = enumerate_triangles(g)
    assert len(ts) == 2
    inst = build_parity_instance(g, ts, choose_prime(2, 4))
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
        inst = build_parity_instance(g, ts, choose_prime(len(ts), g.n))
        for size in range(1, len(ts) + 1):
            for sub in itertools.combinations(range(len(ts)), size):
                cols = np.stack(
                    [inst.element_vector(i, s) for i in sub for s in (0, 1)], axis=1
                )
                assert (_rank_mod_p(cols, inst.p) == 2 * size) == pairs_form_forest(
                    inst, sub
                )
        checked += 1
    assert checked >= 30


def test_parity_k3_and_disjoint():
    g = complete_graph(3)
    inst = build_parity_instance(g, enumerate_triangles(g), choose_prime(1, 3))
    assert matroid_parity_max(inst, seed=0) == [0]
    g2 = two_disjoint_triangles()
    inst2 = build_parity_instance(g2, enumerate_triangles(g2), choose_prime(2, 6))
    assert matroid_parity_max(inst2, seed=0) == [0, 1]


def test_parity_k4_selects_one():
    g = complete_graph(4)
    ts = enumerate_triangles(g)
    inst = build_parity_instance(g, ts, choose_prime(len(ts), 4))
    # exhaustive: every pair of K4 triangles shares an edge or closes a cycle
    for a, b in itertools.combinations(range(4), 2):
        assert not pairs_form_forest(inst, [a, b])
    assert len(matroid_parity_max(inst, seed=1)) == 1


def test_parity_deterministic_in_seed():
    g = gen_random(8, 0.6, 123)
    ts = enumerate_triangles(g)
    inst = build_parity_instance(g, ts, choose_prime(len(ts), 8))
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


# Primes with p (p + 1) >= 2^63, where products of reduced entries can overflow int64.
LARGE_PRIMES = (_next_prime(3_100_000_000), 2**61 - 1)


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
    p=st.sampled_from(LARGE_PRIMES),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_mod_large_prime(rows, cols, rank_share, p, seed):
    assert p * (p + 1) >= 2**63
    rank = round(rank_share * min(rows, cols))
    mat = known_rank_matrix(rows, cols, rank, p, random.Random(seed))
    assert _rank_mod_p(mat, p) == rank
