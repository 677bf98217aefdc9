import random
import time

import pytest

from mops import (
    ValidationError,
    block_decomposition,
    gen_diamond_family,
    gen_random,
    gen_random_maximal_outerplanar,
    gen_tight_family,
    graph_new,
    is_outerplanar,
)
from _builders import complete_graph


@pytest.mark.parametrize("q,n,m", [(3, 9, 12), (5, 15, 22), (7, 21, 32)])
def test_tight_family_sizes(q, n, m):
    g = gen_tight_family(q)
    assert (g.n, g.m) == (n, m)
    assert is_outerplanar(g)


def test_tight_family_rejects_bad_q():
    with pytest.raises(ValidationError):
        gen_tight_family(4)
    with pytest.raises(ValidationError):
        gen_tight_family(1)


def test_tight_family_core_is_triangulated():
    g = gen_tight_family(7)
    core_edges = [e for e in g.edges if e[0] < 7 and e[1] < 7]
    assert len(core_edges) == 2 * 7 - 3
    # attachment vertices have degree exactly 2
    for v in range(7, g.n):
        assert len(g.neighbors(v)) == 2


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_diamond_family_closed_forms(k):
    inst = gen_diamond_family(k)
    assert inst.graph.n == 3 * 2**k
    assert len(inst.h_edges) == 2 * 3 * 2**k - 3
    if k == 0:
        assert inst.d_edges == frozenset() and inst.d_vertices == ()
    else:
        assert len(inst.d_vertices) == 1 + 3 * 2 ** (k - 1)
        # one block per diamond
        d = graph_new(inst.graph.n, sorted(inst.d_edges))
        assert len(block_decomposition(d).blocks) == 2 ** (k - 1)


def test_diamond_family_h_is_triangulated_outerplanar():
    for k in range(4):
        inst = gen_diamond_family(k)
        h = graph_new(inst.graph.n, sorted(inst.h_edges))
        assert is_outerplanar(h)


def test_diamond_family_d_side_is_diamond_chain():
    inst = gen_diamond_family(2)
    d = graph_new(inst.graph.n, sorted(inst.d_edges))
    blocks = block_decomposition(d).blocks
    assert len(blocks) == 2
    for b in blocks:
        assert len(b.vertices) == 4 and len(b.edges) == 5


def test_diamond_family_size_guard():
    with pytest.raises(ValidationError):
        gen_diamond_family(11)
    with pytest.raises(ValidationError):
        gen_diamond_family(-1)


@pytest.mark.parametrize(
    "make, args, n",
    [
        (gen_random, (10**8, 0.0, 0), 10**8),
        (gen_tight_family, (3_333_335,), 10_000_005),
        (gen_random_maximal_outerplanar, (10**8, 0), 10**8),
    ],
    ids=["gnp", "tight", "maximal-outerplanar"],
)
def test_generators_check_the_vertex_cap_first(make, args, n):
    # the check graph_new makes, before any pair is drawn or edge built
    start = time.perf_counter()
    with pytest.raises(ValidationError, match=rf"^graph needs 1 to 10000000 vertices, got n={n}$"):
        make(*args)
    assert time.perf_counter() - start < 0.5


def test_gnp_extremes():
    assert gen_random(5, 1.0, 3) == complete_graph(5)
    assert gen_random(5, 0.0, 3).m == 0


def test_gnp_deterministic():
    a = gen_random(8, 0.5, 42)
    b = gen_random(8, 0.5, 42)
    assert a == b
    assert a != gen_random(8, 0.5, 43)


def test_random_maximal_outerplanar():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 12)
        g = gen_random_maximal_outerplanar(n, rng.randrange(10**6))
        assert g.m == 2 * n - 3
        assert is_outerplanar(g)


def test_random_maximal_outerplanar_is_maximal():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(4, 7)
        g = gen_random_maximal_outerplanar(n, rng.randrange(10**6))
        for u in range(n):
            for v in range(u + 1, n):
                if not g.has_edge(u, v):
                    bigger = graph_new(n, list(g.edges) + [(u, v)])
                    assert not is_outerplanar(bigger)
