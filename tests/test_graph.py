import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mops import (
    Graph,
    ParseError,
    Partition,
    ValidationError,
    connected_components,
    gen_random,
    gen_tight_family,
    graph_new,
    read_edgelist,
    write_edgelist,
)
from _builders import CallingPartition, complete_graph, induced_subgraph, path_graph


def test_triangle_construction():
    g = graph_new(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.neighbors(0) == (1, 2)


def test_single_vertex():
    g = graph_new(1, [])
    assert g.n == 1 and g.m == 0


def test_duplicate_edges_collapse():
    g = graph_new(4, [(0, 1), (1, 0)])
    assert g.n == 4 and g.edges == ((0, 1),)


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match=r"\(2, 2\)"):
        graph_new(3, [(2, 2)])


def test_out_of_range_rejected():
    with pytest.raises(ValidationError, match=r"\(1, 5\)"):
        graph_new(4, [(1, 5)])


def test_adjacency_symmetric_and_sorted():
    rng = random.Random(5)
    for _ in range(50):
        g = gen_random(rng.randint(1, 12), rng.random(), rng.randrange(10**6))
        seen = set()
        for v in range(g.n):
            nbrs = g.neighbors(v)
            assert list(nbrs) == sorted(nbrs)
            for w in nbrs:
                assert v in g.neighbors(w)
                seen.add((min(v, w), max(v, w)))
        assert seen == set(g.edges)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20), p=st.floats(0, 1), seed=st.integers(0, 10**6))
def test_has_edge_matches_edge_tuple(n, p, seed):
    # -1 and n lie outside the graph: has_edge answers False there and never raises
    g = gen_random(n, p, seed)
    edges = set(g.edges)
    for u in range(-1, n + 1):
        for v in range(-1, n + 1):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)


def test_graph_indices_memory():
    # 2 x 10^5 vertices, 3 x 10^5 edges: the sorted neighbour tuples take about
    # 13.4 MiB after construction; a frozen set of the edges would add 8 more
    rng = random.Random(11)
    n = 200_000
    edges = set()
    while len(edges) < 300_000:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(edges))
    tracemalloc.start()
    try:
        g = Graph(n, edges)
        current, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == 300_000
    assert current < 16 * 2**20


def test_vertex_count_above_cap_rejected_first():
    # the self-loop is found before anything of size n is allocated, so the cap
    # must fire before it, and only above 10^7 (tests/test_cli.py reads a header)
    with pytest.raises(ValidationError, match=r"needs 1 to 10000000 vertices, got n=10000001"):
        graph_new(10_000_001, [(0, 0)])
    with pytest.raises(ValidationError, match=r"self-loop"):
        graph_new(10_000_000, [(0, 0)])


def test_components_triangle():
    g = graph_new(3, [(0, 1), (1, 2), (0, 2)])
    assert connected_components(g) == [0, 0, 0]


def test_components_with_isolated():
    g = graph_new(4, [(2, 3)])
    assert connected_components(g) == [0, 1, 2, 2]


def test_components_tight_family_connected():
    g = gen_tight_family(3)
    labels = connected_components(g)
    assert max(labels) == 0


def test_induced_k4_minus_vertex():
    sub, back = induced_subgraph(complete_graph(4), {0, 1, 2})
    assert sub.edges == ((0, 1), (0, 2), (1, 2))
    assert back == [0, 1, 2]


def test_induced_path_endpoints():
    sub, back = induced_subgraph(path_graph(3), {0, 2})
    assert sub.n == 2 and sub.m == 0
    assert back == [0, 2]


def test_induced_tight_family_hub():
    sub, _ = induced_subgraph(gen_tight_family(3), {0, 1, 2})
    assert sub.edges == ((0, 1), (0, 2), (1, 2))


def test_induced_requires_vertices():
    with pytest.raises(ValidationError):
        induced_subgraph(path_graph(3), set())


def test_read_basic():
    g = read_edgelist("p 3 3\ne 1 2\ne 2 3\ne 1 3")
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_read_no_edges():
    g = read_edgelist("p 2 0")
    assert g.n == 2 and g.m == 0


def test_read_comments_ignored():
    g = read_edgelist("c hello\np 2 1\nc mid\ne 1 2\n")
    assert g.edges == ((0, 1),)


def test_read_index_out_of_range():
    with pytest.raises(ParseError, match="index 3 > n=2"):
        read_edgelist("p 2 1\ne 1 3")


def test_read_reports_line_number():
    with pytest.raises(ParseError, match="line 3"):
        read_edgelist("c x\np 2 1\ne 1 9")


def test_read_edge_count_mismatch():
    with pytest.raises(ParseError, match="claims 2"):
        read_edgelist("p 3 2\ne 1 2")


def test_read_missing_header():
    with pytest.raises(ParseError):
        read_edgelist("e 1 2")


def test_roundtrip_random_graphs():
    rng = random.Random(99)
    for _ in range(1000):
        g = gen_random(rng.randint(1, 10), rng.random(), rng.randrange(10**6))
        text = write_edgelist(g)
        assert read_edgelist(text) == g
        assert write_edgelist(read_edgelist(text)) == text


def test_partition_find_idempotent_union_counts():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(1, 20)
        part = Partition(n)
        for _ in range(30):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            before = part.count
            merged = part.union(u, v)
            assert part.count == before - (1 if merged else 0)
            root = part.find(u)
            assert part.find(root) == root


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 30),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["find", "union", "merge", "roots"]),
            st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), min_size=1, max_size=4),
        ),
        max_size=60,
    ),
)
def test_partition_union_matches_calling_reference(n, ops):
    # interleaved finds and roots halve paths too, so they shape the trees the unions walk;
    # a merge of a few pairs must act as the reference's union calls on them in turn
    part, ref = Partition(n), CallingPartition(n)
    for kind, pairs in ops:
        pairs = [(u % n, v % n) for u, v in pairs]
        u, v = pairs[0]
        if kind == "find":
            assert part.find(u) == ref.find(u)
        elif kind == "union":
            assert part.union(u, v) == ref.union(u, v)
        elif kind == "merge":
            assert part.merge(pairs) == [pair for pair in pairs if ref.union(*pair)]
        else:
            assert part.roots() == [ref.find(x) for x in range(n)]
        assert (part.parent, part.count) == (ref.parent, ref.count)


def test_partition_matches_components():
    rng = random.Random(23)
    for _ in range(100):
        g = gen_random(rng.randint(1, 12), rng.random(), rng.randrange(10**6))
        part = Partition(g.n)
        for u, v in g.edges:
            part.union(u, v)
        labels = connected_components(g)
        assert part.count == max(labels) + 1
        for u, v in g.edges:
            assert part.find(u) == part.find(v)


def test_partition_connected_graph_single_component():
    g = complete_graph(6)
    part = Partition(g.n)
    for u, v in g.edges:
        part.union(u, v)
    assert part.count == 1
