import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mops
from mops import (
    ValidationError,
    block_decomposition,
    gen_random,
    gen_random_maximal_outerplanar,
    gen_tight_family,
    graph_new,
    induced_subgraph,
    is_outerplanar,
    outerplanar_brute_force,
    outerplane_embedding,
    validate_sts_structure,
)
from _builders import (
    complete_bipartite_2_3,
    complete_graph,
    cycle_graph,
    diamond_graph,
    path_graph,
)


def test_k4_not_outerplanar():
    assert not is_outerplanar(complete_graph(4))


def test_k23_not_outerplanar():
    g = complete_bipartite_2_3()
    assert not is_outerplanar(g)
    assert not outerplanar_brute_force(g)


def test_tight_family_outerplanar():
    assert is_outerplanar(gen_tight_family(7))


def test_small_graphs_trivially_outerplanar():
    assert is_outerplanar(graph_new(1, []))
    assert is_outerplanar(path_graph(2))
    assert is_outerplanar(complete_graph(3))


def test_agrees_with_brute_force_search():
    rng = random.Random(31)
    for _ in range(300):
        g = gen_random(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6, 0.9]), rng.randrange(10**6))
        assert is_outerplanar(g) == outerplanar_brute_force(g), g.edges


def test_supergraphs_of_k4_stay_rejected():
    base = list(complete_graph(4).edges)
    for extra in [(0, 4), (3, 4), (4, 5)]:
        g = graph_new(6, base + [extra])
        assert not is_outerplanar(g)


def test_embedding_triangle():
    emb = outerplane_embedding(complete_graph(3))
    assert emb.t == 1 and emb.s == 0
    assert emb.inner_faces() == [(0, 1, 2)]


def test_embedding_square():
    emb = outerplane_embedding(cycle_graph(4))
    assert emb.t == 0 and emb.s == 1
    [face] = emb.inner_faces()
    assert len(face) == 4


def test_embedding_tight_family_3():
    # hand-checked: the triangulated core keeps one triangular face and each
    # of the three attachment paths closes a quadrilateral with a core edge
    emb = outerplane_embedding(gen_tight_family(3))
    assert emb.t == 1 and emb.s == 3


def test_embedding_rejects_non_outerplanar():
    with pytest.raises(ValidationError, match="is_outerplanar"):
        outerplane_embedding(complete_graph(4))


def test_embedding_face_identities():
    rng = random.Random(47)
    for _ in range(60):
        n = rng.randint(3, 12)
        g = gen_random_maximal_outerplanar(n, rng.randrange(10**6))
        emb = outerplane_embedding(g)
        for blk in emb.blocks:
            nb = len(blk.boundary)
            mb = nb + sum(1 for f in blk.inner_faces) - 1
            assert sum(len(f) - 2 for f in blk.inner_faces) == nb - 2
            assert sum(len(f) - 1 for f in blk.inner_faces) == mb - 1


def test_embedding_faces_are_cycles_and_boundary_edges_exist():
    rng = random.Random(53)
    for _ in range(40):
        g = gen_random(rng.randint(3, 9), 0.4, rng.randrange(10**6))
        if not is_outerplanar(g):
            continue
        emb = outerplane_embedding(g)
        for blk in emb.blocks:
            for u, v in blk.boundary_edges:
                assert g.has_edge(u, v)
            for face in blk.inner_faces:
                for i, u in enumerate(face):
                    assert g.has_edge(u, face[(i + 1) % len(face)])


def test_blocks_two_triangles_sharing_vertex():
    g = graph_new(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    dec = block_decomposition(g)
    assert len(dec.blocks) == 2
    assert dec.cut_vertices == {2}


def test_blocks_tree_is_bridges():
    dec = block_decomposition(path_graph(4))
    assert len(dec.blocks) == 3
    assert all(b.is_bridge for b in dec.blocks)


def test_blocks_diamond_single_block():
    dec = block_decomposition(diamond_graph())
    assert len(dec.blocks) == 1
    assert len(dec.blocks[0].edges) == 5


def test_blocks_isolated_vertices_included():
    g = graph_new(3, [(0, 1)])
    dec = block_decomposition(g)
    assert len(dec.blocks) == 2
    assert dec.blocks[1].vertices == (2,)
    assert dec.blocks[1].is_trivial


def test_blocks_match_networkx():
    rng = random.Random(61)
    for _ in range(150):
        g = gen_random(rng.randint(2, 10), rng.choice([0.2, 0.4, 0.7]), rng.randrange(10**6))
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        expected = sorted(
            tuple(sorted(tuple(sorted(e)) for e in comp))
            for comp in nx.biconnected_component_edges(nxg)
        )
        got = sorted(b.edges for b in block_decomposition(g).blocks if b.edges)
        assert got == expected
        assert block_decomposition(g).cut_vertices == set(nx.articulation_points(nxg))


def test_every_edge_in_exactly_one_block():
    rng = random.Random(67)
    for _ in range(60):
        g = gen_random(rng.randint(2, 10), 0.5, rng.randrange(10**6))
        dec = block_decomposition(g)
        all_edges = [e for b in dec.blocks for e in b.edges]
        assert sorted(all_edges) == list(g.edges)
        assert len(set(all_edges)) == len(all_edges)


def test_sts_structure_mixed_blocks():
    # triangle + square sharing a vertex, plus a pendant edge and an isolate
    g = graph_new(
        8,
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (2, 5), (5, 6)],
    )
    assert validate_sts_structure(g)
    assert is_outerplanar(g)


def test_sts_structure_rejects_diamond():
    assert not validate_sts_structure(diamond_graph())


def test_sts_structure_accepts_trees():
    assert validate_sts_structure(path_graph(5))


def test_sts_structure_implies_outerplanar():
    rng = random.Random(71)
    hits = 0
    for _ in range(400):
        g = gen_random(rng.randint(1, 8), rng.random(), rng.randrange(10**6))
        if validate_sts_structure(g):
            assert is_outerplanar(g)
            hits += 1
    assert hits > 10


def apex_is_outerplanar(g):
    """Reference: ``g`` is outerplanar iff ``g`` plus an apex joined to every vertex is planar."""
    apex = nx.Graph()
    apex.add_nodes_from(range(g.n + 1))
    apex.add_edges_from(g.edges)
    apex.add_edges_from((g.n, v) for v in range(g.n))
    return nx.check_planarity(apex, counterexample=False)[0]


def boundary_by_removal(block):
    """Reference: a block edge is on the boundary iff deleting both its ends leaves the block connected."""
    adj = {v: set() for v in block.vertices}
    for u, v in block.edges:
        adj[u].add(v)
        adj[v].add(u)
    out = []
    for u, v in block.edges:
        alive = [w for w in block.vertices if w not in (u, v)]
        seen = set(alive[:1])
        stack = list(seen)
        while stack:
            x = stack.pop()
            for y in adj[x] - seen - {u, v}:
                seen.add(y)
                stack.append(y)
        if len(seen) == len(alive):
            out.append((u, v))
    return tuple(out)


def perturbed_maximal_outerplanar(n, seed, edits):
    """Random maximal outerplanar graph with ``edits`` random edge additions or removals."""
    rng = random.Random(seed)
    edges = set(gen_random_maximal_outerplanar(n, seed).edges)
    for _ in range(edits):
        if rng.random() < 0.5:
            edges.discard(rng.choice(sorted(edges)))
        else:
            edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return graph_new(n, edges)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 9),
    p=st.sampled_from([0.2, 0.3, 0.4, 0.5, 0.7]),
    seed=st.integers(0, 10**6),
)
def test_agrees_with_apex_planarity_and_brute_force(n, p, seed):
    g = gen_random(n, p, seed)
    expected = apex_is_outerplanar(g)
    assert outerplanar_brute_force(g) == expected
    assert is_outerplanar(g) == expected, g.edges


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    edits=st.integers(0, 3),
)
def test_agrees_with_apex_planarity_near_maximal(n, seed, edits):
    g = perturbed_maximal_outerplanar(n, seed, edits)
    assert is_outerplanar(g) == apex_is_outerplanar(g), g.edges


@pytest.mark.parametrize(
    "edges",
    [
        [(u, v) for u in (0, 1) for v in (2, 3, 4)],
        list(combinations(range(4), 2)) + [(3, 4)],
        list(combinations(range(4), 2)) + list(combinations(range(3, 7), 2)),
    ],
    ids=["K23", "K4-pendant", "two-K4-one-vertex"],
)
def test_fixed_non_outerplanar(edges):
    g = graph_new(1 + max(max(e) for e in edges), edges)
    assert not apex_is_outerplanar(g)
    assert not outerplanar_brute_force(g)
    assert not is_outerplanar(g)
    with pytest.raises(ValidationError, match="is_outerplanar"):
        outerplane_embedding(g)


def thinned_maximal_outerplanar(n, seed, keep):
    """Random maximal outerplanar graph keeping each edge with probability ``keep``."""
    rng = random.Random(seed)
    full = gen_random_maximal_outerplanar(n, seed).edges
    return graph_new(n, [e for e in full if rng.random() < keep])


thinned_maximal_outerplanar_args = given(
    n=st.integers(3, 40),
    seed=st.integers(0, 10**6),
    keep=st.sampled_from([1.0, 0.9, 0.7, 0.5]),
)


@settings(max_examples=200, deadline=None)
@thinned_maximal_outerplanar_args
def test_boundary_matches_removal_criterion(n, seed, keep):
    g = thinned_maximal_outerplanar(n, seed, keep)
    emb = outerplane_embedding(g)
    blocks = [b for b in block_decomposition(g).blocks if len(b.vertices) >= 3]
    assert len(emb.blocks) == len(blocks)
    for blk, block in zip(emb.blocks, blocks):
        assert blk.boundary[0] == block.vertices[0]
        assert blk.boundary_edges == boundary_by_removal(block)


@settings(max_examples=200, deadline=None)
@thinned_maximal_outerplanar_args
def test_faces_cover_each_chord_twice_and_boundary_edge_once(n, seed, keep):
    g = thinned_maximal_outerplanar(n, seed, keep)
    emb = outerplane_embedding(g)
    blocks = [b for b in block_decomposition(g).blocks if len(b.vertices) >= 3]
    assert len(emb.blocks) == len(blocks)
    for blk, block in zip(emb.blocks, blocks):
        sides = Counter(
            (min(u, v), max(u, v)) for f in blk.inner_faces for u, v in zip(f, f[1:] + f[:1])
        )
        assert sorted(sides) == list(block.edges)
        boundary = set(blk.boundary_edges)
        assert all(count == (1 if e in boundary else 2) for e, count in sides.items())


def test_embedding_large_maximal_outerplanar():
    n = 2000
    g = gen_random_maximal_outerplanar(n, 7)
    emb = outerplane_embedding(g)
    [blk] = emb.blocks
    assert emb.t == n - 2 and sum(emb.face_counts.values()) == n - 2
    assert sorted(blk.boundary) == list(range(n))
    assert all(g.has_edge(u, v) for u, v in blk.boundary_edges)


def test_import_does_not_need_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mops.__file__)))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    blocked = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import mops\n"
        "g = mops.gen_tight_family(3)\n"
        "sol = mops.run_sts(g, seed=1)\n"
        "assert mops.is_outerplanar(g)\n"
        "assert mops.exact_max_outerplanar(g).opt == g.m\n"
        "print(len(sol.edges))\n"
    )
    plain = "import sys, mops\nprint('networkx' in sys.modules)\n"
    done = subprocess.run([sys.executable, "-c", blocked], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    done = subprocess.run([sys.executable, "-c", plain], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
