import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mops import (
    Partition,
    TriangularCactus,
    ValidationError,
    brute_force_cactus,
    connected_components,
    enumerate_triangles,
    exact_max_outerplanar,
    find_addable_square,
    gen_random,
    gen_tight_family,
    graph_new,
    is_outerplanar,
    max_triangular_cactus,
    phase2_add_squares,
    phase3_spanning,
    run_sts,
    validate_sts_structure,
)
from mops import sts
from mops.sts import _candidate_quads, _spanning_square
from _builders import CallingPartition, complete_graph, cycle_graph, diamond_graph, path_graph

EMPTY_CACTUS = TriangularCactus((), ())


def cactus_partition(g, cactus=EMPTY_CACTUS):
    """The selection after phase 1: the components of ``cactus``."""
    part = Partition(g.n)
    for u, v in cactus.edges:
        part.union(u, v)
    return part


def test_phase2_square_on_c4():
    g = cycle_graph(4)
    part = cactus_partition(g)
    assert phase2_add_squares(g, part) == [((0, 1, 2, 3), [(0, 1), (0, 3), (1, 2), (2, 3)])]
    assert part.count == 1


def test_phase2_nothing_on_tight_family():
    g = gen_tight_family(7)
    assert phase2_add_squares(g, cactus_partition(g, brute_force_cactus(g))) == []


def test_phase2_nothing_on_diamond():
    g = diamond_graph()
    part = cactus_partition(g, TriangularCactus(((0, 1, 2),), ((0, 1), (0, 2), (1, 2))))
    assert phase2_add_squares(g, part) == [] and part.count == 2


def rescan_squares(g, part):
    """Phase 2 by rescanning from the start after every square added, on reference unions."""
    ref = CallingPartition(g.n)
    ref.parent, ref.count = part.parent[:], part.count
    added = []
    while (hit := find_addable_square(g, ref)) is not None:
        added.append(hit)
        quad = hit[0]
        for v in quad[1:]:
            ref.union(quad[0], v)
    return added


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 12),
    p=st.floats(0.1, 0.6),
    seed=st.integers(0, 2**32 - 1),
    with_cactus=st.booleans(),
)
def test_phase2_one_pass_matches_rescan(n, p, seed, with_cactus):
    # Without a cactus, two or three squares per graph are common.
    g = gen_random(n, p, seed)
    part = cactus_partition(g, max_triangular_cactus(g, seed=seed) if with_cactus else EMPTY_CACTUS)
    assert phase2_add_squares(g, part.copy()) == rescan_squares(g, part)


@pytest.mark.parametrize("q", [3, 5, 7, 9])
def test_phase2_one_pass_matches_rescan_on_tight_family(q):
    g = gen_tight_family(q)
    part = cactus_partition(g, brute_force_cactus(g))
    assert phase2_add_squares(g, part.copy()) == rescan_squares(g, part)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(4, 14),
    p=st.floats(0.1, 0.7),
    seed=st.integers(0, 2**32 - 1),
    with_cactus=st.booleans(),
)
def test_candidates_cover_every_spanning_square(n, p, seed, with_cactus):
    # Equality, edges included: phase 2 re-checks only the components, so a
    # candidate that is no induced 4-cycle, or carries wrong edges, must fail here.
    g = gen_random(n, p, seed)
    part = cactus_partition(g, max_triangular_cactus(g, seed=seed) if with_cactus else EMPTY_CACTUS)
    candidates = list(_candidate_quads(g, part))
    quads = [q for q, _edges in candidates]
    assert quads == sorted(set(quads))
    spanning = {q: _spanning_square(g, part, q) for q in combinations(range(n), 4)}
    assert dict(candidates) == {q: edges for q, edges in spanning.items() if edges is not None}


def exhaustive_candidates(g, part):
    """Every 4-subset that ``_spanning_square`` accepts, with its edges, in lexicographic order."""
    return [
        (q, edges) for q in combinations(range(g.n), 4) if (edges := _spanning_square(g, part, q))
    ]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 14),
    p=st.floats(0.1, 0.7),
    seed=st.integers(0, 2**32 - 1),
    merges=st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=20),
)
def test_candidates_match_exhaustive_listing_on_random_partitions(n, p, seed, merges):
    # a partition from union calls in either argument order, not only a cactus's:
    # components need not be connected in g, and any member may be the root
    g = gen_random(n, p, seed)
    part = Partition(n)
    for u, v in merges:
        part.union(u % n, v % n)
    halved = part.copy()
    for v in range(n):
        halved.find(v)
    assert list(_candidate_quads(g, part)) == exhaustive_candidates(g, part.copy())
    # the listing reads Partition.roots(), which halves paths as find does in vertex order
    assert part.parent == halved.parent


# The C4 0-1-2-3 with the path 1-4-5 hung on it, peeled from its end down to
# 1's two square edges; the C4 with a neighbour 4 of 0 in 0's own component,
# so 0 has three neighbours but two across. In the last graph the wedges from
# s = 0 reach their ends in the order 5, then 6, but {0, 1, 3, 6} comes first.
C4_WITH_PATH = graph_new(6, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 4), (4, 5)])
C4_WITH_INNER_NEIGHBOUR = graph_new(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 4)])
ENDS_OUT_OF_ORDER = graph_new(7, [(0, 1), (0, 3), (0, 4), (1, 5), (1, 6), (4, 5), (3, 6)])


@pytest.mark.parametrize(
    "g, merges, quads",
    [
        (cycle_graph(4), [], [(0, 1, 2, 3)]),
        (C4_WITH_PATH, [], [(0, 1, 2, 3)]),
        (C4_WITH_INNER_NEIGHBOUR, [(0, 4)], [(0, 1, 2, 3)]),
        (C4_WITH_INNER_NEIGHBOUR, [(4, 0)], [(0, 1, 2, 3)]),
        (ENDS_OUT_OF_ORDER, [], [(0, 1, 3, 6), (0, 1, 4, 5)]),
    ],
    ids=["c4-two-across-each", "c4-with-path", "inner-neighbour", "inner-neighbour-as-root", "ends-out-of-order"],
)
def test_candidates_at_the_core_boundary(g, merges, quads):
    part = Partition(g.n)
    for u, v in merges:
        part.union(u, v)
    candidates = list(_candidate_quads(g, part.copy()))
    assert [q for q, _edges in candidates] == quads
    assert candidates == exhaustive_candidates(g, part)


K23 = graph_new(5, [(a, b) for a in (0, 1) for b in (2, 3, 4)])
TWO_C4 = graph_new(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
TWO_K23 = graph_new(10, list(K23.edges) + [(a + 5, b + 5) for a, b in K23.edges])


@pytest.mark.parametrize(
    "g, quads, added",
    [
        (complete_graph(4), [], []),
        (graph_new(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]), [], []),
        # The diagonal {0, 1} has three middles, so three 4-cycles; the
        # first square merges all their components.
        (K23, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4)], [(0, 1, 2, 3)]),
        (TWO_C4, [(0, 1, 2, 3), (4, 5, 6, 7)], [(0, 1, 2, 3), (4, 5, 6, 7)]),
        # The first square leaves seven components, so the pass goes on; the
        # other two 4-cycles of the first K2,3 now span two and are skipped.
        (
            TWO_K23,
            [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 3, 4), (5, 6, 7, 8), (5, 6, 7, 9), (5, 6, 8, 9)],
            [(0, 1, 2, 3), (5, 6, 7, 8)],
        ),
    ],
    ids=["k4", "c4-with-chord", "k23", "two-c4", "two-k23"],
)
def test_candidates_fixed_graphs(g, quads, added):
    assert [q for q, _edges in _candidate_quads(g, cactus_partition(g))] == quads
    assert [q for q, _edges in phase2_add_squares(g, cactus_partition(g))] == added


def test_candidates_on_dense_graph_without_triangles():
    # K_{m,m}: no triangles, so every vertex is its own component and each
    # of the C(m, 2)^2 induced 4-cycles is a candidate, listed exactly once.
    m = 6
    g = graph_new(2 * m, [(a, m + b) for a in range(m) for b in range(m)])
    part = cactus_partition(g)
    spanning = exhaustive_candidates(g, part)
    assert len(spanning) == (m * (m - 1) // 2) ** 2
    assert list(_candidate_quads(g, part)) == spanning


def count_candidates(monkeypatch, limit):
    """Count the candidates phase 2 takes, failing once more than ``limit`` are taken.

    ``_spanning_square`` is barred as well: phase 2 re-checks only components,
    so a call to it means a rescan outside the candidates.
    """
    taken = [0]

    def counted(g, part):
        for candidate in _candidate_quads(g, part):
            taken[0] += 1
            if taken[0] > limit:
                raise AssertionError(f"phase 2 took more than {limit} candidates")
            yield candidate

    def barred(*args):
        raise AssertionError("phase 2 called _spanning_square")

    monkeypatch.setattr(sts, "_candidate_quads", counted)
    monkeypatch.setattr(sts, "_spanning_square", barred)
    return taken


def test_phase2_checks_at_most_sum_of_squared_degrees(monkeypatch):
    # C(2000, 4) is about 6.6e11 4-subsets; the sum of squared degrees about 2.4e4.
    n = 2000
    g = gen_random(n, 3 / n, 17)
    part = Partition(n)
    for t in enumerate_triangles(g):
        if len({part.find(v) for v in t}) == 3:
            part.union(t[0], t[1])
            part.union(t[0], t[2])
    bound = sum(len(g.neighbors(v)) ** 2 for v in range(n))
    taken = count_candidates(monkeypatch, bound)
    added = phase2_add_squares(g, part)
    assert added and len(added) <= taken[0] <= bound


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 14), p=st.sampled_from([0.2, 0.3, 0.5, 0.7]), seed=st.integers(0, 10**6))
@example(n=10, p=0.3, seed=242)  # here an order test on roots, not equality, adds different squares
def test_phases_ignore_which_root_stands_for_a_component(n, p, seed):
    # union links the second root under the first, so merging each cactus edge as
    # (u, v) or as (v, u) gives the same components under different roots
    g = gen_random(n, p, seed)
    cactus_edges = [e for e, phase in run_sts(g, seed=1).edge_phase.items() if phase == 1]
    forward, backward = Partition(g.n), Partition(g.n)
    for u, v in cactus_edges:
        forward.union(u, v)
        backward.union(v, u)
    assert phase2_add_squares(g, forward) == phase2_add_squares(g, backward)
    assert phase3_spanning(g, forward) == phase3_spanning(g, backward)
    assert forward.count == backward.count


def test_phase3_path():
    g = path_graph(4)
    part = cactus_partition(g)
    assert phase3_spanning(g, part) == [(0, 1), (1, 2), (2, 3)]
    assert part.count == 1


def test_phase3_k4_from_triangle():
    g = complete_graph(4)
    part = cactus_partition(g, TriangularCactus(((0, 1, 2),), ((0, 1), (0, 2), (1, 2))))
    assert phase3_spanning(g, part) == [(0, 3)]


def test_phase3_disconnected_triangles_no_additions():
    g = graph_new(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    part = cactus_partition(g, TriangularCactus(((0, 1, 2), (3, 4, 5)), g.edges))
    assert phase3_spanning(g, part) == [] and part.count == 2


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 14),
    p=st.sampled_from([0.2, 0.3, 0.5, 0.7, 1.0]),
    seed=st.integers(0, 10**6),
    merges=st.integers(0, 20),
)
def test_phase3_leaves_the_partition_as_union_calls_do(n, p, seed, merges):
    # phase 3 is one Partition.merge; reference union calls, on a copy of the same
    # pre-merged partition, must join the same edges and leave the same parents
    g = gen_random(n, p, seed)
    rng = random.Random(seed)
    part = Partition(n)
    for _ in range(merges):
        part.union(rng.randrange(n), rng.randrange(n))
    reference = CallingPartition(n)
    reference.parent, reference.count = part.parent[:], part.count
    expected = [(u, v) for u, v in g.edges if reference.union(u, v)]
    assert phase3_spanning(g, part) == expected
    assert part.parent == reference.parent
    assert part.count == reference.count


@pytest.mark.parametrize("phase", [phase2_add_squares, phase3_spanning])
@pytest.mark.parametrize("size", [3, 5])
def test_phase_rejects_partition_of_wrong_size(phase, size):
    with pytest.raises(ValidationError, match=f"partition has {size} vertices but the graph has 4"):
        phase(cycle_graph(4), Partition(size))


def test_run_k4():
    sol = run_sts(complete_graph(4), seed=0)
    assert sol.m == 4 and sol.r == 1 and sol.c == 0
    assert 10 * sol.m >= 7 * 5  # exact optimum of K4 is 5


def test_run_c4_is_optimal():
    sol = run_sts(cycle_graph(4), seed=0)
    assert sol.m == 4 and sol.c == 1


def test_run_tight_7():
    g = gen_tight_family(7)
    sol = run_sts(g, seed=2)
    assert sol.m == 23 and sol.r == 3 and sol.c == 0
    assert sol.m / g.m == 23 / 32


def test_adversarial_mode_deterministic():
    g = gen_tight_family(5)
    a = run_sts(g, adversarial=True)
    b = run_sts(g, adversarial=True)
    assert a.edges == b.edges
    assert a.m == 3 * 5 - 1 + 2


def test_phase_tags_partition_edges():
    rng = random.Random(37)
    for _ in range(40):
        g = gen_random(rng.randint(2, 9), rng.random(), rng.randrange(10**6))
        sol = run_sts(g, seed=1)
        assert set(sol.edge_phase) == set(sol.edges)
        tagged1 = {e for e, ph in sol.edge_phase.items() if ph == 1}
        assert tagged1 == set(
            (min(a, b), max(a, b))
            for t in sol.triangles
            for a, b in [(t[0], t[1]), (t[1], t[2]), (t[0], t[2])]
        )


def test_square_addition_drops_components_by_three():
    rng = random.Random(41)
    seen_squares = 0
    for _ in range(120):
        g = gen_random(rng.randint(4, 9), rng.choice([0.2, 0.35, 0.5]), rng.randrange(10**6))
        part = cactus_partition(g, max_triangular_cactus(g, seed=3))
        before = part.count
        added = phase2_add_squares(g, part)
        assert before - part.count == 3 * len(added)
        seen_squares += len(added)
    assert seen_squares > 0


def test_spanning_reaches_input_components():
    # Union-find count after phase 3 against an independent BFS.
    rng = random.Random(47)
    for _ in range(80):
        g = gen_random(rng.randint(1, 12), rng.choice([0.05, 0.15, 0.3]), rng.randrange(10**6))
        sol = run_sts(g, seed=7)
        k = max(connected_components(g)) + 1 if g.n else 0
        assert sol.component_history[-1] == sol.input_components == k


def test_phase_bounds():
    rng = random.Random(43)
    for _ in range(60):
        g = gen_random(rng.randint(2, 10), rng.random(), rng.randrange(10**6))
        sol = run_sts(g, seed=9)
        assert sol.c <= (g.n - 1) // 3
        phase3_count = sum(1 for ph in sol.edge_phase.values() if ph == 3)
        assert phase3_count <= g.n - 1


def test_phase2_saturated_after_run():
    rng = random.Random(51)
    for _ in range(60):
        g = gen_random(rng.randint(4, 9), 0.4, rng.randrange(10**6))
        sol = run_sts(g, seed=5)
        part = Partition(g.n)
        e1 = [e for e, ph in sol.edge_phase.items() if ph in (1, 2)]
        for u, v in e1:
            part.union(u, v)
        assert find_addable_square(g, part) is None


def test_output_structure_and_edge_count():
    rng = random.Random(57)
    for _ in range(150):
        g = gen_random(rng.randint(1, 9), rng.random(), rng.randrange(10**6))
        sol = run_sts(g, seed=11)
        out = graph_new(g.n, sol.edges)
        assert validate_sts_structure(out)
        assert is_outerplanar(out)
        k = max(connected_components(g)) + 1
        assert sol.m == (g.n - k) + sol.r + sol.c
        assert connected_components(out) == connected_components(g)


def test_ratio_on_small_corpus():
    rng = random.Random(63)
    for _ in range(60):
        g = gen_random(rng.randint(2, 7), rng.choice([0.4, 0.7, 1.0]), rng.randrange(10**6))
        sol = run_sts(g, seed=13)
        opt = exact_max_outerplanar(g).opt
        assert 10 * sol.m >= 7 * opt


def test_phase2_lists_no_candidates_below_four_components(monkeypatch):
    def no_candidates(g, part):
        raise AssertionError("candidates listed with fewer than four components")

    monkeypatch.setattr(sts, "_candidate_quads", no_candidates)
    g = cycle_graph(6)
    for merged in range(3, 6):  # 3, 2 and 1 components left
        part = Partition(g.n)
        for v in range(merged):
            part.union(v, v + 1)
        assert phase2_add_squares(g, part) == [] and part.count == g.n - merged


def test_phase2_stops_once_a_square_leaves_fewer_than_four(monkeypatch):
    # K2,3 from an empty selection: the first of its three 4-cycles leaves
    # two components, so the other two are never taken.
    taken = count_candidates(monkeypatch, 3)
    assert [q for q, _edges in phase2_add_squares(K23, cactus_partition(K23))] == [(0, 1, 2, 3)]
    assert taken[0] == 1
