import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mops import (
    BudgetExceededError,
    ValidationError,
    exact_max_outerplanar,
    gen_random,
    gen_tight_family,
    graph_new,
    is_outerplanar,
    upper_bound,
)
from mops.oracle import _polygon_dp, _polygon_dp_witness
from _builders import complete_graph, cycle_graph, path_graph


def test_k4_optimum_is_diamond():
    res = exact_max_outerplanar(complete_graph(4))
    assert res.opt == 5
    assert is_outerplanar(graph_new(4, res.witness))


def test_c4_optimum_is_itself():
    res = exact_max_outerplanar(cycle_graph(4))
    assert res.opt == 4 and set(res.witness) == set(cycle_graph(4).edges)


def test_k5_hits_euler_bound():
    assert exact_max_outerplanar(complete_graph(5)).opt == 7


def test_outerplanar_inputs_keep_everything():
    for q in (3, 5, 7):
        g = gen_tight_family(q)
        assert exact_max_outerplanar(g).opt == g.m
    rng = random.Random(7)
    for _ in range(40):
        g = gen_random(rng.randint(1, 9), 0.25, rng.randrange(10**6))
        if is_outerplanar(g):
            assert exact_max_outerplanar(g).opt == g.m


def test_monotone_under_edge_addition():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(3, 7)
        g = gen_random(n, 0.5, rng.randrange(10**6))
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        extra = rng.choice(missing)
        bigger = graph_new(n, list(g.edges) + [extra])
        assert exact_max_outerplanar(bigger).opt >= exact_max_outerplanar(g).opt


def test_bounded_by_upper_bound_with_valid_witness():
    rng = random.Random(17)
    for _ in range(80):
        g = gen_random(rng.randint(1, 8), rng.random(), rng.randrange(10**6))
        res = exact_max_outerplanar(g)
        assert res.opt <= upper_bound(g)
        assert len(res.witness) == res.opt
        assert set(res.witness) <= set(g.edges)
        assert is_outerplanar(graph_new(g.n, res.witness))


def max_outerplanar_by_subsets(g):
    """Reference: size of the largest edge subset of ``g`` that ``is_outerplanar`` accepts."""
    for k in range(min(g.m, upper_bound(g)), -1, -1):
        if any(is_outerplanar(graph_new(g.n, sub)) for sub in combinations(g.edges, k)):
            return k


def test_opt_is_maximum_over_edge_subsets():
    rng = random.Random(29)
    graphs = [complete_graph(5), complete_graph(6)] + [
        gen_random(rng.randint(4, 6), rng.uniform(0.5, 1.0), rng.randrange(10**6))
        for _ in range(60)
    ]
    searched = 0
    for g in graphs:
        res = exact_max_outerplanar(g)
        assert res.opt == max_outerplanar_by_subsets(g), g.edges
        assert len(res.witness) == res.opt
        searched += res.nodes_explored > 0
    assert searched > 15


def test_upper_bound_values():
    assert upper_bound(complete_graph(4)) == 5
    assert upper_bound(path_graph(7)) == 6
    assert upper_bound(gen_tight_family(7)) == 32


def test_upper_bound_disconnected():
    g = graph_new(7, [(0, 1), (1, 2), (0, 2), (3, 4)])
    # triangle (3 edges) + bridge (1) + isolated vertices (0)
    assert upper_bound(g) == 4


def test_budget_exhaustion_carries_lower_bound():
    g = complete_graph(6)
    with pytest.raises(BudgetExceededError) as exc_info:
        exact_max_outerplanar(g, budget=1)
    err = exc_info.value
    assert err.best >= 5  # at least a spanning tree of the block
    assert err.nodes <= 1


def test_negative_budget_rejected():
    with pytest.raises(ValidationError, match="budget must be at least 0, got -1"):
        exact_max_outerplanar(complete_graph(4), budget=-1)


def test_nodes_explored_reported():
    res = exact_max_outerplanar(complete_graph(5))
    assert res.nodes_explored > 0
    # outerplanar inputs need no search at all
    assert exact_max_outerplanar(cycle_graph(4)).nodes_explored == 0


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_polygon_witness_has_dp_value_edges(data):
    nb = data.draw(st.integers(3, 8))
    order = tuple(data.draw(st.permutations(range(nb))))
    present = [e for e in combinations(range(nb), 2) if data.draw(st.booleans())]
    w = [[0] * nb for _ in range(nb)]
    for u, v in present:
        w[u][v] = w[v][u] = 1
    witness = _polygon_dp_witness(order, w)
    edges = {(min(e), max(e)) for e in witness}
    assert len(edges) == len(witness) == _polygon_dp(order, w)
    assert edges <= set(present)
    assert is_outerplanar(graph_new(nb, edges))
