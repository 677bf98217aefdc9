"""Small graph builders shared by the test modules."""

from itertools import combinations

import numpy as np

from mops import Graph, Partition, ValidationError, graph_new
from mops.cactus import ParityInstance


def complete_graph(n: int) -> Graph:
    return graph_new(n, list(combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return graph_new(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return graph_new(n, [(i, i + 1) for i in range(n - 1)])


def diamond_graph() -> Graph:
    # 4-cycle plus one chord
    return graph_new(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])


def complete_bipartite_2_3() -> Graph:
    return graph_new(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])


def hub_graph(k: int) -> Graph:
    """Leaves 0..k-1, hub k and outer vertices k+1..2k; leaf u meets the hub and u + k + 1.

    Its k triangles are (u, k, u + k + 1). A lister that filters the hub's
    k higher neighbours once per leaf, rather than the leaf's shorter list,
    does k^2 work on it.
    """
    leaves = range(k)
    return graph_new(
        2 * k + 1,
        [(u, k) for u in leaves] + [(k, u + k + 1) for u in leaves] + [(u, u + k + 1) for u in leaves],
    )


def induced_subgraph(g: Graph, vs) -> tuple[Graph, list[int]]:
    """Subgraph induced by vertex set ``vs`` plus a map back to original indices.

    The returned list maps new index -> old index; new indices follow the
    ascending order of ``vs``. The reference for ``Block.local_graph()``.
    """
    vlist = sorted(set(vs))
    if not vlist:
        raise ValidationError("induced subgraph needs a nonempty vertex set")
    for v in vlist:
        if not (0 <= v < g.n):
            raise ValidationError(f"vertex {v} out of range 0..{g.n - 1}")
    index = {v: i for i, v in enumerate(vlist)}
    edges = [(index[u], index[v]) for (u, v) in g.edges if u in index and v in index]
    return graph_new(len(vlist), edges), vlist


def element_vector(inst: ParityInstance, i: int, slot: int) -> np.ndarray:
    """Prime-field vector chi_a - chi_b of edge ``slot`` of pair ``i``."""
    a, b = inst.pair_edges(i)[slot]
    vec = np.zeros(inst.n, dtype=np.int64)
    vec[a] = 1
    vec[b] = inst.p - 1
    return vec


class CallingPartition(Partition):
    """A union as ``find`` twice and one link: the reference for :meth:`Partition.merge`."""

    __slots__ = ()

    def union(self, u: int, v: int) -> bool:
        ru, rv = self.find(u), self.find(v)
        if ru == rv:
            return False
        self.parent[rv] = ru
        self.count -= 1
        return True
