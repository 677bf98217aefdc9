"""Golden digest of ``run_sts`` outputs on a fixed corpus.

The digest was last computed when phase 1's per-block route stopped taking
each block's share of the min-degree pass; that changed the triangles of
one graph, i = 62, at all three seeds. A change that keeps outputs must
leave it unchanged. A change that alters outputs on purpose updates
``GOLDEN_SHA256`` and says so in CHANGES.md, with the number of graphs
whose triangles changed.
"""

import hashlib

from mops import gen_random, run_sts

GOLDEN_SHA256 = "6435525bd41c0dcb3a25b29cb1f0d806f46e5740736512d01ec58c91d779cbbe"

DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.5)


def corpus():
    """100 G(n, p), n 1..40, each run at seeds 0, 1 and 2."""
    for i in range(100):
        g = gen_random(1 + i % 40, DENSITIES[i % len(DENSITIES)], 1000 + i)
        for seed in (0, 1, 2):
            yield g, seed


def digest() -> str:
    h = hashlib.sha256()
    for g, seed in corpus():
        sol = run_sts(g, seed=seed)
        record = (sol.edges, sol.triangles, sol.squares, sol.component_history,
                  sol.input_components, sorted(sol.edge_phase.items()))
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_run_sts_outputs_match_golden_digest():
    assert digest() == GOLDEN_SHA256
