"""Maximum outerplanar subgraph toolkit.

Library surface: graph primitives and file I/O, outerplanarity testing and
embeddings, the triangular-cactus / square / spanning approximation pipeline
with its 7/10 edge guarantee, exact desk-scale oracles, instance generators,
and a benchmark harness.

Names resolve on first use (PEP 562): ``import mops`` loads no submodule,
and ``mops.run_sts`` or ``from mops import run_sts`` imports ``mops.sts``
the first time a name of it is asked for.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, under the submodule that defines it.
_HOMES = {
    "bench": ("BenchRecord", "bench_run"),
    "cactus": (
        "ParityInstance", "TriangularCactus", "brute_force_cactus", "build_parity_instance",
        "enumerate_triangles", "matroid_parity_max", "max_triangular_cactus", "pairs_form_forest",
    ),
    "errors": (
        "BudgetExceededError", "ParseError", "RandomizationError", "SizeLimitError", "ValidationError",
    ),
    "generators": (
        "DiamondInstance", "gen_diamond_family", "gen_random", "gen_random_maximal_outerplanar",
        "gen_tight_family",
    ),
    "graph": (
        "Graph", "Partition", "connected_components", "graph_new", "read_edgelist", "write_edgelist",
    ),
    "oracle": ("ExactResult", "exact_max_outerplanar", "upper_bound"),
    "outerplanar": (
        "Block", "BlockDecomposition", "BlockEmbedding", "OuterplaneEmbedding", "block_decomposition",
        "is_outerplanar", "outerplanar_brute_force", "outerplane_embedding", "validate_sts_structure",
    ),
    "sts": ("StsSolution", "find_addable_square", "phase2_add_squares", "phase3_spanning", "run_sts"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    """Import the home module of a public name, and keep the name here for the next use.

    Any other name raises ``AttributeError``, so ``from mops import sts``
    falls through to importing the submodule.
    """
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
