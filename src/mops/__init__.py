"""Maximum outerplanar subgraph toolkit.

Library surface: graph primitives and file I/O, outerplanarity testing and
embeddings, the triangular-cactus / square / spanning approximation pipeline
with its 7/10 edge guarantee, exact desk-scale oracles, instance generators,
and a benchmark harness.
"""

from .bench import BenchRecord, bench_run
from .cactus import (
    ParityInstance,
    TriangularCactus,
    brute_force_cactus,
    build_parity_instance,
    enumerate_triangles,
    matroid_parity_max,
    max_triangular_cactus,
    pairs_form_forest,
)
from .errors import (
    BudgetExceededError,
    ParseError,
    RandomizationError,
    SizeLimitError,
    ValidationError,
)
from .generators import (
    DiamondInstance,
    gen_diamond_family,
    gen_random,
    gen_random_maximal_outerplanar,
    gen_tight_family,
)
from .graph import (
    Graph,
    Partition,
    connected_components,
    graph_new,
    read_edgelist,
    write_edgelist,
)
from .oracle import ExactResult, exact_max_outerplanar, upper_bound
from .outerplanar import (
    Block,
    BlockDecomposition,
    BlockEmbedding,
    OuterplaneEmbedding,
    block_decomposition,
    is_outerplanar,
    outerplanar_brute_force,
    outerplane_embedding,
    validate_sts_structure,
)
from .sts import StsSolution, find_addable_square, phase2_add_squares, phase3_spanning, run_sts

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "Block",
    "BlockDecomposition",
    "BlockEmbedding",
    "BudgetExceededError",
    "DiamondInstance",
    "ExactResult",
    "Graph",
    "OuterplaneEmbedding",
    "ParityInstance",
    "ParseError",
    "Partition",
    "RandomizationError",
    "SizeLimitError",
    "StsSolution",
    "TriangularCactus",
    "ValidationError",
    "bench_run",
    "block_decomposition",
    "brute_force_cactus",
    "build_parity_instance",
    "connected_components",
    "enumerate_triangles",
    "exact_max_outerplanar",
    "find_addable_square",
    "gen_diamond_family",
    "gen_random",
    "gen_random_maximal_outerplanar",
    "gen_tight_family",
    "graph_new",
    "is_outerplanar",
    "matroid_parity_max",
    "max_triangular_cactus",
    "outerplanar_brute_force",
    "outerplane_embedding",
    "pairs_form_forest",
    "phase2_add_squares",
    "phase3_spanning",
    "read_edgelist",
    "run_sts",
    "upper_bound",
    "validate_sts_structure",
    "write_edgelist",
]
