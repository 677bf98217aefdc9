"""Benchmark harness: run the pipeline over a corpus and report ratios.

A corpus is a JSON-able dict::

    {
      "seed": 7,                  # master seed (CLI --seed overrides)
      "exact_threshold": 9,       # exact optimum when n <= threshold
      "budget": 10000000,         # oracle node budget per instance
      "instances": [
        {"kind": "tight", "q": 5},
        {"kind": "diamond", "k": 2},
        {"kind": "gnp", "n": 8, "p": 0.5, "count": 20},
        {"kind": "file", "path": "graph.el", "id": "g"}  # id optional, default the path
      ]
    }

Instance graphs and per-instance run seeds derive deterministically from
the master seed, so records come out identical regardless of worker count.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import asdict, dataclass
from functools import partial
from numbers import Real

from .errors import BudgetExceededError, ParseError, ValidationError
from .generators import gen_diamond_family, gen_random, gen_tight_family
from .graph import MAX_VERTICES, Graph, check_vertex_count, load_edgelist
from .oracle import DEFAULT_BUDGET, exact_max_outerplanar, upper_bound
from .sts import run_sts

DEFAULT_EXACT_THRESHOLD = 9


@dataclass(frozen=True)
class BenchRecord:
    instance_id: str
    n: int
    m: int
    output_edges: int
    r: int
    c: int
    bound: int
    bound_is_exact: bool
    ratio_lower_bound: float
    seed: int
    pipeline_time: float  # seconds in run_sts
    oracle_time: float  # seconds in the exact oracle and/or upper_bound
    budget_exhausted: bool = False


_KIND_NAMES = {int: "an integer", Real: "a number", str: "a string"}


def _field(entry: dict, key: str, kind: type, where: str, default=None):
    """``entry[key]``, checked to be a ``kind``; ``default`` if absent, required if None."""
    if key not in entry:
        if default is None:
            raise ValidationError(f"{where}: missing field {key!r}")
        return default
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{where}: field {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _generate(where: str, make, *args):
    """``make(*args)``, with the entry named in any invalid-value, parse or file error."""
    try:
        return make(*args)
    except (ValidationError, ParseError, OSError) as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _expand(corpus: dict, master_seed: int) -> list[tuple[str, Graph, int]]:
    """Flatten the corpus into (id, graph, run_seed) work items.

    A ``Graph`` pickles, so the items go to worker processes as they are.
    """
    rng = random.Random(master_seed)
    instances = corpus.get("instances", [])
    if not isinstance(instances, list):
        raise ValidationError(f"corpus: field 'instances' must be a list, got {instances!r}")
    items = []
    vertices = 0  # over the graphs in ``items``, which all stay in memory until the run ends
    for index, entry in enumerate(instances):
        if not isinstance(entry, dict):
            raise ValidationError(f"instances[{index}]: must be an object, got {entry!r}")
        kind = entry.get("kind")
        where = f"instances[{index}] ({kind})"
        start = len(items)
        if kind == "tight":
            q = _field(entry, "q", int, where)
            items.append((f"tight-q{q}", _generate(where, gen_tight_family, q)))
        elif kind == "diamond":
            k = _field(entry, "k", int, where)
            items.append((f"diamond-k{k}", _generate(where, gen_diamond_family, k).graph))
        elif kind == "gnp":
            n = _field(entry, "n", int, where)
            p = _field(entry, "p", Real, where)
            count = _field(entry, "count", int, where, 1)
            if count < 1:
                raise ValidationError(f"{where}: field 'count' must be at least 1, got {count}")
            _generate(where, check_vertex_count, n)  # one graph above the cap is named as such
            if vertices + count * n > MAX_VERTICES:
                raise ValidationError(
                    f"{where}: {count} graphs of {n} vertices"
                    f" take the corpus past {MAX_VERTICES} vertices"
                )
            for i in range(count):
                gseed = rng.randrange(2**32)
                items.append((f"gnp-n{n}-p{p}-{i}", _generate(where, gen_random, n, p, gseed)))
        elif kind == "file":
            path = _field(entry, "path", str, where)
            g = _generate(where, load_edgelist, path)
            items.append((_field(entry, "id", str, where, path), g))
        else:
            raise ValidationError(f"instances[{index}]: unknown instance kind {kind!r}")
        vertices += sum(g.n for _, g in items[start:])
    return [(iid, g, rng.randrange(2**32)) for iid, g in items]


def _bench_one(threshold: int, budget: int, item: tuple[str, Graph, int]) -> BenchRecord:
    iid, g, run_seed = item
    start = time.perf_counter()
    solution = run_sts(g, seed=run_seed)
    solved = time.perf_counter()
    exhausted = False
    if g.n <= threshold:
        try:
            bound = exact_max_outerplanar(g, budget=budget).opt
            exact = True
        except BudgetExceededError:
            bound = upper_bound(g)
            exact = False
            exhausted = True
    else:
        bound = upper_bound(g)
        exact = False
    bounded = time.perf_counter()
    ratio = solution.m / bound if bound > 0 else 1.0
    return BenchRecord(
        instance_id=iid,
        n=g.n,
        m=g.m,
        output_edges=solution.m,
        r=solution.r,
        c=solution.c,
        bound=bound,
        bound_is_exact=exact,
        ratio_lower_bound=ratio,
        seed=run_seed,
        pipeline_time=solved - start,
        oracle_time=bounded - solved,
        budget_exhausted=exhausted,
    )


def bench_run(
    corpus: dict, seed: int | None = None, jobs: int = 1
) -> tuple[list[BenchRecord], dict]:
    """Run the pipeline on every corpus instance; return records and report.

    At most ``min(jobs, instances, CPUs)`` worker processes run.
    """
    if not isinstance(corpus, dict):
        raise ValidationError(f"corpus must be a JSON object, got {type(corpus).__name__}")
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    master_seed = _field(corpus, "seed", int, "corpus", 0) if seed is None else seed
    threshold = _field(corpus, "exact_threshold", int, "corpus", DEFAULT_EXACT_THRESHOLD)
    budget = _field(corpus, "budget", int, "corpus", DEFAULT_BUDGET)
    if budget < 0:
        raise ValidationError(f"corpus: field 'budget' must be at least 0, got {budget}")
    work = _expand(corpus, master_seed)
    bench_one = partial(_bench_one, threshold, budget)
    workers = min(jobs, len(work), os.cpu_count() or 1)
    if workers > 1:
        # imported here: multiprocessing costs import time and memory on every `import mops.bench`
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(bench_one, work))
    else:
        records = [bench_one(item) for item in work]
    ratios = [rec.ratio_lower_bound for rec in records]
    summary = {
        "instances": len(records),
        "min_ratio": min(ratios) if ratios else None,
        "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
    }
    report = {
        "config": {
            "seed": master_seed,
            "exact_threshold": threshold,
            "budget": budget,
            "jobs": jobs,
        },
        "records": [asdict(rec) for rec in records],
        "summary": summary,
    }
    return records, report
