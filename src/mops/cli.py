"""Command-line interface.

Exit codes: 0 success, 1 usage, validation or parse error, 2 oracle budget
exhaustion, 3 internal randomization failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bench import bench_run
from .errors import (
    BudgetExceededError,
    ParseError,
    RandomizationError,
    SizeLimitError,
    ValidationError,
)
from .generators import gen_diamond_family, gen_random, gen_tight_family
from .graph import Graph, load_edgelist, write_edgelist
from .oracle import DEFAULT_BUDGET, exact_max_outerplanar
from .outerplanar import is_outerplanar, validate_sts_structure
from .sts import run_sts


def _cmd_run(args) -> int:
    g = load_edgelist(args.file)
    solution = run_sts(g, seed=args.seed, adversarial=args.adversarial)
    print(f"vertices:   {solution.n}")
    print(f"edges in:   {g.m}")
    print(f"components: {solution.input_components}")
    print(f"triangles:  {solution.r}")
    print(f"squares:    {solution.c}")
    print(f"edges out:  {solution.m}")
    counts = {1: 0, 2: 0, 3: 0}
    for phase in solution.edge_phase.values():
        counts[phase] += 1
    print(f"per phase:  {counts[1]} cactus, {counts[2]} square, {counts[3]} spanning")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(write_edgelist(Graph(solution.n, solution.edges)))
        print(f"wrote {args.output}")
    return 0


def _cmd_exact(args) -> int:
    g = load_edgelist(args.file)
    result = exact_max_outerplanar(g, budget=args.budget)
    print(f"optimum edges:  {result.opt}")
    print(f"nodes explored: {result.nodes_explored}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "tight":
        if args.q is None:
            raise ValidationError("gen tight requires --q")
        g = gen_tight_family(args.q)
    elif args.family == "diamond":
        if args.k is None:
            raise ValidationError("gen diamond requires --k")
        g = gen_diamond_family(args.k).graph
    else:
        if args.n is None or args.p is None:
            raise ValidationError("gen gnp requires --n and --p")
        g = gen_random(args.n, args.p, args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(write_edgelist(g))
    print(f"wrote {args.output} ({g.n} vertices, {g.m} edges)")
    return 0


def _cmd_bench(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        corpus = json.load(fh)
    records, report = bench_run(corpus, seed=args.seed, jobs=args.jobs)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    summary = report["summary"]
    print(f"instances:  {summary['instances']}")
    print(f"min ratio:  {summary['min_ratio']}")
    print(f"mean ratio: {summary['mean_ratio']}")
    print(f"wrote {args.output}")
    return 0


def _cmd_validate(args) -> int:
    g = load_edgelist(args.file)
    outer = is_outerplanar(g)
    structure = validate_sts_structure(g)
    print(f"outerplanar:                 {'yes' if outer else 'no'}")
    print(f"square-triangular structure: {'yes' if structure else 'no'}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`ValidationError`: exit 1, one line."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mops",
        description="Maximum outerplanar subgraph toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the approximation pipeline on a graph file")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--adversarial", action="store_true",
                       help="deterministic worst-case tie-breaking in phase 1")
    p_run.add_argument("--output", help="write the resulting subgraph to this file")
    p_run.set_defaults(fn=_cmd_run)

    p_exact = sub.add_parser("exact", help="exact maximum outerplanar subgraph")
    p_exact.add_argument("file")
    p_exact.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_exact.set_defaults(fn=_cmd_exact)

    p_gen = sub.add_parser("gen", help="generate an instance file")
    p_gen.add_argument("family", choices=["tight", "diamond", "gnp"])
    p_gen.add_argument("--q", type=int, help="tight family size (odd, >= 3)")
    p_gen.add_argument("--k", type=int, help="diamond family level")
    p_gen.add_argument("--n", type=int, help="gnp vertex count")
    p_gen.add_argument("--p", type=float, help="gnp edge probability")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(fn=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark corpus")
    p_bench.add_argument("spec", help="corpus JSON file")
    p_bench.add_argument("-o", "--output", required=True, help="report JSON file")
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(fn=_cmd_bench)

    p_val = sub.add_parser("validate", help="check a graph file's structure")
    p_val.add_argument("file")
    p_val.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValidationError, ParseError, SizeLimitError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc} (best lower bound {exc.best})", file=sys.stderr)
        return 2
    except RandomizationError as exc:
        print(f"randomization failure: {exc} (seeds {exc.seeds})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
