"""Command-line interface.

Exit codes: 0 success, 1 usage, validation or parse error, 2 oracle budget
exhaustion, 3 internal randomization failure.

Each command imports the modules it runs in its own handler, so ``mops gen``
and ``mops validate`` never load the solver, the oracle or the bench harness.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceededError,
    ParseError,
    RandomizationError,
    SizeLimitError,
    ValidationError,
)


def _cmd_run(args) -> int:
    from .graph import Graph, load_edgelist, write_edgelist
    from .sts import run_sts

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
    from .graph import load_edgelist
    from .oracle import DEFAULT_BUDGET, exact_max_outerplanar

    budget = DEFAULT_BUDGET if args.budget is None else args.budget
    if budget < 0:
        raise ValidationError(f"budget must be at least 0, got {budget}")
    g = load_edgelist(args.file)
    result = exact_max_outerplanar(g, budget=budget)
    print(f"optimum edges:  {result.opt}")
    print(f"nodes explored: {result.nodes_explored}")
    return 0


def _cmd_gen(args) -> int:
    from .generators import gen_diamond_family, gen_random, gen_tight_family
    from .graph import write_edgelist

    if args.family == "tight":
        g = gen_tight_family(args.q)
    elif args.family == "diamond":
        g = gen_diamond_family(args.k).graph
    else:
        g = gen_random(args.n, args.p, args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(write_edgelist(g))
    print(f"wrote {args.output} ({g.n} vertices, {g.m} edges)")
    return 0


def _cmd_bench(args) -> int:
    from .bench import bench_run

    with open(args.spec, encoding="utf-8-sig") as fh:
        try:
            corpus = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{args.spec}: not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{args.spec}: not valid JSON ({exc})") from None
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
    from .graph import load_edgelist
    from .outerplanar import is_outerplanar, validate_sts_structure

    g = load_edgelist(args.file)
    outer = is_outerplanar(g)
    structure = validate_sts_structure(g)
    print(f"outerplanar:                 {'yes' if outer else 'no'}")
    print(f"square-triangular structure: {'yes' if structure else 'no'}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise :class:`ValidationError`: exit 1, one line.

    Each parser refuses the arguments it does not know itself, so the
    message names the subcommand that got them, not ``mops``.
    """

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


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
    p_exact.add_argument("--budget", type=int)  # default oracle.DEFAULT_BUDGET
    p_exact.set_defaults(fn=_cmd_exact)

    # one subcommand per family, so an option of another family is a usage error
    families = sub.add_parser("gen", help="generate an instance file").add_subparsers(
        dest="family", required=True
    )
    p_tight = families.add_parser("tight", help="worst-case family for the 7/10 bound")
    p_tight.add_argument("--q", type=int, required=True, help="family size (odd, >= 3)")
    p_diamond = families.add_parser("diamond", help="greedy-diamond trap")
    p_diamond.add_argument("--k", type=int, required=True, help="family level")
    p_gnp = families.add_parser("gnp", help="Erdos-Renyi G(n, p)")
    p_gnp.add_argument("--n", type=int, required=True, help="vertex count")
    p_gnp.add_argument("--p", type=float, required=True, help="edge probability")
    p_gnp.add_argument("--seed", type=int, default=0)
    for p_family in (p_tight, p_diamond, p_gnp):
        p_family.add_argument("-o", "--output", required=True)
        p_family.set_defaults(fn=_cmd_gen)

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
    except (ValidationError, ParseError, SizeLimitError, OSError) as exc:
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
