"""Benchmark for the mops pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload sparse-squares --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
The corpus comes from ``--seed`` (see ``workloads.py``). The run solves it
back to back in this one process until ``--seconds`` of library time are
spent, at least once, then checks every output of the first pass.

With ``--trace 0`` it reports the end-to-end metrics named in
``BENCHMARK.json``; with ``--trace 1`` it runs each pass untraced and then
traced, reports the per-layer metrics, the tracing overhead, and writes the
spans to ``perfbench/out/``. Times are scaled to reference interpreter speed
(see ``speed.SpeedProbe``). Every metric is printed with its unit and,
for times, the value as measured; the output counts follow on a ``counts``
line, and the last line is one JSON object. The exit code is 1 when any
attempt or check failed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_PROBE_S, SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_EVERY_S = 2.5
PROBE_TIMEOUT_S = 120
BIGINT_P = 2**63  # p (p + 1) at or above this takes the bigint rank path


class SetupProbe:
    """Timings of one set-up step, each in a fresh interpreter.

    The machine's speed switches every few seconds, so ``maybe_take`` spreads
    the samples over the run, at most one every ``every_s``. Each sample is
    also scaled to reference speed by its own interpreter's speed probe.
    """

    def __init__(self, args: list[str], repeats: int, every_s: float = 0.0):
        self.args = args
        self.repeats = repeats
        self.every_s = every_s
        self.measured: list[float] = []
        self.scaled: list[float] = []
        self._last = perf_counter()

    def take(self) -> None:
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *self.args],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        seconds, probe_s = map(float, done.stdout.split()[-2:])
        self.measured.append(seconds)
        self.scaled.append(seconds * REFERENCE_PROBE_S / probe_s)
        self._last = perf_counter()

    def maybe_take(self) -> None:
        if len(self.measured) < self.repeats and perf_counter() - self._last >= self.every_s:
            self.take()

    def medians(self) -> tuple[float, float]:
        """(as measured, scaled) medians, after taking any samples still due."""
        while len(self.measured) < self.repeats:
            self.take()
        return statistics.median(self.measured), statistics.median(self.scaled)


def _total(outcomes, attr: str) -> float:
    return sum(getattr(o, attr) or 0.0 for o in outcomes if o.error is None)


def _scaled_solve_total(outcomes, speed) -> float:
    return sum(speed.scaled(o.solve_s, o.solve_start) for o in outcomes if o.error is None)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; return metrics, counts and any failure reasons.

    ``metrics`` holds times scaled to reference interpreter speed (see
    ``speed.SpeedProbe``); ``raw`` holds the same times as measured.
    """
    from measure import compare_pass, counts, recheck, solve_pass, timing_metrics, verify_pass
    from tracing import Tracer
    from workloads import WORKLOADS, build_corpus

    workload = WORKLOADS[name]
    speed = SpeedProbe()
    speed.sample()
    if trace:
        setup_steps = {
            "setup.import_mops_s": SetupProbe(["mops"], setup_repeats),
            "setup.import_networkx_s": SetupProbe(["networkx"], setup_repeats),
        }
        between = speed.maybe_sample
    else:
        setup_args = ["corpus", name, str(seed)] + (["smoke"] if smoke else [])
        setup_steps = {"setup_s": SetupProbe(setup_args, setup_repeats, SETUP_EVERY_S)}

        def between():
            speed.maybe_sample()
            setup_steps["setup_s"].maybe_take()
    tracer = Tracer() if trace else None
    if trace:
        with tracer.installed():
            corpus = build_corpus(workload, seed, smoke)
    else:
        corpus = build_corpus(workload, seed, smoke)

    passes = []
    pairs = []  # (untraced, traced) passes over the same graphs
    if trace:
        reference = solve_pass(corpus, workload, False, between)
        with tracer.installed():
            first = solve_pass(corpus, workload, True, between, tracer, label=0)
            verify_pass(corpus, first, workload, tracer)
            found = counts(corpus, first, tracer)
        compare_pass(reference, first)
        passes += [reference, first]
        pairs.append((reference, first))
    else:
        first = solve_pass(corpus, workload, True, between)
        verify_pass(corpus, first, workload)
        found = counts(corpus, first)
        passes.append(first)
    spent = sum(_total(p, "solve_s") + _total(p, "exact_s") for p in passes)
    while spent < seconds:
        again = solve_pass(corpus, workload, False, between)
        repeats = [again]
        if trace:
            with tracer.installed():
                traced = solve_pass(corpus, workload, False, between, tracer, label=len(pairs))
            repeats.append(traced)
            pairs.append((again, traced))
        for repeat in repeats:
            compare_pass(first, repeat)
            for outcome in repeat:
                outcome.solution = None  # compared; keep memory flat across passes
            spent += _total(repeat, "solve_s")
        passes += repeats

    problems = [o.error for p in passes for o in p if o.error is not None]
    rechecked, unrepeated = recheck(corpus, first, workload)
    problems += unrepeated
    attempted = sum(len(p) for p in passes) + rechecked
    failed = len(problems)

    if trace:
        raw = tracer.layer_metrics()
        metrics = {k: v * speed.scale() for k, v in raw.items()}
        raw["trace.overhead_s"] = statistics.median(
            _total(t, "solve_s") - _total(u, "solve_s") for u, t in pairs)
        metrics["trace.overhead_s"] = statistics.median(
            _scaled_solve_total(t, speed) - _scaled_solve_total(u, speed) for u, t in pairs)
        metrics.update({key: found[key] for key in (
            "cactus.triangles", "cactus.r", "sts.squares", "sts.spanning_edges",
            "oracle.nodes_explored", "oracle.budget_exhausted")})
        if found["cactus.triangles"]:
            metrics["cactus.kept_ratio"] = found["cactus.r"] / found["cactus.triangles"]
        if found["cactus.blocks"]:
            metrics["cactus.certified_share"] = found["cactus.certified_blocks"] / found["cactus.blocks"]
        primes = tracer.observed("cactus.build_parity_instance", label=0)
        if primes:
            metrics["cactus.prime_bits"] = max(p.bit_length() for p in primes)
            metrics["cactus.bigint_instances"] = sum(1 for p in primes if p * (p + 1) >= BIGINT_P)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"trace-{name}-{seed}.jsonl")
    else:
        done = [o for p in passes for o in p if o.error is None]
        solve = [o.solve_s for o in done]
        exact = [o.exact_s for o in first if o.error is None]
        solve_ref = [speed.scaled(o.solve_s, o.solve_start) for o in done]
        exact_ref = [speed.scaled(o.exact_s, o.exact_start) for o in first if o.error is None]
        raw = timing_metrics(solve, exact)
        metrics = timing_metrics(solve_ref, exact_ref)
        metrics.update({
            "edge_ratio.mean": found["edge_ratio.mean"],
            "edge_ratio.min": found["edge_ratio.min"],
            "ok_share": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        })
    for key, step in setup_steps.items():
        raw[key], metrics[key] = step.medians()
    metrics["speed.probe_s"] = raw["speed.probe_s"] = speed.mean_s()
    return {
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "metrics": metrics,
        "raw": raw,
        "counts": found,
        "samples": {"solves": sum(len(p) for p in passes), "graphs": len(corpus)},
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mops" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout of the repository; {SRC / 'mops'} "
              f"or {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(names)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        value = report["metrics"].get(entry["name"])
        if value is None:
            print(f"{entry['name']}: absent (the layer never ran)")
            continue
        raw = report["raw"].get(entry["name"])
        as_measured = "" if raw is None else f" (as measured: {raw:.6g})"
        print(f"{entry['name']}: {value:.6g} {entry['unit']}{as_measured}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(f"fail_share: {report['fail_share']:.6g} 1 "
          f"({report['failed']} of {report['attempted']} attempts)")
    print(f"samples: {report['samples']['solves']} solves of "
          f"{report['samples']['graphs']} graphs; speed probe mean "
          f"{report['raw']['speed.probe_s']:.6g} s (reference {REFERENCE_PROBE_S} s)")
    print("counts " + json.dumps(report["counts"], sort_keys=True))
    for reason in report["problems"][:10]:
        print(f"failed: {reason}", file=sys.stderr)
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
