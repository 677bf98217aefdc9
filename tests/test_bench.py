import concurrent.futures
import json

import pytest

import mops.bench
from mops import ValidationError, bench_run, gen_tight_family


def test_tight_corpus_ratios():
    corpus = {"instances": [{"kind": "tight", "q": q} for q in (3, 5, 7)]}
    records, report = bench_run(corpus, seed=1)
    assert len(records) == 3
    for rec, q in zip(records, (3, 5, 7)):
        assert rec.instance_id == f"tight-q{q}"
        assert rec.n == 3 * q and rec.m == 5 * q - 3
        assert rec.ratio_lower_bound >= 0.70
    assert report["summary"]["instances"] == 3


def test_k4_record():
    corpus = {"instances": [{"kind": "gnp", "n": 4, "p": 1.0}]}
    [rec], _ = bench_run(corpus, seed=0)
    assert rec.bound_is_exact and rec.bound == 5
    assert rec.output_edges == 4
    assert rec.ratio_lower_bound == 0.8


def test_c4_record_via_file(tmp_path):
    path = tmp_path / "c4.el"
    path.write_text("p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n", encoding="utf-8")
    corpus = {"instances": [{"kind": "file", "path": str(path), "id": "c4"}]}
    [rec], _ = bench_run(corpus, seed=0)
    assert rec.instance_id == "c4"
    assert rec.ratio_lower_bound == 1.0


def test_exact_records_respect_guarantee():
    corpus = {
        "instances": [{"kind": "gnp", "n": 7, "p": 0.5, "count": 25}],
        "exact_threshold": 8,
    }
    records, _ = bench_run(corpus, seed=11)
    assert len(records) == 25
    for rec in records:
        if rec.bound_is_exact:
            assert 10 * rec.output_edges >= 7 * rec.bound


def test_threshold_switches_to_upper_bound():
    corpus = {
        "instances": [{"kind": "tight", "q": 5}],
        "exact_threshold": 9,
    }
    [rec], _ = bench_run(corpus, seed=0)
    assert not rec.bound_is_exact
    assert rec.bound == 22  # the instance is outerplanar, so the bound is m


def test_budget_exhaustion_recorded_not_fatal():
    corpus = {
        "instances": [{"kind": "gnp", "n": 6, "p": 1.0}],
        "exact_threshold": 9,
        "budget": 1,
    }
    [rec], _ = bench_run(corpus, seed=0)
    assert rec.budget_exhausted and not rec.bound_is_exact
    assert rec.bound == 9  # Euler bound for K6


def test_deterministic_given_seed():
    corpus = {"instances": [{"kind": "gnp", "n": 8, "p": 0.4, "count": 6}]}
    rec_a, _ = bench_run(corpus, seed=21)
    rec_b, _ = bench_run(corpus, seed=21)
    assert [r.instance_id for r in rec_a] == [r.instance_id for r in rec_b]
    assert [(r.n, r.m, r.output_edges, r.seed) for r in rec_a] == [
        (r.n, r.m, r.output_edges, r.seed) for r in rec_b
    ]


def test_parallel_matches_sequential():
    corpus = {"instances": [{"kind": "gnp", "n": 7, "p": 0.5, "count": 8}]}
    seq, _ = bench_run(corpus, seed=33, jobs=1)
    par, _ = bench_run(corpus, seed=33, jobs=2)
    assert [(r.instance_id, r.output_edges, r.bound) for r in seq] == [
        (r.instance_id, r.output_edges, r.bound) for r in par
    ]


def test_report_schema_and_json(tmp_path):
    corpus = {"instances": [{"kind": "tight", "q": 3}, {"kind": "diamond", "k": 1}]}
    _, report = bench_run(corpus, seed=2)
    assert set(report) == {"config", "records", "summary"}
    assert {"min_ratio", "mean_ratio", "instances"} <= set(report["summary"])
    text = json.dumps(report)
    parsed = json.loads(text)
    assert parsed["summary"]["instances"] == 2
    fields = set(parsed["records"][0])
    assert {
        "instance_id",
        "n",
        "m",
        "output_edges",
        "r",
        "c",
        "bound",
        "bound_is_exact",
        "ratio_lower_bound",
        "seed",
        "pipeline_time",
        "oracle_time",
    } <= fields
    assert "wall_time" not in fields


class FakeClock:
    """``perf_counter`` stand-in that only moves when ``advance`` is called."""

    def __init__(self):
        self.now = 100.0

    def perf_counter(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.mark.parametrize(
    "threshold, budget, oracle_s",
    [(9, 10_000_000, 5.0), (9, 0, 5.0 + 2.0), (3, 10_000_000, 2.0)],
    ids=["exact", "budget-exhausted", "upper-bound"],
)
def test_oracle_time_not_in_pipeline_time(monkeypatch, threshold, budget, oracle_s):
    clock = FakeClock()
    real_run_sts, real_exact, real_bound = (
        mops.bench.run_sts,
        mops.bench.exact_max_outerplanar,
        mops.bench.upper_bound,
    )

    def run_sts(g, seed):
        clock.advance(0.25)
        return real_run_sts(g, seed=seed)

    def exact_max_outerplanar(g, budget):
        clock.advance(5.0)
        return real_exact(g, budget=budget)

    def upper_bound(g):
        clock.advance(2.0)
        return real_bound(g)

    monkeypatch.setattr(mops.bench, "time", clock)
    monkeypatch.setattr(mops.bench, "run_sts", run_sts)
    monkeypatch.setattr(mops.bench, "exact_max_outerplanar", exact_max_outerplanar)
    monkeypatch.setattr(mops.bench, "upper_bound", upper_bound)
    corpus = {
        "instances": [{"kind": "gnp", "n": 6, "p": 1.0}],
        "exact_threshold": threshold,
        "budget": budget,
    }
    [rec], _ = bench_run(corpus, seed=0)
    assert rec.budget_exhausted == (budget == 0)
    assert rec.pipeline_time == 0.25
    assert rec.oracle_time == oracle_s


@pytest.mark.parametrize(
    "jobs, cpus, pools",
    [(64, 4, [4]), (3, 4, [3]), (64, 64, [5]), (8, None, []), (1, 4, [])],
)
def test_pool_size_clamped(monkeypatch, jobs, cpus, pools):
    sizes = []

    class RecordingPool:
        """In-process stand-in for the process pool that records its size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(mops.bench.os, "cpu_count", lambda: cpus)
    corpus = {"instances": [{"kind": "gnp", "n": 5, "p": 0.5, "count": 5}]}
    records, report = bench_run(corpus, seed=3, jobs=jobs)
    assert sizes == pools
    assert len(records) == 5
    assert report["config"]["jobs"] == jobs


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValidationError, match="jobs must be at least 1"):
        bench_run({"instances": [{"kind": "tight", "q": 3}]}, jobs=jobs)




@pytest.mark.parametrize(
    "first, draws",
    [({"kind": "tight", "q": 7}, 0), ({"kind": "gnp", "n": 5, "p": 0.5, "count": 4}, 4)],
    ids=["tight", "gnp"],
)
def test_corpus_vertex_total_counts_every_entry(monkeypatch, first, draws):
    # entry 1 alone needs exactly the cap of 10^7 vertices; after entry 0's 21 or 20 it is past it
    drawn = []
    real = mops.bench.gen_random

    def gen_random(n, p, seed):
        drawn.append(n)
        assert len(drawn) <= draws, "entry 1 drew a graph"
        return real(n, p, seed)

    monkeypatch.setattr(mops.bench, "gen_random", gen_random)
    corpus = {"instances": [first, {"kind": "gnp", "n": 5, "p": 0.5, "count": 2 * 10**6}]}
    with pytest.raises(ValidationError) as exc_info:
        bench_run(corpus)
    assert str(exc_info.value) == (
        "instances[1] (gnp): 2000000 graphs of 5 vertices take the corpus past 10000000 vertices"
    )
    assert len(drawn) == draws
