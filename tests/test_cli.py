import json
import subprocess
import sys

import pytest

from mops import read_edgelist
from mops.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_gen_tight_and_run(tmp_path, capsys):
    path = tmp_path / "t5.el"
    assert run_cli("gen", "tight", "--q", "5", "-o", str(path)) == 0
    g = read_edgelist(path.read_text(encoding="utf-8"))
    assert (g.n, g.m) == (15, 22)
    out_path = tmp_path / "sol.el"
    assert run_cli("run", str(path), "--seed", "3", "--output", str(out_path)) == 0
    captured = capsys.readouterr().out
    assert "edges out:  16" in captured
    sol = read_edgelist(out_path.read_text(encoding="utf-8"))
    assert sol.m == 16


def test_run_adversarial(tmp_path, capsys):
    path = tmp_path / "t3.el"
    run_cli("gen", "tight", "--q", "3", "-o", str(path))
    assert run_cli("run", str(path), "--adversarial") == 0
    assert "edges out:  9" in capsys.readouterr().out


def test_exact_subcommand(tmp_path, capsys):
    path = tmp_path / "g.el"
    run_cli("gen", "gnp", "--n", "6", "--p", "1.0", "-o", str(path))
    assert run_cli("exact", str(path)) == 0
    assert "optimum edges:  9" in capsys.readouterr().out


def test_exact_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "g.el"
    run_cli("gen", "gnp", "--n", "7", "--p", "1.0", "-o", str(path))
    assert run_cli("exact", str(path), "--budget", "1") == 2


def test_exact_negative_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "g.el"
    run_cli("gen", "gnp", "--n", "7", "--p", "1.0", "-o", str(path))
    assert run_cli("exact", str(path), "--budget", "-5") == 1
    assert capsys.readouterr().err == "error: budget must be at least 0, got -5\n"


def test_validate_subcommand(tmp_path, capsys):
    path = tmp_path / "c4.el"
    path.write_text("p 4 4\ne 1 2\ne 2 3\ne 3 4\ne 1 4\n", encoding="utf-8")
    assert run_cli("validate", str(path)) == 0
    out = capsys.readouterr().out
    assert "outerplanar:                 yes" in out
    assert "square-triangular structure: yes" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.el"
    path.write_text("p 2 1\ne 1 3\n", encoding="utf-8")
    assert run_cli("validate", str(path)) == 1
    assert "index 3 > n=2" in capsys.readouterr().err


def test_gen_validation_exit_code(tmp_path, capsys):
    assert run_cli("gen", "tight", "--q", "4", "-o", str(tmp_path / "x.el")) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run"], "mops run: the following arguments are required: file"),
        (
            ["gen", "gnp", "--n", "abc", "-o", "x.el"],
            "mops gen: argument --n: invalid int value: 'abc'",
        ),
        (["bogus"], "mops: argument command: invalid choice: 'bogus'"),
    ],
    ids=["missing-file", "bad-int", "unknown-command"],
)
def test_usage_error_exit_code(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not (tmp_path / "x.el").exists()


def test_help_exit_code(capsys):
    with pytest.raises(SystemExit) as exc_info:
        run_cli("--help")
    assert exc_info.value.code == 0
    assert "usage: mops" in capsys.readouterr().out


def test_missing_file_exit_code(tmp_path):
    assert run_cli("run", str(tmp_path / "absent.el")) == 1


def test_bench_subcommand(tmp_path, capsys):
    spec = tmp_path / "corpus.json"
    spec.write_text(
        json.dumps(
            {
                "seed": 4,
                "instances": [
                    {"kind": "tight", "q": 3},
                    {"kind": "gnp", "n": 6, "p": 0.5, "count": 3},
                ],
            }
        ),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    assert run_cli("bench", str(spec), "-o", str(report_path)) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["summary"]["instances"] == 4
    assert report["summary"]["min_ratio"] >= 0.7


def test_module_entry_point(tmp_path):
    path = tmp_path / "t3.el"
    run_cli("gen", "tight", "--q", "3", "-o", str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "mops", "validate", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "outerplanar:                 yes" in proc.stdout


def test_adversarial_size_limit_exit_code(tmp_path):
    path = tmp_path / "g20.el"
    run_cli("gen", "gnp", "--n", "20", "--p", "0.5", "--seed", "1", "-o", str(path))
    proc = subprocess.run(
        [sys.executable, "-m", "mops", "run", str(path), "--adversarial"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "exceeds the enumeration bound" in line


@pytest.mark.parametrize(
    "corpus, message",
    [
        ({"instances": [{"kind": "gnp", "n": 6}]}, "instances[0] (gnp): missing field 'p'"),
        (
            {"instances": [{"kind": "tight", "q": 3}, {"kind": "tight", "q": "x"}]},
            "instances[1] (tight): field 'q' must be an integer, got 'x'",
        ),
        ([{"kind": "tight", "q": 3}], "corpus must be a JSON object, got list"),
        (
            {"instances": [{"kind": "tight", "q": 3}, {"kind": "tight", "q": 4}]},
            "instances[1] (tight): q must be odd and >= 3, got 4",
        ),
        (
            {"instances": [{"kind": "gnp", "n": 6, "p": 0.5, "count": -3}]},
            "instances[0] (gnp): field 'count' must be at least 1, got -3",
        ),
        (
            {"instances": [{"kind": "tight", "q": 3}, {"kind": "file", "path": "bad.el"}]},
            "instances[1] (file): line 1: unknown directive '0'",
        ),
        (
            {"instances": [{"kind": "tight", "q": 3}, {"kind": "file", "path": "nope.el"}]},
            "instances[1] (file): [Errno 2] No such file or directory: 'nope.el'",
        ),
        (
            {"budget": -1, "instances": [{"kind": "tight", "q": 3}]},
            "corpus: field 'budget' must be at least 0, got -1",
        ),
    ],
    ids=[
        "missing-field", "wrong-type", "top-level-list", "generator-value", "count-below-one",
        "file-parse-error", "file-missing", "negative-budget",
    ],
)
def test_bench_bad_corpus_exit_code(tmp_path, monkeypatch, capsys, corpus, message):
    # File entries resolve against the working directory, which holds bad.el.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.el").write_text("0 1\n", encoding="utf-8")
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps(corpus), encoding="utf-8")
    assert run_cli("bench", str(spec), "-o", str(tmp_path / "report.json")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_jobs_below_one_exit_code(tmp_path, capsys, jobs):
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps({"instances": [{"kind": "tight", "q": 3}]}), encoding="utf-8")
    report = tmp_path / "report.json"
    assert run_cli("bench", str(spec), "-o", str(report), "--jobs", jobs) == 1
    assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"
    assert not report.exists()
