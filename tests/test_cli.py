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


@pytest.mark.parametrize("command", ["run", "validate", "exact"])
def test_non_utf8_file_exit_code(tmp_path, capsys, command):
    path = tmp_path / "bad.el"
    path.write_bytes(b"\xffp 3 0\n")
    assert run_cli(command, str(path)) == 1
    err = capsys.readouterr().err
    assert err == "error: line 1: not UTF-8 text (invalid start byte at offset 0)\n"


def test_byte_order_mark_file_accepted(tmp_path, capsys):
    path = tmp_path / "bom.el"
    path.write_bytes(b"\xef\xbb\xbfp 3 3\ne 1 2\ne 2 3\ne 1 3\n")
    assert run_cli("run", str(path)) == 0
    assert "triangles:  1\n" in capsys.readouterr().out
    # an invalid byte after the mark: its offset still counts from the start of the file
    path.write_bytes(b"\xef\xbb\xbfp 3 0\n\xff")
    assert run_cli("run", str(path)) == 1
    assert capsys.readouterr().err == "error: line 2: not UTF-8 text (invalid start byte at offset 9)\n"


def test_byte_order_mark_corpus_accepted(tmp_path, capsys):
    spec = tmp_path / "corpus.json"
    spec.write_bytes(b'\xef\xbb\xbf{"instances": [{"kind": "tight", "q": 3}]}')
    assert run_cli("bench", str(spec), "-o", str(tmp_path / "report.json")) == 0
    assert "instances:  1\n" in capsys.readouterr().out


def test_non_utf8_corpus_exit_code(tmp_path, capsys):
    spec = tmp_path / "corpus.json"
    spec.write_bytes(b'{"instances": [{"kind": "tight", "q": 3, "id": "\xe9"}]}')
    assert run_cli("bench", str(spec), "-o", str(tmp_path / "report.json")) == 1
    assert capsys.readouterr().err == f"error: {spec}: not UTF-8 text (invalid continuation byte)\n"
    assert not (tmp_path / "report.json").exists()


def test_gen_validation_exit_code(tmp_path, capsys):
    assert run_cli("gen", "tight", "--q", "4", "-o", str(tmp_path / "x.el")) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run"], "mops run: the following arguments are required: file"),
        (
            ["gen", "gnp", "--n", "abc", "-o", "x.el"],
            "mops gen gnp: argument --n: invalid int value: 'abc'",
        ),
        (["bogus"], "mops: argument command: invalid choice: 'bogus'"),
        # each gen family takes its own options only: --seed belongs to gnp
        (["gen", "tight", "--q", "7", "--seed", "3", "-o", "x.el"], "mops gen tight: unrecognized arguments: --seed 3"),
        (["gen", "tight", "-o", "x.el"], "mops gen tight: the following arguments are required: --q"),
    ],
    ids=["missing-file", "bad-int", "unknown-command", "other-family-option", "missing-family-option"],
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


# Runs the CLI in a child capped at 1 GiB of address space, so a header n that
# were allocated fails fast with MemoryError instead of filling the machine's
# memory; the child prints how long main() took.
_GUARDED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
from mops.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(time.perf_counter() - start)
sys.exit(code)
"""


def run_guarded(*argv):
    return subprocess.run(
        [sys.executable, "-c", _GUARDED_MAIN, *argv], capture_output=True, text=True, timeout=60
    )


def test_run_vertex_count_above_cap_fails_at_once(tmp_path):
    path = tmp_path / "huge.el"
    path.write_bytes(b"p 10000000000 0\n")
    proc = run_guarded("run", str(path))
    assert proc.returncode == 1
    assert proc.stderr == "error: graph needs 1 to 10000000 vertices, got n=10000000000\n"
    assert float(proc.stdout) < 0.5


@pytest.mark.parametrize(
    "argv, n",
    [(("gnp", "--n", "100000000", "--p", "0"), 100_000_000), (("tight", "--q", "3333335"), 10_000_005)],
    ids=["gnp", "tight"],
)
def test_gen_vertex_count_above_cap_fails_at_once(tmp_path, argv, n):
    out = tmp_path / "big.el"
    proc = run_guarded("gen", *argv, "-o", str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"error: graph needs 1 to 10000000 vertices, got n={n}\n"
    assert float(proc.stdout) < 0.5
    assert not out.exists()


def test_exact_negative_budget_fails_before_loading(tmp_path):
    path = tmp_path / "huge.el"
    path.write_bytes(b"p 10000000000 0\n")
    proc = run_guarded("exact", str(path), "--budget", "-1")
    assert proc.returncode == 1
    assert proc.stderr == "error: budget must be at least 0, got -1\n"


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
            {"instances": [{"kind": "gnp", "n": 10**8, "p": 0.0}]},
            "instances[0] (gnp): graph needs 1 to 10000000 vertices, got n=100000000",
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
            {"instances": [{"kind": "tight", "q": 3}, {"kind": "file", "path": "latin1.el"}]},
            "instances[1] (file): line 2: not UTF-8 text (invalid continuation byte at offset 12)",
        ),
        (
            {"budget": -1, "instances": [{"kind": "tight", "q": 3}]},
            "corpus: field 'budget' must be at least 0, got -1",
        ),
        (
            '{"instances": [\n',
            "corpus.json: not valid JSON (Expecting value: line 2 column 1 (char 16))",
        ),
    ],
    ids=[
        "missing-field", "wrong-type", "top-level-list", "generator-value", "count-below-one", "gnp-above-cap",
        "file-parse-error", "file-missing", "file-not-utf8", "negative-budget", "file-not-json",
    ],
)
def test_bench_bad_corpus_exit_code(tmp_path, monkeypatch, capsys, corpus, message):
    # File entries resolve against the working directory, which holds bad.el and latin1.el;
    # a string corpus is written as is, the rest as JSON.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.el").write_text("0 1\n", encoding="utf-8")
    (tmp_path / "latin1.el").write_bytes("p 2 1\ne 1 2 é\n".encode("latin-1"))
    text = corpus if isinstance(corpus, str) else json.dumps(corpus)
    (tmp_path / "corpus.json").write_text(text, encoding="utf-8")
    assert run_cli("bench", "corpus.json", "-o", str(tmp_path / "report.json")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bench_jobs_below_one_exit_code(tmp_path, capsys, jobs):
    spec = tmp_path / "corpus.json"
    spec.write_text(json.dumps({"instances": [{"kind": "tight", "q": 3}]}), encoding="utf-8")
    report = tmp_path / "report.json"
    assert run_cli("bench", str(spec), "-o", str(report), "--jobs", jobs) == 1
    assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"
    assert not report.exists()


def test_bench_corpus_above_vertex_cap_fails_at_once(tmp_path):
    # 10^8 graphs of 3 vertices: the corpus is refused before its first graph is drawn
    spec = tmp_path / "corpus.json"
    corpus = {"instances": [{"kind": "gnp", "n": 3, "p": 0.5, "count": 10**8}]}
    spec.write_text(json.dumps(corpus), encoding="utf-8")
    proc = run_guarded("bench", str(spec), "-o", str(tmp_path / "report.json"))
    assert proc.returncode == 1
    assert proc.stderr == (
        "error: instances[0] (gnp): 100000000 graphs of 3 vertices"
        " take the corpus past 10000000 vertices\n"
    )
    assert float(proc.stdout) < 1.0
    assert not (tmp_path / "report.json").exists()
