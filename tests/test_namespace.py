"""The lazy package namespace and the CLI's per-command imports.

The import checks run in a fresh interpreter, because this test process
has already imported every submodule.
"""

import json
import os
import subprocess
import sys

import pytest

import mops

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mops.__file__)))


def fresh(code: str):
    """The JSON value that ``code`` prints last, run in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    code = (
        "import json, sys, mops\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith(('mops.', 'numpy')))))"
    )
    assert fresh(code) == []


def test_every_public_name_is_its_home_modules_object():
    # the home module is read off each object, not off the package's own table
    code = (
        "import json, sys, mops\n"
        "objs = {name: getattr(mops, name) for name in mops.__all__}\n"
        "print(json.dumps([name for name, obj in objs.items() if not obj.__module__.startswith('mops.')"
        " or getattr(sys.modules[obj.__module__], name) is not obj]))"
    )
    assert fresh(code) == []


def test_from_import_and_attribute_give_the_same_object():
    code = (
        "import json, mops\n"
        "from mops import run_sts, sts\n"
        "graph_new = mops.graph_new\n"
        "import mops.graph\n"
        "print(json.dumps([run_sts is sts.run_sts, mops.run_sts is run_sts, mops.sts is sts,"
        " graph_new is mops.graph.graph_new]))"
    )
    assert fresh(code) == [True, True, True, True]


def test_dir_covers_all_before_any_name_is_used():
    code = "import json, mops\nprint(json.dumps(sorted(set(mops.__all__) - set(dir(mops)))))"
    assert fresh(code) == []


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        mops.no_such_name
    with pytest.raises(ImportError, match="'no_such_name'"):
        from mops import no_such_name  # noqa: F401


def test_star_import_binds_every_public_name():
    code = (
        "import json\n"
        "from mops import *\n"
        "import mops\n"
        "print(json.dumps([n for n in mops.__all__ if globals().get(n) is not getattr(mops, n)]))"
    )
    assert fresh(code) == []


@pytest.mark.parametrize(
    "command, unloaded",
    [
        ("gen", ["bench", "cactus", "oracle", "outerplanar", "sts"]),
        ("validate", ["bench", "cactus", "oracle", "sts"]),
    ],
    ids=["gen", "validate"],
)
def test_cli_command_loads_only_what_it_runs(tmp_path, command, unloaded):
    path = tmp_path / "k3.el"
    path.write_text("p 3 3\ne 1 2\ne 2 3\ne 1 3\n", encoding="utf-8")
    argv = {"gen": ["gen", "tight", "--q", "3", "-o", str(path)], "validate": ["validate", str(path)]}
    code = (
        "import json, sys\n"
        "from mops.cli import main\n"
        f"assert main({argv[command]!r}) == 0\n"
        f"print(json.dumps([m for m in {unloaded!r} if 'mops.' + m in sys.modules]))"
    )
    assert fresh(code) == []


def test_exact_budget_default_is_the_oracles(tmp_path, monkeypatch, capsys):
    import mops.oracle
    from mops.cli import main

    path = tmp_path / "k7.el"
    assert main(["gen", "gnp", "--n", "7", "--p", "1.0", "-o", str(path)]) == 0
    monkeypatch.setattr(mops.oracle, "DEFAULT_BUDGET", 1)
    assert main(["exact", str(path)]) == 2
    assert "budget exhausted" in capsys.readouterr().err
