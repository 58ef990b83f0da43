"""The package namespace: every public name, each submodule and ``__all__``
are imported when they are first looked up."""

import sys

import pytest

from conftest import run_python
import lleekit
from lleekit import bisim, chart, errors, expr, lee, reflect, solve

MODULES = [errors, expr, chart, bisim, lee, reflect, solve]
SUBMODULES = ["errors", "expr", "chart", "bisim", "lee", "reflect", "solve", "cli"]


def test_all_lists_each_module_s_public_names_in_module_order():
    assert lleekit.__all__ == [
        *errors.__all__,
        *expr.__all__,
        *chart.__all__,
        *bisim.__all__,
        *lee.__all__,
        *reflect.__all__,
        *solve.__all__,
        "__version__",
    ]
    assert len(set(lleekit.__all__)) == len(lleekit.__all__)


def test_each_name_is_its_module_s_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lleekit, name) is getattr(module, name), name
    assert lleekit.__version__ == "0.1.0"


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from lleekit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(lleekit.__all__)
    for name in lleekit.__all__:
        assert namespace[name] is getattr(lleekit, name), name
    assert set(lleekit.__all__) | set(SUBMODULES) <= set(dir(lleekit))
    # before any name is looked up, as a fresh interpreter's first dir()
    script = "import lleekit\nnames = dir(lleekit)\nprint(set(lleekit.__all__) <= set(names))\n"
    proc = run_python(["-S", "-c", script], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"


def test_submodules_resolve_and_an_unknown_name_raises():
    for name in SUBMODULES:
        assert getattr(lleekit, name) is sys.modules["lleekit." + name]
    with pytest.raises(AttributeError, match="module 'lleekit' has no attribute 'no_such_name'"):
        lleekit.no_such_name
    assert not hasattr(lleekit, "ImageRecords")
    with pytest.raises(ImportError):
        exec("from lleekit import no_such_name", {})


def _loaded_after(lookups):
    # in a fresh interpreter, the lleekit modules and importlib that each
    # statement loads, one line per statement; -S keeps site from loading
    # modules beforehand
    script = "import sys\nseen = set(sys.modules)\n"
    for statement in lookups:
        script += (
            statement + "\n"
            "new = set(sys.modules) - seen\n"
            "seen |= new\n"
            "print(' '.join(sorted(m for m in new if m.split('.')[0] in ('lleekit', 'importlib'))))\n"
        )
    proc = run_python(["-S", "-c", script], 0, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_the_import_loads_no_module_and_a_lookup_loads_its_own():
    assert _loaded_after(
        [
            "import lleekit",
            "lleekit.errors",
            "lleekit.parse",
            "lleekit.Chart",
            "lleekit.equiv",
            "import lleekit.cli",
            "lleekit.images",
            "lleekit.__all__",
        ]
    ) == [
        "lleekit",
        "lleekit.errors",
        "lleekit._record lleekit.expr",
        "lleekit.chart",
        "lleekit.bisim lleekit.lee lleekit.solve",
        "lleekit.cli",
        "lleekit.reflect",
        "",
    ]
    # a submodule looked up on the package loads that module and what it
    # imports, and no other
    assert _loaded_after(["import lleekit", "lleekit.reflect", "lleekit.cli"]) == [
        "lleekit",
        "lleekit._record lleekit.bisim lleekit.chart lleekit.errors lleekit.expr lleekit.lee lleekit.reflect",
        "lleekit.cli lleekit.solve",
    ]


def test_the_cli_import_leaves_out_reflect():
    # what every lleekit call imports: nine of the package's ten modules
    assert _loaded_after(["import lleekit, lleekit.cli"]) == [
        "lleekit lleekit._record lleekit.bisim lleekit.chart lleekit.cli"
        " lleekit.errors lleekit.expr lleekit.lee lleekit.solve"
    ]
