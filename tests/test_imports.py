"""The package loads a submodule only when a caller reads one of its names."""

import subprocess
import sys

import pytest

import misere


def test_cli_import_loads_only_what_every_subcommand_needs():
    # A fresh interpreter; only misere's own modules are compared, because a
    # site .pth file may import any standard library module.
    script = ("import sys, misere.cli; "
              "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'misere'))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["misere", "misere.cli", "misere.core",
                                   "misere.notation", "misere.outcomes"]


def test_every_public_name_resolves():
    for name in misere.__all__:
        assert getattr(misere, name) is not None, name
    namespace = {}
    exec("from misere import *", namespace)
    assert set(misere.__all__) <= set(namespace)
    assert set(misere.__all__) <= set(dir(misere))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        misere.nope


def test_submodules_resolve_after_a_bare_import():
    script = "import misere; print(misere.core.__name__, misere.lab.__name__)"
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["misere.core", "misere.lab"]


def test_every_table_module_resolves_after_a_bare_import():
    # misere.stats() names the tables of every submodule, cli included.
    script = ("import misere; "
              "print(*(getattr(misere, m).__name__ for m in misere._TABLES))")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["misere." + m for m in misere._TABLES]


def test_package_names_are_the_submodule_objects():
    import misere.ordering

    assert misere.ge is misere.ordering.ge
    assert misere.DEFAULT_SEED == misere.lab.DEFAULT_SEED


def test_no_subcommand_imports_dataclasses_or_inspect():
    # One query of every subcommand in one fresh interpreter.  Only modules
    # loaded after the start are checked, because a site .pth file may
    # import any standard library module.
    script = """
import contextlib, io, sys
before = set(sys.modules)
from misere import cli
queries = [["parse", "1"], ["outcome", "*"], ["strong-outcome", "M(2)"],
           ["sum", "1", "-1"], ["conj", "1"],
           ["compare", "1", "0", "--universe", "dead-ending"],
           ["reduce", "3+-1", "--universe", "dead-ending"],
           ["distinguish", "1", "0", "--universe", "dead-ending", "--max-rank", "1"],
           ["enumerate", "--universe", "dicot", "--census"],
           ["verify", "ends", "--format", "structured"]]
assert [q[0] for q in queries] == list(cli._COMMANDS)
for argv in queries:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print(*sorted(set(sys.modules) - before))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "misere.lab" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
