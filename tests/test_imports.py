"""Every module of the package uses each name it imports at module level;
importing the package stays cheap."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "stellite"


def unused_imports(source):
    """The names that the module-level imports of source bind and that
    the module never reads, in order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import_and_a_used_one():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os", "b"]
    assert unused_imports("from __future__ import annotations\nimport os.path"
                          "\nos.path.join()\n") == []


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(module):
    assert unused_imports((SRC / module).read_text()) == []


def imported_modules(source):
    """The top-level names of the modules that source imports, at any
    depth of its syntax tree."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_the_check_sees_an_import_in_a_function():
    assert imported_modules("import os.path\ndef f():\n    from a.b import c"
                            "\n    from . import d\n") == {"os", "a"}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_dataclasses(module):
    # defining a frozen dataclass takes about 0.6 ms at every import, a
    # NamedTuple under 0.1 ms; records are NamedTuples
    assert "dataclasses" not in imported_modules((SRC / module).read_text())


def test_importing_the_package_leaves_the_adversary_and_the_cli_unloaded():
    probe = (
        "import sys, stellite\n"
        "print(sorted(m for m in ('stellite.adversary', 'stellite.cli')"
        " if m in sys.modules))\n"
        "from stellite import adversary\n"
        "print(stellite.build_context is adversary.build_context,"
        " stellite.reproduce is adversary.reproduce)\n")
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent))).stdout
    assert out.splitlines() == ["[]", "True True"]


def _loaded_after(probe):
    """The stellite modules loaded once the code probe has run in a new
    interpreter, sorted."""
    probe += ("\nprint(sorted(m for m in sys.modules"
              " if m.startswith('stellite')))\n")
    out = subprocess.run(
        [sys.executable, "-c", "import sys\n" + probe], check=True,
        capture_output=True, text=True, cwd=SRC.parent.parent,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent))).stdout
    return out.splitlines()[-1]


def test_parsing_loads_only_the_parser_and_the_model():
    assert _loaded_after(
        "import stellite\nstellite.parse_program('st(x, 1) ||| ld(x)')") == (
        "['stellite', 'stellite.axiomatic', 'stellite.lang']")


def test_simulate_loads_no_module_of_the_verifier():
    # as python -m stellite.cli simulate corpus/sb.lit
    loaded = _loaded_after(
        "import runpy\n"
        "sys.argv = ['stellite', 'simulate', 'corpus/sb.lit']\n"
        "try:\n"
        "    runpy.run_module('stellite.cli', run_name='__main__',"
        " alter_sys=True)\n"
        "except SystemExit as e:\n"
        "    assert e.code == 0, e.code\n")
    assert loaded == "['stellite', 'stellite.axiomatic', 'stellite.lang']"


# every name the package exported when it imported all of its modules
EXPORTS = {
    "adversary": ["build_context", "reproduce"],
    "axiomatic": ["Action", "EnumConfig", "Execution", "check_axioms",
                  "derive_hb", "enumerate_program", "obs_refines_ex",
                  "obs_refines_pr", "safe", "valid"],
    "blocklocal": ["CutContext", "block_local", "code_of", "contx_of",
                   "downclosure"],
    "cut": ["cut", "explain_cut", "vis"],
    "history": ["History", "deny", "hist", "hist_ext", "refines"],
    "lang": ["ParseError", "Program", "live_in", "locals_of", "parse_block",
             "parse_program", "parse_transformation", "vars_of"],
    "verifier": ["Budget", "Verdict", "check_cut_refinement",
                 "check_q_instance", "context_bound", "enumerate_contexts"],
}


@pytest.mark.parametrize("module, name", [
    (m, n) for m, names in EXPORTS.items() for n in names])
def test_each_exported_name_is_its_modules_own(module, name):
    import importlib

    import stellite

    home = importlib.import_module(f"stellite.{module}")
    assert getattr(stellite, name) is getattr(home, name)
    assert name in dir(stellite)


def test_the_function_cut_keeps_its_name_once_the_module_cut_loads():
    # loading stellite.cut binds the module in the package, which must
    # not hide the exported function of the same name
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, stellite.verifier, stellite\n"
         "print(stellite.cut is sys.modules['stellite.cut'].cut)"],
        check=True, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent))).stdout
    assert out == "True\n"


def test_the_package_has_no_other_lazy_name():
    import stellite

    with pytest.raises(AttributeError, match="no_such_name"):
        stellite.no_such_name


def test_a_budget_shares_no_mutable_pairs():
    from stellite.verifier import Budget

    with pytest.raises(TypeError):
        Budget(reads={}, writes={}).pairs["x"] = 1
    assert Budget(reads={}, writes={}).pairs == {}
