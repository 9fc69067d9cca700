"""Peephole-transformation checking under a release-acquire axiomatic
memory model, via finite enumeration of block-local executions.

Importing the package loads none of its modules: each module, and each
name below from its module, is imported on first use (PEP 562)."""

import sys
from types import ModuleType

__version__ = "0.1.0"

_HOME = {name: module for module, names in (
    ("adversary", "build_context reproduce"),
    ("axiomatic", "Action EnumConfig Execution check_axioms derive_hb"
     " enumerate_program obs_refines_ex obs_refines_pr safe valid"),
    ("blocklocal", "CutContext block_local code_of contx_of downclosure"),
    ("cut", "cut explain_cut vis"),
    ("history", "History deny hist hist_ext refines"),
    ("lang", "ParseError Program live_in locals_of parse_block"
     " parse_program parse_transformation vars_of"),
    ("verifier", "Budget Verdict check_cut_refinement check_q_instance"
     " context_bound enumerate_contexts"),
) for name in names.split()}


def __getattr__(name):
    """An exported name from its module, or a module of the package."""
    from importlib import import_module

    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in {*_HOME.values(), "cli"}:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # loading the module cut binds it here; stellite.cut stays the
        # function cut.cut
        if not (name in _HOME and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
