"""Peephole-transformation checking under a release-acquire axiomatic
memory model, via finite enumeration of block-local executions."""

__version__ = "0.1.0"

from .axiomatic import (  # noqa: F401
    Action,
    EnumConfig,
    Execution,
    check_axioms,
    derive_hb,
    enumerate_program,
    obs_refines_ex,
    obs_refines_pr,
    safe,
    valid,
)
from .blocklocal import (  # noqa: F401
    CutContext,
    block_local,
    code_of,
    contx_of,
    downclosure,
)
from .cut import cut, explain_cut, vis  # noqa: F401
from .history import History, deny, hist, hist_ext, refines  # noqa: F401
from .lang import (  # noqa: F401
    ParseError,
    Program,
    live_in,
    locals_of,
    parse_block,
    parse_program,
    parse_transformation,
    vars_of,
)
from .verifier import (  # noqa: F401
    Budget,
    Verdict,
    check_cut_refinement,
    check_q_instance,
    context_bound,
    enumerate_contexts,
)


def __getattr__(name):
    """build_context and reproduce, from the adversary module, which no
    verdict needs and which is imported on their first use (PEP 562)."""
    if name in ("build_context", "reproduce"):
        from . import adversary

        return getattr(adversary, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
