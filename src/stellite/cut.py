"""The redundancy filter over block-local executions.

cut() keeps only executions whose context actions interact with the
code-block in an essential way: context reads must be visible (read from
code writes), no two context reads may share a reads-from source, and
non-visible context writes must be separated in mo by a visible write.
Context LL/SC pairs are kept or rejected as a unit.

CutPruner applies the same rules inside rf × mo completion
(block_local(..., cut_only=True)); explain_cut stays the reference.
"""

from __future__ import annotations

from .axiomatic import Execution, is_read, is_write
from .blocklocal import code_of, contx_of


def vis(X: Execution) -> frozenset:
    """Code actions plus context actions linked to code by reads-from."""
    code = {a.aid for a in code_of(X)}
    out = set(code)
    for (w, r) in X.rf:
        if w in code:
            out.add(r)
        if r in code:
            out.add(w)
    return frozenset(out)


def _pair_units(X: Execution):
    """Map each context action to its atomicity unit (itself, or the
    LL/SC pair it belongs to)."""
    ctx = {a.aid for a in contx_of(X)}
    unit = {a: frozenset({a}) for a in ctx}
    for (ll, sc) in X.at:
        if ll in ctx and sc in ctx:
            u = frozenset({ll, sc})
            unit[ll] = u
            unit[sc] = u
    return unit


def explain_cut(X: Execution):
    """None if X passes the filter, else a human-readable reason."""
    v = vis(X)
    unit = _pair_units(X)
    ctx = {a.aid for a in contx_of(X)}
    visible = lambda a: bool(unit.get(a, frozenset({a})) & v)
    byid = X.by_id()
    # non-visible context reads
    for a in X.actions:
        if is_read(a) and a.aid in ctx and not visible(a.aid):
            return f"context read {a.aid} is not visible"
    # duplicate context reads from one write
    srcs = {}
    for (w, r) in X.rf:
        if r in ctx and byid[r].kind != "SC":
            if w in srcs and srcs[w] != r:
                return (
                    f"context reads {srcs[w]} and {r} share the source {w}"
                )
            srcs[w] = r
    # unseparated non-visible context writes
    for (w1, w2) in X.mo:
        if w1 in ctx and w2 in ctx and not visible(w1) and not visible(w2):
            if not any(
                is_write(a3)
                and (w1, a3.aid) in X.mo
                and (a3.aid, w2) in X.mo
                and (a3.aid not in ctx or visible(a3.aid))
                for a3 in X.actions
            ):
                return (
                    f"non-visible writes {w1}, {w2} lack a visible"
                    " write between them"
                )
    return None


def cut(X: Execution) -> bool:
    return explain_cut(X) is None


class CutPruner:
    """The three cut rules, applied while complete() chooses rf and mo for
    block-local executions under one reduced context.

    Ids outside the context are code actions: boundary actions neither
    read nor write, so they never appear in rf or mo. complete() with a
    pruner yields exactly the completions that cut() keeps.
    """

    def __init__(self, actions, S):
        unit = {a.aid: frozenset({a.aid}) for a in actions}
        for (ll, sc) in S:
            unit[ll] = unit[sc] = frozenset({ll, sc})
        self._unit = unit
        self._ctx = frozenset(unit)
        self._reads = tuple(a.aid for a in actions if is_read(a))
        self._writes = tuple(a.aid for a in actions if is_write(a))
        self._lone_reads = frozenset(
            r for r in self._reads if len(unit[r]) == 1
        )

    def sources(self, r, opts):
        """The rf candidates of read r worth trying: an unpaired context
        read is visible only when it reads from a code write."""
        if r not in self._lone_reads:
            return opts
        return [w for w in opts if w is not None and w not in self._ctx]

    def admit(self, rf):
        """None if rf leaves a context read or LL/SC pair non-visible or
        lets two context reads share a source; else a test that keeps one
        location's mo order."""
        ctx = self._ctx
        seen = set()
        shown = set()
        for (w, r) in rf:
            if r in ctx:
                if w in seen:
                    return None
                seen.add(w)
                if w not in ctx:
                    shown.add(r)
            elif w in ctx:
                shown.add(w)
        unit = self._unit
        if any(not unit[r] & shown for r in self._reads):
            return None
        hidden = {w for w in self._writes if not unit[w] & shown}
        # mo orders the atomic writes of one location totally, so two
        # non-visible context writes are separated by a visible or code
        # write exactly when no two non-visible ones are mo-adjacent
        return lambda order: not any(
            a in hidden and b in hidden for a, b in zip(order, order[1:])
        )
