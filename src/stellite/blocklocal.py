"""Block-local executions: a code-block run under a reduced context.

The context is abstracted to a set of actions A (no syntax, no sb), a
context happens-before relation R over A and the call/ret boundary, and a
context atomicity relation S pairing context LL/SC actions. Boundary
actions call(sigma) / ret(sigma') record the local-variable vectors at
block entry and exit.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from . import lang
from .axiomatic import (
    Action,
    Execution,
    PreExecution,
    _add_hb_edges,
    _may_read_from,
    class_executions,
    derive_hb,
    is_na,
    is_read,
    is_write,
    rf_classes,
)

CALL = "call"
RET = "ret"


class CutContext(NamedTuple):
    actions: tuple  # context Actions
    R: frozenset = frozenset()  # pairs over action ids plus 'call'/'ret'
    S: frozenset = frozenset()  # (LL id, SC id) pairs


def sigma_space(locals_order, live, values):
    """All local maps over the ordered local set with live-in locals
    ranging over Val and the rest pinned to 0."""
    live = [l for l in locals_order if l in live]
    out = []
    for combo in itertools.product(sorted(values), repeat=len(live)):
        sg = {l: 0 for l in locals_order}
        sg.update(dict(zip(live, combo)))
        out.append(sg)
    return out or [{l: 0 for l in locals_order}]


def in_r_shape(u, v, ids):
    """Whether (u, v) has the shape of a context relation edge over the
    context action ids: ctx→ctx, ctx→call or ret→ctx."""
    return (u in ids and (v in ids or v == CALL)) or (u == RET and v in ids)


def check_context(ctx: CutContext, blocks, pres):
    """ValueError unless the blocks, with the lists of pre-executions
    pres, may run under ctx: context actions have distinct ids, carry the
    context origin, are paired LL/SC at the fence location and take no
    block action's id; R has in_r_shape; S pairs a context LL with a
    context SC injectively per location; R, S and call -> ret have no
    cycle; and no location is used both atomically and non-atomically by
    ctx and the blocks together. Locations the blocks do not use are
    fine."""
    paired = {i for pair in ctx.S for i in pair}
    code = {a.aid for ps in pres for p in ps for a in p.actions}
    byid = {}
    for a in ctx.actions:
        if a.aid in byid:
            raise ValueError(f"context action id {a.aid!r} is used twice")
        byid[a.aid] = a
        if a.origin != "context":
            raise ValueError("context actions must carry the context origin")
        if a.gvar == lang.FENCE_VAR and not (
            a.kind in ("LL", "SC") and a.aid in paired
        ):
            # at the fence location the context may only contain fences
            raise ValueError(
                "context actions at the fence location must be paired LL/SC"
            )
        if a.aid in code:
            raise ValueError(f"context action id {a.aid!r} is the id"
                             " of a block action")
    seen_ll, seen_sc = set(), set()
    for (ll, sc) in ctx.S:
        if ll not in byid or sc not in byid:
            raise ValueError(f"S pair ({ll},{sc}) must join two context"
                             " actions")
        if byid[ll].kind != "LL" or byid[sc].kind != "SC":
            raise ValueError("S must pair an LL with an SC")
        if byid[ll].gvar != byid[sc].gvar:
            raise ValueError("S pairs must share a location")
        if ll in seen_ll or sc in seen_sc:
            raise ValueError("S must be an injective function")
        seen_ll.add(ll)
        seen_sc.add(sc)
    # R and S seed hb: a cycle would leave no execution, so no check fails
    pos = {i: n for n, i in enumerate([CALL, RET, *byid])}
    rows = _add_hb_edges([0] * len(pos), [(CALL, RET), *ctx.S], pos)
    for (u, v) in sorted(ctx.R):
        if not in_r_shape(u, v, byid):
            raise ValueError(f"R edge ({u},{v}) outside its allowed shape")
        rows = _add_hb_edges(rows, [(u, v)], pos)
        if rows is None:
            raise ValueError(f"R edge ({u},{v}) closes a cycle of hb")
    uses = {(a.gvar, is_na(a)) for a in ctx.actions}
    for B in blocks:
        na = lang.na_vars_of(B)
        uses |= {(g, g in na) for g in lang.vars_of(B)}
    mixed = sorted(g for (g, n) in uses if n and (g, False) in uses)
    if mixed:
        raise ValueError(
            f"global {mixed[0]!r} used both atomically and non-atomically")


def setup(blocks, values):
    """What blocks run under one context range over, built here only: the
    domain (values and every block's literals), the blocks' locals in
    order, the initial local maps (sigma_space of the locals live in some
    block) and, for each block, its pre_executions from each map."""
    blocks = [tuple(B) for B in blocks]
    values = frozenset(values).union(*map(lang.literals_of, blocks))
    locals_order = tuple(sorted(set().union(*map(lang.locals_of, blocks))))
    live = frozenset().union(*map(lang.live_in, blocks))
    sigmas = sigma_space(locals_order, live, values)
    pres = tuple([pre_executions(B, sigma, values, locals_order)
                  for sigma in sigmas] for B in blocks)
    return values, locals_order, sigmas, pres


def pre_executions(B, sigma, values, locals_order):
    """The pre-executions of block B from the local map sigma over the
    domain values, in thread-local order, each with the block's actions
    between call(sigma) and ret(sigma')."""
    call = Action(CALL, "call", None, tuple(sigma[l] for l in locals_order),
                  "boundary")
    out = []
    for (pre, sigma2) in lang.thread_local_block(B, sigma, values):
        ret = Action(RET, "ret", None,
                     tuple(sigma2[l] for l in locals_order), "boundary")
        # a block is sequential: the block's sb, with call before and ret
        # after each of its actions
        ids = [a.aid for a in pre.actions]
        sb = pre.sb.union([(CALL, i) for i in ids], [(i, RET) for i in ids],
                          [(CALL, RET)])
        out.append(PreExecution((call,) + pre.actions + (ret,), sb, pre.at))
    return out


def block_local(B, ctx: CutContext, *, values=frozenset({0, 1})):
    """All executions of block B under the reduced context ctx, from
    each initial map of setup in order.

    Code actions come from the thread-local semantics and sit sb-between
    call and ret; context actions carry no sb; R seeds hb and S extends at.
    A context that check_context rejects is a ValueError.
    """
    _, locals_order, _, (pres,) = setup((B,), values)
    check_context(ctx, [B], pres)
    return executions(itertools.chain(*pres), ctx, locals_order)


def executions(pres, ctx: CutContext, locals_order):
    """Every execution of the pre-executions pres under ctx: the rf
    classes of block_classes flattened in order."""
    return [X for pre, c in block_classes(pres, ctx)
            for X in class_executions(pre, c.rf, c.rows, c.mo_choices,
                                      locals_order)]


def _under(p: PreExecution, ctx: CutContext) -> PreExecution:
    """The pre-execution p put under ctx: the context actions join its
    actions, S joins at, and R and S seed hb; a context LL is ordered
    before its paired SC in any real context."""
    return PreExecution(p.actions + tuple(ctx.actions), p.sb, p.at | ctx.S,
                        frozenset(ctx.R) | frozenset(ctx.S))


class SkeletonClass:
    """One rf class of a skeleton (Skeletons): its rf, rows and
    mo_choices as axiomatic.rf_classes yields them, and sources, the
    position of each read among the skeleton's actions with that of the
    write it reads, None for the initial value."""

    __slots__ = ("rf", "rows", "mo_choices", "sources")

    def __init__(self, actions, rf, rows, mo_choices):
        pos = {a.aid: i for i, a in enumerate(actions)}
        src = {r: w for (w, r) in rf}
        self.rf, self.rows, self.mo_choices = rf, rows, mo_choices
        self.sources = tuple((i, pos[src[a.aid]] if a.aid in src else None)
                             for i, a in enumerate(actions) if is_read(a))

    def admits(self, actions):
        """Whether a pre-execution of the skeleton with the actions
        actions has this class: each read may read its source."""
        return all(_may_read_from(None if j is None else actions[j],
                                  actions[i]) for i, j in self.sources)


class Skeletons:
    """The rf classes of pre-executions, completed once per skeleton: a
    table that lives for one verdict.

    A pre-execution's skeleton, with a pruner's, is all that completion
    reads of them but values: the ids, kinds and locations of the
    actions, sb, at and r_ctx, and the pruner's structure
    (cut.CutPruner.key). Completion reads a value only through
    _may_read_from: an rf edge joins a write and a read of one value,
    and a read without a source reads 0 (axiomatic.rf_classes). So a
    skeleton is completed once, with every read and write holding 0,
    which offers each read every write of its location and the initial
    value, and each pre-execution of it gets the classes it admits
    (SkeletonClass.admits), in order. These are rf_classes(pre, pruner)
    exactly: its candidates are those of the erased completion that
    _may_read_from allows, each of its rf choices meets the same checks
    there, and filtering keeps the relative order of the product.

    completed counts the skeletons completed."""

    def __init__(self):
        self._classes = {}
        self.completed = 0

    def classes(self, pre: PreExecution, pruner=None):
        """The rf classes of pre with the pruner, as rf_classes(pre,
        pruner) gives them, as SkeletonClass, in order."""
        key = (tuple((a.aid, a.kind, a.gvar) for a in pre.actions),
               pre.sb, pre.at, pre.r_ctx,
               None if pruner is None else pruner.key)
        classes = self._classes.get(key)
        if classes is None:
            erased = tuple(Action(a.aid, a.kind, a.gvar, (0,), a.origin)
                           if is_read(a) or is_write(a) else a
                           for a in pre.actions)
            classes = self._classes[key] = [
                SkeletonClass(erased, *c)
                for c in rf_classes(pre._replace(actions=erased), pruner)]
            self.completed += 1
        return [c for c in classes if c.admits(pre.actions)]


def block_classes(pres, ctx: CutContext, pruner=None, table=None):
    """The valid executions of the pre-executions pres under ctx, as the
    rf classes of axiomatic.rf_classes, in order: (pre, c), where pre
    is a pre-execution under ctx (_under) and c a SkeletonClass, whose
    rows are hb as bit rows over the positions of pre's actions, and
    axiomatic.class_executions flattens one. This is the one place a
    pre-execution is put under a context and completed, through the
    Skeletons table, a fresh one unless one is given. A pruner
    (cut.CutPruner of ctx) keeps only the executions that cut.cut
    keeps, or with orbits one of each orbit of them."""
    if table is None:
        table = Skeletons()
    for p in pres:
        pre = _under(p, ctx)
        for c in table.classes(pre, pruner):
            yield pre, c


def code_of(X: Execution):
    return tuple(a for a in X.actions if a.origin == "code")


def contx_of(X: Execution):
    return tuple(a for a in X.actions if a.origin == "context")


def downclosure(X: Execution):
    """All projections of X to action subsets closed under (hb ∪ rf)+
    predecessors, relations projected componentwise."""
    ids = [a.aid for a in X.actions]
    n = len(ids)
    preds = {i: set() for i in ids}
    # rf goes in with hb, not as rf, which derive_hb would filter
    for (u, v) in derive_hb(X.actions, X.hb | X.rf, ()):
        preds[v].add(u)
    out = []
    for bits in itertools.product((False, True), repeat=n):
        keep = {i for i, b in zip(ids, bits) if b}
        if any(not preds[i] <= keep for i in keep):
            continue
        out.append(project(X, keep))
    return out


def project(X: Execution, keep) -> Execution:
    keep = set(keep)
    acts = tuple(a for a in X.actions if a.aid in keep)
    pr = lambda rel: frozenset(
        (u, v) for (u, v) in rel if u in keep and v in keep
    )
    return Execution(
        actions=acts,
        sb=pr(X.sb),
        at=pr(X.at),
        rf=pr(X.rf),
        mo=pr(X.mo),
        hb=pr(X.hb),
        r_ctx=pr(X.r_ctx),
        locals_order=X.locals_order,
    )
