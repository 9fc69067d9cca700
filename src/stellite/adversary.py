"""Adversarial context synthesis.

From a block-local execution X this module builds a syntactic context
C_X that forces any embedded block to replay X's interface: watchdog
variables enforce each context happens-before edge, monitor variables
detect happens-before edges the history does not guarantee, and value
checks compare reads and block-boundary local vectors against X. Any
mismatch writes the observable error variable and halts the thread.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import lang
from .axiomatic import (
    EnumConfig,
    derive_hb,
    enumerate_program,
    is_write,
    signature_bijections,
)
from .blocklocal import CALL, RET, code_of, contx_of, in_r_shape
from .history import hist
from .lang import (
    Assign,
    FenceStmt,
    HoleStmt,
    IfStmt,
    LLStmt,
    LoadStmt,
    Program,
    SCStmt,
    StoreStmt,
)

ERROR_VAR = "e"
CALL_MARK = "kcall"
RET_MARK = "kret"


@dataclass
class AdversaryContext:
    program: Program  # with one hole
    watch_r: dict  # R edge -> watchdog variable
    watch_h: dict  # monitored edge -> monitor variable
    interface_vars: frozenset


def _san(aid):
    return "".join(c if c.isalnum() else "_" for c in str(aid))


def closed_R(X) -> frozenset:
    """The happens-before consequences of the context relation, projected
    to its allowed shape; this is what the construction can reproduce."""
    ctx = {a.aid for a in contx_of(X)}
    return frozenset((u, v) for (u, v) in X.hb if in_r_shape(u, v, ctx))


def build_context(X) -> AdversaryContext:
    """The adversarial context for X, from its context relation closed_R(X)
    and its guarantee. Errors are signalled on the variable e and halt the
    thread by construction (all continuation code is nested under the
    non-error branch). Its locals and flags are named apart from X's. A
    context fence prints as one fc: program order stands in for the R
    edge from its LL to its SC."""
    ctxacts = contx_of(X)
    byid = X.by_id()
    R = closed_R(X)
    G = hist(X).G
    ctx_ids = [a.aid for a in ctxacts]
    vs = {a.gvar for a in ctxacts} | {a.gvar for a in code_of(X)}
    for v in (ERROR_VAR, CALL_MARK, RET_MARK):
        if v in vs:
            raise ValueError(f"variable {v!r} collides with the block's")

    # chain LL/SC pairs onto shared threads, a fence as one statement
    pair_of = {ll: sc for (ll, sc) in X.at
               if ll in ctx_ids and sc in ctx_ids}
    paired = set(pair_of) | set(pair_of.values())
    chain_edges = {(ll, sc) for ll, sc in pair_of.items()}
    fences = {(ll, sc) for (ll, sc) in chain_edges
              if byid[ll].gvar == lang.FENCE_VAR}
    groups = [[(ll, sc)] if (ll, sc) in fences else [(ll,), (sc,)]
              for ll, sc in sorted(pair_of.items())]
    groups += [[(i,)] for i in ctx_ids if i not in paired]

    # monitored edges: guarantee-shaped pairs, the reverse of the context
    # relation's shape, neither guaranteed by X nor implied by R or by
    # pair chaining
    nodes = ctx_ids + [CALL, RET]
    dom = {(u, v) for u in nodes for v in nodes
           if u != v and in_r_shape(v, u, ctx_ids)}
    H = dom - G - {(v, u) for (u, v) in R} - chain_edges

    taken = set(X.locals_order) | {a.gvar for a in X.actions}

    def fresh(stem):
        """stem, or the first of stem0, stem1, ... not taken; now taken."""
        name, i = stem, 0
        while name in taken:
            name, i = f"{stem}{i}", i + 1
        taken.add(name)
        return name

    watch_r = {(u, v): fresh(f"h_{_san(u)}_{_san(v)}")
               for (u, v) in sorted(R - fences)}
    watch_h = {(u, v): fresh(f"g_{_san(u)}_{_san(v)}") for (u, v) in sorted(H)}

    def guard_read(var, then_branch, err_on_one):
        l = fresh("w")
        load = LoadStmt(l, var)
        err = (StoreStmt(ERROR_VAR, ("lit", 1)),)
        if err_on_one:
            return [load, IfStmt(l, err, tuple(then_branch))]
        return [load, IfStmt(l, tuple(then_branch), err)]

    def value_check(l, expected, rest):
        t = fresh("w")
        err = (StoreStmt(ERROR_VAR, ("lit", 1)),)
        return [
            Assign(t, ("eq", ("var", l), ("lit", expected))),
            IfStmt(t, tuple(rest), err),
        ]

    def check_action(m, rest):
        if len(m) == 2:  # a fence
            return [FenceStmt()] + list(rest)
        a = byid[m[0]]
        if a.kind == "load":
            l = fresh("w")
            return [LoadStmt(l, a.gvar)] + value_check(l, a.vals[0], rest)
        if a.kind == "store":
            return [StoreStmt(a.gvar, ("lit", a.vals[0]))] + list(rest)
        if a.kind == "LL":
            l = fresh("w")
            return [LLStmt(l, a.gvar)] + value_check(l, a.vals[0], rest)
        if a.kind == "SC":
            src = fresh("w")
            res = fresh("w")
            err = (StoreStmt(ERROR_VAR, ("lit", 1)),)
            return [
                Assign(src, ("lit", a.vals[0])),
                SCStmt(res, a.gvar, src),
                IfStmt(res, tuple(rest), err),
            ]
        raise ValueError(f"unsupported context action kind {a.kind}")

    def check_hole(rest):
        callv = byid[CALL].vals
        retv = byid[RET].vals
        order = X.locals_order
        body = list(rest)
        for l, v in reversed(list(zip(order, retv))):
            body = value_check(l, v, body)
        body = (
            [Assign(l, ("lit", v)) for l, v in zip(order, callv)]
            + [StoreStmt(CALL_MARK, ("lit", 1)), HoleStmt(),
               StoreStmt(RET_MARK, ("lit", 1))]
            + body
        )
        return body

    def wrap(m, rest):
        """a(m), m the ids of a statement or the hole: R-edge guards,
        monitor stores, the checked statement, monitor guards, R-edge
        stores, then the continuation."""
        entry = {CALL} if m == "hole" else set(m)
        exit_ = {RET} if m == "hole" else set(m)
        tail = [StoreStmt(var, ("lit", 1))
                for (u, v), var in watch_r.items() if u in exit_] + list(rest)
        for (u, v), var in reversed(watch_h.items()):
            if v in exit_:
                tail = guard_read(var, tail, err_on_one=True)
        if m == "hole":
            body = check_hole(tail)
        else:
            body = check_action(m, tail)
        body = [StoreStmt(var, ("lit", 1))
                for (u, v), var in watch_h.items() if u in entry] + body
        for (u, v), var in reversed(watch_r.items()):
            if v in entry:
                body = guard_read(var, body, err_on_one=False)
        return body

    threads = []
    for group in groups:
        body = []
        for m in reversed(group):
            body = wrap(m, body)
        threads.append(tuple(body))
    threads.append(tuple(wrap("hole", [])))  # the hole's thread is last
    prog = Program(tuple(threads))
    lang.check_wellformed(prog)
    return AdversaryContext(
        program=prog,
        watch_r=watch_r,
        watch_h=watch_h,
        interface_vars=frozenset(a.gvar for a in ctxacts),
    )


# ---------------------------------------------------------------------------
# reproduction check


def _no_error_writes(acts):
    return not any(a.gvar == ERROR_VAR and is_write(a) for a in acts)


def _hole_region(Z):
    """The action ids sequenced between the call and ret marker stores,
    i.e. the actions the embedded block produced."""
    kc = next((a.aid for a in Z.actions
               if a.gvar == CALL_MARK and is_write(a)), None)
    kr = next((a.aid for a in Z.actions
               if a.gvar == RET_MARK and is_write(a)), None)
    if kc is None or kr is None:
        return kc, kr, set()
    region = {a.aid for a in Z.actions
              if (kc, a.aid) in Z.sb and (a.aid, kr) in Z.sb}
    return kc, kr, region


def reproduce(X, B) -> bool:
    """Does the adversarial context for X, wrapped around B, admit an
    error-free execution whose code and interface replay X?"""
    ac = build_context(X)
    prog = lang.substitute(ac.program, tuple(B))
    res = enumerate_program(prog,
                            EnumConfig(thread_prefilter=_no_error_writes))
    target_code = _sorted_by_sb(code_of(X), X.sb)
    # expected context-visible hb: consequences of R and of pair chaining
    chain = {(ll, sc) for (ll, sc) in X.at}
    expected = derive_hb(X.actions, closed_R(X) | chain, ())
    ctx_ids = {a.aid for a in contx_of(X)}
    expected = frozenset(
        (u, v) for (u, v) in expected if in_r_shape(u, v, ctx_ids))
    for Z in res.executions:
        if _matches(Z, X, ac, target_code, expected):
            return True
    return False


def _sorted_by_sb(acts, sb):
    return sorted(acts, key=lambda a: sum((b.aid, a.aid) in sb for b in acts))


def _matches(Z, X, ac, target_code, expected):
    sig = lambda a: (a.kind, a.gvar, a.vals)
    kc, kr, region = _hole_region(Z)
    if kc is None or kr is None:
        return False
    zcode = _sorted_by_sb(
        [a for a in Z.actions if a.aid in region], Z.sb
    )
    if [sig(a) for a in zcode] != [sig(a) for a in target_code]:
        return False
    f = dict(zip((a.aid for a in target_code), (a.aid for a in zcode)))
    iface = [a for a in Z.actions
             if a.gvar in ac.interface_vars and a.aid not in region]
    code_ids = [a.aid for a in zcode]
    for h in signature_bijections(contx_of(X), iface):
        g = {**f, **h, CALL: kc, RET: kr}
        if _relations_match(Z, X, g, code_ids) and _hbc_matches(
            Z, X, g, expected
        ):
            return True
    return False


def _relations_match(Z, X, g, code_ids):
    scope = set(g)  # code + context + boundary markers
    mem = {u for u in scope if u not in (CALL, RET)}
    zmem = {g[u] for u in mem}
    zrf = {(w, r) for (w, r) in Z.rf if w in zmem and r in zmem}
    xrf = {(g[w], g[r]) for (w, r) in X.rf if w in mem and r in mem}
    if zrf != xrf:
        return False
    zmo = {(u, v) for (u, v) in Z.mo if u in zmem and v in zmem}
    xmo = {(g[u], g[v]) for (u, v) in X.mo if u in mem and v in mem}
    if zmo != xmo:
        return False
    zsb = {(u, v) for (u, v) in Z.sb
           if u in set(code_ids) and v in set(code_ids)}
    xsb = {(g[u], g[v]) for (u, v) in X.sb
           if g.get(u) in set(code_ids) and g.get(v) in set(code_ids)}
    return zsb == xsb


def _hbc_matches(Z, X, g, expected):
    ctx = {a.aid for a in contx_of(X)}
    nodes = ctx | {CALL, RET}
    got = {(u, v) for u in nodes for v in nodes
           if u != v and in_r_shape(u, v, ctx) and (g[u], g[v]) in Z.hb}
    return got == set(expected)
