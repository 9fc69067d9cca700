"""Independent oracles and shared fixtures for the test suite.

The brute-force execution oracle enumerates every rf and mo assignment of
a program and filters by the axioms written as direct quantified formulas,
sharing no enumeration code with the package. The deny oracle re-derives
happens-before with one extra context edge and looks for a violation
directly. Both exist to validate derived behaviour against first
principles.
"""

from __future__ import annotations

import itertools

from stellite import lang
from stellite.axiomatic import (
    Action,
    EnumConfig,
    class_executions,
    enumerate_program,
    is_atomic_write,
    is_na,
    is_read,
    is_write,
    obs_refines_pr,
)
from stellite.blocklocal import (
    CALL,
    RET,
    CutContext,
    block_classes,
    block_local,
    contx_of,
    setup,
)
from stellite.cut import CutPruner
from stellite.verifier import context_bound, enumerate_contexts


# ---------------------------------------------------------------------------
# brute-force whole-program oracle


def _closure(edges):
    """Transitive closure of a set of pairs: each node paired with every
    node a depth-first walk from it reaches. The package's closure is not
    used, so the oracles share no relation code with what they check."""
    succ = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    out = set()
    for u, vs in succ.items():
        seen, stack = set(), list(vs)
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(succ.get(v, ()))
        out.update((u, v) for v in seen)
    return out


def rows_of(aids, pairs):
    """The relation pairs as bit rows over the positions of the ids aids,
    the form the package keeps hb in: bit j of row i when (aids[i],
    aids[j]) is a pair."""
    rows = [0] * len(aids)
    for (u, v) in pairs:
        rows[aids.index(u)] |= 1 << aids.index(v)
    return rows


def pairs_of(aids, rows):
    """The relation with bit rows rows over the positions of aids."""
    return {(u, v) for u, row in zip(aids, rows)
            for j, v in enumerate(aids) if row >> j & 1}


def _oracle_at(acts, sb):
    """Independent LL/SC pairing: each SC takes the sb-latest LL on its
    location with no SC on that location sequenced in between."""
    pairs = set()
    byid = {a.aid: a for a in acts}
    for sc in acts:
        if sc.kind != "SC":
            continue
        best = None
        for ll in acts:
            if ll.kind != "LL" or ll.gvar != sc.gvar:
                continue
            if (ll.aid, sc.aid) not in sb:
                continue
            if any(
                m.kind in ("SC", "SC_f")
                and m.gvar == sc.gvar
                and (ll.aid, m.aid) in sb
                and (m.aid, sc.aid) in sb
                for m in acts
            ):
                continue
            if best is None or (best, ll.aid) in sb:
                best = ll.aid
        if best is not None:
            pairs.add((best, sc.aid))
    return pairs


def _oracle_valid(acts, sb, at, rf, mo, mode):
    byid = {a.aid: a for a in acts}
    reads = [a for a in acts if is_read(a)]
    writes = [a for a in acts if is_write(a)]
    rf_of = {r: w for (w, r) in rf}
    # well-formedness of rf: same location, same value, write to read
    for (w, r) in rf:
        if not (is_write(byid[w]) and is_read(byid[r])):
            return False
        if byid[w].gvar != byid[r].gvar:
            return False
        if byid[w].vals[0] != byid[r].vals[0]:
            return False
    rf_hb = {
        (w, r)
        for (w, r) in rf
        if not (mode == "NA" and (is_na(byid[w]) or is_na(byid[r])))
    }
    hb = _closure(set(sb) | rf_hb)
    if any(u == v for (u, v) in hb):
        return False
    if any((w2, w1) in hb for (w1, w2) in mo):
        return False
    for (w1, r) in rf:
        for (a, w2) in mo:
            if a == w1 and (w2, r) in hb:
                return False
    for r in reads:
        if r.aid in rf_of:
            continue
        if r.vals[0] != 0:
            return False
        if any(
            w.gvar == r.gvar and (w.aid, r.aid) in hb for w in writes
        ):
            return False
    for (ll, sc) in at:
        w1 = rf_of.get(ll)
        if w1 is None:
            continue
        if any(
            (w1, w2.aid) in mo and (w2.aid, sc) in mo
            for w2 in writes
        ):
            return False
    if mode == "NA":
        for (w, r) in rf:
            if (is_na(byid[w]) or is_na(byid[r])) and (w, r) not in hb:
                return False
        for (w1, r) in rf:
            if not is_na(byid[r]):
                continue
            for w2 in writes:
                if (
                    is_na(w2)
                    and w2.gvar == byid[r].gvar
                    and (w1, w2.aid) in hb
                    and (w2.aid, r) in hb
                ):
                    return False
    return True


def _signature(acts, rf, mo):
    return (
        frozenset((a.aid, a.kind, a.gvar, a.vals) for a in acts),
        frozenset(rf),
        frozenset(mo),
    )


def brute_force_signatures(P, values=frozenset({0, 1}), mode="AT"):
    """Signatures of all valid executions, by exhaustive assignment."""
    threads = lang.threads_of(P)
    vals = frozenset(values) | lang.literals_of(P)
    per = []
    for i, th in enumerate(threads):
        sigma0 = {l: 0 for l in lang.locals_of(th)}
        per.append(lang.thread_local_block(th, sigma0, vals, prefix=f"t{i}."))
    out = set()
    for combo in itertools.product(*per):
        acts = tuple(a for (p, _) in combo for a in p.actions)
        sb = frozenset(e for (p, _) in combo for e in p.sb)
        at = _oracle_at(acts, sb)
        reads = [a for a in acts if is_read(a)]
        writes = [a for a in acts if is_write(a)]
        movars = {}
        for w in writes:
            if is_atomic_write(w):
                movars.setdefault(w.gvar, []).append(w.aid)
        rf_opts = [[None] + [w.aid for w in writes] for _ in reads]
        mo_opts = [
            list(itertools.permutations(ws)) for ws in movars.values()
        ]
        for rf_choice in itertools.product(*rf_opts):
            rf = frozenset(
                (w, r.aid)
                for (w, r) in zip(rf_choice, reads)
                if w is not None
            )
            for mo_choice in itertools.product(*mo_opts):
                mo = frozenset(
                    (order[i], order[j])
                    for order in mo_choice
                    for i in range(len(order))
                    for j in range(i + 1, len(order))
                )
                if _oracle_valid(acts, sb, at, rf, mo, mode):
                    out.add(_signature(acts, rf, mo))
    return out


def enumerated_signatures(P, values=frozenset({0, 1})):
    res = enumerate_program(P, EnumConfig(values=values))
    return {_signature(X.actions, X.rf, X.mo) for X in res.executions}


# ---------------------------------------------------------------------------
# deny oracle: add one edge, re-derive, look for a violation directly


def deny_domain(X):
    ctx = {a.aid for a in contx_of(X)}
    return [
        (u, v)
        for u in ctx | {RET}
        for v in ctx | {CALL}
        if u != v
        and not (u == RET and v == CALL)
        and (u in ctx or v in ctx)
    ]


def oracle_deny_hit(X, u, v):
    """True iff enforcing u happens-before v completes a violation of the
    order-contradiction, overwritten-read or read-from-nothing axiom."""
    hb2 = _closure(set(X.hb) | {(u, v)})
    if any((w2, w1) in hb2 for (w1, w2) in X.mo):
        return True
    for (w1, r) in X.rf:
        for (a, w2) in X.mo:
            if a == w1 and (w2, r) in hb2:
                return True
    rf_of = {r: w for (w, r) in X.rf}
    for r in X.actions:
        if not is_read(r) or r.aid in rf_of:
            continue
        for w in X.actions:
            if is_write(w) and w.gvar == r.gvar and (w.aid, r.aid) in hb2:
                return True
    return False


def cut_survivors(B, ctx, values=frozenset({0, 1})):
    """The executions of block B under ctx that cut.cut keeps, from each
    initial map of blocklocal.setup in order (survivors)."""
    _, locals_order, _, (pres,) = setup((B,), values)
    return survivors(itertools.chain(*pres), ctx, locals_order)


def survivors(pres, ctx, locals_order):
    """The executions of the pre-executions pres under ctx that cut.cut
    keeps, built the way verify builds them: block_classes with the
    CutPruner of ctx, each class flattened by class_executions."""
    pruner = CutPruner(ctx.actions, ctx.S)
    return [X for pre, c in block_classes(pres, ctx, pruner=pruner)
            for X in class_executions(pre, c.rf, c.rows, c.mo_choices,
                                      locals_order=locals_order)]


def sample_block_local(minimum=500, cut_only=False):
    """A deterministic pool of block-local executions over varied blocks
    and budgeted contexts."""
    from stellite.cut import cut as cut_pred

    blocks = [
        "st(x,l)",
        "l := ld(x)",
        "st(x,l); m := ld(y)",
        "l := ld(x); st(y,l)",
        "fc; st(x,l)",
        "st(x,m); st(x,l)",
    ]
    out = []
    for btxt in blocks:
        B = lang.parse_block(btxt)
        budget = context_bound(B, B)
        for ctx in enumerate_contexts(B, B, budget):
            for X in block_local(B, ctx):
                if cut_only and not cut_pred(X):
                    continue
                out.append(X)
                if len(out) >= minimum * 2:
                    return out
        if len(out) >= minimum:
            break
    return out


# ---------------------------------------------------------------------------
# shared worked-instance fixtures


def forced_read_instance():
    """Block reading a flag then a data variable, under three context
    stores whose required ordering forces the data read to return 1."""
    B = lang.parse_block("l1 := ld(f); l2 := ld(x)")
    ctx = CutContext(
        (
            Action("w1", "store", "x", (1,), "context"),
            Action("w2", "store", "x", (2,), "context"),
            Action("wf", "store", "f", (1,), "context"),
        ),
        frozenset({("w2", CALL), ("w2", "w1"), ("w1", "wf")}),
        frozenset(),
    )
    return B, ctx


def forced_read_instance_execs():
    B, ctx = forced_read_instance()
    return block_local(B, ctx, values=frozenset({0, 1, 2}))


def single_load_instance():
    """A store block under one context load sequenced after the return."""
    B = lang.parse_block("st(x,11)")
    ctx = CutContext(
        (Action("a1", "load", "x", (11,), "context"),),
        frozenset({(RET, "a1")}),
        frozenset(),
    )
    return B, ctx


def single_load_instance_execs():
    B, ctx = single_load_instance()
    return block_local(B, ctx, values=frozenset({0, 1}))


# ---------------------------------------------------------------------------
# random syntactic contexts for adequacy sampling


def random_context_threads(rng, gvars):
    """Up to two context threads with at most two memory actions each; the
    first thread publishes a loaded value into a fresh observable global.

    These contexts hold no LL/SC pair and no code around the block, so they
    cannot build the program that refutes the write-back elimination
    l := ld(x); st(x,l) ~> l := ld(x) (see tests/test_verifier.py)."""
    ovars = []
    threads = []
    g0 = rng.choice(gvars)
    ovars.append("o0")
    threads.append(f"p0 := ld({g0}); st(o0, p0)")
    if rng.random() < 0.7:
        stmts, used = [], 0
        limit = rng.randint(1, 2)
        while used < limit:
            kind = rng.choice(
                ["store", "load", "publish", "fence"]
                if limit - used >= 2
                else ["store", "load"]
            )
            g = rng.choice(gvars)
            if kind == "store":
                stmts.append(f"st({g},{rng.randint(0, 1)})")
                used += 1
            elif kind == "load":
                stmts.append(f"ld({g})")
                used += 1
            elif kind == "publish":
                o = f"o{len(ovars)}"
                ovars.append(o)
                stmts.append(f"p1 := ld({g}); st({o}, p1)")
                used += 2
            else:
                stmts.append("fc")
                used += 2
        threads.append("; ".join(stmts))
    return threads, frozenset(ovars)


def adequacy_trial(rng, b1_txt, b2_txt):
    """One random-context adequacy sample: does the whole program around
    the checked block refine the one around the original block?"""
    B1 = lang.parse_block(b1_txt)
    B2 = lang.parse_block(b2_txt)
    gvars = sorted(set(lang.vars_of(B1)) | set(lang.vars_of(B2)) | {"x"})
    ctx_threads, ovar = random_context_threads(rng, gvars)
    locs = sorted(set(lang.locals_of(B1)) | set(lang.locals_of(B2)))
    init = "".join(f"{l} := {rng.randint(0, 1)}; " for l in locs)
    p1 = " ||| ".join([init + b1_txt] + ctx_threads)
    p2 = " ||| ".join([init + b2_txt] + ctx_threads)
    return obs_refines_pr(
        lang.parse_program(p1), lang.parse_program(p2), ovar, EnumConfig()
    )
