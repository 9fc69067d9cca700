"""Finite context enumeration and the top-level refinement checks.

check_cut_refinement decides the finite, cut-based refinement between two
blocks by enumerating every reduced context within a derived per-location
budget and comparing extended histories. check_q_instance decides the
quantified refinement at one explicit context instance (optionally with
non-atomics and prefix matching for racy executions).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import lang
from .axiomatic import Action, BudgetExceeded, safe
from .blocklocal import (
    CutContext,
    block_local,
    downclosure,
    sigma_space,
)
from .history import hist, hist_ext, refines_ext, refines_h


@dataclass
class Budget:
    """Per-location caps on context actions, plus global limits.

    max_block_execs caps the executions of one block under one context
    and one sigma: the cut survivors on the B1 side, every execution on
    the B2 side. Going over it makes the verdict Unknown.
    """

    reads: dict
    vis_writes: dict
    nonvis_writes: dict
    values: frozenset = frozenset({0, 1})
    total: int | None = None
    max_block_execs: int | None = 200_000

    def writes(self, loc):
        return self.vis_writes.get(loc, 0) + self.nonvis_writes.get(loc, 0)

    @property
    def locations(self):
        return sorted(set(self.reads) | set(self.vis_writes)
                      | set(self.nonvis_writes))


@dataclass
class Witness:
    context: CutContext
    sigma: dict
    execution: object
    hist: object
    candidates: list


@dataclass
class Verdict:
    outcome: str  # 'Verified' | 'Refuted' | 'Unknown'
    witness: Witness | None = None
    stats: dict = field(default_factory=dict)

    def __bool__(self):
        return self.outcome == "Verified"


def _code_counts(B, values):
    """Max number of code reads/writes per location over all thread-local
    executions of B (LL counts as a read, SC as a write)."""
    locs = lang.locals_of(B)
    live = lang.live_in(B)
    vals = frozenset(values) | lang.literals_of(B)
    reads, writes = {}, {}
    for sigma in sigma_space(locs, live, vals):
        for (acts, _, _) in lang.thread_local_block(B, sigma, vals):
            r, w = {}, {}
            for a in acts:
                if a.kind in ("load", "load_NA", "LL"):
                    r[a.gvar] = r.get(a.gvar, 0) + 1
                elif a.kind in ("store", "store_NA", "SC"):
                    w[a.gvar] = w.get(a.gvar, 0) + 1
            for g, n in r.items():
                reads[g] = max(reads.get(g, 0), n)
            for g, n in w.items():
                writes[g] = max(writes.get(g, 0), n)
    return reads, writes


def context_bound(B1, B2, values=frozenset({0, 1})) -> Budget:
    """Derived per-location caps: context reads need distinct code-write
    sources; visible context writes need code readers; non-visible writes
    must be separated by visible ones, which caps them at one more than
    the number of visible writes."""
    r1, w1 = _code_counts(B1, values)
    r2, w2 = _code_counts(B2, values)
    locs = set(r1) | set(r2) | set(w1) | set(w2)
    reads, visw, nonvisw = {}, {}, {}
    for x in locs:
        wc = max(w1.get(x, 0), w2.get(x, 0))
        rc = max(r1.get(x, 0), r2.get(x, 0))
        reads[x] = wc
        visw[x] = rc
        nonvisw[x] = wc + rc + 1
    return Budget(reads=reads, vis_writes=visw, nonvis_writes=nonvisw,
                  values=frozenset(values))


def _multisets(vals, n):
    return itertools.combinations_with_replacement(sorted(vals), n)


def _location_choices(loc, budget):
    """All canonical per-location context action groups within the caps."""
    vals = sorted(budget.values)
    rcap = budget.reads.get(loc, 0)
    wcap = budget.writes(loc)
    if loc == lang.FENCE_VAR:
        # the only context actions at the fence location are whole fences
        return [
            (loc, (), (), ((0, 0),) * np)
            for np in range(min(rcap, wcap) + 1)
        ]
    # data locations get plain loads and stores only: a context LL/SC pair
    # would rule out sound write introductions the reference table allows
    out = []
    for nl in range(rcap + 1):
        for ns in range(wcap + 1):
            for lv in _multisets(vals, nl):
                for sv in _multisets(vals, ns):
                    out.append((loc, lv, sv, ()))
    return out


def _build_context(groups):
    acts, S = [], set()
    for (loc, lv, sv, pv) in groups:
        for i, v in enumerate(lv):
            acts.append(Action(f"{loc}.r{i}", "load", loc, (v,), "context"))
        for i, v in enumerate(sv):
            acts.append(Action(f"{loc}.w{i}", "store", loc, (v,), "context"))
        for i, (a, b) in enumerate(pv):
            ll = Action(f"{loc}.p{i}l", "LL", loc, (a,), "context")
            sc = Action(f"{loc}.p{i}s", "SC", loc, (b,), "context")
            acts.extend((ll, sc))
            S.add((ll.aid, sc.aid))
    return CutContext(tuple(acts), frozenset(), frozenset(S))


def enumerate_contexts(B1, B2, budget: Budget | None = None, order="asc"):
    """Canonical representatives of every context action set and atomicity
    pairing within the budget, smallest first."""
    if budget is None:
        budget = context_bound(B1, B2)
    locs = sorted(
        set(lang.vars_of(B1)) | set(lang.vars_of(B2)) | set(budget.locations)
    )
    per_loc = [_location_choices(x, budget) for x in locs]
    ctxs = []
    for combo in itertools.product(*per_loc):
        ctx = _build_context(combo)
        if budget.total is not None and len(ctx.actions) > budget.total:
            continue
        ctxs.append(ctx)
    key = lambda c: (len(c.actions),
                     tuple(sorted((a.aid, a.kind, a.vals) for a in c.actions)))
    ctxs.sort(key=key, reverse=(order == "desc"))
    if order == "desc":
        # still group small action sets first so witnesses stay comparable
        ctxs.sort(key=lambda c: len(c.actions))
    return ctxs


def check_cut_refinement(B1, B2, budget: Budget | None = None,
                         order="asc") -> Verdict:
    """Does every cut execution of B1 under every reduced context have an
    extended history dominated by some execution of B2 under the same
    context? Blocks with non-atomic accesses raise ValueError."""
    if isinstance(B1, str):
        B1 = lang.parse_block(B1)
    if isinstance(B2, str):
        B2 = lang.parse_block(B2)
    if lang.na_vars_of(B1) or lang.na_vars_of(B2):
        # the cut rules and the context bound are derived for atomics only
        raise ValueError(
            "the finite check covers atomic blocks only; check ldna/stna"
            " blocks at an explicit context (instance --na)"
        )
    if budget is None:
        budget = context_bound(B1, B2)
    locals_order = tuple(sorted(set(lang.locals_of(B1))
                                | set(lang.locals_of(B2))))
    live = lang.live_in(B1) | lang.live_in(B2)
    sigmas = sigma_space(locals_order, live, budget.values)
    stats = {"contexts": 0, "x1_cut": 0, "x2": 0}
    try:
        for ctx in enumerate_contexts(B1, B2, budget, order=order):
            stats["contexts"] += 1
            for sigma in sigmas:
                x1s = block_local(
                    B1, ctx, values=budget.values,
                    locals_order=locals_order, sigmas=[sigma],
                    limit=budget.max_block_execs, check_vs=False,
                    cut_only=True,
                )
                stats["x1_cut"] += len(x1s)
                if not x1s:
                    continue
                x2s = block_local(
                    B2, ctx, values=budget.values,
                    locals_order=locals_order, sigmas=[sigma],
                    limit=budget.max_block_execs, check_vs=False,
                )
                stats["x2"] += len(x2s)
                h2s = [hist_ext(Y) for Y in x2s]
                for X in x1s:
                    e1 = hist_ext(X)
                    if not any(refines_ext(e1, e2) for e2 in h2s):
                        return Verdict(
                            "Refuted",
                            witness=Witness(ctx, dict(sigma), X, e1, h2s),
                            stats=stats,
                        )
    except BudgetExceeded as exc:
        stats["error"] = str(exc)
        return Verdict("Unknown", stats=stats)
    return Verdict("Verified", stats=stats)


def check_q_instance(B1, B2, ctx: CutContext, mode="AT",
                     values=frozenset({0, 1}),
                     locals_order=None) -> bool:
    """Quantified refinement at one explicit (A, R, S) instance: every
    execution of B1 must have a matching execution of B2 with a refining
    history; in NA mode racy matches may stop at the race via prefixes."""
    if isinstance(B1, str):
        B1 = lang.parse_block(B1)
    if isinstance(B2, str):
        B2 = lang.parse_block(B2)
    if locals_order is None:
        locals_order = tuple(sorted(set(lang.locals_of(B1))
                                    | set(lang.locals_of(B2))))
    live = lang.live_in(B1) | lang.live_in(B2)
    sigmas = sigma_space(locals_order, live, values)
    for sigma in sigmas:
        x1s = block_local(B1, ctx, values=values, mode=mode,
                          locals_order=locals_order, sigmas=[sigma],
                          check_vs=False)
        x2s = block_local(B2, ctx, values=values, mode=mode,
                          locals_order=locals_order, sigmas=[sigma],
                          check_vs=False)
        h2s = [(Y, hist(Y)) for Y in x2s]
        for X in x1s:
            h1 = hist(X)
            if mode == "AT":
                if not any(refines_h(h1, h2) for (_, h2) in h2s):
                    return False
                continue
            found = False
            for (Y, h2) in h2s:
                if safe(Y):
                    if safe(X) and refines_h(h1, h2):
                        found = True
                        break
                else:
                    d1 = [hist(Xp) for Xp in downclosure(X)]
                    for Yp in downclosure(Y):
                        if safe(Yp):
                            continue
                        h2p = hist(Yp)
                        if any(refines_h(h1p, h2p) for h1p in d1):
                            found = True
                            break
                    if found:
                        break
            if not found:
                return False
    return True
