"""Execution graphs, validity axioms, whole-program enumeration, observation.

An execution is an action set together with the relations sb, at, rf, mo
and the derived happens-before hb. Validity is the conjunction of the
release-acquire axioms; the non-atomic mode adds the NA axioms and a
data-race safety predicate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

READ_KINDS = frozenset({"load", "load_NA", "LL"})
WRITE_KINDS = frozenset({"store", "store_NA", "SC"})
NA_KINDS = frozenset({"load_NA", "store_NA"})


@dataclass(frozen=True)
class Action:
    """One memory event.

    vals has length 1 for memory actions, 0 for a failed SC, and one entry
    per tracked local for call/ret.
    """

    aid: str
    kind: str
    gvar: str | None
    vals: tuple
    origin: str  # 'code' | 'context' | 'boundary'

    def __repr__(self):
        core = f"{self.kind}"
        if self.gvar is not None:
            core += f"({self.gvar},{','.join(map(str, self.vals))})"
        elif self.vals:
            core += f"({','.join(map(str, self.vals))})"
        return f"{self.aid}:{core}"


def is_read(a: Action) -> bool:
    return a.kind in READ_KINDS


def is_write(a: Action) -> bool:
    return a.kind in WRITE_KINDS


def is_na(a: Action) -> bool:
    return a.kind in NA_KINDS


def is_atomic_write(a: Action) -> bool:
    return a.kind in ("store", "SC")


@dataclass(frozen=True)
class Execution:
    actions: tuple[Action, ...]
    sb: frozenset
    at: frozenset
    rf: frozenset  # (writer id, reader id)
    mo: frozenset
    hb: frozenset
    mode: str = "AT"
    r_ctx: frozenset = frozenset()  # extra hb seed edges from the context
    locals_order: tuple = ()

    def action(self, aid: str) -> Action:
        for a in self.actions:
            if a.aid == aid:
                return a
        raise KeyError(aid)

    def by_id(self) -> dict:
        return {a.aid: a for a in self.actions}


# ---------------------------------------------------------------------------
# relation helpers


def closure(edges, nodes=None):
    """Transitive closure of a set of id pairs."""
    succ = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    changed = True
    while changed:
        changed = False
        for u, vs in succ.items():
            add = set()
            for v in vs:
                add |= succ.get(v, set())
            if not add <= vs:
                vs |= add
                changed = True
    return frozenset((u, v) for u, vs in succ.items() for v in vs)


def derive_hb(actions, sb, rf, R=frozenset(), mode="AT"):
    """hb = (sb ∪ rf ∪ R)+; in NA mode rf edges into NA reads are dropped."""
    byid = {a.aid: a for a in actions}
    rf_edges = set(rf)
    if mode == "NA":
        rf_edges = {
            (w, r)
            for (w, r) in rf_edges
            if not (is_na(byid[w]) or is_na(byid[r]))
        }
    return closure(set(sb) | rf_edges | set(R))


def acyclic(rel) -> bool:
    return not any(u == v for u, v in rel)


# ---------------------------------------------------------------------------
# validity


def check_axioms(X: Execution):
    """Return None if X is valid, else (axiom name, witness tuple)."""
    byid = X.by_id()
    hb = derive_hb(X.actions, X.sb, X.rf, X.r_ctx, X.mode)
    if hb != X.hb:
        return ("HBDEF", ("hb differs from derived closure",))
    for u, v in hb:
        if u == v:
            return ("HBDEF", (u,))
    rf_of = {r: w for (w, r) in X.rf}
    for w1, w2 in X.mo:
        if (w2, w1) in hb:
            return ("HBVSMO", (w2, w1))
    for (w1, r) in X.rf:
        for (a, w2) in X.mo:
            if a == w1 and (w2, r) in hb:
                return ("COHERENCE", (w1, w2, r))
    for a in X.actions:
        if is_read(a) and a.aid not in rf_of:
            if a.vals and a.vals[0] != 0:
                return ("RFVAL", (a.aid,))
            for w in X.actions:
                if is_write(w) and w.gvar == a.gvar and (w.aid, a.aid) in hb:
                    return ("RFVAL", (a.aid, w.aid))
    for (ll, sc) in X.at:
        if byid[sc].kind != "SC":
            continue
        w1 = rf_of.get(ll)
        if w1 is None:
            continue
        for w2 in X.actions:
            if (w1, w2.aid) in X.mo and (w2.aid, sc) in X.mo:
                return ("ATOM", (ll, sc, w1, w2.aid))
    if X.mode == "NA":
        for (w, r) in X.rf:
            if (is_na(byid[w]) or is_na(byid[r])) and (w, r) not in hb:
                return ("RFHBNA", (w, r))
        for (w1, r) in X.rf:
            ra = byid[r]
            if not is_na(ra):
                continue
            for w2 in X.actions:
                if (
                    is_na(w2)
                    and is_write(w2)
                    and w2.gvar == ra.gvar
                    and (w1, w2.aid) in hb
                    and (w2.aid, r) in hb
                ):
                    return ("COHERNA", (w1, w2.aid, r))
    return None


def valid(X: Execution) -> bool:
    return check_axioms(X) is None


def safe(X: Execution) -> bool:
    """Data-race freedom: same-location conflicting NA pairs are hb-ordered."""
    for u in X.actions:
        if not is_write(u):
            continue
        for v in X.actions:
            if u.aid == v.aid or not (is_read(v) or is_write(v)):
                continue
            if u.gvar != v.gvar or u.gvar is None:
                continue
            if not (is_na(u) or is_na(v)):
                continue
            if (u.aid, v.aid) not in X.hb and (v.aid, u.aid) not in X.hb:
                return False
    return True


# ---------------------------------------------------------------------------
# at derivation


def derive_at(actions, sb):
    """Pair each successful SC with its sb-closest preceding LL on the same
    location with no intervening SC/SC_f on that location."""
    pairs = set()
    for sc in actions:
        if sc.kind != "SC":
            continue
        best = None
        for ll in actions:
            if ll.kind != "LL" or ll.gvar != sc.gvar:
                continue
            if (ll.aid, sc.aid) not in sb:
                continue
            blocked = any(
                m.kind in ("SC", "SC_f")
                and m.gvar == sc.gvar
                and (ll.aid, m.aid) in sb
                and (m.aid, sc.aid) in sb
                for m in actions
            )
            if blocked:
                continue
            if best is None or (best.aid, ll.aid) in sb:
                best = ll
        if best is not None:
            pairs.add((best.aid, sc.aid))
    return frozenset(pairs)


# ---------------------------------------------------------------------------
# completion of a pre-execution to valid executions


def complete(
    actions,
    sb,
    at,
    r_ctx=frozenset(),
    mode="AT",
    locals_order=(),
    limit=None,
    pruner=None,
):
    """Enumerate every valid (rf, mo) completion of a pre-execution.

    Yields Execution objects. rf candidates are constrained to same
    location / same value writes; mo ranges over all per-location total
    orders of atomic writes. A pruner (cut.CutPruner) narrows the rf
    candidates, rejects rf choices and drops mo orders that its filter
    would discard, so only the completions it keeps are built.
    """
    acts = tuple(actions)
    byid = {a.aid: a for a in acts}
    reads = [a for a in acts if is_read(a)]
    writes = [a for a in acts if is_write(a)]
    cands = []
    for r in reads:
        opts = [
            w.aid
            for w in writes
            if w.gvar == r.gvar and w.vals and w.vals[0] == r.vals[0]
        ]
        if r.vals[0] == 0:
            opts = [None] + opts
        if pruner is not None:
            opts = pruner.sources(r.aid, opts)
        cands.append(opts)
    movars = {}
    for w in writes:
        if is_atomic_write(w):
            movars.setdefault(w.gvar, []).append(w.aid)
    mo_spaces = [
        list(itertools.permutations(ws)) for ws in movars.values()
    ]
    base = set(sb) | set(r_ctx)
    count = 0
    for choice in itertools.product(*cands):
        rf = frozenset(
            (w, r.aid) for w, r in zip(choice, reads) if w is not None
        )
        mo_choices = mo_spaces
        if pruner is not None:
            keep = pruner.admit(rf)
            if keep is None:
                continue
            mo_choices = [[o for o in orders if keep(o)]
                          for orders in mo_spaces]
        rf_hb = {
            (w, r)
            for (w, r) in rf
            if not (mode == "NA" and (is_na(byid[w]) or is_na(byid[r])))
        }
        hb = closure(base | rf_hb)
        if any(u == v for u, v in hb):
            continue
        # RFVAL for rf-less reads
        rf_of = {r: w for (w, r) in rf}
        ok = True
        for r in reads:
            if r.aid in rf_of:
                continue
            if any(
                w.gvar == r.gvar and (w.aid, r.aid) in hb for w in writes
            ):
                ok = False
                break
        if not ok:
            continue
        if mode == "NA":
            if any((w, r) not in hb for (w, r) in rf - frozenset(rf_hb)):
                continue
            bad = False
            for (w1, r) in rf:
                ra = byid[r]
                if not is_na(ra):
                    continue
                for w2 in writes:
                    if (
                        is_na(w2)
                        and w2.gvar == ra.gvar
                        and (w1, w2.aid) in hb
                        and (w2.aid, r) in hb
                    ):
                        bad = True
                        break
                if bad:
                    break
            if bad:
                continue
        for mo_choice in itertools.product(*mo_choices):
            mo = frozenset(
                (order[i], order[j])
                for order in mo_choice
                for i in range(len(order))
                for j in range(i + 1, len(order))
            )
            if any((w2, w1) in hb for (w1, w2) in mo):
                continue
            bad = False
            for (w1, r) in rf:
                for (a, w2) in mo:
                    if a == w1 and (w2, r) in hb:
                        bad = True
                        break
                if bad:
                    break
            if bad:
                continue
            for (ll, sc) in at:
                if byid[sc].kind != "SC":
                    continue
                w1 = rf_of.get(ll)
                if w1 is None:
                    continue
                if any(
                    (w1, w2) in mo and (w2, sc) in mo
                    for w2 in movars.get(byid[sc].gvar, ())
                ):
                    bad = True
                    break
            if bad:
                continue
            count += 1
            if limit is not None and count > limit:
                raise BudgetExceeded(
                    f"more than {limit} completions of one pre-execution"
                )
            yield Execution(
                actions=acts,
                sb=frozenset(sb),
                at=frozenset(at),
                rf=rf,
                mo=mo,
                hb=hb,
                mode=mode,
                r_ctx=frozenset(r_ctx),
                locals_order=tuple(locals_order),
            )


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# whole-program enumeration


@dataclass
class EnumConfig:
    values: frozenset = frozenset({0, 1})
    mode: str = "AT"
    limit: int | None = 2_000_000
    thread_prefilter: object = None  # predicate over a thread's action tuple


@dataclass
class EnumResult:
    executions: list
    outcomes: list  # per execution: tuple of per-thread final VMaps
    unsafe: bool | None = None
    truncated: bool = False


def enumerate_program(P, cfg: EnumConfig | None = None) -> EnumResult:
    """All valid executions of a hole-free program, with per-thread
    post-state maps recovered from the thread-local semantics."""
    from . import lang

    cfg = cfg or EnumConfig()
    threads = lang.threads_of(P)
    values = frozenset(cfg.values) | lang.literals_of(P)
    per_thread = []
    for i, th in enumerate(threads):
        sigma0 = {l: 0 for l in lang.locals_of(th)}
        res = lang.thread_local_block(
            th, sigma0, values, prefix=f"t{i}."
        )
        if cfg.thread_prefilter is not None:
            res = [r for r in res if cfg.thread_prefilter(r[0])]
        per_thread.append(res)
    execs, outcomes = [], []
    any_unsafe = False
    truncated = False
    for combo in itertools.product(*per_thread):
        acts = tuple(a for (aa, _, _) in combo for a in aa)
        sb = frozenset(p for (_, s, _) in combo for p in s)
        at = derive_at(acts, sb)
        try:
            for X in complete(acts, sb, at, mode=cfg.mode, limit=cfg.limit):
                execs.append(X)
                outcomes.append(tuple(dict(s) for (_, _, s) in combo))
                if cfg.mode == "NA" and not safe(X):
                    any_unsafe = True
                if cfg.limit is not None and len(execs) > cfg.limit:
                    truncated = True
                    break
        except BudgetExceeded:
            truncated = True
        if truncated:
            break
    return EnumResult(
        executions=execs,
        outcomes=outcomes,
        unsafe=(any_unsafe if cfg.mode == "NA" else None),
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# observation


def _project(X: Execution, ovar):
    acts = [a for a in X.actions if a.gvar in ovar]
    ids = {a.aid for a in acts}
    hb = {(u, v) for (u, v) in X.hb if u in ids and v in ids}
    return acts, hb


def obs_refines_ex(X: Execution, Y: Execution, ovar) -> bool:
    """Observable actions match (up to a signature-preserving bijection)
    and Y's observable hb is no stronger than X's."""
    ax, hx = _project(X, ovar)
    ay, hy = _project(Y, ovar)
    if len(ax) != len(ay):
        return False
    sig = lambda a: (a.kind, a.gvar, a.vals)
    gx, gy = {}, {}
    for a in ax:
        gx.setdefault(sig(a), []).append(a.aid)
    for a in ay:
        gy.setdefault(sig(a), []).append(a.aid)
    if set(gx) != set(gy) or any(
        len(gx[s]) != len(gy[s]) for s in gx
    ):
        return False
    keys = sorted(gx, key=repr)
    perms = [itertools.permutations(gy[s]) for s in keys]
    for combo in itertools.product(*perms):
        f = {}
        for s, perm in zip(keys, combo):
            f.update(zip(gx[s], perm))
        # hb(Y) ⊆ f(hb(X)): every observable Y edge is the image of an X edge
        if hy <= {(f[u], f[v]) for (u, v) in hx}:
            return True
    return False


def obs_refines_pr(P1, P2, ovar, cfg: EnumConfig | None = None) -> bool:
    """Every observable behaviour of P1 is one of P2. In NA mode an unsafe
    P2 is refined by anything; a safe P2 requires P1 safe as well."""
    cfg = cfg or EnumConfig()
    r2 = enumerate_program(P2, cfg)
    if cfg.mode == "NA":
        if r2.unsafe:
            return True
        r1 = enumerate_program(P1, cfg)
        if r1.unsafe:
            return False
    else:
        r1 = enumerate_program(P1, cfg)
    for X1 in r1.executions:
        if not any(obs_refines_ex(X1, X2, ovar) for X2 in r2.executions):
            return False
    return True
