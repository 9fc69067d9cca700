"""Execution graphs, validity axioms, whole-program enumeration, observation.

An execution is an action set together with the relations sb, at, rf, mo
and the derived happens-before hb. Validity is the conjunction of the
release-acquire axioms and the non-atomic axioms, which constrain only
the non-atomic accesses (ldna/stna); a data-race safety predicate
reports races between them.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

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
    r_ctx: frozenset = frozenset()  # extra hb seed edges from the context
    locals_order: tuple = ()

    def action(self, aid: str) -> Action:
        for a in self.actions:
            if a.aid == aid:
                return a
        raise KeyError(aid)

    def by_id(self) -> dict:
        return {a.aid: a for a in self.actions}


class PreExecution(NamedTuple):
    """What a block or a thread contributes to an execution before rf and
    mo are chosen: its actions, sb and the LL/SC atomicity at, which the
    thread-local semantics builds (lang.thread_local_block), and r_ctx,
    the hb seed edges of a context it is put under (blocklocal)."""

    actions: tuple
    sb: frozenset
    at: frozenset
    r_ctx: frozenset = frozenset()


# ---------------------------------------------------------------------------
# relation helpers


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def _hb_rf(rf, byid, na):
    """The rf edges that seed hb: all of rf but those into or out of a
    non-atomic action. na says whether the actions byid include one; when
    they do not, rf is returned as it is."""
    if not na:
        return rf
    return [(w, r) for (w, r) in rf
            if not (is_na(byid[w]) or is_na(byid[r]))]


def _add_hb_edges(rows, edges, pos):
    """The reachability bit rows of an acyclic relation, bit j of row i
    when the action at position i reaches the one at j, with edges added,
    or None when an edge (w, r) closes a cycle: w is r, or r already
    reaches w. From rows of zeros this is the closure of edges."""
    rows = list(rows)
    for (w, r) in edges:
        i, j = pos[w], pos[r]
        bw = 1 << i
        if i == j or rows[j] & bw:
            return None
        add = rows[j] | 1 << j
        rows[i] |= add
        for k, row in enumerate(rows):
            if row & bw:
                rows[k] = row | add
    return rows


def _hb_pairs(rows, aids):
    """The pairs of the relation with bit rows rows over the positions of
    the ids aids."""
    return frozenset((u, aids[j]) for u, row in zip(aids, rows)
                     for j in _bits(row))


def _derived_rows(actions, byid, sb, rf, R, na):
    """The bit rows of (sb ∪ rf ∪ R)+ over the positions of actions, with
    rf filtered by _hb_rf, or None when that relation is cyclic."""
    pos = {a.aid: i for i, a in enumerate(actions)}
    return _add_hb_edges([0] * len(pos),
                         itertools.chain(sb, _hb_rf(rf, byid, na), R), pos)


def derive_hb(actions, sb, rf, R=frozenset()):
    """hb = (sb ∪ rf ∪ R)+, with rf filtered by _hb_rf, as pairs, or None
    when that relation is cyclic."""
    byid = {a.aid: a for a in actions}
    rows = _derived_rows(actions, byid, sb, rf, R, any(map(is_na, actions)))
    return None if rows is None else _hb_pairs(rows, list(byid))


# ---------------------------------------------------------------------------
# validity: each axiom is defined once below; check_axioms tests a given
# execution with these definitions and complete keeps them while it builds


def _may_read_from(w, r):
    """Whether read r may read from write w, or from the initial value 0
    when w is None: same location, same value."""
    if w is None:
        return r.vals == (0,)
    return w.gvar == r.gvar and w.vals == r.vals


def _write_masks(actions):
    """The positions of the writes of each location among actions, as a
    bit mask per location."""
    masks = {}
    for i, a in enumerate(actions):
        if a.kind in WRITE_KINDS:
            masks[a.gvar] = masks.get(a.gvar, 0) | 1 << i
    return masks


def _rf_violation(actions, reads, wmasks, byid, rf, rows, pos, na):
    """The first break of RFVAL, RFHBNA or COHERNA as (name, witness), or
    None, with hb the bit rows rows over the positions pos of actions and
    wmasks their _write_masks. RFVAL: a read without a source may read
    the initial value and no write of its location happens before it.
    RFHBNA: an rf edge into or out of a non-atomic action is in hb.
    COHERNA: no non-atomic write of its location happens between a
    non-atomic read and its source. na says whether actions include a
    non-atomic one; when they do not, RFHBNA and COHERNA hold and are not
    checked."""
    hb = lambda u, v: rows[pos[u]] >> pos[v] & 1
    srcs = {r for (_, r) in rf}
    for r in reads:
        if r.aid in srcs:
            continue
        if not _may_read_from(None, r):
            return ("RFVAL", (r.aid,))
        pr = pos[r.aid]
        for i in _bits(wmasks.get(r.gvar, 0)):
            if rows[i] >> pr & 1:
                return ("RFVAL", (r.aid, actions[i].aid))
    if not na:
        return None
    for (w, r) in rf:
        if (is_na(byid[w]) or is_na(byid[r])) and not hb(w, r):
            return ("RFHBNA", (w, r))
    for (w1, r) in rf:
        ra = byid[r]
        if not is_na(ra):
            continue
        for i in _bits(wmasks.get(ra.gvar, 0)):
            w2 = actions[i].aid
            if is_na(actions[i]) and hb(w1, w2) and hb(w2, r):
                return ("COHERNA", (w1, w2, r))
    return None


def _mo_locations(writes):
    """The ids of each location's atomic writes, the writes mo orders."""
    locs = {}
    for w in writes:
        if is_atomic_write(w):
            locs.setdefault(w.gvar, []).append(w.aid)
    return locs


def _mo_masks(ws, rows, pos, rf, at, byid, before=()):
    """Three tuples of bit masks over the writes ws of one location, one
    mask per write c in each: the writes that must come before c
    (HBVSMO, and u for each pair (u, c) of before), the writes c may not
    follow because c happens before one of their readers (COHERENCE),
    and the SCs that must come right after c because their LL reads c
    (ATOM).
    hb is the bit rows rows over the positions pos. An LL that reads no
    write constrains no SC."""
    idx = {w: i for i, w in enumerate(ws)}
    wpos = [pos[w] for w in ws]
    wrows = [rows[p] for p in wpos]
    # the writes before c are those whose rows hold c's column bit; most
    # rows hold no write's
    cols = sum(1 << p for p in wpos)
    preds = [0] * len(ws)
    for i, row in enumerate(wrows):
        if row & cols:
            for j, p in enumerate(wpos):
                if row >> p & 1:
                    preds[j] |= 1 << i
    for (u, c) in before:
        if c in idx:
            preds[idx[c]] |= 1 << idx[u]
    late = [0] * len(ws)
    succ = [0] * len(ws)
    for (w, r) in rf:
        j = idx.get(w)
        if j is not None:
            br = 1 << pos[r]
            for i, row in enumerate(wrows):
                if row & br:
                    late[i] |= 1 << j
    if at:
        src = {r: w for (w, r) in rf}
        for (ll, sc) in at:
            w = src.get(ll)
            if w in idx and sc in idx and byid[sc].kind == "SC":
                succ[idx[w]] |= 1 << idx[sc]
    return tuple(preds), tuple(late), tuple(succ)


def _mo_step(masks, placed, last, i):
    """The mo axiom that placing write i of a location next would break,
    or None. placed has the bits of the writes already placed, last is
    the write placed last (-1 for none)."""
    preds, late, succ = masks
    if preds[i] & ~placed:
        return "HBVSMO"
    if late[i] & placed:
        return "COHERENCE"
    if last >= 0 and succ[last] & ~placed & ~(1 << i):
        return "ATOM"
    return None


def check_axioms(X: Execution):
    """Return None if X is valid, else (axiom name, witness tuple).

    MO and RFWF are well-formedness: mo orders each location's atomic
    writes totally and nothing else, and a read reads from at most one
    write, which _may_read_from allows. The mo axioms are then checked
    along each location's mo order."""
    byid = X.by_id()
    reads = [a for a in X.actions if is_read(a)]
    orders = mo_orders_of(X)
    total = mo_pairs(orders)
    if total != X.mo:
        return ("MO", min(total ^ X.mo, key=repr))
    srcs = {}
    for (w, r) in X.rf:
        wa, ra = byid.get(w), byid.get(r)
        if (wa is None or ra is None or not is_write(wa) or not is_read(ra)
                or not _may_read_from(wa, ra) or srcs.setdefault(r, w) != w):
            return ("RFWF", (w, r))
    na = any(map(is_na, X.actions))
    rows = _derived_rows(X.actions, byid, X.sb, X.rf, X.r_ctx, na)
    if rows is None:
        return ("HBDEF", ("sb ∪ rf ∪ R is cyclic",))
    if _hb_pairs(rows, list(byid)) != X.hb:
        return ("HBDEF", ("hb differs from derived closure",))
    pos = {aid: i for i, aid in enumerate(byid)}
    for ws in orders:
        masks = _mo_masks(ws, rows, pos, X.rf, X.at, byid)
        for i in range(len(ws)):
            name = _mo_step(masks, (1 << i) - 1, i - 1, i)
            if name is not None:
                return (name, tuple(ws[:i + 1]))
    return _rf_violation(X.actions, reads, _write_masks(X.actions), byid,
                         X.rf, rows, pos, na)


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
# completion of a pre-execution to valid executions


# The mo orders of a location depend on its writes only through their
# _mo_masks and hidden flags, and the rf classes of a verdict show few
# distinct patterns of those: each pattern's orders are searched once, as
# positions, and mapped to the write ids of each ws once. Both caches are
# bounded and start empty.


@functools.lru_cache(maxsize=4096)
def _mo_positions(preds, late, succ, hid):
    """The total orders of positions 0 .. n-1, n = len(preds), that keep
    the mo axioms (_mo_step with the masks preds, late, succ) and leave
    no two positions with hid set adjacent, in
    itertools.permutations(range(n)) order. A prefix that breaks one is
    not extended."""
    masks = (preds, late, succ)
    full = (1 << len(preds)) - 1
    out, order = [], []

    def grow(placed, last):
        if placed == full:
            out.append(tuple(order))
            return
        for i in _bits(full & ~placed):
            if (_mo_step(masks, placed, last, i)
                    or last >= 0 and hid[last] and hid[i]):
                continue
            order.append(i)
            grow(placed | 1 << i, i)
            order.pop()

    grow(0, -1)
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def _mo_ids(ws, preds, late, succ, hid):
    """_mo_positions with each position i replaced by the write ws[i]."""
    return tuple(tuple(ws[i] for i in order)
                 for order in _mo_positions(preds, late, succ, hid))


def _mo_orders(ws, rows, pos, rf, at, byid, hidden, before=()):
    """The total orders of the writes ws of one location that keep the mo
    axioms (_mo_step), put u before w for each pair (u, w) of before and
    leave no two hidden writes adjacent, in itertools.permutations(ws)
    order, with hb the bit rows rows over the positions pos, as a
    tuple."""
    ws = tuple(ws)
    if len(ws) == 1:
        return (ws,)
    return _mo_ids(ws, *_mo_masks(ws, rows, pos, rf, at, byid, before),
                   tuple(w in hidden for w in ws))


def _viable_sources(r, opts, base, pos, wmasks, actions):
    """The rf candidates opts of the read r, None for the initial value,
    less those that the checks reject whatever else rf holds, with base
    the bit rows of (sb ∪ r_ctx)+ and wmasks the _write_masks of
    actions: a write that r reaches, as hb would be cyclic or, for a
    non-atomic edge, miss it (RFHBNA); a write w that reaches a write w2
    of its location that reaches r, where mo must put w2 after w (HBVSMO)
    but may not (COHERENCE), as both are atomic, or COHERNA forbids it,
    as w2 and r are non-atomic; and the initial value when a write of
    its location reaches r (RFVAL)."""
    pr = pos[r.aid]
    into = 0  # the writes of r's location that reach r
    for i in _bits(wmasks.get(r.gvar, 0)):
        if base[i] >> pr & 1:
            into |= 1 << i
    out = []
    for w in opts:
        if w is None:
            if not into:
                out.append(w)
            continue
        i = pos[w]
        if base[pr] >> i & 1:
            continue
        atomic = is_atomic_write(actions[i])
        if not any(atomic and is_atomic_write(actions[j])
                   or is_na(actions[j]) and is_na(r)
                   for j in _bits(base[i] & into)):
            out.append(w)
    return out


def rf_classes(pre: PreExecution, pruner=None):
    """The valid completions of the pre-execution pre, one class per rf
    choice.

    Yields (rf, rows, mo_choices) for every rf choice that has a valid
    completion: rf candidates are the writes a read may read from
    (_may_read_from), looked up by location and value, less those that
    _viable_sources finds rejected; an rf choice is kept when hb is
    acyclic and _rf_violation finds nothing; mo_choices holds, per
    location, the orders of its writes that _mo_orders keeps, and each
    element of their product completes the class. hb, and so everything
    that hb alone decides, is the same for every mo order of a class. A
    pruner (cut.CutPruner) narrows the rf candidates, rejects rf
    choices and drops mo orders that its filter would discard: admit
    gives the hidden writes and the before pairs of _mo_orders.

    hb is kept as rows, its reachability bit rows over the positions of
    the actions (_add_hb_edges): the closure of sb ∪ r_ctx once, before
    the candidates are listed, then each choice's hb-seeding rf edges
    added to a copy of its rows; a cyclic closure yields nothing.
    Whether any action is non-atomic decides whether the non-atomic
    rules (_hb_rf, _rf_violation) are applied.

    Besides each read's candidates, completion reads the values of the
    actions only in _rf_violation's test that a read without a source
    may read the initial value, _may_read_from(None, r).
    """
    actions, sb, at, r_ctx = pre
    pos = {a.aid: i for i, a in enumerate(actions)}
    base = _add_hb_edges([0] * len(actions), itertools.chain(sb, r_ctx),
                         pos)
    if base is None:
        return
    byid = {a.aid: a for a in actions}
    wmasks = _write_masks(actions)
    na = any(map(is_na, actions))
    reads, writes = [], []
    by_val = {}  # the ids of the writes of each (location, vals)
    for a in actions:
        if is_read(a):
            reads.append(a)
        elif is_write(a):
            writes.append(a)
            by_val.setdefault((a.gvar, a.vals), []).append(a.aid)
    cands = []
    for r in reads:
        # the writes _may_read_from allows r, in order
        opts = [None] if _may_read_from(None, r) else []
        opts += by_val.get((r.gvar, r.vals), ())
        opts = _viable_sources(r, opts, base, pos, wmasks, actions)
        if pruner is not None:
            opts = pruner.sources(r.aid, opts)
        cands.append(opts)
    movars = _mo_locations(writes)
    for choice in itertools.product(*cands):
        rf = frozenset(
            (w, r.aid) for w, r in zip(choice, reads) if w is not None
        )
        hidden, before = frozenset(), ()
        if pruner is not None:
            admitted = pruner.admit(rf, reads, pos)
            if admitted is None:
                continue
            hidden, before = admitted
        rows = _add_hb_edges(base, _hb_rf(rf, byid, na), pos)
        if rows is None or _rf_violation(actions, reads, wmasks, byid, rf,
                                         rows, pos, na):
            continue
        mo_choices = [_mo_orders(ws, rows, pos, rf, at, byid, hidden, before)
                      for ws in movars.values()]
        if all(mo_choices):
            yield rf, rows, mo_choices


def mo_pairs(mo_choice):
    """The mo relation of one element of a class's mo_choices product."""
    return frozenset(itertools.chain.from_iterable(
        itertools.combinations(order, 2) for order in mo_choice
    ))


def mo_orders_of(X: Execution):
    """X's mo as one order per location, the inverse of mo_pairs when mo
    orders each location's atomic writes totally: each location's atomic
    writes sorted by their number of mo predecessors."""
    return [tuple(sorted(ws, key=lambda w: sum((u, w) in X.mo for u in ws)))
            for ws in _mo_locations(
                a for a in X.actions if is_write(a)).values()]


def class_executions(pre: PreExecution, rf, rows, mo_choices,
                     locals_order=()):
    """The executions of one rf class of the pre-execution pre, one for
    each element of the product of mo_choices, in order. Their hb is
    decoded from the class's rows once."""
    hb = _hb_pairs(rows, [a.aid for a in pre.actions])
    for mo_choice in itertools.product(*mo_choices):
        yield Execution(
            actions=pre.actions,
            sb=pre.sb,
            at=pre.at,
            rf=rf,
            mo=mo_pairs(mo_choice),
            hb=hb,
            r_ctx=pre.r_ctx,
            locals_order=locals_order,
        )


def complete(pre: PreExecution):
    """Enumerate every valid (rf, mo) completion of a pre-execution.

    Yields Execution objects: the classes of rf_classes, in order, each
    flattened by class_executions. A caller that needs a cap counts
    what it takes.
    """
    for c in rf_classes(pre):
        yield from class_executions(pre, *c)


class BudgetExceeded(Exception):
    pass


# ---------------------------------------------------------------------------
# whole-program enumeration


@dataclass
class EnumConfig:
    values: frozenset = frozenset({0, 1})
    mode: str = "AT"  # "NA": report races in EnumResult.unsafe
    limit: int | None = 2_000_000
    thread_prefilter: object = None  # predicate over a thread's action tuple


@dataclass
class EnumResult:
    executions: list
    outcomes: list  # per execution: tuple of per-thread final VMaps
    unsafe: bool | None = None
    truncated: bool = False


def _needs_and_gives(actions):
    """What a thread run, its actions in program order, needs from the
    other threads: the (location, vals) of its reads that neither the
    initial value nor an earlier write of its own can supply; and what it
    gives them: the (location, vals) of its writes. A read cannot read a
    later write of its own thread, which would close an hb cycle, nor
    the initial value after an earlier write of its location (RFVAL)."""
    needs, gives, written = set(), set(), set()
    for a in actions:
        key = (a.gvar, a.vals)
        if is_read(a):
            if key not in gives and (a.gvar in written
                                     or not _may_read_from(None, a)):
                needs.add(key)
        elif is_write(a):
            gives.add(key)
            written.add(a.gvar)
    return needs, gives


def _unmet(combo):
    """Whether a run of combo, (pre, sigma, needs, gives) per thread,
    needs what no other run gives, so that the combination has no valid
    execution."""
    for t, run in enumerate(combo):
        for need in run[2]:
            if not any(need in other[3]
                       for j, other in enumerate(combo) if j != t):
                return True
    return False


def enumerate_program(P, cfg: EnumConfig | None = None) -> EnumResult:
    """All valid executions of a hole-free program, with per-thread
    post-state maps recovered from the thread-local semantics. A
    combination of thread runs where a run needs what no other run gives
    (_needs_and_gives) is skipped before it is put together."""
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
            res = [r for r in res if cfg.thread_prefilter(r[0].actions)]
        per_thread.append([(p, sg, *_needs_and_gives(p.actions))
                           for (p, sg) in res])
    execs, outcomes = [], []
    any_unsafe = False
    truncated = False
    for combo in itertools.product(*per_thread):
        if _unmet(combo):
            continue
        pre = PreExecution(
            tuple(a for run in combo for a in run[0].actions),
            frozenset().union(*(run[0].sb for run in combo)),
            frozenset().union(*(run[0].at for run in combo)))
        for X in complete(pre):
            if cfg.limit is not None and len(execs) >= cfg.limit:
                truncated = True
                break
            execs.append(X)
            outcomes.append(tuple(dict(run[1]) for run in combo))
            if cfg.mode == "NA" and not any_unsafe and not safe(X):
                any_unsafe = True
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
    """X's observable actions and the hb between them, all that
    obs_refines_ex compares of X."""
    acts = frozenset(a for a in X.actions if a.gvar in ovar)
    ids = {a.aid for a in acts}
    hb = frozenset((u, v) for (u, v) in X.hb if u in ids and v in ids)
    return acts, hb


def signature_bijections(xs, ys):
    """Every bijection from the actions xs to the actions ys that keeps
    each action's signature (kind, gvar, vals), as a dict of action ids;
    none when the signatures differ as multisets. The signature groups
    are sorted by repr and the bijections are the product of per-group
    permutations of ys's ids, in itertools order."""
    sig = lambda a: (a.kind, a.gvar, a.vals)
    gx, gy = {}, {}
    for a in xs:
        gx.setdefault(sig(a), []).append(a.aid)
    for a in ys:
        gy.setdefault(sig(a), []).append(a.aid)
    if set(gx) != set(gy) or any(len(gx[s]) != len(gy[s]) for s in gx):
        return
    keys = sorted(gx, key=repr)
    for combo in itertools.product(
            *(itertools.permutations(gy[s]) for s in keys)):
        f = {}
        for s, perm in zip(keys, combo):
            f.update(zip(gx[s], perm))
        yield f


def _obs_refines(px, py):
    """obs_refines_ex on the projections px and py of two executions."""
    (ax, hx), (ay, hy) = px, py
    # hb(Y) ⊆ f(hb(X)): every observable Y edge is the image of an X edge
    return any(hy <= {(f[u], f[v]) for (u, v) in hx}
               for f in signature_bijections(ax, ay))


def obs_refines_ex(X: Execution, Y: Execution, ovar) -> bool:
    """Observable actions match (up to a signature-preserving bijection)
    and Y's observable hb is no stronger than X's."""
    return _obs_refines(_project(X, ovar), _project(Y, ovar))


def obs_refines_pr(P1, P2, ovar, cfg: EnumConfig | None = None) -> bool:
    """Every observable behaviour of P1 is one of P2. Where cfg.mode
    reports races, an unsafe P2 is refined by anything; a safe P2
    requires P1 safe as well. An enumeration that cfg.limit truncates
    raises BudgetExceeded: a partial list of executions decides neither
    way. Each side's executions are compared once per distinct
    projection (_project), which is all that obs_refines_ex reads."""
    cfg = cfg or EnumConfig()

    def run(P):
        res = enumerate_program(P, cfg)
        if res.truncated:
            raise BudgetExceeded("program execution budget exceeded")
        return res

    r2 = run(P2)
    if r2.unsafe:
        return True
    r1 = run(P1)
    if r1.unsafe:
        return False
    p2 = {_project(X, ovar) for X in r2.executions}
    return all(any(_obs_refines(p1, q) for q in p2)
               for p1 in {_project(X, ovar) for X in r1.executions})
