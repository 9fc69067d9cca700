"""The redundancy filter over block-local executions.

cut() keeps only executions whose context actions interact with the
code-block in an essential way: context reads must be visible (read from
code writes), no two context reads may share a reads-from source, and
non-visible context writes must be separated in mo by a visible write.
Context LL/SC pairs are kept or rejected as a unit.

A non-visible context unit of an execution X of the new block may be
dropped when it can be put back: if X without it is dominated by an
execution Y of the original block, Y with the unit added dominates X.
For an LL/SC pair at a data location, ATOM fixes where its SC goes: right
after the write w its LL reads, in Y as in X. If no code read of X reads
w, nothing but the pair happens after w in X, and since Y guarantees no
more than X, nothing in Y does either. A deny edge (u, SC) the SC brings
into Y, for a write after w that happens before u, then comes with the
deny edge (u, w) of Y, which X has too, and X, whose SC also sits right
after w, denies (u, SC) as well. If a code read of X reads w, this fails:
w happens before ret in X, so X covers the deny edge (ret, w) of Y only
by guaranteeing (w, ret), while every write of the original block that
follows w in mo follows the SC too and denies (ret, SC), which X need not
do. The write-back elimination l := ld(x); st(x,l) ~> l := ld(x) is
unsound in just this way.

So a data-location pair is kept exactly when its LL reads the same write
as a code read of its location, and then counts as visible. The initial
value is treated as such a write and as a reads-from source: a pair whose
LL reads no write is kept when a code read of its location reads none,
and no two context reads of a data location may both read it. A pair
that only rf links to the code, its LL reading a code write or a code
read reading its SC, is dropped too, although the argument above does
not justify that: with such pairs a block that reads and writes one
location has cut survivors under far larger contexts, whose check takes
minutes.

Pairs at the fence location, the context's fences, stay visible only
through rf. An LL that reads no write is exempt from ATOM, so the
argument above does not reach them, and keeping their non-visible pairs
refutes fence elimination on a shape nothing here confirms or rules out.

CutPruner applies the same rules inside rf × mo completion
(blocklocal.block_classes with a pruner); explain_cut stays the
reference. With orbits it also keeps one survivor per orbit of the
permutations of interchangeable context actions. room_needed, room and
fits restate the rules as counts, so that a pre-execution with no room
for a survivor under a context is never completed.
"""

from __future__ import annotations

import math
from collections import Counter

from . import lang
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


def _pair_units(X: Execution, ctx):
    """Map each context action id in ctx to its atomicity unit (itself,
    or the LL/SC pair it belongs to)."""
    unit = {a: frozenset({a}) for a in ctx}
    for (ll, sc) in X.at:
        if ll in ctx and sc in ctx:
            u = frozenset({ll, sc})
            unit[ll] = u
            unit[sc] = u
    return unit


def explain_cut(X: Execution):
    """None if X passes the filter, else a human-readable reason."""
    ctx_acts = contx_of(X)
    ctx = {a.aid for a in ctx_acts}
    unit = _pair_units(X, ctx)
    rf_of = {r: w for (w, r) in X.rf}
    byid = X.by_id()
    v = set(vis(X))
    code_srcs = {(a.gvar, rf_of.get(a.aid))
                 for a in code_of(X) if is_read(a)}
    # a data-location pair is visible exactly when its LL reads what a code
    # read of its location reads
    for (ll, sc) in X.at:
        if ll in ctx and sc in ctx and byid[ll].gvar != lang.FENCE_VAR:
            if (byid[ll].gvar, rf_of.get(ll)) in code_srcs:
                v |= {ll, sc}
            else:
                v -= {ll, sc}
    visible = lambda a: bool(unit.get(a, frozenset({a})) & v)
    # non-visible context reads
    for a in ctx_acts:
        if is_read(a) and not visible(a.aid):
            return f"context read {a.aid} is not visible"
    # duplicate context reads from one write, or of one initial value
    srcs = {}
    for a in ctx_acts:
        w = rf_of.get(a.aid)
        if not is_read(a) or (w is None and a.gvar == lang.FENCE_VAR):
            continue
        src = w if w is not None else f"the initial value of {a.gvar}"
        if src in srcs:
            return f"context reads {srcs[src]} and {a.aid} share {src}"
        srcs[src] = a.aid
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
    """The three cut rules, applied while axiomatic.rf_classes chooses rf
    and mo for block-local executions under one reduced context.

    Ids outside the context are code actions: boundary actions neither
    read nor write, so they never appear in rf or mo. rf_classes, and so
    blocklocal.block_classes, with a pruner yields exactly the classes
    and mo orders of the completions that cut() keeps.

    With orbits, for a context whose R is empty, as verifier.context_shapes
    builds them, it yields instead the first member of each orbit in the
    order of block_classes. A group is the unpaired context actions with one
    (kind, location, vals), of two or more, in the order of their positions;
    permuting ids within groups maps the context to itself and a survivor to
    a survivor of its pre-execution, and an orbit is the survivors such
    permutations map onto each other. No permutation but the identity fixes
    a survivor: a group's writes hold distinct places in mo, and its reads
    read distinct code writes (sources, admit). So every orbit has exactly
    orbit = Π |g|! members. block_classes yields rf choices in
    itertools.product order over each read's candidates, listed by position,
    then mo orders in itertools.permutations order, and a group's
    permutations change only the sources of its own reads, which share one
    candidate list, or of the reads of its writes, never a group's reads
    (sources). So the first member is the one where:

    - a read group's members read code writes in increasing position
      (not id, as "b11" < "b2");
    - a write group's members that some read reads come first, ordered
      by the position of their first reader among the reads, and the
      rest follow each other in mo (the before pairs of admit).

    A paired LL or SC is left alone: the permutation would have to move
    its partner too.
    """

    def __init__(self, actions, S, orbits=False):
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
        # context reads whose initial-value reads count as one source, and
        # the LLs of data-location pairs, by location
        self._init_reads = tuple(
            (a.aid, a.gvar) for a in actions
            if is_read(a) and a.gvar != lang.FENCE_VAR
        )
        self._data_lls = tuple(
            (ll, loc) for (ll, loc) in self._init_reads if len(unit[ll]) == 2
        )
        self._data_pairs = frozenset(
            a for (ll, _) in self._data_lls for a in unit[ll])
        groups = {}
        for a in actions if orbits else ():
            if len(unit[a.aid]) == 1:
                groups.setdefault((a.kind, a.gvar, a.vals), []).append(a.aid)
        groups = [tuple(g) for g in groups.values() if len(g) > 1]
        self.orbit = math.prod(math.factorial(len(g)) for g in groups)
        self._read_groups = tuple(g for g in groups
                                  if g[0] in self._lone_reads)
        self._write_groups = tuple(g for g in groups
                                   if g[0] not in self._lone_reads)
        # each member of a write group, as (group, place in it)
        self._member = {w: (i, j) for i, g in enumerate(self._write_groups)
                        for j, w in enumerate(g)}
        # all that sources and admit read of the pruner: the ids, kinds
        # and locations of the context actions, S and the groups, so two
        # pruners with one key act alike (blocklocal.Skeletons)
        self.key = (tuple((a.aid, a.kind, a.gvar) for a in actions),
                    frozenset(S), self._read_groups, self._write_groups)

    def sources(self, r, opts):
        """The rf candidates of read r worth trying: an unpaired context
        read is visible only when it reads from a code write."""
        if r not in self._lone_reads:
            return opts
        return [w for w in opts if w is not None and w not in self._ctx]

    def admit(self, rf, reads, pos):
        """None if rf leaves a context read or LL/SC pair non-visible or
        lets two context reads share a source, or with orbits if it is
        not canonical; else (hidden, before): hidden, the non-visible
        context writes, no two of which may be adjacent in one location's
        mo order, and before, the pairs (u, w) of writes that mo must
        order u first. reads are the pre-execution's read actions and
        pos the positions of its actions by id."""
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
        rf_of = {r: w for (w, r) in rf}
        init = [loc for (r, loc) in self._init_reads if r not in rf_of]
        if len(init) != len(set(init)):
            return None
        code_srcs = {(a.gvar, rf_of.get(a.aid))
                     for a in reads if a.aid not in ctx}
        shown -= self._data_pairs
        shown.update(ll for (ll, loc) in self._data_lls
                     if (loc, rf_of.get(ll)) in code_srcs)
        unit = self._unit
        if any(not unit[r] & shown for r in self._reads):
            return None
        # mo orders the atomic writes of one location totally, so two
        # non-visible context writes are separated by a visible or code
        # write exactly when no two non-visible ones are mo-adjacent
        hidden = frozenset(w for w in self._writes if not unit[w] & shown)
        if self.orbit == 1:
            return hidden, ()
        for g in self._read_groups:
            srcs = [pos[rf_of[r]] for r in g]
            if srcs != sorted(srcs):
                return None
        # how many members of each write group some read reads so far: a
        # read of a member not read before must read the next one
        count = [0] * len(self._write_groups)
        member = self._member
        for a in reads:
            m = member.get(rf_of.get(a.aid))
            if m is not None:
                i, j = m
                if j == count[i]:
                    count[i] += 1
                elif j > count[i]:
                    return None
        return hidden, tuple(pair for g, n in zip(self._write_groups, count)
                             for pair in zip(g[n:], g[n + 1:]))


def room_needed(actions, S):
    """What a pre-execution must hold for a context of the actions and
    the LL/SC pairs S to leave it any execution that CutPruner admits,
    as (key, n) items, each asking room(p)[key] >= n (fits): the items
    of location_need for each location, in the order the actions first
    name it.

    The counts restate CutPruner's rules per location x, for one
    pre-execution with r(x) code reads and w(x) code writes:

    - reads: an unpaired context read reads a code write (sources), and
      no two context reads share a source (admit). So the unpaired
      context reads of x with value v, key (x, (v,)), need as many code
      writes of x with value v.
    - writes: a visible context write is an unpaired one that a code
      read reads, at most r(x) of them, or the SC of a shown pair, at
      most pairs(x), the context's LL/SC pairs at x. Non-visible
      context writes are never mo-adjacent, so there are at most w(x) +
      visible + 1 of them. So x holds at most w(x) + 2·(r(x) + pairs(x))
      + 1 context writes: key x, the context writes less 2·pairs(x) + 1,
      against w(x) + 2·r(x).

    Values are only compared for equality, so the test gives a pair and
    its image under a renaming of the values alike."""
    paired = {i for pair in S for i in pair}
    lls = {ll for (ll, _) in S}
    counts = {}  # per location: unpaired read vals, writes, pairs
    for a in actions:
        reads, writes, pairs = counts.get(a.gvar, ((), 0, 0))
        if is_read(a) and a.aid not in paired:
            reads += (a.vals,)
        elif is_write(a):
            writes += 1
        counts[a.gvar] = (reads, writes, pairs + (a.aid in lls))
    return tuple(item for x, c in counts.items()
                 for item in location_need(x, *c))


def location_need(x, reads, writes, pairs):
    """room_needed's items for the location x, whose context actions are
    unpaired reads with the vals reads, writes writes, SCs included, and
    pairs LL/SC pairs: one item per distinct vals of reads, in order,
    then key x if the writes exceed 2·pairs + 1."""
    need = {}
    for vals in reads:
        need[x, vals] = need.get((x, vals), 0) + 1
    spare = writes - 2 * pairs - 1
    if spare > 0:
        need[x] = spare
    return tuple(need.items())


def room(actions):
    """What the code actions among actions offer a context, under the
    keys of room_needed: code writes by (location, vals), and per
    location its code writes and twice its code reads."""
    have = Counter()
    for a in actions:
        if a.origin != "code":
            continue
        if is_write(a):
            have[a.gvar, a.vals] += 1
            have[a.gvar] += 1
        elif is_read(a):
            have[a.gvar] += 2
    return dict(have)


def fits(need, have):
    """Whether a pre-execution with room(...) have holds what
    room_needed(...) need asks."""
    return all(have.get(k, 0) >= n for k, n in need)
