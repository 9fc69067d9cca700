"""Histories of block-local executions.

A history is a block's denotation under one context: its context and
boundary actions A, the guarantee G, the happens-before edges the
context can see, and the deny D, the edges the context could not add as
happens-before without completing a violation of HBVSMO, COHERENCE, or
RFVAL. Adding the reverse of a guaranteed edge would close an hb cycle
instead; refines reads those edges off G, so D does not list them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axiomatic import READ_KINDS, WRITE_KINDS, Execution, mo_orders_of
from .blocklocal import CALL, RET, contx_of, in_r_shape


@dataclass(frozen=True)
class History:
    A: frozenset  # context actions plus boundary actions, by value
    G: frozenset  # guarantee edges over ids
    D: frozenset = frozenset()  # deny edges over ids


def hist(X: Execution) -> History:
    """X's context and boundary actions and its guarantee: the hb pairs
    whose reverse has the shape of a context relation edge, that is
    context-to-context, context-to-ret and call-to-context pairs. The
    deny is left empty; hist_ext fills it in."""
    ctx = contx_of(X)
    ids = {a.aid for a in ctx}
    G = frozenset((u, v) for (u, v) in X.hb if in_r_shape(v, u, ids))
    return History(frozenset(ctx) | {a for a in X.actions
                                     if a.aid in (CALL, RET)}, G)


class PairIndex:
    """One bit for each pair of a context's ids, call and ret, the pairs
    that every edge of a guarantee, a deny or the reverse of a guarantee
    under that context joins. Under one context the action sets of
    histories differ only in the values of call and ret, which key
    returns.

    heads are the context's ids and call, the targets v of such edges
    (u,v), and pairs lists, for each source u, one of the context's ids
    or ret, in order, the (j, bit of (u,v), bit of (v,u)) of each v =
    heads[j] that is not u, and not call when u is ret."""

    def __init__(self, ctx_ids):
        ctx_ids = list(ctx_ids)
        ids = [*ctx_ids, CALL, RET]
        k = len(ids)
        self.bit = {
            (u, v): 1 << (i * k + j)
            for i, u in enumerate(ids)
            for j, v in enumerate(ids)
        }
        bit = self.bit
        self.heads = ctx_ids + [CALL]
        self.pairs = [
            (u, [(j, bit[u, v], bit[v, u]) for j, v in enumerate(self.heads)
                 if v != u and not (u == RET and v == CALL)])
            for u in ctx_ids + [RET]
        ]

    def encode(self, pairs):
        bit = self.bit
        return sum(bit[p] for p in pairs)

    def decode(self, mask):
        return frozenset(p for p, b in self.bit.items() if mask & b)

    @staticmethod
    def key(actions):
        """The values of the boundary actions among actions: equal
        exactly when two histories under one context have equal action
        sets."""
        return tuple(sorted((a.aid, a.vals) for a in actions
                            if a.origin == "boundary"))


class ClassMasks:
    """The histories of the executions that share actions, rf and hb, an
    rf class of rf_classes, as PairIndex masks.

    The guarantee and acyc, the reverse of the guarantee, depend on hb
    alone and are built once; deny(orders) gives the deny edges of one
    choice of mo orders. A scan tests deny | acyc, the edges a history
    denies or covers by its guarantee, as refines reads them.

    hb comes as rows, bit j of rows[i] when the i-th action happens
    before the j-th, and up[i], the actions i reaches by reflexive hb
    (hb*), is rows[i] with bit i set. A threat mask per write folds the
    three axioms into one test: T[a] holds each b such that a hb* u and
    v hb* b give a violation once (u,v) is enforced, so (u,v) is denied
    exactly when the threats of the writes up to u meet up[v]. Only the
    rf-less reads' threats are fixed by the class; mo adds the others.

    The index's ids are those of the context actions among actions, in
    order, or more: a prefix of an execution (blocklocal.downclosure)
    may lack some of them, or call or ret, and has no edges to or from
    what it lacks.
    """

    def __init__(self, actions, rf, rows, index: PairIndex):
        pos = {a.aid: i for i, a in enumerate(actions)}
        up = [row | 1 << i for i, row in enumerate(rows)]
        # what a write w1 puts at risk in each write w2 mo-after it: w1,
        # which an edge could make w2 happen before (HBVSMO), and the
        # readers of w1, which would then see w2 happen before them
        # (COHERENCE)
        read_by = {}
        for (w, r) in rf:
            read_by[w] = read_by.get(w, 0) | 1 << pos[r]
        readers = {r for (_, r) in rf}
        unread = {}  # the rf-less reads of each location
        writes = []
        self._mo_threat = {}
        for i, a in enumerate(actions):
            if a.kind in WRITE_KINDS:
                writes.append(i)
                self._mo_threat[a.aid] = 1 << i | read_by.get(a.aid, 0)
            elif a.kind in READ_KINDS and a.aid not in readers:
                unread[a.gvar] = unread.get(a.gvar, 0) | 1 << i
        # a write would happen before an rf-less read of its location
        self._unread = [0] * len(actions)
        for i in writes:
            self._unread[i] = unread.get(actions[i].gvar, 0)
        self._pos = pos
        heads = [up[pos[v]] if v in pos else None for v in index.heads]
        self._rows = []
        acyc = guarantee = 0
        for (u, pairs) in index.pairs:
            if u not in pos:
                continue
            bu = 1 << pos[u]
            targets = []
            for (j, uv, vu) in pairs:
                row = heads[j]
                if row is None:
                    continue
                targets.append((row, uv))
                if row & bu:
                    # v happens before u: (v,u) is a guarantee edge, and
                    # adding (u,v) would close an hb cycle, so the
                    # guarantee fully determines the acyclicity edges
                    acyc |= uv
                    guarantee |= vu
            # the writes that reach u by hb*, whose threats (u,v) meets
            self._rows.append(([i for i in writes if up[i] & bu], targets))
        self.acyc = acyc
        self.guarantee = guarantee

    def deny(self, orders):
        """The deny mask of the execution of this class whose mo orders
        each location's writes as orders does, one order per location:
        each write meets the threats of the writes before it, a running
        OR along its order."""
        pos, mo_threat = self._pos, self._mo_threat
        threat = list(self._unread)
        for order in orders:
            run = 0
            for w in order:
                threat[pos[w]] |= run
                run |= mo_threat[w]
        D = 0
        for (preds, targets) in self._rows:
            reach = 0
            for i in preds:
                reach |= threat[i]
            if reach:
                for (row, bit) in targets:
                    if reach & row:
                        D |= bit
        return D


def deny(X: Execution) -> frozenset:
    """Deny edges: (u,v) such that enforcing u happens-before v would
    complete an axiom violation (see ClassMasks)."""
    pos = {a.aid: i for i, a in enumerate(X.actions)}
    rows = [0] * len(pos)
    for (u, v) in X.hb:
        rows[pos[u]] |= 1 << pos[v]
    index = PairIndex(a.aid for a in contx_of(X))
    masks = ClassMasks(X.actions, X.rf, rows, index)
    return index.decode(masks.deny(mo_orders_of(X)))


def hist_ext(X: Execution) -> History:
    """hist(X) with its deny."""
    h = hist(X)
    return History(h.A, h.G, deny(X))


def class_hist_ext(X: Execution, masks: ClassMasks,
                   index: PairIndex) -> History:
    """hist_ext(X) for an execution X of the rf class whose ClassMasks,
    built under index, are masks."""
    h = hist(X)
    return History(h.A, h.G, index.decode(masks.deny(mo_orders_of(X))))


def refines(H1: History, H2: History) -> bool:
    """Equal action sets; the left side guarantees and denies at least as
    much. An edge the right side denies is also covered if the left side
    guarantees its reverse (the context can never add it)."""
    return (
        H1.A == H2.A
        and H2.G <= H1.G
        and all((v, u) in H1.G for (u, v) in H2.D - H1.D)
    )
