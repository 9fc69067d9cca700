"""Histories and extended histories of block-local executions.

A history records the context-visible happens-before footprint of a
block (the guarantee); the extended history adds the deny: edges the
context could not add as happens-before without completing a violation
of HBVSMO, COHERENCE, or RFVAL.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axiomatic import Execution, is_read, is_write
from .blocklocal import CALL, RET, contx_of


@dataclass(frozen=True)
class History:
    A: frozenset  # context actions plus boundary actions, by value
    G: frozenset  # guarantee edges over ids


@dataclass(frozen=True)
class ExtendedHistory:
    A: frozenset
    G: frozenset
    D: frozenset
    acyc: frozenset = frozenset()  # acyclicity denies, kept separately


def _boundary(X: Execution):
    return tuple(a for a in X.actions if a.aid in (CALL, RET))


def hist(X: Execution) -> History:
    """Guarantee: hb projected to context-to-context, context-to-ret and
    call-to-context pairs."""
    ctx = {a.aid for a in contx_of(X)}
    G = frozenset(
        (u, v)
        for (u, v) in X.hb
        if (u in ctx and v in ctx)
        or (u in ctx and v == RET)
        or (u == CALL and v in ctx)
    )
    A = frozenset(contx_of(X)) | frozenset(_boundary(X))
    return History(A, G)


def deny(X: Execution, include_acyc: bool = False):
    """Deny edges: (u,v) such that enforcing u happens-before v would
    complete an axiom violation. Computed with reflexive hb, hb*.

    The actions are indexed densely and up[i], the actions i reaches by
    hb*, is a bit row. A threat mask per action folds the three axioms
    into one test: T[a] holds each b such that a hb* u and v hb* b give a
    violation once (u,v) is enforced, so (u,v) is denied exactly when
    the threats of the actions up to u meet up[v].
    """
    index = {a.aid: i for i, a in enumerate(X.actions)}
    n = len(index)
    up = [1 << i for i in range(n)]
    for (a, b) in X.hb:
        up[index[a]] |= 1 << index[b]
    threat = [0] * n
    # a write mo-after w1 would be forced before it
    for (w2, w1) in X.mo:
        threat[index[w1]] |= 1 << index[w2]
    # a read would see w1 with w2, mo-after w1, happening before it
    mo_after = {}
    for (w1, w2) in X.mo:
        mo_after.setdefault(w1, []).append(index[w2])
    for (w1, r) in X.rf:
        for w2 in mo_after.get(w1, ()):
            threat[w2] |= 1 << index[r]
    # a write would happen before an rf-less read of its location
    readers = {r for (_, r) in X.rf}
    unread = {}
    for i, a in enumerate(X.actions):
        if is_read(a) and a.aid not in readers:
            unread[a.gvar] = unread.get(a.gvar, 0) | 1 << i
    if unread:
        for i, a in enumerate(X.actions):
            if is_write(a):
                threat[i] |= unread.get(a.gvar, 0)
    threats = [(up[a], t) for a, t in enumerate(threat) if t]
    ctx = [a.aid for a in contx_of(X)]
    # a prefix of an execution (blocklocal.downclosure) may lack call or
    # ret, and then has no edges to or from it
    rows = [(v, up[index[v]]) for v in ctx + [CALL] if v in index]
    D, acyc = set(), set()
    for u in ctx + [RET]:
        if u not in index:
            continue
        bu = 1 << index[u]
        # the threats of every action that reaches u by hb*
        reach = 0
        for (row, t) in threats:
            if row & bu:
                reach |= t
        for (v, row) in rows:
            if u == v or (u == RET and v == CALL):
                continue
            if reach & row:
                D.add((u, v))
            if row & bu:
                # adding (u,v) would close an hb cycle; these edges are
                # fully determined by the guarantee, so they are kept
                # separately
                acyc.add((u, v))
    if include_acyc:
        D |= acyc
    return frozenset(D), frozenset(acyc)


def hist_ext(X: Execution, include_acyc: bool = False) -> ExtendedHistory:
    h = hist(X)
    D, acyc = deny(X, include_acyc=include_acyc)
    return ExtendedHistory(h.A, h.G, D, acyc)


def refines_h(H1: History, H2: History) -> bool:
    """History refinement: equal action sets, the left side guarantees at
    least as much."""
    return H1.A == H2.A and H2.G <= H1.G


def refines_ext(E1: ExtendedHistory, E2: ExtendedHistory) -> bool:
    """Equal action sets; the left side guarantees and denies at least as
    much. An edge the right side denies is also covered if its reverse is
    already guaranteed on the left (the context can never add it)."""
    return (
        E1.A == E2.A
        and E2.G <= E1.G
        and E2.D <= (E1.D | E1.acyc)
    )


class PairIndex:
    """Extended histories of block-local executions under one context,
    encoded for a bitwise refines_ext.

    Under one context the action sets differ only in the values of call
    and ret, which key returns, and every edge of G, D and acyc joins two
    of the context's ids, call and ret; each such pair has one bit.
    """

    def __init__(self, ctx_ids):
        ids = [*ctx_ids, CALL, RET]
        k = len(ids)
        self._bit = {
            (u, v): 1 << (i * k + j)
            for i, u in enumerate(ids)
            for j, v in enumerate(ids)
        }

    @staticmethod
    def key(E: ExtendedHistory):
        """The values of E's boundary actions: equal exactly when two
        histories under one context have equal action sets."""
        return tuple(sorted((a.aid, a.vals) for a in E.A
                            if a.origin == "boundary"))

    def masks(self, E: ExtendedHistory):
        """E's guarantee and E's deny and acyclicity edges as bit masks."""
        bit = self._bit
        return (sum(bit[p] for p in E.G),
                sum(bit[p] for p in E.D | E.acyc))


def refines_masks(m1, m2) -> bool:
    """refines_ext(E1, E2) for two extended histories with one action set,
    on their PairIndex masks. The right side's acyclicity edges may join
    its deny edges: they are the reverse of its guarantee within the deny
    domain, so once G2 is in G1 they are in E1's acyclicity edges."""
    return not (m2[0] & ~m1[0] or m2[1] & ~m1[1])
