"""Histories, their deny edges and their refinement order."""

import dataclasses
import functools
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stellite import lang, verifier
from stellite.axiomatic import (
    PreExecution,
    complete,
    is_read,
    is_write,
    mo_orders_of,
    mo_pairs,
    rf_classes,
)
from stellite.blocklocal import (
    CALL,
    RET,
    CutContext,
    block_classes,
    block_local,
    contx_of,
    downclosure,
    setup,
)
from stellite.history import (
    ClassMasks,
    History,
    PairIndex,
    deny,
    hist,
    hist_ext,
    refines,
)
from stellite.verifier import check_cut_refinement, context_bound, \
    enumerate_contexts

from oracles import (
    deny_domain,
    oracle_deny_hit,
    pairs_of,
    rows_of,
    sample_block_local,
)
from test_acceptance import SUITE

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_empty_context_gives_empty_guarantee_and_deny():
    [X] = block_local(lang.parse_block("skip"), CutContext(()))
    h = hist(X)
    assert {a.aid for a in h.A} == {CALL, RET}
    assert h.G == h.D == frozenset()
    assert deny(X) == frozenset()


def test_guarantee_and_deny_never_mention_code_actions():
    for X in sample_block_local(200):
        allowed = {a.aid for a in contx_of(X)} | {CALL, RET}
        E = hist_ext(X)
        for rel in (E.G, E.D):
            assert all(u in allowed and v in allowed for (u, v) in rel)
        assert {a.aid for a in E.A} == allowed


def test_refinement_orders_are_preorders():
    samples = [hist_ext(X) for X in sample_block_local(60)][:40]
    for E in samples:
        assert refines(E, E)
        assert refines(History(E.A, E.G), History(E.A, E.G))
    for E1 in samples[:12]:
        for E2 in samples[:12]:
            for E3 in samples[:12]:
                if refines(E1, E2) and refines(E2, E3):
                    assert refines(E1, E3)


def test_refinement_with_deny_implies_refinement_without():
    samples = [hist_ext(X) for X in sample_block_local(60)][:30]
    for E1 in samples:
        for E2 in samples:
            if refines(E1, E2):
                assert refines(History(E1.A, E1.G), History(E2.A, E2.G))


def test_stronger_guarantee_refines_weaker():
    A = frozenset()
    strong = History(A, frozenset({("a", "ret")}))
    weak = History(A, frozenset())
    assert refines(strong, weak)
    assert not refines(weak, strong)


def test_deny_inclusion_failure_blocks_refinement():
    A = frozenset()
    G = frozenset()
    e1 = History(A, G, frozenset())
    e2 = History(A, G, frozenset({("ret", "a")}))
    assert not refines(e1, e2)
    assert refines(e2, e1)


def test_a_deny_edge_is_covered_by_the_reverse_of_a_guarantee():
    # a guarantees to happen before ret, so the context can never add
    # (ret, a): the left side need not deny it
    A = frozenset()
    e1 = History(A, frozenset({("a", "ret")}))
    e2 = History(A, frozenset(), frozenset({("ret", "a")}))
    assert refines(e1, e2)
    assert not refines(History(A, frozenset({("a", CALL)})), e2)


def test_differing_return_vectors_never_refine():
    from stellite.axiomatic import Action

    B = lang.parse_block("l := ld(x)")
    ctx = CutContext((Action("w", "store", "x", (1,), "context"),))
    execs = block_local(B, ctx)
    by_ret = {}
    for X in execs:
        by_ret[X.action(RET).vals] = hist(X)
    h0, h1 = by_ret[(0,)], by_ret[(1,)]
    assert not refines(h0, h1) and not refines(h1, h0)


def test_order_contradiction_produces_a_deny_edge():
    # a non-visible context store ordered after the block store cannot be
    # forced before the call
    from stellite.axiomatic import Action

    B = lang.parse_block("st(x,1)")
    ctx = CutContext((Action("w", "store", "x", (0,), "context"),))
    hit = False
    for X in block_local(B, ctx):
        [b] = [a.aid for a in X.actions if a.origin == "code"]
        if (b, "w") in X.mo:
            assert ("w", CALL) in deny(X)
            hit = True
    assert hit


def test_acyclicity_edges_are_the_reverse_of_the_guarantee():
    # the mask side keeps the reverse of the guarantee as ClassMasks.acyc;
    # it lies within the deny domain, so refines may read it off G
    for X in sample_block_local(150):
        reverse = {(v, u) for (u, v) in hist(X).G}
        assert reverse <= set(deny_domain(X))
        index = PairIndex(a.aid for a in contx_of(X))
        masks = ClassMasks(X.actions, X.rf, _rows(X), index)
        assert masks.acyc == index.encode(reverse)


def test_deny_agrees_with_the_add_edge_oracle():
    checked = 0
    for X in sample_block_local(520):
        D = deny(X)
        for (u, v) in deny_domain(X):
            assert ((u, v) in D) == oracle_deny_hit(X, u, v), (
                X.actions,
                X.rf,
                X.mo,
                (u, v),
            )
        checked += 1
    assert checked >= 500


def test_deny_agrees_with_the_oracle_on_prefixes():
    # prefixes may lack ret, or call as well
    checked = 0
    for X in sample_block_local(520)[::40]:
        for P in downclosure(X):
            D = deny(P)
            for (u, v) in deny_domain(P):
                assert ((u, v) in D) == oracle_deny_hit(P, u, v), (P, u, v)
            checked += RET not in {a.aid for a in P.actions}
    assert checked


@functools.cache
def _sample():
    return sample_block_local(1000)


@functools.cache
def _executions_by_context():
    """The sampled executions, grouped by context."""
    groups = {}
    for X in _sample():
        groups.setdefault(contx_of(X), []).append(X)
    return sorted(groups.items(), key=repr)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_the_mask_test_agrees_with_refines_within_one_context(data):
    ctx, xs = data.draw(st.sampled_from(_executions_by_context()))
    index = PairIndex(a.aid for a in ctx)
    coded = []
    for X in xs:
        m = ClassMasks(X.actions, X.rf, _rows(X), index)
        coded.append((PairIndex.key(X.actions), m.guarantee,
                      m.deny(mo_orders_of(X)) | m.acyc))
    hs = [hist_ext(X) for X in xs]
    for E1, (k1, g1, d1) in zip(hs, coded):
        for E2, (k2, g2, d2) in zip(hs, coded):
            assert (k1 == k2 and not g2 & ~g1 and not d2 & ~d1) == \
                refines(E1, E2), (ctx, E1, E2)


# ---------------------------------------------------------------------------
# the masks of an rf class against the executions complete flattens it to


def _rows(X):
    """X's hb as the bit rows ClassMasks takes."""
    return rows_of([a.aid for a in X.actions], X.hb)


def _assert_classes_match(classes, flat, index):
    """classes, (pre, rf, rows, mo_choices) tuples, flattened over their
    mo orders, give the executions flat in order, with the hb that rows
    holds; and for each class and mo order the class's masks are the
    PairIndex encoding of hist_ext of that execution and of the reverse
    of its guarantee. Yields each
    execution once it is checked."""
    flat = iter(flat)
    for (pre, rf, rows, mo_choices) in classes:
        acts = pre.actions
        hb = pairs_of([a.aid for a in acts], rows)
        masks = ClassMasks(acts, rf, rows, index)
        for mo_choice in itertools.product(*mo_choices):
            X = next(flat)
            mo = mo_pairs(mo_choice)
            assert (X.actions, X.rf, X.hb, X.mo) == (acts, rf, hb, mo)
            E = hist_ext(X)
            assert PairIndex.key(acts) == PairIndex.key(E.A)
            assert masks.guarantee == index.encode(E.G)
            assert masks.acyc == index.encode({(v, u) for (u, v) in E.G})
            assert masks.deny(mo_choice) == index.encode(E.D)
            # the scan's floor: mo only adds deny edges
            assert not masks.deny(()) & ~masks.deny(mo_choice)
            yield X
    assert next(flat, None) is None


def test_class_masks_match_the_flattened_executions_on_the_corpus():
    # each block of each SUITE row at V=2, under every context its check
    # enumerates; a check that refutes stops at the witness's context
    values = frozenset({0, 1})
    seen, checked = set(), 0
    for fname, _ in SUITE:
        B2, B1 = lang.parse_transformation((CORPUS / fname).read_text())
        budget = context_bound(B1, B2, values)
        reached = check_cut_refinement(B1, B2, budget).stats["contexts"]
        for ctx in itertools.islice(enumerate_contexts(B1, B2, budget),
                                    reached):
            index = PairIndex(a.aid for a in ctx.actions)
            for B in (B1, B2):
                if (B, ctx) in seen:
                    continue
                seen.add((B, ctx))
                _, _, _, (pres,) = setup((B,), values)
                flat = block_local(B, ctx, values=values)
                classes = ((pre, c.rf, c.rows, c.mo_choices)
                           for pre, c in block_classes(
                               [p for ps in pres for p in ps], ctx))
                checked += sum(1 for _ in _assert_classes_match(
                    classes, flat, index))
    assert checked > 50_000


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_class_masks_match_the_flattened_executions_and_the_oracle(data):
    # a sampled execution's actions, sb, at and context hb seed edges are
    # a pre-execution under a context; complete it again, class by class
    X = data.draw(st.sampled_from(_sample()))
    pre = PreExecution(X.actions, X.sb, X.at, X.r_ctx)
    index = PairIndex(a.aid for a in contx_of(X))
    flat = list(complete(pre))
    assert dataclasses.replace(X, locals_order=()) in flat
    classes = ((pre, *c) for c in rf_classes(pre))
    for Y in _assert_classes_match(classes, flat, index):
        # the deny and acyclicity edges by their definitions, not through
        # the threat masks both sides share
        m = ClassMasks(Y.actions, Y.rf, _rows(Y), index)
        dom = deny_domain(Y)
        assert index.decode(m.deny(mo_orders_of(Y))) == {
            (u, v) for (u, v) in dom if oracle_deny_hit(Y, u, v)}, Y
        assert index.decode(m.acyc) == {
            (u, v) for (u, v) in dom if (v, u) in Y.hb}, Y


# ---------------------------------------------------------------------------
# ClassMasks.deny folds the threats along each location's mo order; the
# slow path it replaced folds them over the pairs of mo


def _pair_fold_deny(masks, mo):
    """The deny mask of masks's class with the mo relation mo, pairs
    (w1, w2) of w1 mo-before w2: each pair adds w1's threats to w2, and
    (u, v) is denied when the threats of the writes that reach u meet
    the actions v reaches."""
    threat = list(masks._unread)
    for (w1, w2) in mo:
        threat[masks._pos[w2]] |= masks._mo_threat[w1]
    D = 0
    for (preds, targets) in masks._rows:
        reach = 0
        for i in preds:
            reach |= threat[i]
        for (row, bit) in targets:
            if reach & row:
                D |= bit
    return D


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_order_fold_deny_is_the_pair_fold_on_sampled_executions(data):
    X = data.draw(st.sampled_from(_sample()))
    orders = mo_orders_of(X)
    assert mo_pairs(orders) == X.mo
    index = PairIndex(a.aid for a in contx_of(X))
    masks = ClassMasks(X.actions, X.rf, _rows(X), index)
    assert masks.deny(orders) == _pair_fold_deny(masks, X.mo), X


@functools.cache
def _corpus_classes():
    """The rf classes of both blocks of each SUITE row at V=2 under every
    tenth of the first 300 contexts its check enumerates, with the
    PairIndex of the context, where some location has two writes."""
    values = frozenset({0, 1})
    out = []
    for fname, _ in SUITE:
        B2, B1 = lang.parse_transformation((CORPUS / fname).read_text())
        budget = context_bound(B1, B2, values)
        for ctx in itertools.islice(enumerate_contexts(B1, B2, budget),
                                    0, 300, 10):
            index = PairIndex(a.aid for a in ctx.actions)
            for B in (B1, B2):
                _, _, _, (pres,) = setup((B,), values)
                pres = [p for ps in pres for p in ps]
                out.extend(((pre, c.rf, c.rows, c.mo_choices), index)
                           for pre, c in block_classes(pres, ctx)
                           if any(len(o[0]) > 1 for o in c.mo_choices))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_order_fold_deny_is_the_pair_fold_on_corpus_classes(data):
    (pre, rf, rows, mo_choices), index = data.draw(
        st.sampled_from(_corpus_classes()))
    masks = ClassMasks(pre.actions, rf, rows, index)
    for mo_choice in itertools.islice(itertools.product(*mo_choices), 50):
        assert masks.deny(mo_choice) == \
            _pair_fold_deny(masks, mo_pairs(mo_choice)), (pre, rf, mo_choice)


# ---------------------------------------------------------------------------
# ClassMasks reads the pairs of its context off PairIndex.pairs; the slow
# path it replaced looks each pair up in PairIndex.bit


def _plain_masks(actions, rf, rows, index):
    """ClassMasks's acyc, guarantee, rf-less read threats, mo threats and
    rows, built with a PairIndex.bit lookup for every pair (u, v)."""
    pos = {a.aid: i for i, a in enumerate(actions)}
    up = [row | 1 << i for i, row in enumerate(rows)]
    ctx = [a.aid for a in actions if a.origin == "context"]
    readers = {r for (_, r) in rf}
    unread = {}
    for i, a in enumerate(actions):
        if is_read(a) and a.aid not in readers:
            unread[a.gvar] = unread.get(a.gvar, 0) | 1 << i
    writes = [i for i, a in enumerate(actions) if is_write(a)]
    read_by = {}
    for (w, r) in rf:
        read_by[w] = read_by.get(w, 0) | 1 << pos[r]
    heads = [(v, up[pos[v]]) for v in ctx + [CALL] if v in pos]
    out, acyc, guarantee = [], 0, 0
    for u in ctx + [RET]:
        if u not in pos:
            continue
        bu = 1 << pos[u]
        targets = []
        for (v, row) in heads:
            if u == v or (u == RET and v == CALL):
                continue
            targets.append((row, index.bit[u, v]))
            if row & bu:
                acyc |= index.bit[u, v]
                guarantee |= index.bit[v, u]
        out.append(([i for i in writes if up[i] & bu], targets))
    return (acyc, guarantee,
            [unread.get(a.gvar, 0) if is_write(a) else 0 for a in actions],
            {a.aid: 1 << i | read_by.get(a.aid, 0)
             for i, a in enumerate(actions) if is_write(a)},
            out)


def _scan_masks_match_the_plain_ones(B1, B2, budget):
    """Every ClassMasks that check_cut_refinement uses for an rf class of
    a pre-execution, built for it or shared with the other pre-executions
    of its skeleton, equals the plain one of that class and its own
    actions; returns how many classes use one."""
    used = {}  # each class that reads its masks, with them
    shared = verifier._Class.shared

    def recorded(c):
        used[c] = shared.fget(c)
        return used[c]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier._Class, "shared", property(recorded))
        check_cut_refinement(B1, B2, budget)
    for c, shared in used.items():
        m = shared.masks
        assert (m.acyc, m.guarantee, m._unread, m._mo_threat, m._rows) == \
            _plain_masks(c.pre.actions, c.c.rf, c.c.rows, c._index), \
            (c.pre.actions, c.c.rf)
    return len(used)


@pytest.mark.parametrize("nvalues", [2, 3], ids=["V=2", "V=3"])
def test_class_masks_match_the_plain_lookups_on_the_corpus(nvalues):
    built = 0
    for fname, _ in SUITE:
        B2, B1 = lang.parse_transformation((CORPUS / fname).read_text())
        built += _scan_masks_match_the_plain_ones(
            B1, B2, context_bound(B1, B2, frozenset(range(nvalues))))
    # 934 classes use masks at V=2 and 1,312 at V=3, which share 481
    # and 543 built ones
    assert built > 500


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([
    "l := ld(x)", "st(x, l)", "st(y, 1)", "fc", "a := LL(x); s := SC(x, a)",
    "if (l) { st(y, l) }",
]), min_size=1, max_size=2).map("; ".join), st.sampled_from(["skip", "fc",
                                                             "st(x, 1)"]))
def test_class_masks_match_the_plain_lookups_on_random_blocks(b1, extra):
    # the block against itself and against itself with one more
    # statement, over the contexts of at most three actions
    B1 = lang.parse_block(b1)
    B2 = lang.parse_block(f"{b1}; {extra}")
    shapes_all = verifier.context_shapes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "context_shapes", lambda *args: (
            itertools.takewhile(lambda s: sum(p.size for p in s) <= 3,
                                shapes_all(*args))))
        for (P1, P2) in [(B1, B1), (B2, B1), (B1, B2)]:
            _scan_masks_match_the_plain_ones(P1, P2, context_bound(P1, P2))
