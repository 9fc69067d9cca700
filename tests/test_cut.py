"""The redundancy filter over block-local executions."""

import dataclasses
import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stellite import lang
from stellite.axiomatic import Action, class_executions, is_read, is_write
from stellite.blocklocal import (
    CALL,
    CutContext,
    block_classes,
    block_local,
    code_of,
    contx_of,
    setup,
)
from stellite.cut import (CutPruner, cut, explain_cut, fits, room,
                          room_needed, vis)
from stellite.verifier import context_bound, enumerate_contexts

from oracles import cut_survivors, sample_block_local
from test_acceptance import SUITE

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _ctx(*specs):
    acts = tuple(
        Action(aid, kind, gvar, (val,), "context")
        for (aid, kind, gvar, val) in specs
    )
    return CutContext(acts)


def _from(B, ctx, **sigma):
    """The executions of block_local(B, ctx) whose call has the local
    map sigma."""
    return [X for X in block_local(B, ctx)
            if dict(zip(X.locals_order, X.by_id()[CALL].vals)) == sigma]


def test_empty_context_always_passes_and_vis_is_code():
    for X in block_local(lang.parse_block("st(x,l); l := ld(x)"),
                         CutContext(())):
        assert cut(X)
        assert vis(X) == frozenset(a.aid for a in code_of(X))


def test_visible_load_and_store_are_allowed():
    B = lang.parse_block("st(x,l); m := ld(x)")
    ctx = _ctx(("r0", "load", "x", 1), ("w0", "store", "x", 1))
    passing = [
        X
        for X in _from(B, ctx, l=1, m=0)
        if cut(X)
    ]
    assert passing
    for X in passing:
        code = {a.aid for a in code_of(X)}
        # the context read got its value from the block
        assert any(w in code and r == "r0" for (w, r) in X.rf)


def test_nonvisible_context_read_is_rejected():
    B = lang.parse_block("st(x,l)")
    ctx = _ctx(("r0", "load", "x", 0), ("w0", "store", "x", 0))
    for X in _from(B, ctx, l=1):
        srcs = dict((r, w) for (w, r) in X.rf)
        if srcs.get("r0") != next(a.aid for a in code_of(X)):
            assert not cut(X)
            assert "visible" in explain_cut(X) or "share" in explain_cut(X)


def test_two_context_reads_from_one_write_are_rejected():
    B = lang.parse_block("st(x,l)")
    ctx = _ctx(("r0", "load", "x", 1), ("r1", "load", "x", 1))
    execs = _from(B, ctx, l=1)
    assert execs
    for X in execs:
        # both reads can only source the single code store
        assert not cut(X)
        assert "share" in explain_cut(X)


def test_unseparated_nonvisible_writes_are_rejected():
    B = lang.parse_block("l := ld(x)")
    ctx = _ctx(("w0", "store", "x", 1), ("w1", "store", "x", 1))
    saw_reject = False
    for X in _from(B, ctx, l=0):
        # the code load reads the initial value, both context stores are
        # non-visible and mo-adjacent
        if not X.rf:
            assert not cut(X)
            saw_reject = True
    assert saw_reject


def test_cut_invariants_on_samples():
    for X in sample_block_local(300, cut_only=True):
        code = {a.aid for a in code_of(X)}
        ctx = {a.aid for a in contx_of(X)}
        byid = X.by_id()
        srcs = dict((r, w) for (w, r) in X.rf)
        v = vis(X)
        paired = {i for pair in X.at for i in pair}
        for a in contx_of(X):
            if is_read(a) and a.aid not in paired:
                # every unpaired context read's source is a code write
                assert srcs.get(a.aid) in code
        # per location: non-visible context writes <= visible writes + 1
        for g in {a.gvar for a in X.actions if a.gvar is not None}:
            nonvis = sum(
                1
                for a in contx_of(X)
                if is_write(a) and a.gvar == g and a.aid not in v
            )
            visw = sum(
                1
                for a in X.actions
                if is_write(a) and a.gvar == g and a.aid in v
            )
            assert nonvis <= visw + 1


# ---------------------------------------------------------------------------
# the cut's filter applied during completion (cut.CutPruner, as verify
# runs it) against the slow path, filter(cut, block_local)


def _assert_fast_path_matches(B, ctx, values):
    fast = cut_survivors(B, ctx, values)
    every = block_local(B, ctx, values=values)
    slow = [X for X in every if cut(X)]
    assert len(set(fast)) == len(fast)
    assert set(fast) == set(slow)
    # same order too, so the first refutation witness does not move
    assert fast == slow


def test_cut_only_matches_the_filtered_slow_path_on_the_corpus():
    blocks = {
        lang.unparse_block(side)
        for fname, _ in SUITE
        for side in lang.parse_transformation((CORPUS / fname).read_text())
    }
    values = frozenset({0, 1})
    for btxt in sorted(blocks):
        B = lang.parse_block(btxt)
        for ctx in enumerate_contexts(B, B):
            _assert_fast_path_matches(B, ctx, values)


_STMTS = st.sampled_from([
    "l := ld(x)", "m := ld(y)", "ld(x)", "st(x, l)", "st(x, 1)", "st(y, m)",
    "st(y, 0)", "fc", "l := LL(x); m := SC(x, l)", "m := LL(y); n := 1; m := SC(y, n)",
])


@st.composite
def _cases(draw, stmts=_STMTS):
    """A block of one to three statements, a value domain and a context of
    one to four loads, stores, LL/SC actions and S-paired LL/SC pairs
    (fences among them)."""
    values = frozenset(range(draw(st.sampled_from([2, 3]))))
    block = "; ".join(draw(st.lists(stmts, min_size=1, max_size=3)))
    # one shared location most of the time, so that the actions interact
    locs = draw(st.sampled_from([["x"], ["y"], ["x", "y"]]))
    acts, S = [], set()
    for i in range(draw(st.integers(1, 4))):
        # loads twice as often, so that two of them may share a source
        shape = draw(st.sampled_from(
            ["load", "load", "store", "LL", "SC", "pair", "fence"]))
        loc = draw(st.sampled_from(locs))
        v1, v2 = (draw(st.sampled_from(sorted(values))) for _ in "ab")
        if shape in ("pair", "fence"):
            if shape == "fence":
                loc, v1, v2 = lang.FENCE_VAR, 0, 0
            ll = Action(f"c{i}l", "LL", loc, (v1,), "context")
            sc = Action(f"c{i}s", "SC", loc, (v2,), "context")
            acts += [ll, sc]
            S.add((ll.aid, sc.aid))
        else:
            acts.append(Action(f"c{i}", shape, loc, (v1,), "context"))
    return block, CutContext(tuple(acts), frozenset(), frozenset(S)), values


_V2 = frozenset({0, 1})


def _pairs(*specs, others=()):
    """A context of S-paired LL/SC actions (id, location, LL value, SC
    value) after the plain actions others."""
    acts, S = list(_ctx(*others).actions), set()
    for (aid, loc, v1, v2) in specs:
        acts += [Action(f"{aid}l", "LL", loc, (v1,), "context"),
                 Action(f"{aid}s", "SC", loc, (v2,), "context")]
        S.add((f"{aid}l", f"{aid}s"))
    return CutContext(tuple(acts), frozenset(), frozenset(S))


@settings(max_examples=150, deadline=None)
@given(_cases())
# one example per cut rule: two reads sharing the code store, two
# mo-adjacent non-visible stores, a data-location LL/SC pair whose SC the
# code reads (kept only if its LL reads what the code read reads), a pair
# whose LL reads the store the code read reads, two pairs whose LLs read
# the initial value as the code read does, and a fence
@example(("st(x, 1)", _ctx(("r0", "load", "x", 1), ("r1", "load", "x", 1)),
          _V2))
@example(("l := ld(x)", _ctx(("w0", "store", "x", 1), ("w1", "store", "x", 0),
                             ("w2", "store", "x", 1)), _V2))
@example(("l := ld(x)", CutContext(
    (Action("p", "LL", "x", (0,), "context"),
     Action("q", "SC", "x", (1,), "context")),
    frozenset(), frozenset({("p", "q")})), _V2))
@example(("l := ld(x)", _pairs(("p", "x", 1, 0),
                               others=[("w0", "store", "x", 1)]), _V2))
@example(("l := ld(x)", _pairs(("p", "x", 0, 0), ("q", "x", 0, 1)), _V2))
@example(("fc", _pairs(("f", lang.FENCE_VAR, 0, 0)), _V2))
def test_cut_only_matches_the_filtered_slow_path_on_random_blocks(case):
    block, ctx, values = case
    _assert_fast_path_matches(lang.parse_block(block), ctx, values)


# ---------------------------------------------------------------------------
# the cut's rules as counts (cut.room_needed, room and fits), which
# check_cut_refinement applies before it completes anything: a
# pre-execution without room has no cut survivor


def _unfit_have_no_survivor(pres, ctx):
    """Assert that block_classes with ctx's CutPruner yields nothing for
    each of the pre-executions pres that fits rejects under ctx; return
    how many it rejects."""
    need = room_needed(ctx.actions, ctx.S)
    unfit = [p for p in pres if not fits(need, room(p.actions))]
    pruner = CutPruner(ctx.actions, ctx.S)
    for p in unfit:
        assert not list(block_classes([p], ctx, pruner=pruner)), (p, ctx)
    return len(unfit)


# the SUITE rows, and at V=2 two rows whose contexts hold LL/SC pairs,
# as the original block writes x and the new one reads it
_SUITE_TEXTS = [(CORPUS / f).read_text() for f, _ in SUITE]
_PAIR_ROWS = [
    "a := LL(x); s := SC(x,a); st(y,s) ~> a := LL(x); st(y,a)",
    "l := ld(x); st(x,l) ~> l := ld(x); if (l) { st(y,l) }",
]


@pytest.mark.parametrize("texts,nvalues", [
    (_SUITE_TEXTS + _PAIR_ROWS, 2), (_SUITE_TEXTS, 3)], ids=["V=2", "V=3"])
def test_a_pre_execution_without_room_has_no_survivor_on_the_corpus(
        texts, nvalues):
    rejected = 0
    for text in texts:
        B2, B1 = lang.parse_transformation(text)
        budget = context_bound(B1, B2, frozenset(range(nvalues)))
        _, _, _, (pre1, _) = setup((B1, B2), budget.values)
        for ctx in enumerate_contexts(B1, B2, budget):
            for pres in pre1:
                rejected += _unfit_have_no_survivor(pres, ctx)
    # the test rejects most of the (context, sigma, pre-execution) triples
    # of an elimination or a collapse, so this is no empty check
    assert rejected > 1000


_ROOM_STMTS = st.sampled_from([
    "l := ld(x)", "st(x, l)", "st(x, 1)", "st(y, m)", "fc",
    "l := LL(x); m := SC(x, l)", "m := LL(y); n := 1; m := SC(y, n)",
    "if (l) { st(x, l) }", "if (m) { l := ld(y) } else { st(y, 1) }",
])


@settings(max_examples=200, deadline=None)
@given(_cases(_ROOM_STMTS))
# one example per count that the test allows and a survivor uses up: a
# non-visible store on each side of the code store, two non-visible
# stores around one that the code read reads, and a data-location pair
# whose LL reads the initial value as the code read does
@example(("st(x, 1)", _ctx(("w0", "store", "x", 1), ("w1", "store", "x", 0)),
          _V2))
@example(("l := ld(x)", _ctx(("w0", "store", "x", 1), ("w1", "store", "x", 0),
                             ("w2", "store", "x", 1)), _V2))
@example(("l := ld(x)", _pairs(("p", "x", 0, 1)), _V2))
def test_a_pre_execution_without_room_has_no_survivor_on_random_blocks(case):
    block, ctx, values = case
    _, _, _, (pres,) = setup((lang.parse_block(block),), values)
    for ps in pres:
        _unfit_have_no_survivor(ps, ctx)


# ---------------------------------------------------------------------------
# one cut survivor per orbit (CutPruner with orbits, as verify builds the
# new block's survivors) against every survivor (the plain CutPruner)


def _interchangeable(ctx):
    """Every permutation of the ids of ctx's interchangeable actions, the
    unpaired ones that share (kind, location, vals), as a dict."""
    paired = {i for pair in ctx.S for i in pair}
    groups = {}
    for a in ctx.actions:
        if a.aid not in paired:
            groups.setdefault((a.kind, a.gvar, a.vals), []).append(a.aid)
    groups = [g for g in groups.values() if len(g) > 1]
    return [{u: v for g, p in zip(groups, perm) for u, v in zip(g, p)}
            for perm in itertools.product(
                *(itertools.permutations(g) for g in groups))]


def _relabel(X, pi):
    """X with its action ids moved by pi in every relation."""
    move = lambda rel: frozenset((pi.get(u, u), pi.get(v, v))
                                 for (u, v) in rel)
    return dataclasses.replace(X, sb=move(X.sb), at=move(X.at),
                               rf=move(X.rf), mo=move(X.mo),
                               hb=move(X.hb), r_ctx=move(X.r_ctx))


def _one_survivor_per_orbit(pres, ctx):
    """Assert that the canonical survivors of the pre-executions pres
    under ctx, times the permutations of its interchangeable actions,
    are as many as all survivors, that each survivor has exactly one
    image among the canonical ones, and that the canonical ones are, in
    order, the first survivor of each orbit; return how many survivors
    the canonical ones leave out."""
    perms = _interchangeable(ctx)
    orbits = CutPruner(ctx.actions, ctx.S, orbits=True)
    assert orbits.orbit == len(perms), ctx
    if len(perms) == 1:
        return 0

    def survivors(pruner):
        return [X for pre, c in block_classes(pres, ctx, pruner=pruner)
                for X in class_executions(pre, c.rf, c.rows, c.mo_choices)]

    every = survivors(CutPruner(ctx.actions, ctx.S))
    canonical = survivors(orbits)
    assert len(canonical) * len(perms) == len(every), ctx
    found = set(canonical)
    assert found <= set(every)
    firsts, seen = [], set()
    for X in every:
        assert sum(_relabel(X, pi) in found for pi in perms) == 1, (X, ctx)
        if X not in seen:
            firsts.append(X)
            seen.update(_relabel(X, pi) for pi in perms)
    assert canonical == firsts, ctx
    return len(every) - len(canonical)


@pytest.mark.parametrize("texts,nvalues", [
    (_SUITE_TEXTS + _PAIR_ROWS, 2), (_SUITE_TEXTS, 3)], ids=["V=2", "V=3"])
def test_one_survivor_per_orbit_on_the_corpus(texts, nvalues):
    left_out = 0
    for text in texts:
        B2, B1 = lang.parse_transformation(text)
        budget = context_bound(B1, B2, frozenset(range(nvalues)))
        _, _, _, (pre1, _) = setup((B1, B2), budget.values)
        for ctx in enumerate_contexts(B1, B2, budget):
            need = room_needed(ctx.actions, ctx.S)
            for pres in pre1:
                left_out += _one_survivor_per_orbit(
                    [p for p in pres if fits(need, room(p.actions))], ctx)
    # load_dup alone leaves out over a thousand survivors at V=2
    assert left_out > 1000


@settings(max_examples=200, deadline=None)
@given(_cases(_ROOM_STMTS))
# two equal stores, one of them read by the code; two equal loads of two
# code stores; two equal stores that the LL of a pair may read; and two
# pairs with one LL value, which are no group
@example(("l := ld(x)", _ctx(("w0", "store", "x", 1), ("w1", "store", "x", 1),
                             ("w2", "store", "x", 0)), _V2))
@example(("st(x, 1); st(x, l)", _ctx(("r0", "load", "x", 1),
                                     ("r1", "load", "x", 1)), _V2))
@example(("l := ld(x)", _pairs(("p", "x", 1, 0), others=[
    ("w0", "store", "x", 1), ("w1", "store", "x", 1)]), _V2))
@example(("l := ld(x); st(x, l)", _pairs(("p", "x", 0, 1),
                                         ("q", "x", 0, 0)), _V2))
# two equal loads of the code stores b2 and b11: compared as id strings,
# "b11" < "b2" would make the second member of the orbit canonical
@example(("fc; st(x, 1); fc; fc; fc; fc; st(x, 1)",
          _ctx(("r0", "load", "x", 1), ("r1", "load", "x", 1)), _V2))
def test_one_survivor_per_orbit_on_random_blocks(case):
    block, ctx, values = case
    _, _, _, (pres,) = setup((lang.parse_block(block),), values)
    for ps in pres:
        _one_survivor_per_orbit(ps, ctx)
