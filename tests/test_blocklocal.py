"""Block-local executions under reduced contexts."""

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stellite import lang
from stellite.axiomatic import Action, derive_hb, rf_classes, valid
from stellite.blocklocal import (
    CALL,
    RET,
    CutContext,
    Skeletons,
    _under,
    block_classes,
    block_local,
    check_context,
    code_of,
    contx_of,
    downclosure,
    setup,
    sigma_space,
)
from stellite.cut import CutPruner
from stellite.verifier import (
    check_cut_refinement,
    check_q_instance,
    context_bound,
    enumerate_contexts,
)

from oracles import forced_read_instance_execs, single_load_instance_execs
from test_acceptance import SUITE

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_sigma_space_pins_dead_locals_to_zero():
    assert sigma_space(("l", "m"), {"l"}, {0, 1}) == [
        {"l": 0, "m": 0},
        {"l": 1, "m": 0},
    ]
    assert sigma_space((), set(), {0, 1}) == [{}]


_A = Action("a", "store", "x", (1,), "context")
_B = Action("b", "store", "x", (0,), "context")
_LL = Action("l", "LL", "x", (0,), "context")
_SC = Action("s", "SC", "x", (1,), "context")


@pytest.mark.parametrize("actions,R,S,edge", [
    ((_A,), {("a", "a")}, (), "(a,a)"),
    ((_A, _B), {("a", "b"), ("b", "a")}, (), "(b,a)"),
    ((_A,), {("a", CALL), (RET, "a")}, (), "(ret,a)"),
    ((_LL, _SC), {("s", "l")}, {("l", "s")}, "(s,l)"),
], ids=["self-loop", "two-cycle", "through-call-and-ret", "against-S"])
def test_a_cyclic_context_relation_is_rejected(actions, R, S, edge):
    # each edge has the shape of a context edge, but the cycle makes hb
    # cyclic under every pre-execution, so neither block would have an
    # execution and every check would pass
    B = lang.parse_block("l := ld(x)")
    assert block_local(B, CutContext(actions, S=frozenset(S)))
    with pytest.raises(ValueError, match=re.escape(f"R edge {edge} closes")):
        block_local(B, CutContext(actions, frozenset(R), frozenset(S)))


def test_empty_context_wraps_the_blocks_own_executions():
    execs = block_local(lang.parse_block("st(x,l)"), CutContext(()))
    assert execs
    for X in execs:
        assert contx_of(X) == ()
        code = code_of(X)
        assert len(code) == 1 and code[0].kind == "store"
        assert (CALL, code[0].aid) in X.sb and (code[0].aid, RET) in X.sb
        assert valid(X)


def test_empty_block_still_emits_call_and_ret():
    execs = block_local(lang.parse_block("skip"), CutContext(()))
    assert len(execs) == 1
    X = execs[0]
    assert {a.aid for a in X.actions} == {CALL, RET}
    assert X.action(CALL).vals == X.action(RET).vals


def test_context_relation_is_included_in_happens_before():
    for X in forced_read_instance_execs():
        assert X.r_ctx <= X.hb
        assert valid(X)


def test_forced_read_instance_has_exactly_the_expected_executions():
    execs = forced_read_instance_execs()
    assert len(execs) == 3

    def flag_rf(X):
        return any(w == "wf" for (w, r) in X.rf
                   if X.by_id()[r].gvar == "f")

    def xval(X):
        [lx] = [a for a in code_of(X) if a.gvar == "x"]
        return lx.vals[0]

    # when the flag read sees the context flag store, the data read is
    # forced to 1 (the required ordering excludes both 0 and 2)
    assert any(flag_rf(X) and xval(X) == 1 for X in execs)
    assert not any(flag_rf(X) and xval(X) != 1 for X in execs)
    # the ordering also fixes the data stores' modification order
    for X in execs:
        assert ("w2", "w1") in X.mo


def test_single_load_context_must_read_the_block_store():
    execs = single_load_instance_execs()
    assert execs
    for X in execs:
        [b] = [a.aid for a in code_of(X)]
        assert (b, "a1") in X.rf


def test_context_actions_carry_no_sequenced_before():
    for X in forced_read_instance_execs():
        ctx = {a.aid for a in contx_of(X)}
        assert not any(u in ctx or v in ctx for (u, v) in X.sb)


def test_context_validation_rejects_malformed_inputs():
    B = lang.parse_block("st(x,l)")
    with pytest.raises(ValueError):
        block_local(B, CutContext((Action("a", "load", "x", (0,), "code"),)))
    with pytest.raises(ValueError):
        block_local(
            B,
            CutContext(
                (Action("a", "load", "x", (0,), "context"),),
                R=frozenset({("call", "a")}),  # wrong direction
            ),
        )
    with pytest.raises(ValueError):
        block_local(
            B,
            CutContext(
                (
                    Action("a", "load", "x", (0,), "context"),
                    Action("b", "store", "x", (1,), "context"),
                ),
                S=frozenset({("a", "b")}),  # not an LL/SC pair
            ),
        )
    with pytest.raises(ValueError, match="used both atomically and non"):
        block_local(
            B, CutContext((Action("a", "store_NA", "x", (0,), "context"),))
        )  # the block accesses x atomically
    with pytest.raises(ValueError, match="'b0' is the id of a block action"):
        block_local(
            B, CutContext((Action("b0", "load", "x", (0,), "context"),))
        )


def test_a_live_in_local_ranges_over_the_blocks_literals():
    # verify and instance start st(x,l); m := l == 2 at l = 2, as 2 is in
    # the domain; block_local has the same setup
    B = lang.parse_block("st(x,l); m := l == 2")
    starts = {X.by_id()[CALL].vals for X in block_local(B, CutContext(()))}
    assert starts == {(0, 0), (1, 0), (2, 0)}


def test_a_duplicate_context_action_id_is_rejected():
    # two actions named a would each be read and written as the other
    B = lang.parse_block("l := ld(x)")
    ctx = CutContext((Action("a", "store", "x", (1,), "context"),
                      Action("a", "store", "x", (0,), "context")))
    with pytest.raises(ValueError, match="id 'a' is used twice"):
        block_local(B, ctx)
    with pytest.raises(ValueError, match="id 'a' is used twice"):
        check_q_instance(B, B, ctx)


def test_a_context_may_use_locations_the_block_does_not():
    # forced_read.ctx writes f next to blocks that never touch it
    B = lang.parse_block("st(x,l)")
    ctx = CutContext((Action("a", "load", "y", (0,), "context"),
                      Action("b", "store_NA", "z", (1,), "context")))
    assert block_local(B, ctx)


@pytest.mark.parametrize("kinds,blocks", [
    (("store", "load_NA"), ()),  # the context alone
    (("load",), ("ldna(x)",)),
    ((), ("ld(x)", "stna(x,1)")),  # the blocks alone
    (("LL", "SC"), ("skip", "l := ldna(x)")),
])
def test_no_location_is_used_both_atomically_and_non_atomically(kinds,
                                                                blocks):
    acts = tuple(Action(f"a{i}", k, "x", (0,), "context")
                 for i, k in enumerate(kinds))
    S = frozenset({("a0", "a1")}) if kinds == ("LL", "SC") else frozenset()
    with pytest.raises(ValueError, match="global 'x' used both atomically"
                                         " and non-atomically"):
        check_context(CutContext(acts, S=S),
                      [lang.parse_block(b) for b in blocks], [])


def test_downclosure_of_a_three_action_chain_has_four_prefixes():
    acts = tuple(
        Action(i, "store", "x", (1,), "code") for i in ("a", "b", "c")
    )
    sb = frozenset({("a", "b"), ("b", "c"), ("a", "c")})
    from stellite.axiomatic import Execution

    X = Execution(
        actions=acts,
        sb=sb,
        at=frozenset(),
        rf=frozenset(),
        mo=frozenset({("a", "b"), ("b", "c"), ("a", "c")}),
        hb=derive_hb(acts, sb, frozenset()),
    )
    dc = downclosure(X)
    assert len(dc) == 4
    assert X in dc
    sizes = sorted(len(Y.actions) for Y in dc)
    assert sizes == [0, 1, 2, 3]


def test_downclosure_closes_over_every_reads_from_edge():
    # a valid execution has each non-atomic rf edge in hb (RFHBNA); this
    # one does not, and its read still needs its source in a prefix
    from stellite.axiomatic import Execution

    w = Action("w", "store_NA", "x", (1,), "code")
    r = Action("r", "load_NA", "x", (1,), "code")
    none = frozenset()
    X = Execution((w, r), none, none, frozenset({("w", "r")}), none, none)
    assert {tuple(a.aid for a in Y.actions) for Y in downclosure(X)} == {
        (), ("w",), ("w", "r")}


def test_downclosure_members_are_predecessor_closed():
    for X in single_load_instance_execs():
        for Y in downclosure(X):
            keep = {a.aid for a in Y.actions}
            for (u, v) in set(X.hb) | set(X.rf):
                if v in keep:
                    assert u in keep
        assert X in downclosure(X)


# ---------------------------------------------------------------------------
# block_classes completes each value-free skeleton once per Skeletons
# table; the slow path it replaces completes each pre-execution under the
# context with rf_classes


def _table_matches_rf_classes(B1, B2, values, contexts):
    """For each of the contexts, each block and each pre-execution p of
    it, block_classes through one Skeletons table for them all gives the
    classes that rf_classes(_under(p, ctx), pruner) gives, in order, with
    no pruner, the plain one and the one with orbits; returns the
    classes compared, the pre-executions looked up and the table."""
    table, n, looked = Skeletons(), 0, 0
    _, _, _, pres = setup((B1, B2), values)
    ps = [p for block in pres for sigma_pres in block for p in sigma_pres]
    for ctx in contexts:
        for orbits in (None, False, True):
            # the pruner before is freed first, and a new one often takes
            # its address: a table keyed by a pruner's identity fails
            pruner = None
            if orbits is not None:
                pruner = CutPruner(ctx.actions, ctx.S, orbits=orbits)
            for p in ps:
                pre = _under(p, ctx)
                fast = [(q, c.rf, c.rows, c.mo_choices)
                        for q, c in block_classes([p], ctx, pruner, table)]
                assert fast == [(pre, *c) for c in rf_classes(pre, pruner)], \
                    (p, ctx, pruner and pruner.key)
                n += len(fast)
                looked += 1
    return n, looked, table


@pytest.mark.parametrize("nvalues", [2, 3], ids=["V=2", "V=3"])
def test_skeleton_table_matches_rf_classes_on_the_corpus(nvalues):
    # every SUITE row under every context its check reaches
    values = frozenset(range(nvalues))
    compared = looked = completed = 0
    for fname, _ in SUITE:
        B2, B1 = lang.parse_transformation((CORPUS / fname).read_text())
        budget = context_bound(B1, B2, values)
        reached = check_cut_refinement(B1, B2, budget).stats["contexts"]
        n, m, table = _table_matches_rf_classes(
            B1, B2, budget.values,
            itertools.islice(enumerate_contexts(B1, B2, budget), reached))
        compared += n
        looked += m
        completed += table.completed
    assert compared > 5_000
    # far fewer skeletons than pre-executions under a context: 598 for
    # 4,941 at V=2, 648 for 25,092 at V=3
    assert completed * 4 < looked


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([
    "l := ld(x)", "st(x, l)", "st(x, 2)", "st(y, 1)", "fc",
    "a := LL(x); s := SC(x, a)", "k := 2; a := LL(y); s := SC(y, k)",
    "if (l) { st(y, l) }", "n := l == 2; if (n) { m := ld(y) } else { fc }",
]), min_size=1, max_size=2).map("; ".join), st.sampled_from([
    "skip", "fc", "st(x, 1)", "m := ld(x)"]))
def test_skeleton_table_matches_rf_classes_on_random_blocks(b1, extra):
    # the block and the block with one more statement, under the
    # contexts of at most three actions
    B1 = lang.parse_block(b1)
    B2 = lang.parse_block(f"{b1}; {extra}")
    budget = context_bound(B1, B2)
    contexts = itertools.takewhile(lambda ctx: len(ctx.actions) <= 3,
                                   enumerate_contexts(B1, B2, budget))
    _table_matches_rf_classes(B1, B2, budget.values, contexts)
