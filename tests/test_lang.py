"""Surface syntax, thread-local semantics and static queries."""

import pytest
from hypothesis import example, given, settings, strategies as st

from stellite import lang
from stellite.lang import (
    Assign,
    FenceStmt,
    HoleStmt,
    IfStmt,
    LLStmt,
    ParseError,
    Program,
    SCStmt,
    StoreStmt,
)

from oracles import _oracle_at


def pre_executions(text, sigma=None, values=frozenset({0, 1})):
    """The (actions, sb, sigma') of each pre-execution of the block text."""
    B = lang.parse_block(text)
    sg = {l: 0 for l in lang.locals_of(B)}
    sg.update(sigma or {})
    return [(pre.actions, pre.sb, sg2)
            for pre, sg2 in lang.thread_local_block(B, sg, values)]


# ---------------------------------------------------------------------------
# parsing


def test_parse_store_and_unparse_round_trip():
    B = lang.parse_block("st(x, l); m := ld(y)")
    assert lang.unparse_block(B) == "st(x, l); m := ld(y)"
    assert lang.parse_block(lang.unparse_block(B)) == B


def test_parse_transformation_splits_original_and_replacement():
    B2, B1 = lang.parse_transformation("st(x,l) ~> st(x,l); st(x,l)")
    assert lang.unparse_block(B2) == "st(x, l)"
    assert lang.unparse_block(B1) == "st(x, l); st(x, l)"


def test_skip_is_the_empty_block():
    assert lang.parse_block("skip") == ()
    assert pre_executions("skip") == [((), frozenset(), {})]


def test_statements_compare_and_hash_by_type():
    assert FenceStmt() != HoleStmt() and not FenceStmt() == HoleStmt()
    assert FenceStmt() != () and () != FenceStmt()
    assert LLStmt("a", "x") != ("a", "x") and ("a", "x") != LLStmt("a", "x")
    assert Program(((),)) != lang.CodeRegion(((),))
    assert IfStmt("c", (FenceStmt(),), ()) != IfStmt("c", (HoleStmt(),), ())
    assert len({FenceStmt(), HoleStmt()}) == 2
    text = "a := LL(x); fc; if (a) { st(x, 1) } else { b := SC(x, a) }"
    B, again = lang.parse_block(text), lang.parse_block(text)
    assert B is not again
    for s, t in zip(B, again, strict=True):
        assert s == t and not s != t and hash(s) == hash(t)
    assert B == again and hash(B) == hash(again)
    assert B[1] == FenceStmt() and hash(B[1]) == hash(FenceStmt())


def test_sc_without_preceding_ll_is_rejected():
    with pytest.raises(ParseError):
        lang.parse_block("m := SC(x, l)")


@pytest.mark.parametrize("text, pos", [
    ("a := LL(x); b := SC(x, 2)", 23),
    ("a := LL(x); b := SC(x, ;)", 23),
    ("if (1) { st(x,1) }", 4),
    ("if (;) { st(x,1) }", 4),
    ("a := LL(x); b := SC(x,", "end of input"),
    ("if (", "end of input"),
])
def test_sc_source_and_if_condition_must_be_locals(text, pos):
    with pytest.raises(ParseError, match=f"expected local at {pos}"):
        lang.parse_block(text)


def test_fence_variable_is_reserved_in_source():
    with pytest.raises(ParseError):
        lang.parse_block("st(fen, l)")


def test_global_cannot_mix_atomic_and_nonatomic_access():
    with pytest.raises(ParseError):
        lang.parse_block("st(x,l); ldna(x)")
    with pytest.raises(ParseError):
        lang.parse_transformation("st(x,l) ~> stna(x,l)")


def test_trailing_input_is_rejected_by_every_entry_point():
    for parse, text in ((lang.parse_block, "st(x,1) )"),
                        (lang.parse_program, "st(x,1) ||| ld(x) )"),
                        (lang.parse_transformation, "st(x,1) ~> ld(x) )")):
        with pytest.raises(ParseError, match="trailing input"):
            parse(text)


def test_at_most_one_hole_and_none_in_blocks():
    with pytest.raises(ParseError):
        lang.parse_program("{-} ||| {-}")
    with pytest.raises(ParseError):
        lang.parse_block("{-}")
    prog = lang.parse_program("{-} ||| l := ld(x)")
    assert len(lang.threads_of(prog)) == 2


# ---------------------------------------------------------------------------
# thread-local semantics


def test_store_emits_current_local_value_and_keeps_sigma():
    [(acts, sb, sigma2)] = pre_executions("st(x, l)", {"l": 1})
    assert len(acts) == 1
    assert (acts[0].kind, acts[0].gvar, acts[0].vals) == ("store", "x", (1,))
    assert sigma2 == {"l": 1}


def test_load_updates_local_and_value_ranges_over_domain():
    res = pre_executions("l := ld(x)")
    assert sorted(sg["l"] for (_, _, sg) in res) == [0, 1]
    for (acts, _, sg) in res:
        assert acts[0].kind == "load" and acts[0].vals == (sg["l"],)


def test_bare_load_touches_no_local():
    res = pre_executions("ld(x)")
    assert len(res) == 2
    for (acts, _, sg) in res:
        assert sg == {} and acts[0].kind == "load"
    assert lang.locals_of(lang.parse_block("ld(x)")) == ()


def test_fence_is_a_paired_ll_sc_on_the_reserved_global():
    res = pre_executions("fc")
    assert len(res) >= 1
    for (acts, sb, _) in res:
        kinds = [a.kind for a in acts]
        assert kinds in (["LL", "SC"], ["LL", "SC_f"])
        assert all(a.gvar == lang.FENCE_VAR for a in acts)
        assert (acts[0].aid, acts[1].aid) in sb


def test_assignment_evaluates_literals_and_comparisons():
    [(acts, _, sg)] = pre_executions("l := 5; m := l == 5", values={0, 1, 5})
    assert acts == ()
    assert sg == {"l": 5, "m": 1}


def test_if_takes_then_branch_on_any_nonzero_value():
    [(acts, _, _)] = pre_executions(
        "if (l) { st(x,1) } else { st(y,1) }", {"l": 2}, values={0, 1, 2}
    )
    assert acts[0].gvar == "x"
    [(acts, _, _)] = pre_executions(
        "if (l) { st(x,1) } else { st(y,1) }", {"l": 0}
    )
    assert acts[0].gvar == "y"


def test_fence_pairs_its_ll_and_sc_in_at():
    [(pre, _)] = lang.thread_local_block(lang.parse_block("fc; fc"), {},
                                         {0, 1})
    assert pre.at == {("b0", "b1"), ("b2", "b3")}


def test_pre_execution_count_lower_bound_for_global_reads():
    # n value-free reads over k values give at least k^n pre-executions
    assert len(pre_executions("ld(x); ld(x)")) >= 4
    assert len(pre_executions("ld(x); ld(y); ld(x)", values={0, 1, 2})) >= 27


# ---------------------------------------------------------------------------
# static queries


def test_vars_and_locals_and_literals():
    B = lang.parse_block("l := ld(x); st(y, l); m := 5")
    assert lang.vars_of(B) == frozenset({"x", "y"})
    assert lang.locals_of(B) == ("l", "m")
    assert 5 in lang.literals_of(B)
    assert lang.na_vars_of(lang.parse_block("stna(z, l)")) == frozenset({"z"})


def test_live_in_is_read_before_written():
    assert "l" in lang.live_in(lang.parse_block("st(x, l)"))
    assert "l" not in lang.live_in(lang.parse_block("l := ld(x); st(y, l)"))


@pytest.mark.parametrize("text,block,fixed", [
    ("st(x,l)", None, {0}),
    ("l := ld(x); if (l) { st(y,l) }", None, {0}),
    ("st(x,2); st(x,5); ld(x)", None, {0, 2, 5}),
    ("m := l != k", None, {0, 1}),
    ("fc", None, {0}),
    ("if (c) { a := LL(x); s := SC(x, a) }", None, {0, 1}),
    # an == in a code region, and a literal in another thread
    ("a := ld(y); if (a) { {-} } ||| st(y, 3)", "k := l == m", {0, 1, 3}),
])
def test_the_fixed_values_are_zero_the_literals_and_a_made_one(text, block,
                                                                fixed):
    p = lang.parse_program(text)
    if block is not None:
        p = lang.substitute(p, lang.parse_block(block))
    assert lang.fixed_values(p) == fixed


# (program, block substituted into its hole or None,
#  locals_of, live_in, literals_of, vars_of)
WALKER_CASES = [
    # the branches write different locals, so both stay live after the if
    ("if (c) { l := 1 } else { m := 1 }; st(x, l); st(y, m)", None,
     ("c", "l", "m"), {"c", "l", "m"}, {1}, {"x", "y"}),
    ("if (c) { l := 1 } else { l := 2 }; st(x, l)", None,
     ("c", "l"), {"c"}, {1, 2}, {"x"}),
    ("l := m == 3; k := 4 != m", None, ("k", "l", "m"), {"m"}, {3, 4}, set()),
    ("l := LL(x); m := SC(x, k)", None, ("k", "l", "m"), {"k"}, set(), {"x"}),
    # the block sits in a code region inside the if
    ("a := ld(y); if (a) { {-} } ||| st(y, 1)",
     "l := ld(x); st(z, l); k := l != 7",
     ("a", "k", "l"), set(), {1, 7}, {"x", "y", "z"}),
]


@pytest.mark.parametrize("text, block, locs, live, lits, gvars", WALKER_CASES)
def test_static_queries_see_nested_statements(text, block, locs, live, lits,
                                              gvars):
    p = lang.parse_program(text)
    if block is not None:
        p = lang.substitute(p, lang.parse_block(block))
        assert isinstance(p.threads[0][1].then[0], lang.CodeRegion)
    assert lang.locals_of(p) == locs
    assert lang.live_in(p) == live
    assert lang.literals_of(p) == lits
    assert lang.vars_of(p) == gvars


def test_substitute_fills_the_hole_and_round_trips():
    ctx = lang.parse_program("st(y,1); {-} ||| ld(y)")
    filled = lang.substitute(ctx, lang.parse_block("st(x,1)"))
    text = lang.unparse(filled)
    assert "st(x, 1)" in text
    reparsed = lang.parse_program(text)
    assert lang.vars_of(reparsed) == frozenset({"x", "y"})


# ---------------------------------------------------------------------------
# structural properties over generated blocks

_stmt = st.sampled_from(
    [
        "st(x,l)",
        "st(y,m)",
        "l := ld(x)",
        "m := ld(y)",
        "ld(x)",
        "fc",
        "l := 1",
    ]
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_stmt, min_size=0, max_size=4))
def test_pre_execution_ids_unique_and_sb_total_order(stmts):
    text = "; ".join(stmts) or "skip"
    for (acts, sb, _) in pre_executions(text):
        ids = [a.aid for a in acts]
        assert len(ids) == len(set(ids))
        assert all(u != v for (u, v) in sb)
        # transitive
        for (a, b) in sb:
            for (c, d) in sb:
                if b == c:
                    assert (a, d) in sb
        # total over the block's actions
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                assert (u, v) in sb or (v, u) in sb


@settings(max_examples=40, deadline=None)
@given(st.lists(_stmt, min_size=0, max_size=4))
def test_unparse_parse_round_trip(stmts):
    text = "; ".join(stmts) or "skip"
    B = lang.parse_block(text)
    assert lang.parse_block(lang.unparse_block(B)) == B


# ---------------------------------------------------------------------------
# at, paired as the trace is built, against the independent pairing of
# the oracle over the finished actions and sb

_LOCAL = st.sampled_from("ab")
_LOC = st.sampled_from("xy")
_LLSC_STMT = st.one_of(
    st.builds(LLStmt, _LOCAL, _LOC),
    st.builds(SCStmt, _LOCAL, _LOC, _LOCAL),
    st.builds(StoreStmt, _LOC, st.just(("var", "a"))),
    st.builds(Assign, _LOCAL, st.sampled_from([("lit", 0), ("lit", 1)])),
    st.just(FenceStmt()),
)
# blocks of LL/SC on two locations, repeated LLs among them, fences and
# if/else on a local; the SCs need no preceding LL
_LLSC_BLOCK = st.recursive(
    st.lists(_LLSC_STMT, max_size=4).map(tuple),
    lambda block: st.lists(
        st.one_of(_LLSC_STMT, st.builds(IfStmt, _LOCAL, block, block)),
        max_size=4).map(tuple),
    max_leaves=8)


def _assert_at_is_the_oracle(stmts):
    for pre, _ in lang.thread_local_block(stmts, {}, {0, 1}):
        assert pre.at == _oracle_at(pre.actions, pre.sb), pre


@settings(max_examples=150, deadline=None)
@given(_LLSC_BLOCK)
# the latest LL of x, not the first; and each location its own LL
@example((LLStmt("a", "x"), LLStmt("b", "x"), SCStmt("a", "x", "b")))
@example((LLStmt("a", "x"), LLStmt("b", "y"), SCStmt("a", "x", "b")))
def test_thread_local_at_is_the_oracle_pairing(stmts):
    _assert_at_is_the_oracle(stmts)


@settings(max_examples=60, deadline=None)
@given(_LLSC_BLOCK, _LLSC_BLOCK, _LLSC_BLOCK,
       st.sampled_from([(HoleStmt(),), (IfStmt("a", (HoleStmt(),), ()),)]))
def test_thread_local_at_is_the_oracle_pairing_around_a_code_region(
        before, block, after, hole):
    p = lang.substitute(Program((before + hole + after,)), block)
    _assert_at_is_the_oracle(p.threads[0])


# every access form op(global[, arg]) goes through one parser rule; each
# malformed access keeps its own message, word for word
@pytest.mark.parametrize("text,message", [
    ("st(x", "expected ',' at end of input"),
    ("st(x 1)", "expected ',' at 5, found '1'"),
    ("st(x,", "expected value or local at end of input"),
    ("st(x,1;", "expected ')' at 6, found ';'"),
    ("st(1,1)", "expected global name at 3, found '1'"),
    ("stna(x)", "expected ',' at 6, found ')'"),
    ("ld x", "expected '(' at 3, found 'x'"),
    ("ld(x,1)", "expected ')' at 4, found ','"),
    ("ldna(1)", "expected global name at 5, found '1'"),
    ("l := ld", "expected '(' at end of input"),
    ("l := ldna(x,", "expected ')' at 11, found ','"),
    ("l := LL(x,l)", "expected ')' at 9, found ','"),
    ("l := LL(fen)", "'fen' is reserved for fences"),
    ("m := SC(x)", "expected ',' at 9, found ')'"),
    ("m := SC(x,2)", "expected local at 10, found '2'"),
    ("m := SC(x,l", "expected ')' at end of input"),
])
def test_each_malformed_access_keeps_its_message(text, message):
    with pytest.raises(ParseError) as exc:
        lang.parse_block(text)
    assert str(exc.value) == message
