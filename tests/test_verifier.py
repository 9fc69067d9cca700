"""Context bounds, context enumeration and the refinement checks."""

import dataclasses

import pytest

from stellite import lang
from stellite.blocklocal import CutContext, block_local
from stellite.cut import cut
from stellite.verifier import (
    Budget,
    check_cut_refinement,
    check_q_instance,
    context_bound,
    enumerate_contexts,
)

from oracles import forced_read_instance, single_load_instance


# ---------------------------------------------------------------------------
# derived context bounds


def test_bound_for_a_double_store_block():
    b = context_bound(lang.parse_block("st(x,l); st(x,l)"),
                      lang.parse_block("st(x,l)"))
    assert b.reads["x"] == 2
    assert b.vis_writes["x"] == 0
    assert b.nonvis_writes["x"] == 3


def test_bound_for_the_empty_block_has_no_locations():
    b = context_bound(lang.parse_block("skip"), lang.parse_block("skip"))
    assert b.locations == []


def test_bound_for_a_single_load_block():
    b = context_bound(lang.parse_block("l := ld(x)"),
                      lang.parse_block("skip"))
    assert b.reads["x"] == 0
    assert b.vis_writes["x"] == 1
    assert b.nonvis_writes["x"] == 2


def _count_cut_executions(B, ctx, values=frozenset({0, 1})):
    n = 0
    for X in block_local(B, ctx, values=values, check_vs=False):
        if cut(X):
            n += 1
    return n


@pytest.mark.parametrize(
    "b1,b2", [("st(x,l)", "skip"), ("l := ld(x)", "skip")]
)
def test_no_cut_shapes_exist_one_step_over_the_bound(b1, b2):
    # cap+1 oracle: raising either per-location cap by one adds no context
    # under which a cut-passing execution of the block exists
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    base = context_bound(B1, B2)
    big = Budget(
        reads={k: v + 1 for k, v in base.reads.items()},
        vis_writes=dict(base.vis_writes),
        nonvis_writes={k: v + 1 for k, v in base.nonvis_writes.items()},
        values=base.values,
    )
    for ctx in enumerate_contexts(B1, B2, big):
        over = False
        for loc in {a.gvar for a in ctx.actions}:
            nr = sum(
                1 for a in ctx.actions
                if a.gvar == loc and a.kind in ("load", "LL")
            )
            nw = sum(
                1 for a in ctx.actions
                if a.gvar == loc and a.kind in ("store", "SC")
            )
            if nr > base.reads.get(loc, 0) or nw > base.writes(loc):
                over = True
        if not over:
            continue
        assert _count_cut_executions(B1, ctx) == 0, ctx


# ---------------------------------------------------------------------------
# context enumeration


def test_zero_budget_yields_exactly_the_empty_context():
    ctxs = enumerate_contexts(lang.parse_block("skip"),
                              lang.parse_block("skip"))
    assert len(ctxs) == 1 and ctxs[0].actions == ()


def test_single_read_budget_yields_one_load_per_value():
    B = lang.parse_block("st(x,l)")
    budget = Budget(reads={"x": 1}, vis_writes={}, nonvis_writes={})
    ctxs = enumerate_contexts(B, B, budget)
    sigs = sorted(
        tuple((a.kind, a.gvar, a.vals) for a in c.actions) for c in ctxs
    )
    assert sigs == [
        (),
        (("load", "x", (0,)),),
        (("load", "x", (1,)),),
    ]


def test_wide_value_domain_generates_the_wide_load_context():
    B1 = lang.parse_block("st(x,11); st(x,11)")
    B2 = lang.parse_block("st(x,11)")
    values = frozenset({0, 1, 11})
    ctxs = enumerate_contexts(B1, B2, context_bound(B1, B2, values))
    assert any(
        len(c.actions) == 1
        and c.actions[0].kind == "load"
        and c.actions[0].vals == (11,)
        for c in ctxs
    )


def test_fence_location_contexts_are_whole_fences():
    B = lang.parse_block("fc")
    for c in enumerate_contexts(B, B):
        fen = [a for a in c.actions if a.gvar == lang.FENCE_VAR]
        paired = {i for p in c.S for i in p}
        assert all(a.kind in ("LL", "SC") and a.aid in paired for a in fen)


# ---------------------------------------------------------------------------
# the finite refinement check


@pytest.mark.parametrize("block", ["st(x,l)", "l := ld(x)", "fc", "skip"])
def test_refinement_is_reflexive(block):
    assert check_cut_refinement(block, block).outcome == "Verified"


DETERMINISM_ROWS = [
    ("fc", "skip", "Verified"),
    ("skip", "fc", "Verified"),
    ("ld(x)", "skip", "Verified"),
    ("l := ld(x)", "skip", "Refuted"),
    ("skip", "l := ld(x)", "Refuted"),
]


@pytest.mark.parametrize("b1,b2,want", DETERMINISM_ROWS)
def test_verdicts_are_independent_of_enumeration_order(b1, b2, want):
    asc = check_cut_refinement(b1, b2, order="asc")
    desc = check_cut_refinement(b1, b2, order="desc")
    assert asc.outcome == want
    assert desc.outcome == want


@pytest.mark.parametrize(
    "b1,b2",
    [("l := ld(x)", "skip"), ("skip", "l := ld(x)"),
     ("st(x,l); st(y,m)", "st(y,m); st(x,l)")],
)
def test_enlarging_the_budget_never_flips_refuted_to_verified(b1, b2):
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    base = context_bound(B1, B2)
    assert check_cut_refinement(B1, B2, base).outcome == "Refuted"
    bigger = Budget(
        reads={k: v + 1 for k, v in base.reads.items()},
        vis_writes=dict(base.vis_writes),
        nonvis_writes={k: v + 1 for k, v in base.nonvis_writes.items()},
        values=base.values,
    )
    assert check_cut_refinement(B1, B2, bigger).outcome == "Refuted"


@pytest.mark.parametrize(
    "b1,b2", [("fc", "skip"), ("skip", "fc"), ("ld(x)", "skip")]
)
def test_verified_rows_are_stable_under_a_wider_value_domain(b1, b2):
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    values = frozenset({0, 1, 2})
    budget = context_bound(B1, B2, values)
    assert check_cut_refinement(B1, B2, budget).outcome == "Verified"


def test_overflowing_the_execution_budget_reports_unknown():
    B1 = lang.parse_block("l := ld(x)")
    B2 = lang.parse_block("l := ld(x)")
    budget = context_bound(B1, B2)
    budget = dataclasses.replace(budget, max_block_execs=0)
    v = check_cut_refinement(B1, B2, budget)
    assert v.outcome == "Unknown"
    assert "error" in v.stats


def test_the_execution_budget_caps_cut_survivors_on_the_b1_side():
    B1, B2 = lang.parse_block("ld(x)"), lang.parse_block("skip")
    budget = context_bound(B1, B2)
    ctxs = enumerate_contexts(B1, B2, budget)

    def peak(B, cut_only):
        return max(len(block_local(B, c, check_vs=False, cut_only=cut_only))
                   for c in ctxs)

    survivors = peak(B1, True)
    # B1's unfiltered executions would overflow a cap its survivors fit
    assert peak(B2, False) <= survivors < peak(B1, False)
    within = dataclasses.replace(budget, max_block_execs=survivors)
    assert check_cut_refinement(B1, B2, within).outcome == "Verified"
    below = dataclasses.replace(budget, max_block_execs=survivors - 1)
    assert check_cut_refinement(B1, B2, below).outcome == "Unknown"


def test_refutation_witnesses_pass_the_filter_and_lack_a_match():
    from stellite.history import hist_ext, refines_ext

    v = check_cut_refinement("l := ld(x)", "skip")
    assert v.outcome == "Refuted" and v.witness is not None
    w = v.witness
    assert cut(w.execution)
    e1 = hist_ext(w.execution)
    assert not any(refines_ext(e1, e2) for e2 in w.candidates)


# ---------------------------------------------------------------------------
# explicit context instances


def test_instance_check_is_reflexive_at_the_empty_context():
    assert check_q_instance("st(x,l)", "st(x,l)", CutContext(()))


def test_single_load_instance_accepts_the_collapsed_store():
    B, ctx = single_load_instance()
    assert check_q_instance(
        "st(x,11)", "st(x,11); st(x,11)", ctx, values=frozenset({0, 1})
    )


def test_forced_read_instance_is_reflexively_accepted():
    B, ctx = forced_read_instance()
    assert check_q_instance(B, B, ctx, values=frozenset({0, 1, 2}))


def test_nonatomic_reorder_instance_holds_via_unsafe_prefixes():
    from stellite.axiomatic import Action

    ctx = CutContext(
        (
            Action("a1", "store_NA", "x", (1,), "context"),
            Action("a2", "store", "y", (1,), "context"),
        ),
        frozenset({("a1", "a2")}),
        frozenset(),
    )
    B1 = "l1 := ldna(x); l3 := ldna(x); l2 := ld(y)"
    B2 = "l1 := ldna(x); l2 := ld(y); l3 := ldna(x)"
    assert check_q_instance(B1, B2, ctx, mode="NA")
