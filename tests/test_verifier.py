"""Context bounds, context enumeration and the refinement checks."""

import dataclasses
import itertools
import math
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stellite import history, lang, verifier
from stellite.axiomatic import (Action, EnumConfig, is_read, is_write,
                                obs_refines_pr)
from stellite.cli import parse_context_file
from stellite.blocklocal import (
    CutContext,
    block_classes,
    block_local,
    executions,
    pre_executions,
    setup,
    sigma_space,
)
from stellite.cut import CutPruner, cut, fits, room, room_needed
from stellite.history import hist_ext, refines
from stellite.verifier import (
    Budget,
    check_cut_refinement,
    check_q_instance,
    context_bound,
    enumerate_contexts,
)

from oracles import (
    brute_force_signatures,
    cut_survivors,
    forced_read_instance,
    single_load_instance,
    survivors,
)
from test_acceptance import SUITE
from test_cut import _PAIR_ROWS, _SUITE_TEXTS

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# derived context bounds


def test_bound_for_a_double_store_block():
    b = context_bound(lang.parse_block("st(x,l); st(x,l)"),
                      lang.parse_block("st(x,l)"))
    assert b.reads["x"] == 2
    assert b.writes["x"] == 3


def test_bound_for_the_empty_block_has_no_locations():
    b = context_bound(lang.parse_block("skip"), lang.parse_block("skip"))
    assert b.locations == []


def test_bound_for_a_single_load_block():
    b = context_bound(lang.parse_block("l := ld(x)"),
                      lang.parse_block("skip"))
    assert b.reads["x"] == 0
    assert b.writes["x"] == 3


def _own_code_counts(B, values):
    """The most code reads and writes of each location in one run of B,
    over B's own initial local maps, as context_bound once counted."""
    reads, writes = {}, {}
    for sigma in sigma_space(lang.locals_of(B), lang.live_in(B), values):
        for (pre, _) in lang.thread_local_block(B, sigma, values):
            for caps, test in ((reads, is_read), (writes, is_write)):
                for g, n in Counter(
                        a.gvar for a in pre.actions if test(a)).items():
                    caps[g] = max(caps.get(g, 0), n)
    return reads, writes


@pytest.mark.parametrize("row", [
    *(f.name for f in sorted(CORPUS.glob("*.tr"))),
    "if (l) { st(x,l); st(x,l) } ~> l := ld(x); if (l) { ld(y) }",
    "a := LL(x); m := SC(x,l); if (m) { st(y,l) } ~> a := LL(x); st(y,a)",
])
def test_the_pair_counts_each_block_as_its_own_initial_maps_do(row):
    # the pair's initial maps also vary locals live only in the other
    # block; those cannot change a block's runs
    text = row if "~>" in row else (CORPUS / row).read_text()
    B2, B1 = lang.parse_transformation(text)
    values, _, _, pres = setup((B1, B2), frozenset({0, 1}))
    for B, pre in zip((B1, B2), pres):
        assert verifier._code_counts(pre) == _own_code_counts(B, values)


def _over_the_caps(ctx, budget):
    """Does ctx hold more reads, writes or LL/SC pairs at some location
    than the budget allows?"""
    for loc in {a.gvar for a in ctx.actions}:
        nr = sum(
            1 for a in ctx.actions
            if a.gvar == loc and a.kind in ("load", "LL")
        )
        nw = sum(
            1 for a in ctx.actions
            if a.gvar == loc and a.kind in ("store", "SC")
        )
        npairs = sum(1 for (ll, _) in ctx.S if ll.startswith(f"{loc}."))
        if (nr > budget.reads.get(loc, 0) or nw > budget.writes.get(loc, 0)
                or (loc != lang.FENCE_VAR
                    and npairs > budget.pairs.get(loc, 0))):
            return True
    return False


@pytest.mark.parametrize(
    "b1,b2", [("st(x,l)", "skip"), ("l := ld(x)", "skip"),
              ("l := ld(x)", "l := ld(x); st(x,l)")]
)
def test_no_cut_shapes_exist_one_step_over_the_bound(b1, b2):
    # cap+1 oracle: raising the per-location caps by one adds no context
    # under which a cut-passing execution of the block exists
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    base = context_bound(B1, B2)
    big = Budget(
        reads={k: v + 1 for k, v in base.reads.items()},
        writes={k: v + 1 for k, v in base.writes.items()},
        pairs={k: v + 1 for k, v in base.pairs.items()},
        values=base.values,
    )
    for ctx in enumerate_contexts(B1, B2, big):
        if _over_the_caps(ctx, base):
            # the fused filter, tested against filter(cut, ...) in
            # test_cut.py; unfiltered, seven writes at x take minutes
            assert not cut_survivors(B1, ctx), ctx


def test_data_location_pairs_are_enumerated_within_the_caps():
    B1 = lang.parse_block("l := ld(x)")
    B2 = lang.parse_block("l := ld(x); st(x,l)")
    budget = context_bound(B1, B2)
    # B2 writes x and B1 reads it: one pair for B1's one read of x
    assert budget.pairs == {"x": 1}
    ctxs = list(enumerate_contexts(B1, B2, budget))
    assert not any(_over_the_caps(c, budget) for c in ctxs)
    # one lone pair per (LL value, SC value)
    lone = {tuple(a.vals[0] for a in c.actions)
            for c in ctxs if c.S and len(c.actions) == 2}
    assert lone == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for c in ctxs:
        byid = {a.aid: a for a in c.actions}
        for (ll, sc) in c.S:
            assert (byid[ll].kind, byid[sc].kind) == ("LL", "SC")
            assert byid[ll].gvar == byid[sc].gvar == "x"
    # no pairs where the original block does not write or the new block
    # does not read; wherever the new block reads, in the wide bound
    for (b1, b2) in [("l := ld(x)", "skip"), ("st(x,l)", "st(x,l)"),
                     ("l := ld(x); l := ld(x)", "l := ld(x)")]:
        P1, P2 = lang.parse_block(b1), lang.parse_block(b2)
        assert context_bound(P1, P2).pairs == {}
        assert all(not c.S for c in enumerate_contexts(P1, P2))
    wide = _pairs_everywhere(
        lang.parse_block("l := ld(x); m := ld(x); st(y,l)"),
        lang.parse_block("skip"))
    assert wide.pairs == {"x": 2}
    # a pair cap above the read or write cap is cut down to it, and the
    # empty context stays
    tight = Budget(reads={"x": 0}, writes={"x": 1}, pairs={"x": 1})
    ctxs = list(enumerate_contexts(B1, B2, tight))
    assert ctxs[0].actions == ()
    assert {a.kind for c in ctxs for a in c.actions} == {"store"}


# ---------------------------------------------------------------------------
# context enumeration


def test_zero_budget_yields_exactly_the_empty_context():
    ctxs = list(enumerate_contexts(lang.parse_block("skip"),
                                   lang.parse_block("skip")))
    assert len(ctxs) == 1 and ctxs[0].actions == ()


def test_single_read_budget_yields_one_load_per_value():
    B = lang.parse_block("st(x,l)")
    budget = Budget(reads={"x": 1}, writes={})
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
# context shapes (verifier.context_shapes), which the check scans without
# building the contexts that have no room, against the contexts built
# whole: the order of a plain enumeration that builds and sorts every
# context, and room_needed counted over each built context


def _shape_size(shape):
    """The number of actions of a context shape."""
    return sum(p.size for p in shape)


def _plain_contexts(B1, B2, budget):
    """Every context within the budget, each built whole from one choice
    of actions per location, sorted by size and then by its sorted
    (aid, kind, vals)."""
    locs = sorted(set(lang.vars_of(B1)) | set(lang.vars_of(B2))
                  | set(budget.locations))
    vals = sorted(budget.values)
    multisets = itertools.combinations_with_replacement
    per_loc = []
    for x in locs:
        rcap, wcap = budget.reads.get(x, 0), budget.writes.get(x, 0)
        if x == lang.FENCE_VAR:
            choices = [((), (), ((0, 0),) * n)
                       for n in range(min(rcap, wcap) + 1)]
        else:
            pcap = min(budget.pairs.get(x, 0), rcap, wcap)
            choices = [
                (lv, sv, pv)
                for np in range(pcap + 1)
                for nl in range(rcap - pcap + 1)
                for ns in range(wcap - pcap + 1)
                for pv in multisets(itertools.product(vals, repeat=2), np)
                for lv in multisets(vals, nl)
                for sv in multisets(vals, ns)]
        per_loc.append([(x, c) for c in choices])
    ctxs = []
    for combo in itertools.product(*per_loc):
        acts, S = [], set()
        for (x, (lv, sv, pv)) in combo:
            acts += [Action(f"{x}.r{i}", "load", x, (v,), "context")
                     for i, v in enumerate(lv)]
            acts += [Action(f"{x}.w{i}", "store", x, (v,), "context")
                     for i, v in enumerate(sv)]
            for i, (a, b) in enumerate(pv):
                acts += [Action(f"{x}.p{i}l", "LL", x, (a,), "context"),
                         Action(f"{x}.p{i}s", "SC", x, (b,), "context")]
                S.add((f"{x}.p{i}l", f"{x}.p{i}s"))
        ctxs.append(CutContext(tuple(acts), frozenset(), frozenset(S)))
    return sorted(ctxs, key=lambda c: (len(c.actions), sorted(
        (a.aid, a.kind, a.vals) for a in c.actions)))


def _shapes_and_contexts(B1, B2, budget):
    """Each shape of context_shapes with its context built."""
    return [(s, verifier._build_context(s))
            for s in verifier.context_shapes(B1, B2, budget)]


def _assert_shapes_in_plain_order(B1, B2, budget):
    shapes = _shapes_and_contexts(B1, B2, budget)
    assert [c for _, c in shapes] == _plain_contexts(B1, B2, budget)
    assert [_shape_size(s) for s, _ in shapes] == [
        len(c.actions) for _, c in shapes]
    assert list(enumerate_contexts(B1, B2, budget)) == [c for _, c in shapes]
    return len(shapes)


def _assert_shapes_need_what_room_needed_counts(B1, B2, budget):
    shapes = _shapes_and_contexts(B1, B2, budget)
    for s, c in shapes:
        assert verifier._need(s) == room_needed(c.actions, c.S), c
    return sum(bool(verifier._need(s)) for s, _ in shapes)


def _shape_rows(nvalues):
    """Every SUITE row, and at V=2 the two rows whose contexts hold LL/SC
    pairs, with their context_bound at V values."""
    texts = _SUITE_TEXTS + (_PAIR_ROWS if nvalues == 2 else [])
    for text in texts:
        B2, B1 = lang.parse_transformation(text)
        yield B1, B2, context_bound(B1, B2, frozenset(range(nvalues)))


@pytest.mark.parametrize("nvalues", [2, 3], ids=["V=2", "V=3"])
def test_context_shapes_come_in_the_plain_order_on_the_corpus(nvalues):
    assert sum(_assert_shapes_in_plain_order(*row)
               for row in _shape_rows(nvalues)) > 1000


@pytest.mark.parametrize("nvalues", [2, 3], ids=["V=2", "V=3"])
def test_a_shape_needs_what_room_needed_counts_on_the_corpus(nvalues):
    # most contexts of the rows ask a pre-execution for some room
    assert sum(_assert_shapes_need_what_room_needed_counts(*row)
               for row in _shape_rows(nvalues)) > 1000


_SHAPE_STATEMENTS = st.lists(st.sampled_from([
    "l := ld(x)", "st(x, l)", "st(y, 1)", "fc", "a := LL(x); s := SC(x, a)",
    "if (l) { st(y, l) }", "m := ld(y)",
]), min_size=1, max_size=2).map("; ".join)


# the original block is one statement, which keeps the plain enumeration,
# every context built whole, within thousands of contexts
@settings(max_examples=40, deadline=None)
@given(_SHAPE_STATEMENTS, _SHAPE_STATEMENTS.filter(lambda b: ";" not in b))
# pairs at x, fences and two data locations
@example("l := ld(x); fc", "a := LL(x); s := SC(x, a); st(y, 1)")
def test_context_shapes_match_the_built_contexts_on_random_blocks(b1, b2):
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    budget = context_bound(B1, B2)
    _assert_shapes_in_plain_order(B1, B2, budget)
    _assert_shapes_need_what_room_needed_counts(B1, B2, budget)


# ---------------------------------------------------------------------------
# the finite refinement check


@pytest.mark.parametrize("block", ["st(x,l)", "l := ld(x)", "fc", "skip"])
def test_refinement_is_reflexive(block):
    B = lang.parse_block(block)
    assert check_cut_refinement(B, B).outcome == "Verified"


DETERMINISM_ROWS = [
    ("fc", "skip", "Verified"),
    ("skip", "fc", "Verified"),
    ("ld(x)", "skip", "Verified"),
    ("l := ld(x)", "skip", "Refuted"),
    ("skip", "l := ld(x)", "Refuted"),
]


@pytest.mark.parametrize("b1,b2,want", DETERMINISM_ROWS)
def test_verdicts_are_independent_of_enumeration_order(b1, b2, want,
                                                       monkeypatch):
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    forward = check_cut_refinement(B1, B2)
    shapes_all = verifier.context_shapes
    monkeypatch.setattr(verifier, "context_shapes",
                        lambda *args: reversed(list(shapes_all(*args))))
    backward = check_cut_refinement(B1, B2)
    assert forward.outcome == want
    assert backward.outcome == want


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
        writes={k: v + 1 for k, v in base.writes.items()},
        values=base.values,
    )
    assert check_cut_refinement(B1, B2, bigger).outcome == "Refuted"


@pytest.mark.parametrize("lower", [
    lambda b: Budget(reads={}, writes={}, values=b.values),
    lambda b: dataclasses.replace(b, pairs={}),
    lambda b: dataclasses.replace(b, reads={**b.reads, "x": b.reads["x"] - 1}),
    lambda b: dataclasses.replace(b, writes={**b.writes, "x": 0}),
], ids=["no caps", "no pairs", "one read fewer", "no writes"])
def test_a_cap_below_the_derived_one_is_refused(lower):
    # a whole program shows writeback_elim unsound (below); with the
    # lowered caps the check once answered Verified
    B2, B1 = lang.parse_transformation(
        (CORPUS / "writeback_elim.tr").read_text())
    base = context_bound(B1, B2)
    assert base.pairs == {"x": 1}
    with pytest.raises(ValueError, match="context_bound derives"):
        check_cut_refinement(B1, B2, lower(base))


def test_contexts_range_over_the_literals_the_budget_values_lack():
    # the blocks run over the values and their literals; a context that
    # could not hold 3 never loaded y=3, and the check answered Verified
    B2, B1 = lang.parse_transformation(
        "l := ld(x); if (l) { st(y,3) } ~> l := ld(x); st(y,3)")
    base = context_bound(B1, B2)
    assert base.values == {0, 1, 3}
    assert check_cut_refinement(B1, B2, base).outcome == "Refuted"
    narrow = dataclasses.replace(base, values=frozenset({0, 1}))
    assert check_cut_refinement(B1, B2, narrow).outcome == "Refuted"
    assert list(enumerate_contexts(B1, B2, narrow)) == list(
        enumerate_contexts(B1, B2, base))


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
    ctxs = list(enumerate_contexts(B1, B2, budget))

    def peak(B, cut_only):
        return max(len(cut_survivors(B, c) if cut_only
                       else block_local(B, c))
                   for c in ctxs)

    survivors = peak(B1, True)
    # B1's unfiltered executions would overflow a cap its survivors fit
    assert peak(B2, False) <= survivors < peak(B1, False)
    within = dataclasses.replace(budget, max_block_execs=survivors)
    assert check_cut_refinement(B1, B2, within).outcome == "Verified"
    below = dataclasses.replace(budget, max_block_execs=survivors - 1)
    assert check_cut_refinement(B1, B2, below).outcome == "Unknown"


@pytest.mark.parametrize("fname,want", SUITE)
def test_the_execution_cap_gives_the_table_verdict_or_unknown(fname, want):
    # the one budget field that may differ from context_bound's
    B2, B1 = lang.parse_transformation((CORPUS / fname).read_text())
    budget = context_bound(B1, B2)
    for cap in (0, 1, 10, 100):
        capped = dataclasses.replace(budget, max_block_execs=cap)
        assert check_cut_refinement(B1, B2, capped).outcome in (
            want, "Unknown"), cap


def test_the_candidate_list_is_hist_ext_of_every_original_execution():
    # the candidates come from the class masks of the scan; hist_ext
    # builds each one afresh from the execution alone
    for fname, want in SUITE:
        if want != "Refuted":
            continue
        B2, B1 = lang.parse_transformation((CORPUS / fname).read_text())
        budget = context_bound(B1, B2)
        w = check_cut_refinement(B1, B2, budget).witness
        _, locals_order, sigmas, (_, pre2) = setup((B1, B2), budget.values)
        ys = executions(pre2[sigmas.index(w.sigma)], w.context,
                        locals_order)
        assert w.candidates == [hist_ext(Y) for Y in ys], fname


def test_refutation_witnesses_pass_the_filter_and_lack_a_match():
    v = check_cut_refinement(lang.parse_block("l := ld(x)"),
                             lang.parse_block("skip"))
    assert v.outcome == "Refuted" and v.witness is not None
    w = v.witness
    assert cut(w.execution)
    e1 = hist_ext(w.execution)
    assert not any(refines(e1, e2) for e2 in w.candidates)


# ---------------------------------------------------------------------------
# the domination scan against the linear refines scan it replaced

# the rows of the benchmark's verify-generate workload, checked at V=3
GENERATE_ROWS = ["load_after_store_elim.tr", "store_collapse.tr",
                 "load_collapse.tr", "writeback_elim.tr"]


def _linear_scan(B1, B2, budget, computed, pairs=None):
    """check_cut_refinement as a plain scan: both blocks' executions built
    afresh for each context and sigma, and each new-block execution
    compared by refines with the original block's histories with deny,
    computed in order as far as needed. computed collects the executions
    whose histories were computed, in order; pairs, if given, maps each
    (context, sigma) scanned, as _pair keys it, to its (x1_cut, x2,
    passed)."""
    _, locals_order, sigmas, (pre1, pre2) = setup((B1, B2), budget.values)
    stats = {"contexts": 0, "x1_cut": 0, "x2": 0}

    def ext(X):
        computed.append(X)
        return hist_ext(X)

    for ctx in enumerate_contexts(B1, B2, budget):
        stats["contexts"] += 1
        for sigma, ps1, ps2 in zip(sigmas, pre1, pre2):
            x1s = survivors(ps1, ctx, locals_order)
            stats["x1_cut"] += len(x1s)
            x2s = executions(ps2, ctx, locals_order) if x1s else []
            if pairs is not None:
                pairs[_pair(ctx, sigma)] = (len(x1s), len(x2s), True)
            if not x1s:
                continue
            stats["x2"] += len(x2s)
            # the rows compared stay within the execution cap
            assert max(len(x1s), len(x2s)) <= budget.max_block_execs
            h2s = []

            def candidates():
                yield from h2s
                for Y in x2s[len(h2s):]:
                    h2s.append(ext(Y))
                    yield h2s[-1]

            for X in x1s:
                e1 = ext(X)
                if not any(refines(e1, e2) for e2 in candidates()):
                    if pairs is not None:
                        pairs[_pair(ctx, sigma)] = (len(x1s), len(x2s), False)
                    return "Refuted", stats, (ctx, dict(sigma), X, e1, h2s)
    return "Verified", stats, None


def _pair(ctx, sigma):
    return ctx, tuple(sorted(sigma.items()))


def _unfit(B1, B2, budget, pairs):
    """The pairs, keyed as _pair keys them, under which no pre-execution
    of B1 has room for a cut survivor (cut.fits): the pairs that
    check_cut_refinement skips before it keys them."""
    _, _, sigmas, (pre1, _) = setup((B1, B2), budget.values)
    pres = {tuple(sorted(sigma.items())): ps
            for sigma, ps in zip(sigmas, pre1)}

    def unfit(ctx, sigma):
        need = room_needed(ctx.actions, ctx.S)
        return not any(fits(need, room(p.actions)) for p in pres[sigma])

    return {pair for pair in pairs if unfit(*pair)}


def _context_key(ctx, renaming):
    """The multisets of ctx's unpaired actions, as (kind, location, vals),
    and of its LL/SC pairs, as (location, LL vals, SC vals), with every
    value renamed: an enumerated context up to its action ids, as its R
    is empty."""
    ren = lambda vals: tuple(renaming.get(v, v) for v in vals)
    byid = {a.aid: a for a in ctx.actions}
    paired = {i for pair in ctx.S for i in pair}
    lone = sorted((a.kind, a.gvar, ren(a.vals)) for a in ctx.actions
                  if a.aid not in paired)
    pairs = sorted((byid[ll].gvar, ren(byid[ll].vals), ren(byid[sc].vals))
                   for (ll, sc) in ctx.S)
    return tuple(lone), tuple(pairs)


def _renamed_images(B1, B2, budget, pairs):
    """Each of the pairs, keyed as _pair keys them and in scan order, that
    a permutation of the free values maps to an earlier pair not itself
    such an image, mapped to that earlier pair: of pairs with room, the
    ones that check_cut_refinement skips, with the checked pair each is
    an image of. Every permutation of the free values is tried on every
    pair, each renamed context keyed whole (_context_key)."""
    free = sorted(budget.values - lang.fixed_values(B1)
                  - lang.fixed_values(B2))
    if len(free) < 2:
        return {}
    # the identity first
    perms = [dict(zip(free, p)) for p in itertools.permutations(free)]
    checked, images = {}, {}
    for ctx, sigma in pairs:
        keys = [(_context_key(ctx, r),
                 tuple((l, r.get(v, v)) for l, v in sigma)) for r in perms]
        image = next((checked[k] for k in keys if k in checked), None)
        if image is None:
            checked[keys[0]] = (ctx, sigma)
        else:
            images[ctx, sigma] = image
    return images


def _scans_agree(B1, B2, budget):
    """Run check_cut_refinement and _linear_scan on one budget and compare
    them: the outcome and the witness exactly, and the stats exactly
    where no (context, sigma) pair with room is the renamed image of one
    checked before it. The check must skip every pair without room, each
    of which the linear scan must find without cut survivors. Where
    pairs with room are renamed images, the check must skip just as
    many; the linear scan must give each the x1_cut, x2 and pass or fail
    of its checked image; and the checked and skipped pairs must add up
    to its stats."""
    slow_computed, fast_computed, pairs = [], [], {}
    slow = _linear_scan(B1, B2, budget, slow_computed, pairs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(history, "hist_ext",
                   lambda X: fast_computed.append(X) or hist_ext(X))
        fast = check_cut_refinement(B1, B2, budget)
    unfit = _unfit(B1, B2, budget, pairs)
    assert all(pairs[p] == (0, 0, True) for p in unfit)
    assert fast.stats["unfit"] == len(unfit)
    images = _renamed_images(B1, B2, budget,
                             [p for p in pairs if p not in unfit])
    assert fast.outcome == slow[0]
    assert fast.stats["symmetric"] == len(images)
    if not images:
        assert {k: fast.stats[k] for k in slow[1]} == slow[1]
    for pair, image in images.items():
        assert pairs[pair] == pairs[image], (pair, image)
    assert fast.stats["contexts"] == slow[1]["contexts"]
    for i, k in enumerate(("x1_cut", "x2")):
        assert fast.stats[k] + sum(pairs[p][i] for p in images) == (
            slow[1][k])
    assert fast.stats["x2_denies"] <= fast.stats["x2"]
    w = fast.witness
    # the scan compares masks of rf classes, and the witness's history
    # and the candidate list are read off the masks of their classes
    assert fast_computed == []
    assert (None if w is None else
            (w.context, w.sigma, w.execution, w.hist, w.candidates)
            ) == slow[2]


# transformations ("original ~> replacement") whose fixed values, those
# no renaming may move, each hold something a context can tell apart: an
# SC's or an =='s result 1, a literal, and a local that an if tests
# against 0; at V=4, three free values with six permutations; and at
# V=5, four free values with 24
RENAMING_ROWS = [
    ("a := LL(x); s := SC(x,a); st(y,s) ~> a := LL(x); st(y,a)", 3),
    ("m := l == k; st(y,m) ~> m := l == k; st(y,m)", 3),
    ("st(x,2); ld(x) ~> st(x,2)", 3),
    ("st(x,1) ~> st(x,1)", 3),
    ("if (l) { st(y,l) } ~> if (l) { st(y,l) }", 3),
    ("l := ld(x); if (l) { st(y,l) } ~> l := ld(x); st(y,l)", 3),
    ("st(x,l) ~> st(x,l)", 4),
    ("st(x,l) ~> st(x,l); st(x,l)", 4),
    ("st(x,l) ~> st(x,l)", 5),
    ("st(x,l); st(y,m) ~> st(y,m); st(x,l)", 5),
]


@pytest.mark.parametrize(
    "row,nvalues",
    [(f, 2) for f, _ in SUITE] + [(f, 3) for f in GENERATE_ROWS]
    + RENAMING_ROWS)
def test_the_mask_scan_matches_the_linear_scan(row, nvalues):
    text = row if "~>" in row else (CORPUS / row).read_text()
    B2, B1 = lang.parse_transformation(text)
    _scans_agree(B1, B2, context_bound(B1, B2, frozenset(range(nvalues))))


_STATEMENTS = st.lists(st.sampled_from([
    "l := ld(x)", "st(x, l)", "st(y, l)", "st(x, 2)", "m := l == k",
    "if (l) { st(y, l) }", "a := LL(x); s := SC(x, a)", "st(y, s)", "fc",
]), min_size=1, max_size=2).map("; ".join)


@settings(max_examples=25, deadline=None)
@given(_STATEMENTS, _STATEMENTS)
@example("l := ld(x); st(y, l)", "l := ld(x); st(y, l)")
def test_renamed_pairs_keep_verdicts_on_random_blocks(b1, b2):
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    enumerate_all = verifier.enumerate_contexts
    shapes_all = verifier.context_shapes

    def enumerate_small(*args):
        # contexts come smallest first, and a renaming keeps the size
        return itertools.takewhile(lambda c: len(c.actions) <= 3,
                                   enumerate_all(*args))

    def shapes_small(*args):
        return itertools.takewhile(lambda s: _shape_size(s) <= 3,
                                   shapes_all(*args))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "context_shapes", shapes_small)
        mp.setattr(sys.modules[__name__], "enumerate_contexts",
                   enumerate_small)
        _scans_agree(B1, B2, context_bound(B1, B2, frozenset(range(3))))


@pytest.mark.parametrize(
    "row,nvalues", [(f, 3) for f in GENERATE_ROWS] + RENAMING_ROWS)
def test_a_pair_is_checked_exactly_when_it_is_first_of_its_orbit(row,
                                                                 nvalues):
    # every pair with room, against the images that trying every
    # permutation of the free values on every such pair finds; contexts
    # of up to four actions, which keep the V=5 rows within seconds (a
    # renaming keeps the size)
    text = row if "~>" in row else (CORPUS / row).read_text()
    B2, B1 = lang.parse_transformation(text)
    budget = context_bound(B1, B2, frozenset(range(nvalues)))
    _, locals_order, sigmas, _ = setup((B1, B2), budget.values)
    free = tuple(sorted(budget.values - lang.fixed_values(B1)
                        - lang.fixed_values(B2)))
    pairs = {_pair(c, sigma): (s, tuple(sigma[l] for l in locals_order))
             for s, c in _shapes_and_contexts(B1, B2, budget)
             if _shape_size(s) <= 4 for sigma in sigmas}
    unfit = _unfit(B1, B2, budget, pairs)
    pairs = {p: args for p, args in pairs.items() if p not in unfit}
    images = _renamed_images(B1, B2, budget, pairs)
    assert [verifier._first_of_orbit(s, svals, free)
            for s, svals in pairs.values()] == [
                p not in images for p in pairs]


# ---------------------------------------------------------------------------
# one new-block survivor per orbit of the interchangeable context actions
# (CutPruner with orbits) against every survivor (the plain CutPruner,
# which the check already uses to rescan a failing pair)

# transformations whose original block reads and writes x, so that the
# mo orders of its executions, not the cut, make up most of the check
READ_WRITE_ROWS = ["st(x,1) ~> st(x,1); ld(x)",
                   "l := ld(x); st(x,l) ~> l := ld(x); st(x,l)"]


def _every_survivor(B1, B2, budget):
    """check_cut_refinement with the plain CutPruner in place of the one
    with orbits."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "CutPruner",
                   lambda actions, S, orbits=False: CutPruner(actions, S))
        return check_cut_refinement(B1, B2, budget)


def _orbits_agree(B1, B2, budget):
    """The check with one survivor per orbit and the one with every
    survivor give the same outcome, witness and stats, but for x1_orbits
    and x2_denies, which may only be smaller, and skeletons, as a
    pruner's orbit groups are part of a skeleton; return how many
    survivors the first leaves out."""
    every = _every_survivor(B1, B2, budget)
    fast = check_cut_refinement(B1, B2, budget)
    exact = lambda v: {k: n for k, n in v.stats.items()
                       if k not in ("x1_orbits", "x2_denies", "skeletons")}
    assert fast.outcome == every.outcome
    assert fast.witness == every.witness
    assert exact(fast) == exact(every)
    assert every.stats["x1_orbits"] == every.stats["x1_cut"]
    assert fast.stats["x1_orbits"] <= fast.stats["x1_cut"]
    assert fast.stats["x2_denies"] <= every.stats["x2_denies"]
    return fast.stats["x1_cut"] - fast.stats["x1_orbits"]


@pytest.mark.parametrize(
    "row,nvalues",
    [(f, 2) for f, _ in SUITE] + [(f, 3) for f, _ in SUITE]
    + RENAMING_ROWS + [(t, 2) for t in READ_WRITE_ROWS])
def test_one_survivor_per_orbit_keeps_the_verdict(row, nvalues):
    text = row if "~>" in row else (CORPUS / row).read_text()
    B2, B1 = lang.parse_transformation(text)
    budget = context_bound(B1, B2, frozenset(range(nvalues)))
    _orbits_agree(B1, B2, budget)
    if nvalues == 2:
        # the execution cap gives Unknown at the same pair
        for cap in (1, 10, 100):
            _orbits_agree(B1, B2, dataclasses.replace(
                budget, max_block_execs=cap))


_ORBIT_STATEMENTS = st.lists(st.sampled_from([
    "l := ld(x)", "ld(x)", "st(x, l)", "st(x, 1)", "st(y, l)",
    "if (l) { st(y, l) }", "a := LL(x); s := SC(x, a)", "fc",
]), min_size=1, max_size=2).map("; ".join)


@settings(max_examples=40, deadline=None)
@given(_ORBIT_STATEMENTS, _ORBIT_STATEMENTS)
@example("ld(x); ld(x)", "ld(x)")
@example("l := ld(x); st(x, l)", "l := ld(x); st(x, l)")
def test_one_survivor_per_orbit_keeps_verdicts_on_random_blocks(b1, b2):
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    shapes_all = verifier.context_shapes

    def shapes_small(*args):
        # contexts come smallest first
        return itertools.takewhile(lambda s: _shape_size(s) <= 4,
                                   shapes_all(*args))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "context_shapes", shapes_small)
        _orbits_agree(B1, B2, context_bound(B1, B2))


def test_an_sc_result_is_fixed_so_one_and_two_are_not_swapped():
    # a context load of y tells the SC's result 1 apart from 2: under
    # sigma = {a: 0, s: 0}, a load of 1 keeps one cut survivor, reading
    # st(y,s) after a successful SC, and a load of 2 keeps none
    B = lang.parse_block("a := LL(x); s := SC(x,a); st(y,s)")
    assert lang.fixed_values(B) == {0, 1}
    pres = pre_executions(B, {"a": 0, "s": 0}, frozenset(range(3)),
                          ("a", "s"))

    def survivors(v):
        ctx = CutContext((Action("y.r0", "load", "y", (v,), "context"),))
        pruner = CutPruner(ctx.actions, ctx.S)
        return sum(math.prod(map(len, c.mo_choices))
                   for _, c in block_classes(pres, ctx, pruner=pruner))

    assert (survivors(1), survivors(2)) == (1, 0)


def test_a_larger_domain_adds_only_skipped_pairs():
    # st(x,l) names no value but 0; from V=4 on, each pair's orbit under
    # the renamings of the free values is there in full, so V=12, with
    # 11! renamings, checks the pairs that V=4 checks and skips the rest,
    # each the renamed image of one that comes before it in scan order
    B = lang.parse_block("st(x,l)")
    v4, v12 = (check_cut_refinement(B, B, context_bound(
        B, B, frozenset(range(n)))) for n in (4, 12))
    assert v4.outcome == v12.outcome == "Verified"
    assert v12.stats["contexts"] > v4.stats["contexts"]
    assert {k: v12.stats[k] for k in ("x1_cut", "x2")} == (
        {k: v4.stats[k] for k in ("x1_cut", "x2")})


# ---------------------------------------------------------------------------
# explicit context instances


def test_instance_check_is_reflexive_at_the_empty_context():
    B = lang.parse_block("st(x,l)")
    assert check_q_instance(B, B, CutContext(()))


def test_single_load_instance_accepts_the_collapsed_store():
    B, ctx = single_load_instance()
    assert check_q_instance(
        B, lang.parse_block("st(x,11); st(x,11)"), ctx,
        values=frozenset({0, 1}))


def test_forced_read_instance_is_reflexively_accepted():
    B, ctx = forced_read_instance()
    assert check_q_instance(B, B, ctx, values=frozenset({0, 1, 2}))


def test_nonatomic_reorder_instance_holds_via_unsafe_prefixes():
    ctx = CutContext(
        (
            Action("a1", "store_NA", "x", (1,), "context"),
            Action("a2", "store", "y", (1,), "context"),
        ),
        frozenset({("a1", "a2")}),
        frozenset(),
    )
    B1 = lang.parse_block("l1 := ldna(x); l3 := ldna(x); l2 := ld(y)")
    B2 = lang.parse_block("l1 := ldna(x); l2 := ld(y); l3 := ldna(x)")
    assert check_q_instance(B1, B2, ctx)


def test_instance_gives_both_blocks_the_literals_of_either_block():
    # only the new block names 2; the original block must still be able
    # to read the context's 2, as it can in verify's derived domain
    ctx = parse_context_file("ctx: w = st(x, 2)")
    B1 = lang.parse_block("t := 2; t := 0; l := ld(x)")
    assert check_q_instance(B1, lang.parse_block("l := ld(x)"), ctx)


def test_instance_rejects_a_location_used_both_ways():
    B1, B2 = lang.parse_block("ld(x)"), lang.parse_block("skip")
    ctx = parse_context_file("ctx: stna(x, 1)")
    with pytest.raises(ValueError, match="global 'x' used both"):
        check_q_instance(B1, B2, ctx)
    # the two blocks alone, at the empty context
    with pytest.raises(ValueError, match="global 'x' used both"):
        check_q_instance(B1, lang.parse_block("ldna(x)"), CutContext(()))


# ---------------------------------------------------------------------------
# the two transformations of the verdict table whose expected verdicts were
# once in doubt, each shown unsound by a whole program around the block

V3 = frozenset({0, 1, 2})

# st(x,l) ~> st(x,l); st(x,l): with the store doubled, mo can be 1, 2, 1 and
# the reader sees a=1, b=2, c=1; read-read coherence forbids that of one
# store of 1
STORE_DUP = (
    "l := 1; {block} ||| st(x,2) ||| a := ld(x); b := ld(x); c := ld(x){p2}",
    {"p2": "; st(oa,a); st(ob,b); st(oc,c)"},
)

# l := ld(x); st(x,l) ~> l := ld(x): the RMW reads the first write and puts
# 0 right after it in mo. The write-back must follow the first write and,
# by ATOM, cannot come between it and the RMW, so b cannot read the RMW's
# 0; had the RMW read the write-back, st(y,1) would happen before d.
WRITEBACK_ELIM = (
    "st(x,1) ||| st(y,1); {block}; b := ld(x){p1} ||| "
    "k := 0; c := LL(x); m := SC(x,k); d := ld(y){p2}",
    {"p1": "; st(ol,l); st(ob,b)", "p2": "; st(oc,c); st(od,d)"},
)


def _program(shape, block, publish):
    """The whole program around block; with publish, the locals the
    outcome names are stored to fresh globals."""
    template, stores = shape
    return lang.parse_program(template.format(
        block=block, **{k: v if publish else "" for k, v in stores.items()}
    ))


def _reads(sig):
    """Per thread, in program order, the value each load or LL reads and
    the kind of each SC (SC or the failed SC_f)."""
    out = {}
    order = lambda a: (a[0].split(".")[0], int(a[0].split(".")[1]))
    for (aid, kind, _, vals) in sorted(sig[0], key=order):
        t = aid.split(".")[0]
        if kind in ("load", "LL"):
            out.setdefault(t, []).append(vals[0])
        elif kind in ("SC", "SC_f"):
            out.setdefault(t, []).append(kind)
    return out


@pytest.mark.parametrize("shape,original,replacement,outcome,ovar,values", [
    (STORE_DUP, "st(x,l)", "st(x,l); st(x,l)", {"t2": [1, 2, 1]},
     {"oa", "ob", "oc"}, V3),
    (WRITEBACK_ELIM, "l := ld(x); st(x,l)", "l := ld(x)",
     {"t1": [1, 0], "t2": [1, "SC", 0]}, {"ol", "ob", "oc", "od"},
     frozenset({0, 1})),
])
def test_the_replacement_adds_an_outcome_to_a_whole_program(
        shape, original, replacement, outcome, ovar, values):
    def count(block):
        sigs = brute_force_signatures(_program(shape, block, False),
                                      values=values)
        return sum(
            all(_reads(s).get(t) == want for t, want in outcome.items())
            for s in sigs
        )

    assert count(replacement) == 1
    assert count(original) == 0
    P1 = _program(shape, replacement, True)
    P2 = _program(shape, original, True)
    ovar = frozenset(ovar)
    cfg = EnumConfig(values=values)
    assert not obs_refines_pr(P1, P2, ovar, cfg)
    assert obs_refines_pr(P2, P2, ovar, cfg)


@pytest.mark.parametrize("original,replacement", [
    ("st(x,l)", "st(x,l); st(x,l)"),
    ("l := ld(x); st(x,l)", "l := ld(x)"),
])
@pytest.mark.parametrize("nvalues", [2, 3])
def test_the_finite_check_refutes_both_transformations(
        original, replacement, nvalues):
    B1, B2 = lang.parse_block(replacement), lang.parse_block(original)
    budget = context_bound(B1, B2, frozenset(range(nvalues)))
    v = check_cut_refinement(B1, B2, budget)
    assert v.outcome == "Refuted"
    assert cut(v.witness.execution)


# ---------------------------------------------------------------------------
# context_bound puts LL/SC pairs only where the original block writes and
# the new block reads; _pairs_everywhere, wherever the new block reads, is
# the reference that narrowing is compared with


def _pairs_everywhere(B1, B2):
    """context_bound(B1, B2) with LL/SC pairs at every data location B1
    reads, each pair adding one read and one write to the caps."""
    budget = context_bound(B1, B2)
    *_, (pre1, _) = setup((B1, B2), budget.values)
    r1, _ = verifier._code_counts(pre1)
    for x, n in r1.items():
        if x != lang.FENCE_VAR and x not in budget.pairs:
            budget.pairs[x] = n
            budget.reads[x] += n
            budget.writes[x] += n
    return budget


def _pair_narrowing_agrees(B1, B2, total=None):
    """The two bounds give one verdict, over the contexts of at most total
    actions if total is given."""
    shapes_all = verifier.context_shapes

    def shapes_small(*args):
        # contexts come smallest first
        return itertools.takewhile(lambda s: _shape_size(s) <= total,
                                   shapes_all(*args))

    with pytest.MonkeyPatch.context() as mp:
        if total is not None:
            mp.setattr(verifier, "context_shapes", shapes_small)
        outcomes = [check_cut_refinement(B1, B2, budget).outcome
                    for budget in (context_bound(B1, B2),
                                   _pairs_everywhere(B1, B2))]
    assert outcomes[0] == outcomes[1]


# load_dup's new block reads x twice; with pairs everywhere its check ran
# for over fifteen minutes without an answer
SLOW_WITH_PAIRS_EVERYWHERE = {"load_dup.tr"}


@pytest.mark.parametrize(
    "fname", [f for f, _ in SUITE if f not in SLOW_WITH_PAIRS_EVERYWHERE])
def test_pair_narrowing_keeps_every_corpus_verdict(fname):
    B2, B1 = lang.parse_transformation((CORPUS / fname).read_text())
    _pair_narrowing_agrees(B1, B2)


# one data location and fences: with a second location the contexts
# multiply and one check with pairs everywhere takes minutes
_BLOCKS = st.lists(st.sampled_from([
    "l := ld(x)", "ld(x)", "st(x, l)", "st(x, 1)", "fc", "skip",
]), min_size=1, max_size=2).map("; ".join)


@settings(max_examples=20, deadline=None)
@given(_BLOCKS, _BLOCKS)
@example("l := ld(x)", "l := ld(x); st(x, l)")
def test_pair_narrowing_keeps_verdicts_on_random_blocks(b1, b2):
    B1, B2 = lang.parse_block(b1), lang.parse_block(b2)
    # a second read of x makes even the small contexts slow (load_dup)
    assume(_pairs_everywhere(B1, B1).pairs.get("x", 0) <= 1)
    # five actions hold both counterexample shapes: a pair, and a store
    # that its LL and a code read both read
    _pair_narrowing_agrees(B1, B2, total=5)
