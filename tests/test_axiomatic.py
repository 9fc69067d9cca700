"""Execution validity, whole-program enumeration and observation."""

import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stellite import axiomatic, lang
from stellite.axiomatic import (
    Action,
    BudgetExceeded,
    EnumConfig,
    Execution,
    PreExecution,
    _hb_rf,
    _may_read_from,
    _mo_ids,
    _mo_locations,
    _mo_masks,
    _mo_positions,
    _mo_step,
    _rf_violation,
    _write_masks,
    check_axioms,
    derive_hb,
    enumerate_program,
    is_atomic_write,
    is_na,
    is_read,
    is_write,
    obs_refines_ex,
    obs_refines_pr,
    rf_classes,
    safe,
    valid,
)
from stellite.blocklocal import _under, setup
from stellite.cut import CutPruner
from stellite.verifier import check_cut_refinement, context_bound, \
    enumerate_contexts

from oracles import (
    _closure,
    _oracle_at,
    _oracle_valid,
    brute_force_signatures,
    enumerated_signatures,
    pairs_of,
    rows_of,
)
from test_acceptance import SUITE

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _exec(actions, sb=(), rf=(), mo=(), at=(), r_ctx=()):
    hb = derive_hb(actions, frozenset(sb), frozenset(rf),
                   frozenset(r_ctx))
    return Execution(
        actions=tuple(actions),
        sb=frozenset(sb),
        at=frozenset(at),
        rf=frozenset(rf),
        mo=frozenset(mo),
        hb=hb,
        r_ctx=frozenset(r_ctx),
    )


def A(aid, kind, gvar, val):
    return Action(aid, kind, gvar, (val,), "code")


# ---------------------------------------------------------------------------
# happens-before derivation


def test_derive_hb_is_the_closure_of_sb_rf_and_extra_edges():
    a, b, c = A("a", "store", "x", 1), A("b", "load", "x", 1), A("c", "store", "y", 1)
    assert derive_hb((a, b), {("a", "b")}, frozenset()) == frozenset(
        {("a", "b")}
    )
    hb = derive_hb((a, b, c), {("b", "c")}, {("a", "b")})
    assert ("a", "c") in hb


def test_derive_hb_drops_nonatomic_reads_from_in_na_mode():
    w = A("w", "store_NA", "x", 1)
    r = A("r", "load_NA", "x", 1)
    assert derive_hb((w, r), frozenset(), {("w", "r")}) == frozenset()


def test_derive_hb_is_idempotent_and_contains_input():
    acts = tuple(A(aid, "store", "x", 1) for aid in "abcd")
    edges = {("a", "b"), ("b", "c"), ("c", "d")}
    hb = derive_hb(acts, edges, frozenset())
    assert edges <= hb and ("a", "d") in hb
    assert derive_hb(acts, hb, frozenset()) == hb


_IDS = [f"a{i}" for i in range(5)]
_EDGES = st.frozensets(st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS)),
                       max_size=7)


@settings(max_examples=300, deadline=None)
@given(_EDGES, _EDGES, _EDGES)
# a self-loop, alone and beside an acyclic chain, and a two-cycle
@example(frozenset({("a0", "a0")}), frozenset(), frozenset())
@example(frozenset({("a0", "a1")}), frozenset(), frozenset({("a2", "a2")}))
@example(frozenset({("a0", "a1")}), frozenset({("a1", "a0")}), frozenset())
def test_derive_hb_is_the_oracle_closure_or_none_on_a_cycle(sb, rf, R):
    # derive_hb closes on bit rows; oracles._closure walks pair sets
    acts = tuple(A(aid, "store", "x", 1) for aid in _IDS)
    cl = _closure(sb | rf | R)
    cyclic = any(u == v for (u, v) in cl)
    assert derive_hb(acts, sb, rf, R) == (None if cyclic else cl)


# ---------------------------------------------------------------------------
# validity axioms


def test_single_store_execution_is_valid():
    w = A("w", "store", "x", 1)
    assert valid(_exec((w,)))


def test_store_buffering_outcome_both_reads_zero_is_valid():
    acts = (
        A("w1", "store", "x", 1),
        A("r1", "load", "y", 0),
        A("w2", "store", "y", 1),
        A("r2", "load", "x", 0),
    )
    sb = {("w1", "r1"), ("w2", "r2")}
    assert valid(_exec(acts, sb))


def test_message_passing_stale_read_is_invalid():
    # flag read observes the store, data read still returns the initial 0
    acts = (
        A("wx", "store", "x", 1),
        A("wf", "store", "f", 1),
        A("rf", "load", "f", 1),
        A("rx", "load", "x", 0),
    )
    sb = {("wx", "wf"), ("rf", "rx")}
    X = _exec(acts, sb, rf={("wf", "rf")})
    assert not valid(X)
    name, _ = check_axioms(X)
    assert name == "RFVAL"  # the initial read has an hb-earlier store


def test_mo_against_hb_is_invalid():
    acts = (A("w1", "store", "x", 1), A("w2", "store", "x", 1))
    X = _exec(acts, sb={("w1", "w2")}, mo={("w2", "w1")})
    assert check_axioms(X)[0] == "HBVSMO"


def test_reading_an_overwritten_value_is_invalid():
    acts = (
        A("w1", "store", "x", 1),
        A("w2", "store", "x", 0),
        A("r", "load", "x", 1),
    )
    sb = {("w1", "w2"), ("w2", "r")}
    X = _exec(acts, sb, rf={("w1", "r")}, mo={("w1", "w2")})
    assert check_axioms(X)[0] == "COHERENCE"


def test_atomicity_forbids_an_intervening_write():
    acts = (
        A("w", "store", "x", 0),
        A("ll", "LL", "x", 0),
        A("sc", "SC", "x", 1),
        A("w2", "store", "x", 1),
    )
    sb = {("ll", "sc")}
    X = _exec(acts, sb, rf={("w", "ll")},
              mo={("w", "w2"), ("w2", "sc"), ("w", "sc")},
              at={("ll", "sc")})
    assert check_axioms(X)[0] == "ATOM"


def test_reading_from_a_nonatomic_write_outside_hb_is_invalid():
    w = A("w", "store_NA", "x", 1)
    r = A("r", "load_NA", "x", 1)
    X = _exec((w, r), rf={("w", "r")})
    assert check_axioms(X)[0] == "RFHBNA"


def test_nonatomic_read_of_an_overwritten_value_is_invalid():
    acts = (
        A("w1", "store_NA", "x", 1),
        A("w2", "store_NA", "x", 0),
        A("r", "load_NA", "x", 1),
    )
    X = _exec(acts, sb={("w1", "w2"), ("w2", "r"), ("w1", "r")},
              rf={("w1", "r")})
    assert check_axioms(X)[0] == "COHERNA"


def test_load_buffering_with_both_reads_satisfied_is_an_hb_cycle():
    acts = (
        A("a", "load", "x", 1),
        A("b", "store", "y", 1),
        A("c", "load", "y", 1),
        A("d", "store", "x", 1),
    )
    X = _exec(acts, sb={("a", "b"), ("c", "d")},
              rf={("d", "a"), ("b", "c")})
    assert check_axioms(X)[0] == "HBDEF"


def test_reading_another_value_is_ill_formed():
    acts = (A("w", "store", "x", 1), A("r", "load", "x", 0))
    assert check_axioms(_exec(acts, rf={("w", "r")}))[0] == "RFWF"


def test_unordered_stores_of_one_location_are_ill_formed():
    acts = (A("w1", "store", "x", 1), A("w2", "store", "x", 2))
    assert check_axioms(_exec(acts))[0] == "MO"


def test_safety_flags_unordered_nonatomic_conflicts():
    w = A("w", "store_NA", "x", 1)
    r = A("r", "load_NA", "x", 0)
    racy = _exec((w, r))
    assert not safe(racy)
    ordered = _exec((w, A("w2", "store_NA", "x", 1)),
                    sb={("w", "w2")})
    assert safe(ordered)
    assert safe(_exec((A("w", "store", "x", 1),)))


# ---------------------------------------------------------------------------
# whole-program enumeration vs the brute-force oracle

ORACLE_PROGRAMS_AT = [
    "st(x,1) ||| l := ld(x)",
    "st(x,1); st(x,2) ||| ld(x)",
    "fc ||| fc",
    "st(x,1); v1 := ld(y) ||| st(y,1); v2 := ld(x)",
    "st(x,1); st(f,1) ||| b := ld(f); if (b) { r := ld(x) }",
    "st(x,1) ||| st(x,1) ||| l := ld(x)",
    # read-read coherence, and an RMW that a store may not split
    "st(x,1); st(x,2) ||| a := ld(x); b := ld(x)",
    "st(x,1) ||| k := 2; l := LL(x); m := SC(x,k) ||| st(x,3)",
    # load buffering: satisfying both reads would close an hb cycle
    "a := ld(x); st(y,1) ||| b := ld(y); st(x,1)",
]

ORACLE_PROGRAMS_NA = [
    "stna(x,1) ||| l := ldna(x)",
    "stna(x,1); st(y,1) ||| l1 := ldna(x); l2 := ld(y)",
    # a non-atomic read of an overwritten value
    "stna(x,1); stna(x,2); l := ldna(x)",
]


@pytest.mark.parametrize("text", ORACLE_PROGRAMS_AT)
def test_enumeration_matches_brute_force_oracle(text):
    P = lang.parse_program(text)
    assert enumerated_signatures(P) == brute_force_signatures(P)


@pytest.mark.parametrize("text", ORACLE_PROGRAMS_NA)
def test_enumeration_matches_brute_force_oracle_na(text):
    P = lang.parse_program(text)
    assert enumerated_signatures(P) == brute_force_signatures(P, mode="NA")


@st.composite
def _mixed_programs(draw):
    """A program of two or three threads of one or two accesses each, to
    x and y; each location is atomic or non-atomic for the whole program,
    at random, so some programs have no non-atomic access."""
    na = {g: draw(st.booleans()) for g in "xy"}

    def access(local):
        g = draw(st.sampled_from("xy"))
        kind = "na" if na[g] else ""
        if draw(st.booleans()):
            return f"st{kind}({g},{draw(st.integers(1, 2))})"
        return f"{local} := ld{kind}({g})"

    threads = ["; ".join(access(f"l{t}{k}")
                         for k in range(draw(st.integers(1, 2))))
               for t in range(draw(st.integers(2, 3)))]
    return lang.parse_program(" ||| ".join(threads))


@settings(max_examples=200, deadline=None)
@given(_mixed_programs())
def test_enumeration_applies_the_nonatomic_rules_where_the_accesses_are(P):
    # the package takes no mode: its executions are the oracle's with the
    # non-atomic axioms, which on atomic accesses are the atomic ones
    sigs = enumerated_signatures(P)
    assert sigs == brute_force_signatures(P, mode="NA")
    if not lang.na_vars_of(P):
        assert sigs == brute_force_signatures(P, mode="AT")


def _assignments(P, mode):
    """Every execution of P over the space brute_force_signatures
    searches: any write or none as each read's source, every mo order of
    each location's atomic writes. Yields (execution, oracle verdict)."""
    vals = frozenset({0, 1}) | lang.literals_of(P)
    per = [lang.thread_local_block(th, {l: 0 for l in lang.locals_of(th)},
                                   vals, prefix=f"t{i}.")
           for i, th in enumerate(lang.threads_of(P))]
    for combo in itertools.product(*per):
        acts = tuple(a for (p, _) in combo for a in p.actions)
        sb = frozenset(e for (p, _) in combo for e in p.sb)
        at = frozenset(_oracle_at(acts, sb))
        reads = [a for a in acts if is_read(a)]
        writes = [a.aid for a in acts if is_write(a)]
        locs = {}
        for a in acts:
            if is_atomic_write(a):
                locs.setdefault(a.gvar, []).append(a.aid)
        for choice in itertools.product([None] + writes, repeat=len(reads)):
            rf = frozenset((w, r.aid) for w, r in zip(choice, reads)
                           if w is not None)
            hb = derive_hb(acts, sb, rf)
            for orders in itertools.product(
                    *(itertools.permutations(ws) for ws in locs.values())):
                mo = frozenset(p for order in orders
                               for p in itertools.combinations(order, 2))
                X = Execution(acts, sb, at, rf, mo, hb)
                yield X, _oracle_valid(acts, sb, at, rf, mo, mode)


@pytest.mark.parametrize(
    "text, mode",
    [(t, "AT") for t in ORACLE_PROGRAMS_AT]
    + [(t, "NA") for t in ORACLE_PROGRAMS_NA],
)
def test_check_axioms_matches_the_oracle_on_every_assignment(text, mode):
    # the valid executions alone would not do: complete shares the
    # package's axiom definitions with check_axioms
    verdicts = set()
    for X, want in _assignments(lang.parse_program(text), mode):
        assert valid(X) == want, (X.rf, X.mo, check_axioms(X))
        verdicts.add(want)
    assert verdicts == {True, False}


def test_emitted_executions_satisfy_structural_invariants():
    P = lang.parse_program("st(x,1); st(x,2) ||| l := ld(x); st(y,l)")
    res = enumerate_program(P)
    assert res.executions
    for X in res.executions:
        byid = X.by_id()
        assert X.hb == derive_hb(X.actions, X.sb, X.rf, X.r_ctx)
        assert all(u != v for (u, v) in X.hb)
        for (w, r) in X.rf:
            assert is_write(byid[w]) and is_read(byid[r])
            assert byid[w].gvar == byid[r].gvar
            assert byid[w].vals[0] == byid[r].vals[0]
        # mo is a strict total order per location
        for g in {a.gvar for a in X.actions if a.kind == "store"}:
            ws = [a.aid for a in X.actions if a.kind == "store" and a.gvar == g]
            for u, v in itertools.combinations(ws, 2):
                assert ((u, v) in X.mo) != ((v, u) in X.mo)
        assert not any((u, u) in X.mo for u in byid)


def test_the_execution_limit_truncates_to_a_prefix():
    # six executions over three pre-executions, two mo orders each
    P = lang.parse_program("st(x,1) ||| st(x,2) ||| a := ld(x)")
    full = enumerate_program(P, EnumConfig(limit=None))
    n = len(full.executions)
    assert n == 6 and not full.truncated
    for k in range(n):
        res = enumerate_program(P, EnumConfig(limit=k))
        assert res.truncated, k
        assert res.executions == full.executions[:k]
        assert res.outcomes == full.outcomes[:k]
    for k in (n, n + 1):
        res = enumerate_program(P, EnumConfig(limit=k))
        assert not res.truncated
        assert res.executions == full.executions
        assert res.outcomes == full.outcomes


# ---------------------------------------------------------------------------
# observation


def test_observation_refinement_is_reflexive_and_transitive():
    P = lang.parse_program("st(x,1) ||| l := ld(x); st(o,l)")
    execs = enumerate_program(P).executions
    ovar = {"o"}
    for X in execs:
        assert obs_refines_ex(X, X, ovar)
    for X, Y, Z in itertools.islice(itertools.product(execs, repeat=3), 200):
        if obs_refines_ex(X, Y, ovar) and obs_refines_ex(Y, Z, ovar):
            assert obs_refines_ex(X, Z, ovar)


def test_observation_allows_weaker_hb_on_the_right_only():
    a1 = A("a", "store", "o", 1)
    b1 = A("b", "store", "o", 2)
    with_hb = _exec((a1, b1), sb={("a", "b")})
    without = _exec((a1, b1))
    assert obs_refines_ex(with_hb, without, {"o"})
    assert not obs_refines_ex(without, with_hb, {"o"})


def test_observation_requires_equal_observable_action_sets():
    x = _exec((A("a", "store", "o", 1),))
    y = _exec(())
    assert not obs_refines_ex(x, y, {"o"})


def test_program_refinement_reflexive_and_value_blind_off_observables():
    P1 = lang.parse_program("st(x,1); st(e,1)")
    P2 = lang.parse_program("st(x,0); st(e,1)")
    assert obs_refines_pr(P1, P1, {"e"})
    assert obs_refines_pr(P1, P2, {"e"})
    assert obs_refines_pr(P2, P1, {"e"})


def test_racy_right_hand_program_is_refined_by_anything():
    racy = lang.parse_program("stna(x,1) ||| ldna(x)")
    P1 = lang.parse_program("st(e,1)")
    assert obs_refines_pr(P1, racy, {"e"}, EnumConfig(mode="NA"))


def test_extra_store_is_observably_distinguishable():
    # a context copying x to an observable separates the two store blocks
    ctx = lang.parse_program("{-} ||| l := ld(x); st(e,l)")
    P1 = lang.substitute(ctx, lang.parse_block("st(x,2); st(x,5)"))
    P2 = lang.substitute(ctx, lang.parse_block("st(x,5)"))
    r1 = enumerate_program(P1)
    r2 = enumerate_program(P2)
    sees2 = lambda res: any(
        a.kind == "store" and a.gvar == "e" and a.vals == (2,)
        for X in res.executions
        for a in X.actions
    )
    assert sees2(r1) and not sees2(r2)
    assert not obs_refines_pr(P1, P2, {"e"})


def test_obs_refines_pr_raises_when_either_enumeration_is_truncated():
    # one execution fits a limit of one, two do not
    one = lang.parse_program("st(x,1)")
    two = lang.parse_program("st(x,1) ||| a := ld(x)")
    cfg = EnumConfig(limit=1)
    assert obs_refines_pr(one, one, {"x"}, cfg)
    for P1, P2 in ((one, two), (two, one)):
        with pytest.raises(BudgetExceeded):
            obs_refines_pr(P1, P2, {"x"}, cfg)


def _pairwise_obs_refines_pr(P1, P2, ovar, cfg):
    """obs_refines_pr without the dedup by observable projection: every
    execution of P1 against every execution of P2."""
    r2 = enumerate_program(P2, cfg)
    if cfg.mode == "NA" and r2.unsafe:
        return True
    r1 = enumerate_program(P1, cfg)
    if cfg.mode == "NA" and r1.unsafe:
        return False
    return all(any(obs_refines_ex(X1, X2, ovar) for X2 in r2.executions)
               for X1 in r1.executions)


_OBS_STMTS = {
    "AT": ("st(x,1)", "st(x,2)", "a := ld(x)", "st(y,1)",
           "b := ld(y); st(x,b)", "fc", "c := LL(x); e := 2; d := SC(x,e)"),
    "NA": ("st(x,1)", "stna(y,1)", "a := ld(x)", "b := ldna(y)",
           "b := ldna(y); st(x,b)", "fc"),
}


@st.composite
def _obs_program_pairs(draw):
    """Two programs that share a context thread and differ in their
    other thread, each of one or two statements, a mode, and the
    observed locations."""
    mode = draw(st.sampled_from(["AT", "NA"]))
    thread = st.lists(st.sampled_from(_OBS_STMTS[mode]), min_size=1,
                      max_size=2).map("; ".join)
    ctx = draw(thread)
    P1, P2 = (lang.parse_program(f"{draw(thread)} ||| {ctx}")
              for _ in range(2))
    ovar = draw(st.sets(st.sampled_from("xy"), min_size=1))
    return P1, P2, ovar, mode


@settings(max_examples=60, deadline=None)
@given(_obs_program_pairs())
def test_obs_refines_pr_matches_the_pairwise_comparison(case):
    P1, P2, ovar, mode = case
    cfg = EnumConfig(mode=mode)
    assert obs_refines_pr(P1, P2, ovar, cfg) == \
        _pairwise_obs_refines_pr(P1, P2, ovar, cfg)


# ---------------------------------------------------------------------------
# rf_classes, which decides hb on reachability bit rows, against the slow
# path it replaced: the pair-set closure of sb, r_ctx and rf for every rf
# choice, by oracles._closure, then the HBDEF cycle test, then the other
# checks on that closure as bit rows


def _slow_mo_orders(ws, rows, pos, rf, at, byid, hidden, before):
    """The permutations of ws, in itertools order, that break no mo
    axiom at any step, leave no two hidden writes adjacent and put u
    before w for each pair (u, w) of before, as a tuple."""
    masks = _mo_masks(ws, rows, pos, rf, at, byid)
    out = []
    for perm in itertools.permutations(range(len(ws))):
        placed, last = 0, -1
        for i in perm:
            if (_mo_step(masks, placed, last, i)
                    or last >= 0 and ws[last] in hidden and ws[i] in hidden):
                break
            placed, last = placed | 1 << i, i
        else:
            order = [ws[i] for i in perm]
            if all(order.index(u) < order.index(w) for (u, w) in before
                   if w in order):
                out.append(tuple(order))
    return tuple(out)


def _slow_rf_classes(actions, sb, at, r_ctx=frozenset(), pruner=None):
    byid = {a.aid: a for a in actions}
    na = any(map(is_na, actions))
    aids = list(byid)
    pos = {aid: i for i, aid in enumerate(aids)}
    reads = [a for a in actions if is_read(a)]
    writes = [a for a in actions if is_write(a)]
    cands = []
    for r in reads:
        opts = [None] if _may_read_from(None, r) else []
        opts += [w.aid for w in writes if _may_read_from(w, r)]
        cands.append(opts if pruner is None else pruner.sources(r.aid, opts))
    for choice in itertools.product(*cands):
        rf = frozenset((w, r.aid) for w, r in zip(choice, reads)
                       if w is not None)
        admitted = ((frozenset(), ()) if pruner is None
                    else pruner.admit(rf, reads, pos))
        if admitted is None:
            continue
        hidden, before = admitted
        hb = _closure(set(sb) | set(r_ctx) | set(_hb_rf(rf, byid, na)))
        if any(u == v for (u, v) in hb):
            continue
        rows = rows_of(aids, hb)
        if _rf_violation(actions, reads, _write_masks(actions), byid, rf,
                         rows, pos, na):
            continue
        mo_choices = [_slow_mo_orders(ws, rows, pos, rf, at, byid, hidden,
                                      before)
                      for ws in _mo_locations(writes).values()]
        if all(mo_choices):
            yield rf, hb, mo_choices


def _assert_rf_classes_match(pre, pruner=None):
    """rf_classes and the slow path give the same classes in the same
    order, with rf_classes' rows decoded to pairs; returns how many."""
    aids = [a.aid for a in pre.actions]
    fast = [(rf, pairs_of(aids, rows), mo_choices)
            for rf, rows, mo_choices in rf_classes(pre, pruner)]
    assert fast == list(_slow_rf_classes(*pre, pruner)), pre
    return len(fast)


def _program_pres(P, values=frozenset({0, 1})):
    """The pre-executions enumerate_program completes for P, the union of
    one pre-execution of each thread."""
    values = frozenset(values) | lang.literals_of(P)
    per = [lang.thread_local_block(th, {l: 0 for l in lang.locals_of(th)},
                                   values, prefix=f"t{i}.")
           for i, th in enumerate(lang.threads_of(P))]
    for combo in itertools.product(*per):
        yield PreExecution(
            tuple(a for (p, _) in combo for a in p.actions),
            frozenset(e for (p, _) in combo for e in p.sb),
            frozenset(e for (p, _) in combo for e in p.at))


def test_rf_classes_match_the_slow_path_on_the_corpus_programs():
    programs = ORACLE_PROGRAMS_AT + ORACLE_PROGRAMS_NA
    programs += [(CORPUS / f).read_text()
                 for f in sorted(p.name for p in CORPUS.glob("*.lit"))]
    assert sum(_assert_rf_classes_match(pre)
               for text in programs
               for pre in _program_pres(lang.parse_program(text))) >= 40


# ---------------------------------------------------------------------------
# enumerate_program skips each combination of thread runs in which a run
# needs a value that no other run writes; the path it replaced completes
# every combination


def _assert_skipping_keeps_the_result(P, mode):
    """enumerate_program gives what it gives with no combination skipped,
    executions and outcomes in the same order; returns how many
    combinations it skips."""
    unmet, skipped = axiomatic._unmet, []

    def counted(combo):
        if unmet(combo):
            skipped.append(combo)
            return True
        return False

    cfg = EnumConfig(mode=mode)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(axiomatic, "_unmet", counted)
        fast = enumerate_program(P, cfg)
        mp.setattr(axiomatic, "_unmet", lambda combo: False)
        assert fast == enumerate_program(P, cfg)
    return len(skipped)


def test_skipping_unmet_needs_keeps_every_execution_on_the_corpus_programs():
    programs = ORACLE_PROGRAMS_AT + ORACLE_PROGRAMS_NA
    programs += [(CORPUS / f).read_text()
                 for f in sorted(p.name for p in CORPUS.glob("*.lit"))]
    # an LL whose run reads 2, which only its own later SC writes, is
    # skipped
    assert sum(_assert_skipping_keeps_the_result(lang.parse_program(text),
                                                 mode)
               for text in programs for mode in ("AT", "NA")) > 0


@settings(max_examples=100, deadline=None)
@given(_obs_program_pairs())
def test_skipping_unmet_needs_keeps_every_execution_on_random_programs(case):
    # programs with LL/SC, fences and loads of values only another
    # thread's stores or SCs supply
    P1, P2, _, mode = case
    for P in (P1, P2):
        _assert_skipping_keeps_the_result(P, mode)


def test_rf_classes_match_the_slow_path_on_the_corpus_rows():
    # each block of each SUITE row at V=2, with and without the cut's
    # pruner, under every context its check enumerates
    values = frozenset({0, 1})
    seen, classes = set(), 0
    for fname, _ in SUITE:
        B2, B1 = lang.parse_transformation((CORPUS / fname).read_text())
        budget = context_bound(B1, B2, values)
        reached = check_cut_refinement(B1, B2, budget).stats["contexts"]
        for ctx in itertools.islice(enumerate_contexts(B1, B2, budget),
                                    reached):
            pruner = CutPruner(ctx.actions, ctx.S)
            for B in (B1, B2):
                if (B, ctx) in seen:
                    continue
                seen.add((B, ctx))
                _, _, _, (pres,) = setup((B,), values)
                for ps in pres:
                    for p in ps:
                        pre = _under(p, ctx)
                        classes += _assert_rf_classes_match(pre)
                        classes += _assert_rf_classes_match(pre,
                                                            pruner=pruner)
    assert classes > 4000


def _shared_mask_pres():
    """Pre-executions, each with a pruner or None, whose locations share
    preds and late but differ in the hidden writes or in succ: three
    stores at x, two of them context writes that a pruner hides; and two
    stores and an LL/SC pair at x, the LL reading the first store, once
    with the pair in at and once without. Then the pre-executions of
    store_collapse.tr's blocks under its first contexts, with and without
    their pruner."""
    c1 = Action("c1", "store", "x", (1,), "context")
    c2 = Action("c2", "store", "x", (2,), "context")
    stores = (A("w", "store", "x", 1), c1, c2)
    out = [(_case(stores)[0], None),
           (_case(stores)[0], CutPruner([c1, c2], ()))]
    llsc = (A("w1", "store", "x", 1), A("w2", "store", "x", 2),
            A("l", "LL", "x", 1), A("s", "SC", "x", 3))
    for at in ([("l", "s")], []):
        out.append((PreExecution(llsc, frozenset(), frozenset(at)), None))
    values = frozenset({0, 1})
    B2, B1 = lang.parse_transformation(
        (CORPUS / "store_collapse.tr").read_text())
    for ctx in itertools.islice(
            enumerate_contexts(B1, B2, context_bound(B1, B2, values)), 40):
        pruner = CutPruner(ctx.actions, ctx.S)
        for B in (B1, B2):
            _, _, _, (pres,) = setup((B,), values)
            for ps in pres:
                for p in ps:
                    out += [(_under(p, ctx), None), (_under(p, ctx), pruner)]
    return out


def test_rf_classes_with_and_without_a_pruner_match_in_one_process():
    # the mo orders are cached by their masks and hidden flags across
    # calls: run the same pre-executions with and without a pruner, in
    # both orders from an empty cache, and compare each with the slow path
    cases = _shared_mask_pres()
    for run in (cases, cases[::-1]):
        _mo_positions.cache_clear()
        _mo_ids.cache_clear()
        for pre, pruner in run:
            _assert_rf_classes_match(pre, pruner=pruner)
    assert _mo_positions.cache_info().hits


_KINDS = ("load", "store", "LL", "SC", "load_NA", "store_NA")


@st.composite
def _random_pres(draw):
    """A pre-execution of two to six actions at x and y, a third of them
    context actions: sb forward along a random order, so acyclic; r_ctx
    any pairs, so often cyclic; at some LL/SC pairs of one location.
    Half of them have no non-atomic action. Then, for some, the
    CutPruner of the context actions and their at pairs, with or without
    orbits."""
    kinds = _KINDS if draw(st.booleans()) else _KINDS[:4]
    acts = tuple(
        Action(f"a{i}", draw(st.sampled_from(kinds)),
               draw(st.sampled_from("xy")), (draw(st.integers(0, 1)),),
               draw(st.sampled_from(["code", "code", "context"])))
        for i in range(draw(st.integers(2, 6))))
    ids = [a.aid for a in acts]
    order = draw(st.permutations(ids))
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    sb = draw(st.frozensets(
        st.sampled_from(list(itertools.combinations(order, 2))),
        max_size=6))
    r_ctx = draw(st.frozensets(pair, max_size=2))
    at = draw(st.frozensets(st.sampled_from(
        [(u.aid, v.aid) for u in acts for v in acts if u.kind == "LL"
         and v.kind == "SC" and u.gvar == v.gvar] or [None]), max_size=2))
    at = frozenset(at) - {None}
    pruner = None
    if draw(st.booleans()):
        ctx = [a for a in acts if a.origin == "context"]
        S = {(u, v) for (u, v) in at
             if {u, v} <= {a.aid for a in ctx}}
        pruner = CutPruner(ctx, S, orbits=draw(st.booleans()))
    return PreExecution(acts, sb, at, r_ctx), pruner


_CTX_STORE = Action("c", "store", "x", (1,), "context")
_CTX_STORES = tuple(Action(f"c{i}", "store", "x", (1,), "context")
                    for i in range(3))


def _case(acts, sb=(), r_ctx=(), pruner=None):
    return PreExecution(tuple(acts), frozenset(sb), frozenset(),
                        frozenset(r_ctx)), pruner


@settings(max_examples=300, deadline=None)
@given(_random_pres())
# a cyclic R base; load buffering, where both reads read the other
# thread's write only through an hb cycle; RFHBNA, a non-atomic read of a
# write it is not sb-after; a context store a pruner must hide; three
# equal context stores, one read by the code, whose other two a pruner
# with orbits puts in mo in id order; and an atomic read of an atomic
# write that reaches it through a non-atomic write of its location, a
# choice no coherence rule forbids
@example(_case([A("a", "store", "x", 1), A("b", "load", "x", 1)],
               r_ctx=[("a", "b"), ("b", "a")]))
@example(_case([A("r1", "load", "x", 1), A("w1", "store", "y", 1),
                A("r2", "load", "y", 1), A("w2", "store", "x", 1)],
               sb=[("r1", "w1"), ("r2", "w2")]))
@example(_case([A("w", "store_NA", "x", 1), A("r", "load_NA", "x", 1)]))
@example(_case([A("w", "store", "x", 1), _CTX_STORE,
                A("r", "load", "x", 1)],
               sb=[("w", "r")], pruner=CutPruner([_CTX_STORE], ())))
@example(_case([A("w", "store", "x", 1), *_CTX_STORES,
                A("r", "load", "x", 1)],
               pruner=CutPruner(_CTX_STORES, (), orbits=True)))
@example(_case([A("w", "store", "x", 1), A("n", "store_NA", "x", 1),
                A("r", "load", "x", 1)],
               sb=[("w", "n"), ("n", "r"), ("w", "r")]))
def test_rf_classes_match_the_slow_path_on_random_pre_executions(case):
    pre, pruner = case
    _assert_rf_classes_match(pre, pruner)
