"""Execution validity, whole-program enumeration and observation."""

import itertools

import pytest

from stellite import lang
from stellite.axiomatic import (
    Action,
    EnumConfig,
    Execution,
    check_axioms,
    closure,
    derive_hb,
    enumerate_program,
    is_atomic_write,
    is_read,
    is_write,
    obs_refines_ex,
    obs_refines_pr,
    safe,
    valid,
)

from oracles import (
    _oracle_at,
    _oracle_valid,
    brute_force_signatures,
    enumerated_signatures,
)


def _exec(actions, sb=(), rf=(), mo=(), at=(), mode="AT", r_ctx=()):
    hb = derive_hb(actions, frozenset(sb), frozenset(rf),
                   frozenset(r_ctx), mode)
    return Execution(
        actions=tuple(actions),
        sb=frozenset(sb),
        at=frozenset(at),
        rf=frozenset(rf),
        mo=frozenset(mo),
        hb=hb,
        mode=mode,
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
    assert derive_hb((w, r), frozenset(), {("w", "r")}, mode="NA") == frozenset()
    assert ("w", "r") in derive_hb((w, r), frozenset(), {("w", "r")}, mode="AT")


def test_closure_is_idempotent_and_contains_input():
    edges = {("a", "b"), ("b", "c"), ("c", "d")}
    cl = closure(edges)
    assert edges <= cl and closure(cl) == cl and ("a", "d") in cl


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
    X = _exec((w, r), rf={("w", "r")}, mode="NA")
    assert check_axioms(X)[0] == "RFHBNA"


def test_nonatomic_read_of_an_overwritten_value_is_invalid():
    acts = (
        A("w1", "store_NA", "x", 1),
        A("w2", "store_NA", "x", 0),
        A("r", "load_NA", "x", 1),
    )
    X = _exec(acts, sb={("w1", "w2"), ("w2", "r"), ("w1", "r")},
              rf={("w1", "r")}, mode="NA")
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
    racy = _exec((w, r), mode="NA")
    assert not safe(racy)
    ordered = _exec((w, A("w2", "store_NA", "x", 1)),
                    sb={("w", "w2")}, mode="NA")
    assert safe(ordered)
    assert safe(_exec((A("w", "store", "x", 1),), mode="NA"))


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
    assert enumerated_signatures(P, mode="NA") == brute_force_signatures(
        P, mode="NA"
    )


def _assignments(P, mode):
    """Every execution of P over the space brute_force_signatures
    searches: any write or none as each read's source, every mo order of
    each location's atomic writes. Yields (execution, oracle verdict)."""
    vals = frozenset({0, 1}) | lang.literals_of(P)
    per = [lang.thread_local_block(th, {l: 0 for l in lang.locals_of(th)},
                                   vals, prefix=f"t{i}.")
           for i, th in enumerate(lang.threads_of(P))]
    for combo in itertools.product(*per):
        acts = tuple(a for (aa, _, _) in combo for a in aa)
        sb = frozenset(p for (_, s, _) in combo for p in s)
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
            hb = derive_hb(acts, sb, rf, mode=mode)
            for orders in itertools.product(
                    *(itertools.permutations(ws) for ws in locs.values())):
                mo = frozenset(p for order in orders
                               for p in itertools.combinations(order, 2))
                X = Execution(acts, sb, at, rf, mo, hb, mode)
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
        assert X.hb == derive_hb(X.actions, X.sb, X.rf, X.r_ctx, X.mode)
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
