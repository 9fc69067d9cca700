"""Acceptance suite: one test per criterion, one PASS/FAIL line each."""

import random
import time
from pathlib import Path

from stellite import lang
from stellite.axiomatic import EnumConfig, enumerate_program
from stellite.blocklocal import code_of
from stellite.verifier import (
    check_cut_refinement,
    check_q_instance,
    context_bound,
    enumerate_contexts,
)

from oracles import (
    adequacy_trial,
    brute_force_signatures,
    deny_domain,
    enumerated_signatures,
    forced_read_instance,
    forced_read_instance_execs,
    single_load_instance,
    single_load_instance_execs,
    oracle_deny_hit,
    cut_survivors,
    sample_block_local,
)
from stellite.adversary import reproduce
from stellite.history import deny

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# expected verdict table for the transformation suite (V=2, derived budgets)
SUITE = [
    ("fence_intro.tr", "Verified"),
    ("fence_elim.tr", "Verified"),
    ("load_intro.tr", "Verified"),
    ("load_to_local_intro.tr", "Refuted"),
    ("load_to_local_elim.tr", "Refuted"),
    ("load_dup.tr", "Verified"),
    ("load_collapse.tr", "Verified"),
    # a doubled store lets a reader see 1, 2, 1 in turn when a context
    # store of 2 falls between the two copies in mo; one store cannot
    ("store_dup.tr", "Refuted"),
    ("load_after_store_elim.tr", "Verified"),
    ("store_collapse.tr", "Verified"),
    ("writeback_intro.tr", "Refuted"),
    ("writeback_elim.tr", "Refuted"),
    ("fence_dup.tr", "Verified"),
    ("fence_collapse.tr", "Verified"),
    ("fence_load_exchange.tr", "Refuted"),
    ("fence_store_exchange.tr", "Refuted"),
    ("load_fence_exchange.tr", "Refuted"),
    ("store_fence_exchange.tr", "Refuted"),
    ("load_store_exchange.tr", "Refuted"),
    ("load_load_exchange.tr", "Refuted"),
    ("store_store_exchange.tr", "Refuted"),
]

# blocks checked by the suite, the pairs our checker reports Verified
VERIFIED_PAIRS = [
    ("fc", "skip"),
    ("skip", "fc"),
    ("ld(x)", "skip"),
    ("l := ld(x); l := ld(x)", "l := ld(x)"),
    ("l := ld(x)", "l := ld(x); l := ld(x)"),
    ("st(x,l)", "st(x,l); l := ld(x)"),
    ("st(x,l)", "st(x,m); st(x,l)"),
    ("fc; fc", "fc"),
    ("fc", "fc; fc"),
]


def _report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_transformation_verdict_table():
    mismatches = []
    for fname, want in SUITE:
        text = (CORPUS / fname).read_text()
        B2, B1 = lang.parse_transformation(text)
        t0 = time.monotonic()
        got = check_cut_refinement(B1, B2).outcome
        dt = time.monotonic() - t0
        mark = "ok " if got == want else "BAD"
        print(f"  {mark} {fname:28s} expected {want:8s}"
              f" got {got:8s} {dt:7.1f}s")
        assert dt < 1800
        if got != want:
            mismatches.append((fname, want, got))
    ok = not mismatches
    _report(1, ok, f"verdict table, {len(SUITE)} rows,"
                   f" {len(mismatches)} mismatches {mismatches}")
    assert ok, f"verdicts differ from the expected table: {mismatches}"


def test_criterion_2_store_buffering_and_message_passing():
    t0 = time.monotonic()
    sb = enumerate_program(lang.parse_program((CORPUS / "sb.lit").read_text()))
    sb_outcomes = {
        tuple(sorted((k, v) for sg in sigmas for (k, v) in sg.items()))
        for sigmas in sb.outcomes
    }
    relaxed = (("v1", 0), ("v2", 0))
    assert relaxed in sb_outcomes
    t_sb = time.monotonic() - t0

    t0 = time.monotonic()
    mp = enumerate_program(lang.parse_program((CORPUS / "mp.lit").read_text()))
    mp_outcomes = {
        tuple(sorted((k, v) for sg in sigmas for (k, v) in sg.items()))
        for sigmas in mp.outcomes
    }
    assert not any(
        dict(o).get("b") == 1 and dict(o).get("r") == 0 for o in mp_outcomes
    )
    t_mp = time.monotonic() - t0
    ok = t_sb < 10 and t_mp < 10
    _report(2, ok, "store buffering admits v1=v2=0, message passing forbids"
                   f" b=1,r=0 ({t_sb:.1f}s / {t_mp:.1f}s)")
    assert ok


def test_criterion_3_nonatomic_litmus_safety_and_outcomes():
    t0 = time.monotonic()
    cfg = EnumConfig(mode="NA")
    before = enumerate_program(
        lang.parse_program((CORPUS / "na_race_before.lit").read_text()), cfg
    )
    after = enumerate_program(
        lang.parse_program((CORPUS / "na_race_after.lit").read_text()), cfg
    )
    assert before.unsafe and after.unsafe

    def admits(res, want):
        for sigmas in res.outcomes:
            merged = {}
            for sg in sigmas:
                merged.update(sg)
            if all(merged.get(k) == v for k, v in want.items()):
                return True
        return False

    stale = {"l1": 0, "l2": 1, "l3": 0}
    assert admits(after, stale)
    assert not admits(before, stale)
    dt = time.monotonic() - t0
    ok = dt < 30
    _report(3, ok, "both racy programs flagged unsafe; only the reordered"
                   f" one admits the stale re-read ({dt:.1f}s)")
    assert ok


def test_criterion_4_finite_check_refutes_what_every_instance_allows():
    t0 = time.monotonic()
    B1, B2 = lang.parse_block("skip"), lang.parse_block("ld(x)")
    v = check_cut_refinement(B1, B2)
    assert v.outcome == "Refuted"
    ctxs = list(enumerate_contexts(B1, B2))
    assert ctxs
    for ctx in ctxs:
        assert check_q_instance(B1, B2, ctx), ctx
    dt = time.monotonic() - t0
    ok = dt < 300
    _report(4, ok, "load introduction is refuted by the finite check yet"
                   f" holds at all {len(ctxs)} explicit instances"
                   f" ({dt:.1f}s)")
    assert ok


def test_criterion_5_worked_instances():
    t0 = time.monotonic()
    # collapsed store under one late context load
    B6, ctx6 = single_load_instance()
    assert check_q_instance(B6, lang.parse_block("st(x,11); st(x,11)"), ctx6)

    # non-atomic reorder accepted via unsafe prefixes
    from stellite.axiomatic import Action
    from stellite.blocklocal import CutContext

    ctx11 = CutContext(
        (
            Action("a1", "store_NA", "x", (1,), "context"),
            Action("a2", "store", "y", (1,), "context"),
        ),
        frozenset({("a1", "a2")}),
        frozenset(),
    )
    assert check_q_instance(
        lang.parse_block("l1 := ldna(x); l3 := ldna(x); l2 := ld(y)"),
        lang.parse_block("l1 := ldna(x); l2 := ld(y); l3 := ldna(x)"),
        ctx11,
    )

    # forced-read block-local set
    execs = forced_read_instance_execs()

    def flag_rf(X):
        return any(w == "wf" for (w, r) in X.rf if X.by_id()[r].gvar == "f")

    def xval(X):
        return next(a.vals[0] for a in code_of(X) if a.gvar == "x")

    assert any(flag_rf(X) and xval(X) == 1 for X in execs)
    assert not any(flag_rf(X) and xval(X) == 2 for X in execs)
    dt = time.monotonic() - t0
    ok = dt < 180
    _report(5, ok, f"all three worked instances behave as documented"
                   f" ({dt:.1f}s)")
    assert ok


def test_criterion_6a_adequacy_sampling():
    failures = []
    trials = 0
    for (b1, b2) in VERIFIED_PAIRS:
        rng = random.Random(f"adequacy:{b1}~{b2}")
        for _ in range(100):
            trials += 1
            if not adequacy_trial(rng, b1, b2):
                failures.append((b1, b2))
                break
    ok = not failures
    _report(6, ok, f"adequacy sampling, {trials} random contexts over"
                   f" {len(VERIFIED_PAIRS)} verified pairs,"
                   f" violations: {failures}")
    assert ok


def test_criterion_6b_oracle_equivalence():
    checked = 0
    for path in sorted(CORPUS.iterdir()):
        if path.suffix == ".lit":
            progs = [lang.parse_program(path.read_text())]
        elif path.suffix == ".tr":
            progs = [
                lang.Program((side,))
                for side in lang.parse_transformation(path.read_text())
            ]
        else:
            continue
        for P in progs:
            mode = "NA" if lang.na_vars_of(P) else "AT"
            assert enumerated_signatures(P) == \
                brute_force_signatures(P, mode=mode), path
            checked += 1
    _report(6, True, f"oracle equivalence on {checked} corpus programs,"
                     " 0 discrepancies")


def test_criterion_6c_deny_oracle():
    samples = 0
    for X in sample_block_local(520):
        D = deny(X)
        for (u, v) in deny_domain(X):
            assert ((u, v) in D) == oracle_deny_hit(X, u, v)
        samples += 1
    ok = samples >= 500
    _report(6, ok, f"deny oracle agreement on {samples} sampled"
                   " block-local executions, 0 discrepancies")
    assert ok


def test_criterion_6d_finiteness_across_enumeration_orders():
    blocks = sorted(
        {
            lang.unparse_block(side)
            for fname, _ in SUITE
            for side in lang.parse_transformation(
                (CORPUS / fname).read_text()
            )
        }
    )
    for btxt in blocks:
        B = lang.parse_block(btxt)
        ctxs = list(enumerate_contexts(B, B, context_bound(B, B)))
        counts = []
        for order in (ctxs, ctxs[::-1]):
            n = 0
            for ctx in order:
                n += len(cut_survivors(B, ctx))
            counts.append(n)
        assert counts[0] == counts[1], (btxt, counts)
    _report(6, True, f"cut-filtered execution counts stable across two"
                     f" enumeration orders for {len(blocks)} blocks")


def test_criterion_6e_adversary_reproduction():
    B4, _ = forced_read_instance()
    e4 = forced_read_instance_execs()
    B6, _ = single_load_instance()
    e6 = single_load_instance_execs()
    total = len(e4) + len(e6)
    good = sum(reproduce(X, B4) for X in e4) + sum(
        reproduce(X, B6) for X in e6
    )
    ok = good == total and total >= 4
    _report(6, ok, f"adversarial context reproduction {good}/{total}"
                   " block-local executions")
    assert ok
