"""Adversarial context synthesis and the reproduction self-test."""

import dataclasses
import re
from pathlib import Path

import pytest

from stellite import lang
from stellite.axiomatic import Action
from stellite.adversary import (
    CALL_MARK,
    ERROR_VAR,
    RET_MARK,
    build_context,
    reproduce,
)
from stellite.blocklocal import CALL, RET, CutContext, block_local, contx_of
from stellite.verifier import check_cut_refinement, context_bound

from oracles import (
    forced_read_instance,
    forced_read_instance_execs,
    single_load_instance,
    single_load_instance_execs,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_empty_context_builds_a_checker_around_the_hole():
    B = lang.parse_block("st(x,1)")
    [X] = block_local(B, CutContext(()))
    ac = build_context(X)
    text = lang.unparse(ac.program)
    assert text.count("{-}") == 1
    assert f"st({CALL_MARK}, 1)" in text and f"st({RET_MARK}, 1)" in text
    assert reproduce(X, B)


def test_generated_context_parses_back_and_is_wellformed():
    for X in forced_read_instance_execs():
        ac = build_context(X)
        text = lang.unparse(ac.program)
        prog = lang.parse_program(text)
        lang.check_wellformed(prog)
        filled = lang.substitute(prog, lang.parse_block("st(x,1)"))
        lang.check_wellformed(lang.parse_program(lang.unparse(filled)))


def test_watchdog_variables_are_fresh():
    B, ctx = forced_read_instance()
    for X in block_local(B, ctx, values=frozenset({0, 1, 2})):
        ac = build_context(X)
        block_vars = {"x", "f"}
        pvars = lang.vars_of(ac.program)
        fresh = pvars - block_vars
        # every generated global is a marker, the error flag or a watchdog
        for g in fresh - {ERROR_VAR, CALL_MARK, RET_MARK}:
            assert g.startswith(("h_", "g_")), g
            assert g not in block_vars
        assert set(ac.watch_r.values()) <= fresh
        assert set(ac.watch_h.values()) <= fresh


def test_error_signalling_uses_the_error_variable():
    B, ctx = single_load_instance()
    [X] = single_load_instance_execs()
    text = lang.unparse(build_context(X).program)
    assert f"st({ERROR_VAR}, 1)" in text
    assert "if (" in text  # mismatch guards


def test_forced_read_executions_all_reproduce():
    B, _ = forced_read_instance()
    execs = forced_read_instance_execs()
    assert len(execs) == 3
    for X in execs:
        assert reproduce(X, B)


def test_single_load_executions_all_reproduce():
    B, _ = single_load_instance()
    execs = single_load_instance_execs()
    assert execs
    for X in execs:
        assert reproduce(X, B)


def test_mutated_return_vector_fails_to_reproduce():
    B, _ = forced_read_instance()
    X = forced_read_instance_execs()[0]
    acts = tuple(
        dataclasses.replace(a, vals=(1 - a.vals[0], a.vals[1]))
        if a.aid == RET
        else a
        for a in X.actions
    )
    mutated = dataclasses.replace(X, actions=acts)
    assert not reproduce(mutated, B)


@pytest.mark.parametrize("block,R", [
    ("w2 := ld(x); w3 := ld(x)", frozenset()),
    ("l := ld(h_a_call); m := ld(x)", frozenset({("a", CALL)})),
], ids=["locals-like-the-checks", "a-global-like-a-watchdog"])
def test_generated_names_stay_clear_of_the_blocks(block, R):
    # the checks' locals are w, w0, w1, ... and the watchdog of the edge
    # a -> call is h_a_call, unless the block has taken the name
    B = lang.parse_block(block)
    ctx = CutContext((Action("a", "store", "x", (1,), "context"),), R)
    execs = block_local(B, ctx)
    assert execs
    for X in execs:
        assert reproduce(X, B)


def _refuted_witnesses():
    """(row, new block, witness) of each Refuted corpus row at V=2."""
    out = []
    for path in sorted(CORPUS.glob("*.tr")):
        B2, B1 = lang.parse_transformation(path.read_text())
        if lang.na_vars_of(B1) or lang.na_vars_of(B2):
            continue
        v = check_cut_refinement(B1, B2, context_bound(B1, B2))
        if v.outcome == "Refuted":
            out.append((path.name, B1, v.witness.execution))
    return out


def test_every_refutation_prints_a_parsable_context_that_reproduces():
    # the four fence-exchange witnesses hold context fences, which print
    # as fc: LL(fen) and SC(fen, ...) do not parse
    rows = _refuted_witnesses()
    assert len(rows) == 12
    fenced = 0
    for name, B1, X in rows:
        text = lang.unparse(build_context(X).program)
        lang.check_wellformed(lang.parse_program(text))
        assert "(fen" not in text, name
        fenced += bool(re.search(r"\bfc\b", text))
        assert reproduce(X, B1), name
    assert fenced >= 4


def test_a_mutated_fence_witness_fails_to_reproduce():
    [(_, B1, X)] = [r for r in _refuted_witnesses()
                    if r[0] == "fence_load_exchange.tr"]
    assert any(a.gvar == lang.FENCE_VAR for a in contx_of(X))
    acts = tuple(
        dataclasses.replace(a, vals=tuple(1 - v for v in a.vals))
        if a.aid == RET else a
        for a in X.actions
    )
    assert not reproduce(dataclasses.replace(X, actions=acts), B1)
