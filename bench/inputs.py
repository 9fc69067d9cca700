"""Workload inputs and their references.

The verify workloads check corpus transformations against a hand-written
table of expected verdicts. The litmus workload generates random programs
from the seed; its reference outcome sets come from the brute-force oracle
in tests/oracles.py (see reference.py), never from the package itself.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

# Expected verdicts, written by hand: the same table as SUITE in
# tests/test_acceptance.py. A transformation is sound or not whatever the
# value domain, so the V=3 rows use the same expectation.
EXPECTED = {
    "fence_intro.tr": "Verified",
    "fence_elim.tr": "Verified",
    "load_intro.tr": "Verified",
    "load_to_local_intro.tr": "Refuted",
    "load_to_local_elim.tr": "Refuted",
    "load_dup.tr": "Verified",
    "load_collapse.tr": "Verified",
    "store_dup.tr": "Verified",
    "load_after_store_elim.tr": "Verified",
    "store_collapse.tr": "Verified",
    "writeback_intro.tr": "Refuted",
    "writeback_elim.tr": "Refuted",
    "fence_dup.tr": "Verified",
    "fence_collapse.tr": "Verified",
    "fence_load_exchange.tr": "Refuted",
    "fence_store_exchange.tr": "Refuted",
    "load_fence_exchange.tr": "Refuted",
    "store_fence_exchange.tr": "Refuted",
    "load_store_exchange.tr": "Refuted",
    "load_load_exchange.tr": "Refuted",
    "store_store_exchange.tr": "Refuted",
}

# Verdicts known to differ from the table. They stay counted in
# result_mismatches; only a mismatch outside this list makes a run
# incorrect, and a listed row that starts to agree is no error.
KNOWN_MISMATCHES = {
    ("store_dup.tr", 2): "the finite check refutes a duplicated store the"
                         " table accepts",
    ("writeback_elim.tr", 2): "the finite check accepts a write-back"
                              " elimination the table rejects",
    ("writeback_elim.tr", 3): "the finite check accepts a write-back"
                              " elimination the table rejects",
}

# Corpus transformations left out of every verify workload.
EXCLUDED = {
    "na_load_reorder.tr": "verify checks its ldna accesses with atomic"
                          " semantics, so its verdict means nothing; verify"
                          " is to reject non-atomic blocks instead",
    "store_collapse_wide.tr": "no external expected verdict exists for it",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # 'verify' | 'litmus'
    files: tuple = ()
    values: int = 2  # size of the value domain {0, .., V-1}
    programs: int = 0
    input_limit_s: float = 30.0


WORKLOADS = {
    w.name: w
    for w in (
        # the check users run: every table row at V=2, in table order;
        # load_dup, 60 % of its time, also exercises the domination scan
        Workload("verify-table", "verify", tuple(EXPECTED), values=2),
        # generation and the cut dominate; histories are almost idle
        Workload("verify-generate", "verify",
                 ("load_after_store_elim.tr", "store_collapse.tr",
                  "load_collapse.tr", "writeback_elim.tr"), values=3),
        # whole-program enumeration: full sb, no context, cut or history
        Workload("simulate-litmus", "litmus", programs=2000,
                 input_limit_s=5.0),
    )
}


# ---------------------------------------------------------------------------
# seeded litmus programs

GLOBALS = ("x", "y")
# Largest brute-force search space (thread-local runs x rf choices x mo
# orders) a generated program may have, so that the oracle finishes the
# whole batch in seconds. Larger programs are redrawn.
ORACLE_SPACE_CAP = 5000


def oracle_space(events) -> int:
    """Upper bound on the assignments the brute-force oracle tries for a
    program: thread-local runs x rf choices x mo orders. events lists the
    program's accesses as (kind, global, non-atomic) triples."""
    runs, reads, writes, mo = 1, 0, 0, {}
    for (kind, g, na) in events:
        if kind == "load":
            runs, reads = runs * 2, reads + 1
        elif kind == "store":
            writes += 1
            if not na:
                mo[g] = mo.get(g, 0) + 1
        else:  # an LL/SC pair, or a fence (an LL/SC pair on "fen")
            if kind == "llsc":
                runs *= 4  # LL value x SC success or failure
            g = g if kind == "llsc" else "fen"
            reads, writes = reads + 1, writes + 1
            mo[g] = mo.get(g, 0) + 1
    return (runs * (writes + 1) ** reads
            * math.prod(math.factorial(n) for n in mo.values()))


def _thread(rng, t, na, events):
    """One thread of 1-3 statements; appends its accesses to events."""
    stmts, loaded = [], []
    for k in range(rng.randint(1, 3)):
        g = rng.choice(GLOBALS)
        kind = rng.choice(("load", "store", "fence")
                          + (() if na[g] else ("llsc",)))
        events.append((kind, g, na[g]))
        r = f"r{t}{k}"
        if kind == "load":
            stmts.append(f"{r} := {'ldna' if na[g] else 'ld'}({g})")
            loaded.append(r)
        elif kind == "store":
            src = rng.choice(loaded + ["1"])
            stmts.append(f"{'stna' if na[g] else 'st'}({g},{src})")
        elif kind == "fence":
            stmts.append("fc")
        else:
            stmts.append(f"{r} := LL({g}); s{t}{k} := SC({g},{r})")
            loaded.append(r)
    return "; ".join(stmts)


def litmus_batch(seed: int, n: int):
    """n programs of 2-3 threads over x and y, each location atomic or
    non-atomic for the whole program. Returns (text, mode) pairs."""
    rng = random.Random(f"litmus:{seed}")
    out = []
    while len(out) < n:
        na = {g: rng.random() < 0.3 for g in GLOBALS}
        events = []
        threads = [_thread(rng, t, na, events)
                   for t in range(rng.choice((2, 3)))]
        if oracle_space(events) > ORACLE_SPACE_CAP:
            continue
        text = " ||| ".join(threads)
        out.append((text, "NA" if any(na.values()) else "AT"))
    return out


def outcome_digest(signatures) -> str:
    """Digest of a set of execution signatures (actions as (aid, kind,
    gvar, vals) tuples, rf pairs, mo pairs), independent of order."""
    rows = sorted(
        repr((sorted(acts), sorted(rf), sorted(mo)))
        for (acts, rf, mo) in signatures
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]
