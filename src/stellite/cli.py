"""Command-line front end: verify / simulate / instance / adversary.

Exit codes: 0 verified or allowed, 1 refuted or forbidden outcome found,
2 unknown (budget exceeded), 3 input error.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, lang
from .axiomatic import (
    READ_KINDS,
    WRITE_KINDS,
    Action,
    EnumConfig,
    Execution,
    check_axioms,
    enumerate_program,
    is_na,
    safe,
)
from .lang import ParseError


# ---------------------------------------------------------------------------
# JSON / DOT export


def execution_to_json(X: Execution) -> dict:
    return {
        "nodes": [
            {
                "id": a.aid,
                "kind": a.kind,
                "var": a.gvar,
                "values": list(a.vals),
                "origin": a.origin,
            }
            for a in X.actions
        ],
        "edges": {
            rel: sorted(map(list, getattr(X, rel)))
            for rel in ("sb", "rf", "mo", "hb", "at")
        },
        "context_hb": sorted(map(list, X.r_ctx)),
        "locals": list(X.locals_order),
        "safe": safe(X) if any(map(is_na, X.actions)) else None,
    }


_KINDS = READ_KINDS | WRITE_KINDS | {"SC_f", "call", "ret"}
_ORIGINS = ("code", "context", "boundary")


def execution_from_json(d: dict) -> Execution:
    """The inverse of execution_to_json; ValueError if d has another
    shape, a node id defined twice, an unknown node kind or origin, a var
    that is not a string or null or a value that is not an integer, a
    call or ret without one value per local, locals that are not
    distinct names, or an edge whose endpoint is not a node. Keys it
    does not read, such as the "mode" of older files, are ignored."""
    try:
        names = d.get("locals", [])
        if (type(names) is not list or any(type(l) is not str for l in names)
                or len(set(names)) < len(names)):
            raise ValueError(f"locals {names!r} are not distinct names")
        acts = tuple(
            Action(n["id"], n["kind"], n["var"], tuple(n["values"]),
                   n["origin"])
            for n in d["nodes"]
        )
        rels = {name: frozenset(map(tuple, d["edges"][name]))
                for name in ("sb", "rf", "mo", "hb", "at")}
        rels["context_hb"] = frozenset(map(tuple, d.get("context_hb", [])))
        ids = set()
        for a in acts:
            if a.aid in ids:
                raise ValueError(f"node {a.aid!r} is defined twice")
            ids.add(a.aid)
            if a.kind not in _KINDS or a.origin not in _ORIGINS:
                raise ValueError(f"node {a.aid!r} has kind {a.kind!r} and"
                                 f" origin {a.origin!r}")
            if not (a.gvar is None or isinstance(a.gvar, str)) or any(
                    type(v) is not int for v in a.vals):
                raise ValueError(f"node {a.aid!r} has var {a.gvar!r} and"
                                 f" values {list(a.vals)!r}")
            if a.kind in ("call", "ret") and len(a.vals) != len(names):
                raise ValueError(f"node {a.aid!r} has values {list(a.vals)!r}"
                                 f" for locals {names!r}")
        for name, edges in rels.items():
            for (u, v) in edges:
                if u not in ids or v not in ids:
                    raise ValueError(f"{name} edge ({u!r}, {v!r}) has an"
                                     " endpoint that is not a node")
        return Execution(
            actions=acts,
            sb=rels["sb"],
            at=rels["at"],
            rf=rels["rf"],
            mo=rels["mo"],
            hb=rels["hb"],
            r_ctx=rels["context_hb"],
            locals_order=tuple(names),
        )
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"not an execution: {exc}") from exc


def history_to_json(H) -> dict:
    return {
        "actions": [
            {"id": a.aid, "kind": a.kind, "var": a.gvar,
             "values": list(a.vals)}
            for a in sorted(H.A, key=lambda a: a.aid)
        ],
        "guarantee": sorted(map(list, H.G)),
        "deny": sorted(map(list, H.D)),
    }


def _transitive_reduce(rel):
    rel = set(rel)
    out = set(rel)
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c and (a, d) in out and a != d:
                out.discard((a, d))
    return out


def execution_to_dot(X: Execution, name="execution") -> str:
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for a in X.actions:
        shape = "box" if a.origin == "code" else (
            "ellipse" if a.origin == "context" else "diamond")
        lines.append(f'  "{a.aid}" [label="{a!r}", shape={shape}];')
    styles = {
        "sb": "solid",
        "rf": "dashed",
        "mo": "dotted",
        "at": "solid",
    }
    for rel, style in styles.items():
        for (u, v) in sorted(getattr(X, rel)):
            extra = ', color=gray40' if rel == "at" else ""
            lines.append(
                f'  "{u}" -> "{v}" [style={style}, label="{rel}"{extra}];'
            )
    for (u, v) in sorted(_transitive_reduce(X.hb)):
        lines.append(f'  "{u}" -> "{v}" [style=bold, color=gray70];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# context files


def parse_context_file(text) -> CutContext:
    """Lines: 'ctx: [label =] action', 'R: a -> b', 'S: a -> b'.

    Actions are kind(var, value) with kinds ld/ldna/st/stna/LL/SC; labels
    default to a1, a2, ... in order of appearance.
    """
    import re

    from .blocklocal import CutContext

    acts, R, S = [], set(), set()
    kinds = {"ld": "load", "ldna": "load_NA", "st": "store",
             "stna": "store_NA", "LL": "LL", "SC": "SC"}
    act_re = re.compile(
        r"^(?:(?P<label>\w+)\s*=\s*)?"
        r"(?P<kind>ld|ldna|st|stna|LL|SC)\s*\(\s*"
        r"(?P<var>\w+)\s*,\s*(?P<val>\d+)\s*\)$"
    )
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"context file line {ln}: missing ':'")
        head, rest = line.split(":", 1)
        head, rest = head.strip(), rest.strip()
        if head == "ctx":
            m = act_re.match(rest)
            if not m:
                raise ParseError(f"context file line {ln}: bad action")
            label = m.group("label") or f"a{len(acts) + 1}"
            if label in ("call", "ret"):
                raise ParseError(f"context file line {ln}: label {label!r}"
                                 " is reserved for the block boundary")
            acts.append(Action(label, kinds[m.group("kind")], m.group("var"),
                               (int(m.group("val")),), "context"))
        elif head in ("R", "S"):
            mm = re.match(r"^(\w+)\s*->\s*(\w+)$", rest)
            if not mm:
                raise ParseError(f"context file line {ln}: bad edge")
            (R if head == "R" else S).add((mm.group(1), mm.group(2)))
        else:
            raise ParseError(f"context file line {ln}: unknown key {head!r}")
    known = {a.aid for a in acts} | {"call", "ret"}
    for (u, v) in R | S:
        if u not in known or v not in known:
            raise ParseError(f"edge endpoint {u!r} or {v!r} is not defined")
    return CutContext(tuple(acts), frozenset(R), frozenset(S))


# ---------------------------------------------------------------------------
# subcommands


def cmd_verify(args) -> int:
    from .verifier import check_cut_refinement, context_bound

    text = Path(args.file).read_text()
    B2, B1 = lang.parse_transformation(text)
    budget = context_bound(B1, B2, frozenset(range(args.values)))
    if args.max_execs is not None:
        budget = budget._replace(max_block_execs=args.max_execs)
    t0 = time.perf_counter()
    verdict = check_cut_refinement(B1, B2, budget)
    dt = time.perf_counter() - t0
    report = {
        "transformation": text.strip(),
        "verdict": verdict.outcome,
        "stats": verdict.stats,
        "seconds": round(dt, 3),
    }
    if verdict.witness is not None:
        w = verdict.witness
        report["witness"] = {
            "context_actions": [repr(a) for a in w.context.actions],
            "context_S": sorted(map(list, w.context.S)),
            "sigma": w.sigma,
            "execution": execution_to_json(w.execution),
            "history": history_to_json(w.hist),
            "candidate_histories": [history_to_json(h) for h in w.candidates],
            "note": "the refutation may be spurious: the finite check "
                    "is adequate but not complete",
        }
    print(f"{verdict.outcome}"
          + (f" ({verdict.stats.get('error')})" if verdict.outcome == "Unknown"
             else ""))
    print(f"contexts={verdict.stats['contexts']}"
          f" unfit={verdict.stats['unfit']}"
          f" symmetric={verdict.stats['symmetric']}"
          f" cut={verdict.stats['x1_cut']}"
          f" orbits={verdict.stats['x1_orbits']}"
          f" candidates={verdict.stats['x2']}"
          f" time={dt:.2f}s")
    _emit(args, report, verdict)
    return {"Verified": 0, "Refuted": 1, "Unknown": 2}[verdict.outcome]


def _check_writable(path, directory=False):
    """Raise the OSError that writing path later would raise: path must
    be a writable file, or with directory a writable directory, or be
    creatable as one, a directory with its missing parents. Nothing is
    created."""
    p = Path(path)
    if p.exists():
        if p.is_dir() != directory:
            code = errno.ENOTDIR if directory else errno.EISDIR
            raise OSError(code, os.strerror(code), str(p))
        dest = p
    else:
        dest = p.parent
        while directory and not dest.exists():
            dest = dest.parent
        if not dest.is_dir():
            code = errno.ENOTDIR if dest.exists() else errno.ENOENT
            raise OSError(code, os.strerror(code), str(dest))
    if not os.access(dest, os.W_OK):
        raise OSError(errno.EACCES, os.strerror(errno.EACCES), str(dest))


def _emit(args, report, verdict=None):
    if getattr(args, "json", None):
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True))
    if getattr(args, "dot", None) and verdict is not None \
            and verdict.witness is not None:
        d = Path(args.dot)
        d.mkdir(parents=True, exist_ok=True)
        (d / "witness.dot").write_text(
            execution_to_dot(verdict.witness.execution, "witness")
        )


def _outcome(spec):
    """The local -> value map of an outcome 'l=v,...'; ValueError naming
    the first item of another shape, or an empty spec."""
    if not spec.strip():
        raise ValueError(f"--forbid {spec!r} is empty; give l=v,...")
    want = {}
    for item in spec.split(","):
        k, _, v = item.partition("=")
        if not k.strip() or not v.strip().isdecimal():
            raise ValueError(f"--forbid item {item!r} is not local=value")
        want[k.strip()] = int(v)
    return want


def _outcome_names(prog):
    """For each thread, the name of each of its locals in an outcome:
    t<i>.<local>, the prefix of the thread's action ids, for a local
    that another thread has too, else the local itself."""
    locs = [lang.locals_of(th) for th in prog.threads]
    seen, shared = set(), set()
    for ls in locs:
        shared |= seen.intersection(ls)
        seen.update(ls)
    return [{l: f"t{i}.{l}" if l in shared else l for l in ls}
            for i, ls in enumerate(locs)]


def cmd_simulate(args) -> int:
    want = None if args.forbid is None else _outcome(args.forbid)
    text = Path(args.litmus).read_text()
    prog = lang.parse_program(text)
    names = _outcome_names(prog)
    known = {n for ns in names for n in ns.values()}
    for k in want or ():
        qualified = [ns[k] for ns in names if ns.get(k, k) != k]
        if qualified:
            raise ValueError(f"--forbid names {k!r}, a local of more than"
                             f" one thread; name {' or '.join(qualified)}")
        if k not in known:
            raise ValueError(f"--forbid names {k!r}, a local no thread has")
    na = bool(lang.na_vars_of(prog))
    values = frozenset(range(args.values))
    res = enumerate_program(prog, EnumConfig(values=values,
                                             mode="NA" if na else "AT"))
    outcomes = {}
    for sigmas in res.outcomes:
        key = tuple(sorted((ns[l], v) for ns, sg in zip(names, sigmas)
                           for l, v in sg.items()))
        outcomes.setdefault(key, 0)
        outcomes[key] += 1
    print(f"{len(res.executions)} valid executions,"
          f" {len(outcomes)} outcomes")
    if res.truncated:
        print("truncated: the execution limit was reached, so more"
              " outcomes may be allowed")
    if na:
        print("safety: " + ("UNSAFE (racy)" if res.unsafe else "safe"))
    for key in sorted(outcomes):
        desc = " ".join(f"{k}={v}" for k, v in key) or "(no locals)"
        print(f"  allowed: {desc}   [{outcomes[key]} executions]")
    report = {
        "executions": len(res.executions),
        "unsafe": res.unsafe,
        "truncated": res.truncated,
        "outcomes": [dict(k) for k in sorted(outcomes)],
    }
    _emit(args, report)
    if want:
        for key in outcomes:
            d = dict(key)
            if all(d.get(k) == v for k, v in want.items()):
                print(f"forbidden outcome admitted: {args.forbid}")
                return 1
        if not res.truncated:
            print(f"forbidden outcome absent: {args.forbid}")
    return 2 if res.truncated else 0


def cmd_instance(args) -> int:
    from .verifier import check_q_instance

    B2, B1 = lang.parse_transformation(Path(args.file).read_text())
    ctx = parse_context_file(Path(args.context).read_text())
    values = frozenset(range(args.values))
    ok = check_q_instance(B1, B2, ctx, values=values)
    print("holds" if ok else "fails")
    _emit(args, {"instance": ok})
    return 0 if ok else 1


def cmd_adversary(args) -> int:
    from . import adversary

    X = execution_from_json(json.loads(Path(args.execfile).read_text()))
    broken = check_axioms(X)
    if broken is not None:
        raise ValueError(f"the execution breaks {broken[0]}: {broken[1]}")
    B = lang.parse_block(Path(args.block).read_text())
    ac = adversary.build_context(X)
    print(lang.unparse(ac.program))
    if args.check:
        ok = adversary.reproduce(X, B)
        print(f"reproduction: {'ok' if ok else 'FAILED'}")
        return 0 if ok else 1
    return 0


def _at_least(low):
    """An argparse type: an integer no smaller than low."""
    def integer(text):
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{n} is below {low}")
        return n
    return integer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="stellite",
        description="Peephole-transformation checker for a release-acquire "
                    "axiomatic memory model",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("verify", help="check a transformation file")
    v.add_argument("file")
    v.add_argument("--values", type=_at_least(1), default=2)
    v.add_argument("--max-execs", type=_at_least(0), default=None,
                   help="cap the executions of one block under one context"
                        " (over it: Unknown)")
    v.add_argument("--json", default=None)
    v.add_argument("--dot", default=None)
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("simulate", help="enumerate a litmus test")
    s.add_argument("litmus")
    s.add_argument("--values", type=_at_least(1), default=2)
    s.add_argument("--forbid", default=None,
                   help="fail (exit 1) if this l=v,... outcome is admitted")
    s.add_argument("--json", default=None)
    s.set_defaults(fn=cmd_simulate)

    i = sub.add_parser("instance", help="check one explicit context instance")
    i.add_argument("file")
    i.add_argument("--context", required=True)
    i.add_argument("--values", type=_at_least(1), default=2)
    i.add_argument("--json", default=None)
    i.set_defaults(fn=cmd_instance)

    a = sub.add_parser("adversary",
                       help="emit the adversarial context of an execution")
    a.add_argument("execfile")
    a.add_argument("--block", required=True)
    a.add_argument("--check", action="store_true")
    a.set_defaults(fn=cmd_adversary)

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 3 if e.code not in (0, None) else 0
    try:
        # an output that cannot be written is an input error before any
        # check runs, not after its verdict is printed
        for name, directory in (("json", False), ("dot", True)):
            if getattr(args, name, None):
                _check_writable(getattr(args, name), directory)
        return args.fn(args)
    except (ParseError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
