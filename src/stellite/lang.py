"""Surface syntax, ASTs, and the thread-local semantics.

Programs are parallel compositions of sequential blocks over shared
globals and thread-private locals. The thread-local semantics maps a
block and a local-variable map to the pre-executions it can produce:
actions, sequenced-before and the LL/SC atomicity (axiomatic.PreExecution);
global reads are unconstrained and yield every value in the value domain.
"""

from __future__ import annotations

import itertools
import re
from typing import NamedTuple

from .axiomatic import Action, PreExecution

FENCE_VAR = "fen"


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# AST

# expressions: ("lit", n) | ("var", l) | ("eq", a, b) | ("ne", a, b)


class Assign(NamedTuple):
    lhs: str
    expr: tuple


class LoadStmt(NamedTuple):
    lhs: str | None  # None for a bare load that discards the value
    gvar: str
    na: bool = False


class StoreStmt(NamedTuple):
    gvar: str
    src: tuple  # ("var", l) | ("lit", n)
    na: bool = False


class LLStmt(NamedTuple):
    lhs: str
    gvar: str


class SCStmt(NamedTuple):
    lhs: str
    gvar: str
    src: str


class FenceStmt(NamedTuple):
    pass


class IfStmt(NamedTuple):
    cond: str
    then: tuple
    els: tuple


class HoleStmt(NamedTuple):
    pass


class CodeRegion(NamedTuple):
    """Marks the statements of a code-block substituted into a context's
    hole: LL/SC reservations do not span its boundary (check_wellformed).
    The thread-local semantics runs its body in place."""

    body: tuple


class Program(NamedTuple):
    threads: tuple  # tuple of statement tuples


def _same(a, b):
    return type(a) is type(b) and tuple.__eq__(a, b)


def _differ(a, b):
    return not _same(a, b)


def _hash(s):
    return hash((type(s), tuple.__hash__(s)))


# As plain tuples FenceStmt() == HoleStmt() == () and LLStmt("a", "x") ==
# ("a", "x"); the AST compares and hashes by type as well.
for _cls in (Assign, LoadStmt, StoreStmt, LLStmt, SCStmt, FenceStmt, IfStmt,
             HoleStmt, CodeRegion, Program):
    _cls.__eq__, _cls.__ne__, _cls.__hash__ = _same, _differ, _hash
del _cls


Block = tuple  # a block is a tuple of statements


def threads_of(p) -> tuple:
    if isinstance(p, Program):
        return p.threads
    return (tuple(p),)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<hole>\{-\})
      | (?P<sym>\|\|\||~>|:=|==|!=|[(){},;])
      | (?P<int>\d+)
      | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)


def _tokenize(text):
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        val = m.group()
        toks.append((kind, val, m.start()))
    return toks


def _where(p, v):
    """Where the token v at position p stands, or the end of input, for an
    error message."""
    return "at end of input" if p is None else f"at {p}, found {v!r}"


class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        """The next token, or (None, None, None) at the end of input."""
        return self.toks[self.i] if self.i < len(self.toks) else (None,) * 3

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, val):
        k, v, p = self.next()
        if v != val:
            raise ParseError(f"expected {val!r} {_where(p, v)}")
        return v

    def at(self, val):
        return self.peek()[1] == val

    def done(self):
        return self.i >= len(self.toks)

    def end(self):
        """Fail unless every token was consumed."""
        if not self.done():
            k, v, pos = self.peek()
            raise ParseError(f"trailing input at {pos}: {v!r}")

    # blocks -----------------------------------------------------------

    def stmts(self, stop=()):
        out = []
        while not self.done() and self.peek()[1] not in stop:
            s = self.stmt()
            if s is not None:
                out.append(s)
            if self.at(";"):
                self.next()
            else:
                break
        return tuple(out)

    def _atom(self):
        k, v, p = self.next()
        if k == "int":
            return ("lit", int(v))
        if k == "id":
            return ("var", v)
        raise ParseError(f"expected value or local {_where(p, v)}")

    def stmt(self):
        k, v, p = self.peek()
        if k == "hole":
            self.next()
            return HoleStmt()
        if v == "skip":
            self.next()
            return None
        if v == "fc":
            self.next()
            return FenceStmt()
        if v in ("st", "stna"):
            g, src = self._access(self._atom)
            return StoreStmt(g, src, na=(v == "stna"))
        if v in ("ld", "ldna"):
            return LoadStmt(None, self._access()[0], na=(v == "ldna"))
        if v == "if":
            self.next()
            self.expect("(")
            cond = self._name("local")
            self.expect(")")
            self.expect("{")
            then = self.stmts(stop=("}",))
            self.expect("}")
            els = ()
            if self.at("else"):
                self.next()
                self.expect("{")
                els = self.stmts(stop=("}",))
                self.expect("}")
            return IfStmt(cond, then, els)
        if k == "id":
            self.next()
            self.expect(":=")
            k2, v2, _ = self.peek()
            if v2 in ("ld", "ldna"):
                return LoadStmt(v, self._access()[0], na=(v2 == "ldna"))
            if v2 == "LL":
                return LLStmt(v, self._access()[0])
            if v2 == "SC":
                g, src = self._access(lambda: self._name("local"))
                return SCStmt(v, g, src)
            a = self._atom()
            if self.peek()[1] in ("==", "!="):
                _, op, _ = self.next()
                b = self._atom()
                return Assign(v, ("eq" if op == "==" else "ne", a, b))
            return Assign(v, a)
        raise ParseError(f"unexpected token {v!r} at {p}")

    def _name(self, what):
        k, v, p = self.next()
        if k != "id":
            raise ParseError(f"expected {what} {_where(p, v)}")
        return v

    def _access(self, arg=None):
        """An access op(global[, arg]) from its op on: the global and,
        given arg, what arg parses after the comma (else None)."""
        self.next()
        self.expect("(")
        g, val = self._global(), None
        if arg is not None:
            self.expect(",")
            val = arg()
        self.expect(")")
        return g, val

    def _global(self):
        v = self._name("global name")
        if v == FENCE_VAR:
            raise ParseError(f"{FENCE_VAR!r} is reserved for fences")
        return v


# ---------------------------------------------------------------------------
# well-formedness


def _check_llsc(stmts, pending):
    """Walk a statement sequence tracking which locations hold an unconsumed
    LL reservation; SC without one is a pairing error."""
    for s in stmts:
        if isinstance(s, LLStmt):
            pending[s.gvar] = True
        elif isinstance(s, SCStmt):
            if not pending.get(s.gvar):
                raise ParseError(
                    f"SC on {s.gvar!r} without a preceding LL"
                )
            pending[s.gvar] = False
        elif isinstance(s, IfStmt):
            p1, p2 = dict(pending), dict(pending)
            _check_llsc(s.then, p1)
            _check_llsc(s.els, p2)
            for g in set(p1) | set(p2):
                pending[g] = p1.get(g, False) and p2.get(g, False)
        elif isinstance(s, CodeRegion):
            # reservations never span the block/context boundary
            _check_llsc(s.body, {})
            for g in list(pending):
                pending[g] = False
    return pending


def _stmts(stmts):
    """Every statement of stmts in source order, the statements nested in
    if branches and code regions included."""
    for s in stmts:
        yield s
        if isinstance(s, IfStmt):
            yield from _stmts(s.then)
            yield from _stmts(s.els)
        elif isinstance(s, CodeRegion):
            yield from _stmts(s.body)


def _atoms(s):
    """The ("var", l) and ("lit", n) atoms statement s reads."""
    if isinstance(s, Assign):
        return s.expr[1:] if s.expr[0] in ("eq", "ne") else (s.expr,)
    if isinstance(s, StoreStmt):
        return (s.src,)
    if isinstance(s, SCStmt):
        return (("var", s.src),)
    if isinstance(s, IfStmt):
        return (("var", s.cond),)
    return ()


def _written(s):
    """The local statement s writes, or None."""
    if isinstance(s, (Assign, LLStmt, SCStmt, LoadStmt)):
        return s.lhs
    return None


def _gvar_uses(stmts, uses):
    for s in _stmts(stmts):
        if isinstance(s, (LoadStmt, StoreStmt)):
            uses.setdefault(s.gvar, set()).add("na" if s.na else "at")
        elif isinstance(s, (LLStmt, SCStmt)):
            uses.setdefault(s.gvar, set()).add("at")
    return uses


def check_wellformed(p):
    """Syntactic invariants: LL/SC pairing, atomic/NA partitioning of
    globals, at most one hole."""
    uses = {}
    holes = 0
    for th in threads_of(p):
        _check_llsc(th, {})
        _gvar_uses(th, uses)
        holes += _count_holes(th)
    for g, m in uses.items():
        if len(m) > 1:
            raise ParseError(
                f"global {g!r} used both atomically and non-atomically"
            )
    if holes > 1:
        raise ParseError("more than one hole in context")
    return p


def _count_holes(stmts):
    return sum(isinstance(s, HoleStmt) for s in _stmts(stmts))


# ---------------------------------------------------------------------------
# entry points


def parse_block(text) -> Block:
    p = _Parser(text)
    b = p.stmts()
    p.end()
    if _count_holes(b):
        raise ParseError("code-blocks may not contain holes")
    check_wellformed(b)
    return b


def parse_program(text) -> Program:
    p = _Parser(text)
    threads = [p.stmts(stop=("|||",))]
    while p.at("|||"):
        p.next()
        threads.append(p.stmts(stop=("|||",)))
    p.end()
    prog = Program(tuple(threads))
    check_wellformed(prog)
    return prog


def parse_transformation(text):
    """'lhs ~> rhs' denotes replacing lhs by rhs; returns (B2, B1) where
    B2 is the original block and B1 the replacement to be checked
    against it."""
    p = _Parser(text)
    lhs = p.stmts(stop=("~>",))
    p.expect("~>")
    rhs = p.stmts()
    p.end()
    for b in (lhs, rhs):
        if _count_holes(b):
            raise ParseError("code-blocks may not contain holes")
    check_wellformed(Program((lhs, rhs)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# static queries


def vars_of(p) -> frozenset:
    """Globals syntactically accessed; never contains the fence variable."""
    return frozenset(_gvar_uses_flat(p))


def _gvar_uses_flat(p):
    uses = {}
    for th in threads_of(p):
        _gvar_uses(th, uses)
    return uses


def na_vars_of(p) -> frozenset:
    return frozenset(
        g for g, m in _gvar_uses_flat(p).items() if "na" in m
    )


def locals_of(p) -> tuple:
    """All locals mentioned, in a fixed (sorted) order."""
    out = set()
    for th in threads_of(p):
        for s in _stmts(th):
            out.update(a[1] for a in _atoms(s) if a[0] == "var")
            out.add(_written(s))
    out.discard(None)
    return tuple(sorted(out))


def live_in(p) -> frozenset:
    """Locals read before they are written."""
    live = set()

    def walk(stmts, written):
        for s in stmts:
            live.update(a[1] for a in _atoms(s)
                        if a[0] == "var" and a[1] not in written)
            if isinstance(s, IfStmt):
                both = walk(s.then, set(written)) & walk(s.els, set(written))
                written |= both
            elif isinstance(s, CodeRegion):
                walk(s.body, written)
            elif (w := _written(s)) is not None:
                written.add(w)
        return written

    for th in threads_of(p):
        walk(th, set())
    return frozenset(live)


def literals_of(p) -> frozenset:
    """Integer literals appearing in the source; these extend Val."""
    return frozenset(a[1] for th in threads_of(p) for s in _stmts(th)
                     for a in _atoms(s) if a[0] == "lit")


def fixed_values(p) -> frozenset:
    """The values the thread-local semantics below names: 0, the value of
    an unset local and what an if tests against; the literals; and 1,
    when an SC or an ==/!= assignment can make it as its 0/1 result.
    _eval and _tl only compare any other value for equality, so renaming
    the values outside this set maps runs to runs."""
    fixed = {0} | literals_of(p)
    for th in threads_of(p):
        for s in _stmts(th):
            if isinstance(s, SCStmt) or (
                    isinstance(s, Assign) and s.expr[0] in ("eq", "ne")):
                fixed.add(1)
    return frozenset(fixed)


# ---------------------------------------------------------------------------
# thread-local semantics


def _eval(expr, sigma):
    kind = expr[0]
    if kind == "lit":
        return expr[1]
    if kind == "var":
        return sigma.get(expr[1], 0)
    a = _eval(expr[1], sigma)
    b = _eval(expr[2], sigma)
    if kind == "eq":
        return 1 if a == b else 0
    return 1 if a != b else 0


def _tl(stmts, acts, at, res, sigma, values, prefix):
    """Every run of the statements stmts after the trace acts, as
    (actions, at, sigma'), with the reads' values in the order of values.
    res maps each location to its latest LL that no SC or failed SC has
    consumed, the LL a successful SC there pairs with in at."""
    for k, s in enumerate(stmts):
        rest = stmts[k + 1:]
        aid = f"{prefix}{len(acts)}"
        if isinstance(s, Assign):
            sigma = {**sigma, s.lhs: _eval(s.expr, sigma)}
        elif isinstance(s, StoreStmt):
            kind = "store_NA" if s.na else "store"
            acts += (Action(aid, kind, s.gvar, (_eval(s.src, sigma),),
                            "code"),)
        elif isinstance(s, FenceStmt):
            ll = Action(aid, "LL", FENCE_VAR, (0,), "code")
            sc = Action(f"{prefix}{len(acts) + 1}", "SC", FENCE_VAR, (0,),
                        "code")
            acts += (ll, sc)
            at += ((ll.aid, sc.aid),)
        elif isinstance(s, (LoadStmt, LLStmt)):
            if isinstance(s, LLStmt):
                kind, res = "LL", {**res, s.gvar: aid}
            else:
                kind = "load_NA" if s.na else "load"
            for v in values:
                sg = sigma if s.lhs is None else {**sigma, s.lhs: v}
                yield from _tl(rest, acts + (Action(aid, kind, s.gvar, (v,),
                                                     "code"),),
                               at, res, sg, values, prefix)
            return
        elif isinstance(s, SCStmt):
            ll = res.get(s.gvar)
            res = {**res, s.gvar: None}
            ok = Action(aid, "SC", s.gvar, (sigma.get(s.src, 0),), "code")
            yield from _tl(rest, acts + (ok,),
                           at if ll is None else at + ((ll, aid),), res,
                           {**sigma, s.lhs: 1}, values, prefix)
            yield from _tl(rest, acts + (Action(aid, "SC_f", s.gvar, (),
                                                "code"),),
                           at, res, {**sigma, s.lhs: 0}, values, prefix)
            return
        elif isinstance(s, IfStmt):
            branch = s.els if sigma.get(s.cond, 0) == 0 else s.then
            yield from _tl(branch + rest, acts, at, res, sigma, values,
                           prefix)
            return
        elif isinstance(s, CodeRegion):
            yield from _tl(s.body + rest, acts, at, res, sigma, values,
                           prefix)
            return
        elif isinstance(s, HoleStmt):
            raise ParseError("cannot execute a program with an unfilled hole")
        else:
            raise TypeError(f"unknown statement {s!r}")
    yield acts, at, sigma


def thread_local_block(stmts, sigma, values, prefix="b"):
    """The pre-executions of one sequential block from the local map
    sigma, each with its final local map: a list of (PreExecution,
    sigma'). Action ids are prefix and a count; sb orders the actions
    in program order; at pairs each successful SC with the latest LL of
    its location that no SC or failed SC has consumed."""
    out = []
    for acts, at, sg in _tl(tuple(stmts), (), (), {}, dict(sigma),
                            sorted(values), prefix):
        sb = frozenset(itertools.combinations([a.aid for a in acts], 2))
        out.append((PreExecution(acts, sb, frozenset(at)), sg))
    return out


# ---------------------------------------------------------------------------
# substitution and unparsing


def substitute(ctx: Program, block) -> Program:
    """Replace the hole of a context with a code-block, wrapped in a
    CodeRegion."""

    def sub(stmts):
        out = []
        for s in stmts:
            if isinstance(s, HoleStmt):
                out.append(CodeRegion(tuple(block)))
            elif isinstance(s, IfStmt):
                out.append(IfStmt(s.cond, sub(s.then), sub(s.els)))
            else:
                out.append(s)
        return tuple(out)

    return Program(tuple(sub(th) for th in ctx.threads))


def _unparse_atom(a):
    return str(a[1]) if a[0] == "lit" else a[1]


def unparse_stmt(s) -> str:
    if isinstance(s, Assign):
        e = s.expr
        if e[0] in ("eq", "ne"):
            op = "==" if e[0] == "eq" else "!="
            return (
                f"{s.lhs} := {_unparse_atom(e[1])} {op} {_unparse_atom(e[2])}"
            )
        return f"{s.lhs} := {_unparse_atom(e)}"
    if isinstance(s, LoadStmt):
        op = "ldna" if s.na else "ld"
        if s.lhs is None:
            return f"{op}({s.gvar})"
        return f"{s.lhs} := {op}({s.gvar})"
    if isinstance(s, StoreStmt):
        op = "stna" if s.na else "st"
        return f"{op}({s.gvar}, {_unparse_atom(s.src)})"
    if isinstance(s, LLStmt):
        return f"{s.lhs} := LL({s.gvar})"
    if isinstance(s, SCStmt):
        return f"{s.lhs} := SC({s.gvar}, {s.src})"
    if isinstance(s, FenceStmt):
        return "fc"
    if isinstance(s, IfStmt):
        t = unparse_block(s.then) or "skip"
        body = f"if ({s.cond}) {{ {t} }}"
        if s.els:
            body += f" else {{ {unparse_block(s.els)} }}"
        return body
    if isinstance(s, HoleStmt):
        return "{-}"
    if isinstance(s, CodeRegion):
        return unparse_block(s.body)
    raise TypeError(f"unknown statement {s!r}")


def unparse_block(stmts) -> str:
    return "; ".join(unparse_stmt(s) for s in stmts) or "skip"


def unparse(p) -> str:
    return " ||| ".join(unparse_block(th) for th in threads_of(p))
