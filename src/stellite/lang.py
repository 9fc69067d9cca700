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

_TOKENS = r"[A-Za-z_][A-Za-z_0-9]*|[(),;]|\d+|:=|\|\|\||\{-\}|[{}]|~>|==|!="
_ONE_TOKEN = re.compile(_TOKENS)
# Each match skips whitespace and comments and takes into group 1 a
# token, or "" at the end. From a character that starts no token it takes
# the rest of the text, so only the last token can be bad, and group 1
# never fails, so no match backtracks into a comment.
_TOKEN = re.compile(r"\s*(?:#[^\n]*\s*)*(" + _TOKENS + r"|[\s\S]+|$)")
_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_BARE = {"{-}": HoleStmt(), "skip": None, "fc": FenceStmt()}  # one-token


def _tokenize(text):
    """The tokens of text as strings, in one pass; ParseError at the
    first character that starts no token."""
    toks = list(filter(None, _TOKEN.findall(text)))
    if toks and not _ONE_TOKEN.fullmatch(toks[-1]):
        pos = len(text) - len(toks[-1])
        raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
    return toks


def _spans(text):
    """The (position, token) of each token of text, lexed as _tokenize
    lexes it; only error messages need the positions."""
    return [(m.start(1), m[1]) for m in _TOKEN.finditer(text) if m[1]]


class _Parser:
    """Walks the tokens by index; None stands after the last one. A
    token's first character tells its kind: a digit starts a number, a
    letter or _ a name."""

    def __init__(self, text):
        self.text, self.toks, self.i = text, _tokenize(text) + [None], 0

    def _at(self, i):
        """The position and text of token i, or (None, None) at the end."""
        spans = _spans(self.text)
        return spans[i] if i < len(spans) else (None, None)

    def _expected(self, what):
        """The error for the next token, where what was expected."""
        p, v = self._at(self.i)
        where = "at end of input" if p is None else f"at {p}, found {v!r}"
        return ParseError(f"expected {what} {where}")

    def accept(self, val):
        """Step over the next token if it is val; whether it was."""
        if self.toks[self.i] == val:
            self.i += 1
            return True
        return False

    def expect(self, val):
        if self.toks[self.i] != val:
            raise self._expected(repr(val))
        self.i += 1

    def end(self):
        """Fail unless every token was consumed."""
        if self.toks[self.i] is not None:
            p, v = self._at(self.i)
            raise ParseError(f"trailing input at {p}: {v!r}")

    # blocks -----------------------------------------------------------

    def stmts(self, stop=None):
        toks, out = self.toks, []
        while toks[self.i] not in (None, stop):
            s = self.stmt()
            if s is not None:
                out.append(s)
            if toks[self.i] != ";":
                break
            self.i += 1
        return tuple(out)

    def _braced(self):
        self.expect("{")
        b = self.stmts("}")
        self.expect("}")
        return b

    def _atom(self):
        t = self.toks[self.i]
        if t is not None and (t[0].isdecimal() or t[0] in _ID_START):
            self.i += 1
            return ("lit", int(t)) if t[0].isdecimal() else ("var", t)
        raise self._expected("value or local")

    def _name(self, what="local"):
        t = self.toks[self.i]
        if t is None or t[0] not in _ID_START:
            raise self._expected(what)
        self.i += 1
        return t

    def stmt(self):
        t = self.toks[self.i]
        if t in _BARE:
            self.i += 1
            return _BARE[t]
        if t == "st" or t == "stna":
            g, src = self._access(self._atom)
            return StoreStmt(g, src, na=(t == "stna"))
        if t == "ld" or t == "ldna":
            return LoadStmt(None, self._access()[0], na=(t == "ldna"))
        if t == "if":
            self.i += 1
            self.expect("(")
            cond = self._name()
            self.expect(")")
            then = self._braced()
            els = self._braced() if self.accept("else") else ()
            return IfStmt(cond, then, els)
        if t[0] not in _ID_START:
            p, v = self._at(self.i)
            raise ParseError(f"unexpected token {v!r} at {p}")
        self.i += 1
        self.expect(":=")
        op = self.toks[self.i]
        if op == "ld" or op == "ldna":
            return LoadStmt(t, self._access()[0], na=(op == "ldna"))
        if op == "LL":
            return LLStmt(t, self._access()[0])
        if op == "SC":
            g, src = self._access(self._name)
            return SCStmt(t, g, src)
        a = self._atom()
        if self.accept("=="):
            return Assign(t, ("eq", a, self._atom()))
        if self.accept("!="):
            return Assign(t, ("ne", a, self._atom()))
        return Assign(t, a)

    def _access(self, arg=None):
        """An access op(global[, arg]) from its op on: the global and,
        given arg, what arg parses after the comma (else None)."""
        self.i += 1
        self.expect("(")
        g, val = self._name("global name"), None
        if g == FENCE_VAR:
            raise ParseError(f"{FENCE_VAR!r} is reserved for fences")
        if arg is not None:
            self.expect(",")
            val = arg()
        self.expect(")")
        return g, val


# ---------------------------------------------------------------------------
# well-formedness

_AT, _NA = 1, 2  # how a global is accessed: atomically, non-atomically


def _scan(threads):
    """One walk over every statement of threads in source order: the
    accesses of each global (a mask of _AT and _NA, by first use), the
    global of each SC without a preceding LL, and the number of holes.
    An LL reserves its location until an SC there; a reservation holds
    after an if when both branches keep it, and none spans the boundary
    of a code region."""
    uses, unpaired, holes = {}, [], 0

    def walk(stmts, pending):
        nonlocal holes
        for s in stmts:
            kind = type(s)
            if kind is LoadStmt or kind is StoreStmt:
                uses[s.gvar] = uses.get(s.gvar, 0) | (_NA if s.na else _AT)
            elif kind is LLStmt or kind is SCStmt:
                uses[s.gvar] = uses.get(s.gvar, 0) | _AT
                if kind is LLStmt:
                    pending.add(s.gvar)
                elif s.gvar in pending:
                    pending.remove(s.gvar)
                else:
                    unpaired.append(s.gvar)
            elif kind is IfStmt:
                pending = (walk(s.then, set(pending))
                           & walk(s.els, set(pending)))
            elif kind is CodeRegion:
                walk(s.body, set())
                pending = set()
            elif kind is HoleStmt:
                holes += 1
        return pending

    for th in threads:
        walk(th, set())
    return uses, unpaired, holes


def _check(threads, blocks=False):
    """Raise the first broken syntactic invariant of threads: no hole in
    blocks, LL/SC pairing, atomic/NA partitioning of globals, at most one
    hole."""
    uses, unpaired, holes = _scan(threads)
    if blocks and holes:
        raise ParseError("code-blocks may not contain holes")
    if unpaired:
        raise ParseError(f"SC on {unpaired[0]!r} without a preceding LL")
    for g, m in uses.items():
        if m == _AT | _NA:
            raise ParseError(f"global {g!r} used both atomically and"
                             " non-atomically")
    if holes > 1:
        raise ParseError("more than one hole in context")


def check_wellformed(p):
    """p, if its syntactic invariants hold (_check); else ParseError."""
    _check(threads_of(p))
    return p


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


# ---------------------------------------------------------------------------
# entry points


def parse_block(text) -> Block:
    p = _Parser(text)
    b = p.stmts()
    p.end()
    _check((b,), blocks=True)
    return b


def parse_program(text) -> Program:
    p = _Parser(text)
    threads = [p.stmts("|||")]
    while p.accept("|||"):
        threads.append(p.stmts("|||"))
    p.end()
    prog = Program(tuple(threads))
    _check(prog.threads)
    return prog


def parse_transformation(text):
    """'lhs ~> rhs' denotes replacing lhs by rhs; returns (B2, B1) where
    B2 is the original block and B1 the replacement to be checked
    against it."""
    p = _Parser(text)
    lhs = p.stmts("~>")
    p.expect("~>")
    rhs = p.stmts()
    p.end()
    _check((lhs, rhs), blocks=True)
    return lhs, rhs


# ---------------------------------------------------------------------------
# static queries


def vars_of(p) -> frozenset:
    """Globals syntactically accessed; never contains the fence variable."""
    return frozenset(_scan(threads_of(p))[0])


def na_vars_of(p) -> frozenset:
    return frozenset(
        g for g, m in _scan(threads_of(p))[0].items() if m & _NA
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
