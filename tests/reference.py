"""Slow reference paths that the package's fast paths are tested against.

The parser here lexes one token at a time into (kind, value, position)
triples, and checks well-formedness in three walks: LL/SC pairing, the
atomic/non-atomic split of globals and the hole count. The package's
lang lexes the whole text in one pass into plain strings, walks them by
index and checks well-formedness in one walk. Both build the same AST,
from lang's statement types, and raise the same ParseError text, which
tests/test_lang.py checks on random and mutated inputs.
"""

from __future__ import annotations

import re

from stellite.lang import (
    FENCE_VAR,
    Assign,
    CodeRegion,
    FenceStmt,
    HoleStmt,
    IfStmt,
    LLStmt,
    LoadStmt,
    ParseError,
    Program,
    SCStmt,
    StoreStmt,
    threads_of,
)

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


def parse_block(text):
    p = _Parser(text)
    b = p.stmts()
    p.end()
    if _count_holes(b):
        raise ParseError("code-blocks may not contain holes")
    check_wellformed(b)
    return b


def parse_program(text):
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
