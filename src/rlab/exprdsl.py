"""A tiny arithmetic expression language for exponent profiles.

Grammar (infix, usual precedence, ^ is right associative):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | 's' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := 'log' | 'exp' | 'sqrt'

The single free variable is the boundary parameter s.  Compiled expressions
evaluate vectorized over numpy arrays; number literals stay float64
scalars.  Syntax errors raise ParseError with a caret marking the offending
position.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParseError

__all__ = ["Expr", "parse_expr"]

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)

_FUNCS: dict[str, Callable] = {
    "log": np.log,
    "exp": np.exp,
    "sqrt": np.sqrt,
}


@dataclass(frozen=True)
class _Token:
    kind: str  # num | name | op | end
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", source, pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


@dataclass(frozen=True)
class Expr:
    """A compiled expression in the variable s."""

    source: str
    _fn: Callable[[np.ndarray], np.ndarray]

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.asarray(self._fn(s), dtype=float)
        # a constant expression gives a scalar: spread it over s
        return out if out.shape == s.shape else np.full_like(s, out)

    def __repr__(self):
        return f"Expr({self.source!r})"


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Token):
        raise ParseError(message, self.source, tok.pos)

    def parse(self) -> Callable:
        fn = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            self.fail(f"unexpected token {tok.text!r}", tok)
        return fn

    def expr(self) -> Callable:
        fn = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            lhs = fn
            fn = (lambda s, a=lhs, b=rhs: a(s) + b(s)) if op == "+" \
                else (lambda s, a=lhs, b=rhs: a(s) - b(s))
        return fn

    def term(self) -> Callable:
        fn = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.unary()
            lhs = fn
            fn = (lambda s, a=lhs, b=rhs: a(s) * b(s)) if op == "*" \
                else (lambda s, a=lhs, b=rhs: a(s) / b(s))
        return fn

    def unary(self) -> Callable:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            inner = self.unary()
            return lambda s, a=inner: -a(s)
        return self.power()

    def power(self) -> Callable:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            expo = self.unary()  # right associative
            return lambda s, a=base, b=expo: a(s) ** b(s)
        return base

    def atom(self) -> Callable:
        tok = self.advance()
        if tok.kind == "num":
            val = np.float64(tok.text)  # numpy's inf, not ZeroDivisionError
            return lambda s, v=val: v
        if tok.kind == "name":
            if tok.text == "s":
                return lambda s: s
            if tok.text in _FUNCS:
                opener = self.peek()
                if not (opener.kind == "op" and opener.text == "("):
                    self.fail(f"expected '(' after {tok.text}", opener)
                self.advance()
                inner = self.expr()
                closer = self.advance()
                if not (closer.kind == "op" and closer.text == ")"):
                    self.fail("expected ')'", closer)
                f = _FUNCS[tok.text]
                return lambda s, g=inner, f=f: f(g(s))
            self.fail(f"unknown name {tok.text!r}", tok)
        if tok.kind == "op" and tok.text == "(":
            inner = self.expr()
            closer = self.advance()
            if not (closer.kind == "op" and closer.text == ")"):
                self.fail("expected ')'", closer)
            return inner
        self.fail(f"expected a value, got {tok.text!r}" if tok.text
                  else "unexpected end of expression", tok)


def parse_expr(source: str) -> Expr:
    """Compile an expression string; raises ParseError on bad syntax."""
    if not source.strip():
        raise ParseError("empty expression", source, 0)
    fn = _Parser(source).parse()
    return Expr(source, fn)
