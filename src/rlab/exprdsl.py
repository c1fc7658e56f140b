"""A tiny arithmetic expression language for exponent profiles.

Grammar (infix, usual precedence, ^ is right associative):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom ('^' unary)?
    atom    := NUMBER | 's' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := 'log' | 'exp' | 'sqrt'

parse_expr reads it by binding power (Pratt, POPL 1973): an operand goes to
the neighbour that binds it harder, by the left power of the operator after
it and the right power of the one before.  The (left, right) powers are

    + - (1, 2)    * / (3, 4)    ^ (6, 5)    unary minus (-, 5)

so -s^2 is -(s^2) and -s*2 is (-s)*2.  The single free variable is the
boundary parameter s.  Compiled expressions evaluate vectorized over numpy
arrays; number literals stay float64 scalars.  Syntax errors raise ParseError
with a caret marking the offending position.  So does nesting that parsing
or evaluation cannot afford, "expression nested too deeply": about 900
parentheses exhaust the parser's recursion, and evaluation recurses once per
level of the closure tree, so a tree deeper than _MAX_DEPTH (a chain of 500
operators, say) is refused with the caret at the operator that crosses it.
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

_BINARY: dict[str, tuple] = {  # (left power, right power, node closure)
    "+": (1, 2, lambda a, b: lambda s: a(s) + b(s)),
    "-": (1, 2, lambda a, b: lambda s: a(s) - b(s)),
    "*": (3, 4, lambda a, b: lambda s: a(s) * b(s)),
    "/": (3, 4, lambda a, b: lambda s: a(s) / b(s)),
    "^": (6, 5, lambda a, b: lambda s: a(s) ** b(s)),
}
_NEG, _CALL = 5, 7  # a FUNC's operand is its parenthesized group alone
_MAX_DEPTH = 500  # closure levels; leaves the caller half the recursion limit


def _tokenize(source: str):
    """Yield (kind, text, position) tuples, kind num | name | op | end."""
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", source, pos)
        if m.lastgroup != "ws":
            yield m.lastgroup, m.group(), pos
        pos = m.end()
    yield "end", "", len(source)


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


def parse_expr(source: str) -> Expr:
    """Compile an expression string; raises ParseError on bad syntax."""
    if not source.strip():
        raise ParseError("empty expression", source, 0)
    tokens = list(_tokenize(source))  # a bad character anywhere comes first
    i = 0  # the next token

    def parse(min_power):
        # one value, then each operator whose left power reaches min_power;
        # returns its closure and the closure's depth (1 for a leaf)
        nonlocal i
        kind, text, pos = tokens[i]
        i += 1
        depth = 1
        if kind == "num":
            fn = lambda s, v=np.float64(text): v  # inf, not ZeroDivisionError
        elif text == "s":
            fn = lambda s: s
        elif text == "-":
            inner, depth = parse(_NEG)
            fn, depth = lambda s: -inner(s), deeper(depth, pos)
        elif text == "(":
            fn, depth = parse(0)
            if tokens[i][1] != ")":
                raise ParseError("expected ')'", source, tokens[i][2])
            i += 1
        elif text in _FUNCS:
            if tokens[i][1] != "(":
                raise ParseError(f"expected '(' after {text}", source,
                                 tokens[i][2])
            (inner, depth), f = parse(_CALL), _FUNCS[text]
            fn, depth = lambda s: f(inner(s)), deeper(depth, pos)
        elif kind == "name":
            raise ParseError(f"unknown name {text!r}", source, pos)
        else:
            raise ParseError(f"expected a value, got {text!r}" if text
                             else "unexpected end of expression", source, pos)
        while tokens[i][1] in _BINARY and _BINARY[tokens[i][1]][0] >= min_power:
            _, right, node = _BINARY[tokens[i][1]]
            op = tokens[i][2]
            i += 1
            rhs, rhs_depth = parse(right)
            fn, depth = node(fn, rhs), deeper(max(depth, rhs_depth), op)
        return fn, depth

    def deeper(depth, pos):
        # the depth of a node over a subtree of this depth, if affordable
        if depth >= _MAX_DEPTH:
            raise ParseError("expression nested too deeply", source, pos)
        return depth + 1

    try:
        fn, _depth = parse(0)
    except RecursionError:  # the caret at the last token read
        raise ParseError("expression nested too deeply", source,
                         tokens[i - 1][2]) from None
    kind, text, pos = tokens[i]
    if kind != "end":
        raise ParseError(f"unexpected token {text!r}", source, pos)
    return Expr(source, fn)
