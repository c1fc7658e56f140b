"""Expression language tests: grammar, vectorized evaluation, and error
reporting with source positions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab.errors import ParseError
from rlab.exprdsl import parse_expr


def test_constant_and_variable():
    assert parse_expr("3.5")(0.2) == pytest.approx(3.5)
    assert parse_expr("s")(0.7) == pytest.approx(0.7)


def test_arithmetic_precedence():
    assert parse_expr("2+3*4")(0.0) == pytest.approx(14.0)
    assert parse_expr("(2+3)*4")(0.0) == pytest.approx(20.0)
    assert parse_expr("10-4-3")(0.0) == pytest.approx(3.0)
    assert parse_expr("8/4/2")(0.0) == pytest.approx(1.0)


def test_power_right_associative():
    assert parse_expr("2^3^2")(0.0) == pytest.approx(512.0)
    assert parse_expr("2^-s")(2.0) == pytest.approx(0.25)


def test_unary_minus():
    assert parse_expr("-s")(0.3) == pytest.approx(-0.3)
    assert parse_expr("--s")(0.3) == pytest.approx(0.3)
    assert parse_expr("2*-3")(0.0) == pytest.approx(-6.0)


def test_functions():
    assert parse_expr("log(exp(s))")(0.42) == pytest.approx(0.42)
    assert parse_expr("sqrt(s*s)")(0.9) == pytest.approx(0.9)
    assert parse_expr("exp(0)")(0.5) == pytest.approx(1.0)


def test_profile_example():
    f = parse_expr("2+1/log(10/s)")
    assert f(1.0) == pytest.approx(2.0 + 1.0 / np.log(10.0))
    # the limit toward 0 is 2
    assert f(1e-300) == pytest.approx(2.0, abs=1e-2)


def test_vectorized_evaluation():
    f = parse_expr("2 + s*s")
    s = np.linspace(0.0, 1.0, 11)
    out = f(s)
    assert out.shape == s.shape
    assert np.allclose(out, 2.0 + s * s)


def test_constant_broadcasts():
    f = parse_expr("4")
    out = f(np.linspace(0, 1, 5))
    assert out.shape == (5,)
    assert np.all(out == 4.0)


def test_constant_subexpressions_follow_numpy():
    # literals are float64 scalars, so a constant that divides by zero or
    # overflows is inf (not a Python exception), spread over the input
    s = np.linspace(0.1, 0.9, 5)
    assert np.all(parse_expr("s + 1/0")(s) == np.inf)
    assert np.all(parse_expr("2^3000")(s) == np.inf)
    assert parse_expr("2^3000")(s).shape == s.shape


def test_scientific_notation():
    assert parse_expr("1.5e2")(0.0) == pytest.approx(150.0)
    assert parse_expr("2.5E-1")(0.0) == pytest.approx(0.25)


def test_whitespace_tolerated():
    assert parse_expr("  2 +  3 * s ")(2.0) == pytest.approx(8.0)


@pytest.mark.parametrize("source,fragment", [
    ("", "empty"),
    ("2 +", "unexpected end"),
    ("2 + * 3", "expected a value"),
    ("log 3", "expected '('"),
    ("log(3", "expected ')'"),
    ("foo(s)", "unknown name"),
    ("2 @ 3", "unexpected character"),
    ("(2+3))", "unexpected token"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as exc:
        parse_expr(source)
    assert fragment in str(exc.value)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_expr("2 + foo(s)")
    err = exc.value
    assert err.position == 4
    assert "^" in str(err)


def test_repr_keeps_source():
    assert "2+s" in repr(parse_expr("2+s"))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=-5.0, max_value=5.0),
       st.floats(min_value=-5.0, max_value=5.0))
def test_linear_expression_matches_numpy(s, a, b):
    f = parse_expr(f"{a!r}*s+{b!r}")
    assert f(s) == pytest.approx(a * s + b, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("source,message,caret", [
    ("", "empty expression", 0),
    ("2 +", "unexpected end of expression", 3),
    ("2 + * 3", "expected a value, got '*'", 4),
    ("log 3", "expected '(' after log", 4),
    ("log(3", "expected ')'", 5),
    ("foo(s)", "unknown name 'foo'", 0),
    ("2 @ 3", "unexpected character '@'", 2),
    ("(2+3))", "unexpected token ')'", 5),
])
def test_parse_error_messages_and_carets(source, message, caret):
    with pytest.raises(ParseError) as exc:
        parse_expr(source)
    assert exc.value.position == caret
    assert str(exc.value) == f"{message}\n  {source}\n  {' ' * caret}^"


_S = np.array([0.0, 1e-300, 0.3, 0.5, 1.0, 2.5])
_C = np.float64


@pytest.mark.parametrize("source,by_hand", [
    ("-s^2", lambda s: -(s ** _C(2))),
    ("2^-s^2", lambda s: _C(2) ** -(s ** _C(2))),
    ("2^3^s", lambda s: _C(2) ** (_C(3) ** s)),
    ("-s*2", lambda s: (-s) * _C(2)),
    ("10-4-s", lambda s: (_C(10) - _C(4)) - s),
    ("8/s/2", lambda s: (_C(8) / s) / _C(2)),
    ("2*-s", lambda s: _C(2) * (-s)),
    ("--s", lambda s: -(-s)),
    ("2+3*s^2", lambda s: _C(2) + _C(3) * (s ** _C(2))),
])
def test_precedence_and_associativity_bit_for_bit(source, by_hand):
    # each operator node is the numpy operation on its operands' values, so
    # the result equals numpy written out by hand in every bit
    with np.errstate(all="ignore"):
        expected = by_hand(_S)
    assert parse_expr(source)(_S).tobytes() == expected.tobytes()


@pytest.mark.parametrize("source", [
    "(" * 5000 + "2" + ")" * 5000,
    "-" * 5000 + "s",
    "2" + "^1" * 5000,
], ids=["parentheses", "unary-minus", "power-chain"])
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(ParseError) as exc:
        parse_expr(source)
    assert str(exc.value).startswith("expression nested too deeply\n")
    assert 0 < exc.value.position < len(source)


def _chain(n):
    return "+".join(["s"] * (n + 1))  # n operators, a closure tree n + 1 deep


@pytest.mark.parametrize("source, caret", [
    (_chain(3000), 2 * 500 - 1),                 # the 500th '+'
    ("2+0*(" + _chain(3000) + ")", 5 + 2 * 500 - 1),
    ("-" * 600 + "s", 100),       # the minus sign 500 levels above s
    ("s" + "^s" * 600, 2 * 100 + 1),   # right associative: the 101st '^'
], ids=["plus-chain", "inside-parentheses", "unary-minus", "power-chain"])
def test_too_deep_a_closure_tree_is_refused_at_its_operator(source, caret):
    # evaluation recurses once per closure level, so a tree deeper than
    # evaluation can afford is refused when parsed, at the operator whose
    # node would cross the limit, not with a RecursionError when evaluated
    with pytest.raises(ParseError) as exc:
        parse_expr(source)
    assert str(exc.value).startswith("expression nested too deeply\n")
    assert exc.value.position == caret


def test_deepest_accepted_tree_keeps_its_bits():
    # 499 operators make a tree 500 deep, the deepest one accepted
    s = np.linspace(0.05, 0.95, 7)
    expected = s.copy()
    for _ in range(499):
        expected = expected + s
    assert parse_expr(_chain(499))(s).tobytes() == expected.tobytes()
    with pytest.raises(ParseError):
        parse_expr(_chain(500))
