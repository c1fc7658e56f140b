"""Geometry tests: radial profiles, duality identities, curvatures, boundary
classification, and the JSON loader.

Oracles: the constant-exponent family has closed-form radial profiles
r1 = b1 s^{1/p}, r2 = b2 (1-s)^{1/p}, against which the quadrature path is
checked; duality identities r1* r1 = s and r2* r2 = 1 - s are exact and hold
for every profile.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from rlab.errors import (DomainError, ExponentOutOfRange, NonEvaluableProfile)
from rlab.geometry import (DomainGeometry, ExponentProfile, _integrals_to_zero,
                           classify_boundary, curvatures_at,
                           domain_from_exponent, domain_from_spec,
                           dual_complement, egg_profile, expression_profile,
                           tabulated_profile)
from rlab.leray import moment_table
from rlab.numerics import extrapolate_limit

EX_PROFILE = "2+1/log(10/s)"


@pytest.fixture(scope="module")
def ball():
    return domain_from_exponent(egg_profile(2.0))


@pytest.fixture(scope="module")
def egg3():
    return domain_from_exponent(egg_profile(3.0))


@pytest.fixture(scope="module")
def varying():
    return domain_from_exponent(expression_profile(EX_PROFILE))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_egg_profile_intercepts():
    prof = egg_profile(4.0, a1=16.0, a2=1.0)
    assert prof.b1 == pytest.approx(0.5)
    assert prof.b2 == pytest.approx(1.0)
    assert prof.constant_p == pytest.approx(4.0)


def test_egg_profile_rejects_bad_exponent():
    with pytest.raises(ExponentOutOfRange):
        egg_profile(1.0)
    with pytest.raises(ExponentOutOfRange):
        egg_profile(0.5)
    with pytest.raises(DomainError):
        egg_profile(3.0, a1=-1.0)


def test_expression_profile_validation():
    # a profile dipping to 1 or below must be rejected at construction
    with pytest.raises(ExponentOutOfRange):
        expression_profile("3 - 4*s")  # dips below 1 past s = 0.5
    with pytest.raises(ExponentOutOfRange):
        expression_profile("0.5")
    with pytest.raises(NonEvaluableProfile):
        expression_profile("2 + log(s - 0.5)")  # nan on half the interval


def test_expression_profile_constant_detection():
    assert expression_profile("3").constant_p == pytest.approx(3.0)
    assert expression_profile(EX_PROFILE).constant_p is None


def test_constant_exponent_is_decided_once():
    # the 513 validation samples decide constant_p at construction; reading
    # it, building the geometry and its moments sample that grid no more
    sizes = []

    def p_fn(s):
        sizes.append(s.size)
        return np.full_like(s, 3.0)

    prof = ExponentProfile("expression", 1.0, 1.0, p_fn)
    assert sizes == [513]
    assert prof.constant_p == 3.0
    assert sizes == [513]
    moment_table(DomainGeometry(prof), 4, 4)
    assert sizes.count(513) == 1


def test_constant_exponent_is_read_only():
    prof = expression_profile("3")
    assert prof.constant_p == 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.constant_p = 2.0
    with pytest.raises(TypeError):
        ExponentProfile("expression", 1.0, 1.0, prof.p_fn, constant_p=2.0)


def test_profile_rejects_bad_intercepts():
    with pytest.raises(DomainError):
        ExponentProfile("egg", -1.0, 1.0, lambda s: np.full_like(s, 2.0))


def test_tabulated_profile_interpolates():
    s = np.linspace(0.0, 1.0, 21)
    p = 2.0 + s * s
    prof = tabulated_profile(s, p)
    assert prof(np.array([0.5]))[0] == pytest.approx(2.25, abs=1e-6)
    # held constant beyond the sampled range
    assert prof(np.array([1.0]))[0] == pytest.approx(3.0)


def test_tabulated_profile_validation():
    with pytest.raises(DomainError):
        tabulated_profile([0.0, 0.5, 0.5], [2.0, 2.0, 2.0])
    with pytest.raises(DomainError):
        tabulated_profile([0.0], [2.0])
    with pytest.raises(ExponentOutOfRange):
        tabulated_profile([0.0, 1.0], [0.5, 3.0])


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

def test_egg_radial_closed_form(egg3):
    s = np.linspace(0.01, 0.99, 37)
    assert np.allclose(egg3.r1(s), s ** (1.0 / 3.0), rtol=1e-13)
    assert np.allclose(egg3.r2(s), (1.0 - s) ** (1.0 / 3.0), rtol=1e-13)


def test_quadrature_matches_egg_closed_form():
    # force the quadrature path on a constant profile and compare
    geom = domain_from_exponent(egg_profile(3.0))
    s = np.linspace(0.05, 0.95, 19)
    via_quad = np.array([
        geom._quadrature_log_r1(np.array([v]), np.array([1.0 - v]))[0]
        for v in s])
    assert np.allclose(via_quad, np.log(s) / 3.0, atol=1e-10)
    via_quad2 = np.array([
        geom._quadrature_log_r2(np.array([v]), np.array([1.0 - v]))[0]
        for v in s])
    assert np.allclose(via_quad2, np.log(1.0 - s) / 3.0, atol=1e-10)


def test_tabulated_radii_match_knot_split_reference():
    # a tabulated profile is only C^1 at its knots; with the knots as panel
    # edges the radial profiles match an adaptive reference split there
    knots = np.linspace(0.0, 1.0, 9)
    geom = domain_from_exponent(tabulated_profile(
        knots, [2.0, 3.0, 2.5, 4.0, 3.0, 2.2, 3.3, 2.8, 2.1]))
    p = geom.profile

    def integral(f, lo, cuts):
        edges = sorted({lo, 0.0, *(c for c in cuts if lo < c < 0.0)})
        return sum(integrate.quad(f, a, b, epsabs=1e-15, epsrel=1e-13)[0]
                   for a, b in zip(edges[:-1], edges[1:]))

    inner = knots[1:-1]
    for s in (1e-3, 0.05, 0.2, 0.4, 0.5, 0.77, 0.95, 0.999):
        want1 = -integral(lambda u: 1.0 / float(p(math.exp(u))),
                          math.log(s), np.log(inner))
        want2 = -integral(lambda u: 1.0 / float(p(-math.expm1(u))),
                          math.log1p(-s), np.log1p(-inner))
        assert abs(geom.log_r1(s) - want1) < 1e-12
        assert abs(geom.log_r2(s) - want2) < 1e-12


def test_cumulative_pass_edge_queries():
    # a query outside (0, 1) or at a point where f is nan adds only empty
    # pieces, which must not reach the integrals of the other queries
    f = lambda u: np.where(u == math.log(0.5), np.nan, 1.0)  # noqa: E731
    got = _integrals_to_zero(f, np.array([0.25, 0.5, 1.0, 2.0, 0.0, np.nan]),
                             np.array([]))
    assert np.allclose(got[:4], [math.log(4.0), math.log(2.0), 0.0, 0.0],
                       rtol=1e-15)
    assert got[4] == math.inf and math.isnan(got[5])


def test_ball_radial_is_sqrt(ball):
    s = np.linspace(0.01, 0.99, 25)
    assert np.allclose(ball.r1(s), np.sqrt(s), rtol=1e-13)
    assert np.allclose(ball.r2(s), np.sqrt(1.0 - s), rtol=1e-13)


def test_radial_endpoint_values(varying):
    # r1 grows from 0 to b1, r2 falls from b2 to 0
    assert varying.r1(1.0 - 1e-15) == pytest.approx(1.0, abs=1e-10)
    assert varying.r2(1e-15) == pytest.approx(1.0, abs=1e-10)
    assert varying.log_r1(0.0) == -math.inf
    assert varying.log_r2(1.0) == -math.inf


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_radial_monotonicity(s_a, s_b):
    geom = _MONO_GEOM
    lo, hi = sorted((s_a, s_b))
    if hi - lo < 1e-12:
        return
    assert geom.log_r1(lo) <= geom.log_r1(hi) + 1e-12
    assert geom.log_r2(lo) >= geom.log_r2(hi) - 1e-12


_MONO_GEOM = domain_from_exponent(expression_profile(EX_PROFILE))


# ---------------------------------------------------------------------------
# duality
# ---------------------------------------------------------------------------

def test_pointwise_duality_identity(varying):
    s = np.linspace(1e-4, 1.0 - 1e-4, 101)
    lhs = varying.log_r1_star(s) + varying.log_r1(s)
    assert np.allclose(lhs, np.log(s), atol=1e-13)
    lhs2 = varying.log_r2_star(s) + varying.log_r2(s)
    assert np.allclose(lhs2, np.log1p(-s), atol=1e-13)


def test_dual_egg_conjugate_exponent():
    geom = domain_from_exponent(egg_profile(3.0))
    dual = dual_complement(geom)
    assert dual.profile.constant_p == pytest.approx(1.5)
    assert dual.profile.b1 == pytest.approx(1.0)
    # dual of the ball is the ball
    ball2 = dual_complement(domain_from_exponent(egg_profile(2.0)))
    assert ball2.profile.constant_p == pytest.approx(2.0)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.3])
def test_dual_egg_exponent_is_exact(p):
    dual = dual_complement(domain_from_exponent(egg_profile(p)))
    q = p / (p - 1.0)
    assert dual.profile.kind == "egg"
    assert dual.profile.constant_p == q
    back = dual_complement(dual)
    assert back.profile.kind == "egg"
    assert back.profile.constant_p == q / (q - 1.0)
    if p != 7.3:  # there p -> p/(p-1) twice rounds 4 ulps away from p
        assert back.profile.constant_p == p


def test_dual_radial_grid(varying):
    dual = dual_complement(varying)
    s = np.linspace(1e-3, 1 - 1e-3, 256)
    dev1 = np.max(np.abs(dual.log_r1(s) - varying.log_r1_star(s)))
    dev2 = np.max(np.abs(dual.log_r2(s) - varying.log_r2_star(s)))
    assert dev1 < 1e-9 and dev2 < 1e-9


def test_dual_of_dual_is_identity(varying):
    back = dual_complement(dual_complement(varying))
    s = np.linspace(1e-3, 1 - 1e-3, 256)
    dev = np.max(np.abs(np.exp(back.log_r1(s)) - varying.r1(s)))
    assert dev < 1e-9
    dev2 = np.max(np.abs(np.exp(back.log_r2(s)) - varying.r2(s)))
    assert dev2 < 1e-9


def test_dual_profile_is_conjugate(varying):
    dual = dual_complement(varying)
    s = np.linspace(0.01, 0.99, 41)
    p = varying.p_at(s)
    assert np.allclose(dual.p_at(s), p / (p - 1.0), rtol=1e-13)


# ---------------------------------------------------------------------------
# curvatures
# ---------------------------------------------------------------------------

def test_ball_curvatures(ball):
    # the unit sphere has all principal curvatures equal to 1
    for s in (0.2, 0.5, 0.8):
        c = curvatures_at(ball, s)
        assert c.kappa1 == pytest.approx(1.0, rel=1e-12)
        assert c.kappa2 == pytest.approx(1.0, rel=1e-12)
        assert c.kappa3 == pytest.approx(1.0, rel=1e-12)
        assert c.p_recovered == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("maker", [
    lambda: domain_from_exponent(egg_profile(3.0)),
    lambda: domain_from_exponent(egg_profile(1.5, a1=2.0, a2=0.5)),
    lambda: domain_from_exponent(expression_profile(EX_PROFILE)),
])
def test_curvature_recovers_exponent(maker):
    geom = maker()
    rng = np.random.default_rng(7)
    for s in rng.uniform(0.02, 0.98, 100):
        c = curvatures_at(geom, float(s))
        assert c.kappa1 > 0 and c.kappa2 > 0 and c.kappa3 > 0
        assert c.p_recovered == pytest.approx(float(geom.p_at(s)), rel=1e-6)


def test_curvature_domain_check(ball):
    with pytest.raises(DomainError):
        curvatures_at(ball, 0.0)
    with pytest.raises(DomainError):
        curvatures_at(ball, 1.5)


# ---------------------------------------------------------------------------
# limits, membership, classification
# ---------------------------------------------------------------------------

def test_p_limits_varying(varying):
    # p -> 2 as s -> 0 and p -> 2 + 1/log(10) as s -> 1
    assert varying.p_limits["s0"] == pytest.approx(2.0, abs=1e-6)
    assert varying.p_limits["s1"] == pytest.approx(2.0 + 1.0 / math.log(10.0),
                                                   abs=1e-6)


def test_huge_exponent_gives_no_warning():
    # samples near the largest double must not be doubled, and Aitken's
    # second differences of them overflow to inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        geom = domain_from_exponent(egg_profile(1e308))
        res = extrapolate_limit([1e308] * 8)
    assert geom.p_limits == {"s0": 1e308, "s1": 1e308}
    assert res.limit == 1e308 and res.converged


def test_membership_flags(varying):
    assert varying.membership["in_R_tilde"].value
    assert varying.membership["in_R_prime"].value
    assert 0.0 < varying.membership["in_R_tilde"].confidence <= 1.0


def test_classification_eggs():
    c2 = classify_boundary(domain_from_exponent(egg_profile(2.0)))
    assert c2["axis0"]["class"] == "finite_type(2)"
    c4 = classify_boundary(domain_from_exponent(egg_profile(4.0)))
    assert c4["axis0"]["class"] == "finite_type(4)"
    assert c4["axis1"]["class"] == "finite_type(4)"
    c3 = classify_boundary(domain_from_exponent(egg_profile(3.0)))
    assert c3["axis0"]["class"] == "inconclusive"


def test_classification_varying(varying):
    cls = classify_boundary(varying)
    # s -> 0 governs axis1; limit 2 from a non-constant profile is flagged
    # as low confidence contact order 2
    assert cls["axis1"]["class"] == "finite_type(2)"
    assert cls["axis1"]["confidence"] == pytest.approx(0.5)
    assert cls["axis0"]["class"] == "inconclusive"


def test_describe_fields(egg3):
    info = egg3.describe()
    assert info["kind"] == "egg"
    assert info["b1"] == pytest.approx(1.0)
    assert set(info) >= {"p_limits", "in_R_tilde", "in_R_prime",
                         "classification"}


# ---------------------------------------------------------------------------
# JSON loader
# ---------------------------------------------------------------------------

def test_spec_egg():
    geom = domain_from_spec({"kind": "egg", "p": 4, "a1": 16.0})
    assert geom.profile.constant_p == pytest.approx(4.0)
    assert geom.profile.b1 == pytest.approx(0.5)


def test_spec_expr_and_table():
    geom = domain_from_spec(json.dumps({"kind": "expr",
                                        "p_check": EX_PROFILE}))
    assert geom.profile.kind == "expression"
    geom2 = domain_from_spec({"kind": "table",
                              "s": [0.0, 0.5, 1.0], "p": [2.0, 3.0, 2.0]})
    assert geom2.profile.kind == "tabulated"


@pytest.mark.parametrize("bad", [
    "not json",
    json.dumps([1, 2, 3]),
    json.dumps({"p": 2}),
    json.dumps({"kind": "torus"}),
    json.dumps({"kind": "egg"}),
])
def test_spec_errors(bad):
    with pytest.raises(DomainError):
        domain_from_spec(bad)
