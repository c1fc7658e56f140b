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

from rlab import geometry
from rlab.errors import (DomainError, ExponentOutOfRange, NonEvaluableProfile)
from rlab.exprdsl import parse_expr
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


@pytest.mark.parametrize("s, p", [
    ([0.0, math.nan, 1.0], [2.0, 2.0, 2.0]),
    ([0.0, 0.5, math.inf], [2.0, 2.0, 2.0]),
    ([-math.inf, 0.5, 1.0], [2.0, 2.0, 2.0]),
    ([0.0, 0.5, 1.0], [2.0, math.nan, 2.0]),
    ([0.0, 0.5, 1.0], [2.0, 3.0, math.inf]),
])
def test_tabulated_profile_rejects_non_finite_samples(s, p):
    with pytest.raises(DomainError, match="tabulated samples must be finite"):
        tabulated_profile(s, p)


@pytest.mark.parametrize("s, p, error", [
    ([0.0, 1e-300, 1.0], [2.0, 1e300, 3.0], DomainError),
    ([0.0, 0.5, 1.0], [1e308, 2.0, 1e308], DomainError),
    ([0.0, 1.0], [2.0, 1e308], NonEvaluableProfile),
])
def test_tabulated_profile_rejects_overflow_quietly(s, p, error):
    # slopes that overflow are rejected, as scipy rejects them; a cubic that
    # overflows fails validation.  No RuntimeWarning escapes (pytest would
    # raise it)
    with pytest.raises(error):
        tabulated_profile(s, p)


def test_tabulated_profile_keeps_its_own_samples():
    # the interpolant holds copies: a caller reusing its arrays changes nothing
    s, p = np.array([0.0, 0.5, 1.0]), np.array([2.0, 3.0, 2.5])
    prof, grid = tabulated_profile(s, p), np.linspace(0.0, 1.0, 101)
    before = prof(grid)
    s[1], p[:] = 0.1, 5.0
    assert prof(grid).tobytes() == before.tobytes()


def _random_values(rng, n):
    """Values of one random table on n knots, all above 1: random, in
    flat runs, monotone either way, or monotone with flat runs."""
    p = 1.0 + rng.exponential(2.0, n)
    kind = rng.integers(4)
    if kind == 1:
        p = np.repeat(p, rng.integers(2, 4))[:n]
    elif kind == 2:
        p = np.sort(p)[::rng.choice((-1, 1))]
    elif kind == 3:
        p = np.sort(np.round(p) + 0.5)
    return p


def test_tabulated_profile_matches_scipy_pchip_bit_for_bit():
    # the port reproduces scipy's PchipInterpolator with the clip-and-hold
    # wrapper it replaced; comparing bytes also compares signs and nans.
    # 3,000 tables: 1,000 knot sets of 2-13 knots, ending at 0 and 1 or
    # inside, with three value columns each (scipy treats the columns of
    # one interpolator elementwise, as three separate tables)
    from scipy.interpolate import PchipInterpolator

    rng = np.random.default_rng(20261019)
    for i in range(1000):
        s = np.sort(rng.uniform(0.0, 1.0, rng.integers(2, 14)))
        if i % 2:
            s[0], s[-1] = 0.0, 1.0
        cols = np.stack([_random_values(rng, s.size) for _ in range(3)], 1)
        interp = PchipInterpolator(s, cols, extrapolate=False)
        profs = [tabulated_profile(s, p) for p in cols.T]
        # random points in and outside the range, the knots, nan and ±inf;
        # for every third knot set also a scalar in turn: a random point, a
        # knot, nan or ±inf, as a 0-d array or a float
        x = np.concatenate((rng.uniform(-0.1, 1.1, 24), s,
                            [np.nan, np.inf, -np.inf]))
        scalar = (x[0], s[i % s.size], np.nan, np.inf, -np.inf)[i // 3 % 5]
        scalar = np.asarray(scalar) if i % 2 else float(scalar)
        for q in (x, scalar) if i % 3 == 0 else (x,):
            ref = interp(np.clip(q, s[0], s[-1]))
            for j, (p, prof) in enumerate(zip(cols.T, profs)):
                got = prof(q)
                want = np.where(q <= s[0], p[0], ref[..., j])
                want = np.where(q >= s[-1], p[-1], want)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "array"])
def test_log_r1_matches_closed_form_for_log_smooth_profile(varying, scalar):
    # 1/p = w/(2w+1) in w = log(10/s), so log r1 = -int_{log 10}^{log 10 -
    # log s} w/(2w+1) dw = log(s)/2 + log1p(-2 log(s)/(2 log 10 + 1))/4
    s = np.concatenate((np.logspace(-300, -1, 300),
                        np.linspace(0.1, 0.999, 90)))
    want = 0.5 * np.log(s) + 0.25 * np.log1p(
        -2.0 * np.log(s) / (2.0 * math.log(10.0) + 1.0))
    got = (np.array([varying.log_r1(v) for v in s]) if scalar
           else varying.log_r1(s))
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "array"])
def test_linear_profile_matches_partial_fractions(scalar):
    # p = c + s: 1/(c + e^u) = (1 - e^u/(c + e^u))/c integrates to
    # (u - log(c + e^u))/c, and likewise for r2 with 1 + c - e^u
    c = 1.05
    geom = domain_from_exponent(expression_profile("1.05+s"))
    s = np.concatenate((np.logspace(-300, -1, 300), np.linspace(0.1, 0.9, 81),
                        1.0 - np.logspace(-1, -9, 90)))
    want1 = (np.log(s) - np.log((c + s) / (c + 1.0))) / c
    want2 = (np.log1p(-s) - np.log1p(s / c)) / (c + 1.0)
    for f, want in ((geom.log_r1, want1), (geom.log_r2, want2)):
        got = np.array([f(v) for v in s]) if scalar else f(s)
        assert np.all(np.abs(got - want)
                      <= 1e-15 * np.maximum(1.0, np.abs(want)))


def test_scalar_radial_pass_evaluates_few_points():
    # panels graded toward u = 0 only, 16 nodes each: 48 pieces, 768 values
    # per radius; log_radii takes both radii of one s from one profile call
    expr = parse_expr(EX_PROFILE)
    sizes = []

    def p(s):
        sizes.append(np.size(s))
        return expr(s)

    geom = domain_from_exponent(ExponentProfile("expression", 1.0, 1.0, p))
    for f in (geom.log_r1, geom.log_r2):
        sizes.clear()
        f(0.3)
        assert 0 < sum(sizes) <= 800
    sizes.clear()
    geom.log_radii(0.3)
    assert len(sizes) == 1 and 0 < sizes[0] <= 1600


def test_cumulative_pass_edge_queries():
    # a query outside (0, 1) or at a point where f is nan adds only empty
    # pieces, which must not reach the integrals of the other queries
    f = lambda u: np.where(u == math.log(0.5), np.nan, 1.0)  # noqa: E731
    got = _integrals_to_zero(f, np.array([0.25, 0.5, 1.0, 2.0, 0.0, np.nan]),
                             np.array([]))
    assert np.allclose(got[:4], [math.log(4.0), math.log(2.0), 0.0, 0.0],
                       rtol=1e-15)
    assert got[4] == math.inf and math.isnan(got[5])
    # one query, 0-d or (1,), takes the same pass; log 0.5 is half of
    # log 0.25 exactly, so the knot 0.5 repeats a panel edge of x = 0.25:
    # an empty piece at the one u where f is nan
    assert math.log(0.5) == 0.5 * math.log(0.25)
    one = np.nextafter(1.0, 0.0)
    for x, knots, want in [
            (0.25, [], math.log(4.0)), (0.5, [], math.log(2.0)),
            (1.0, [], 0.0), (2.0, [], 0.0), (0.0, [], math.inf),
            (-1.0, [], math.inf), (math.nan, [], math.nan),
            (5e-324, [], -math.log(5e-324)), (one, [], -math.log(one)),
            (0.25, [0.5], math.log(4.0))]:
        for shape in ((), (1,)):
            got = _integrals_to_zero(f, np.full(shape, x), np.array(knots))
            assert got.shape == shape
            np.testing.assert_allclose(got, np.full(shape, want), rtol=1e-15)


_BIT_SPECS = {
    "log": {"kind": "expr", "p_check": EX_PROFILE},
    "slogs": {"kind": "expr", "p_check": "2+s*log(s)"},
    "linear": {"kind": "expr", "p_check": "40+10*s"},
    "table9": {"kind": "table", "s": np.linspace(0.0, 1.0, 9).tolist(),
               "p": [2.0, 3.0, 2.5, 4.0, 3.0, 2.2, 3.3, 2.8, 2.1]},
    "table5": {"kind": "table", "s": [0.0, 0.25, 0.5, 0.75, 1.0],
               "p": [2.0, 3.0, 2.5, 4.0, 3.0]},
}


@pytest.mark.parametrize("dual", [False, True], ids=["profile", "dual"])
@pytest.mark.parametrize("name", sorted(_BIT_SPECS))
def test_scalar_radial_pass_matches_array_pass(name, dual):
    # log_radii of one s sums the pieces of both radii with math.fsum; a
    # repeated query only adds empty pieces, so s given as [s, s] runs the
    # many-query pass on the same pieces, and the two sums must agree bit
    # for bit.  Below 2^-53, 1 - s rounds to 1 and r2 has no pieces.
    geom = domain_from_spec(_BIT_SPECS[name])
    geom = dual_complement(geom) if dual else geom
    rng = np.random.default_rng(7)
    s = np.concatenate((rng.random(500), 10.0 ** -rng.uniform(1, 300, 250),
                        1.0 - 10.0 ** -rng.uniform(1, 15, 250),
                        [5e-324, 1e-300, 2.0 ** -60, 2.0 ** -54, 1e-16,
                         1.0 - 1e-15, np.nextafter(1.0, 0.0)]))
    want = np.array([[f(np.array([v, v]))[0] for f in (geom.log_r1,
                                                       geom.log_r2)]
                     for v in s])
    pairs = [geom.log_radii(v) for v in s]
    assert all(type(a) is float and type(b) is float for a, b in pairs)
    assert np.array(pairs).tobytes() == want.tobytes()
    # a lone log_r1 or log_r2 runs the many-query pass on one point
    got = np.array([[geom.log_r1(v), geom.log_r2(np.array([v]))[0]]
                    for v in s[::5]])
    assert got.tobytes() == want[::5].tobytes()


@pytest.mark.parametrize("dual", [False, True], ids=["profile", "dual"])
@pytest.mark.parametrize("spec", [{"kind": "egg", "p": 3},
                                  {"kind": "expr", "p_check": EX_PROFILE}],
                         ids=["egg", "expr"])
def test_log_radii_is_the_two_radial_profiles(spec, dual):
    # closed forms for a constant p, the paired pass for one s in (0, 1),
    # the many-query passes for arrays and the ends; a dual from its primal
    geom = domain_from_spec(spec)
    geom = dual_complement(geom) if dual else geom
    s = np.array([0.0, 1e-200, 0.3, 0.5, 1.0 - 1e-12, 1.0])
    with np.errstate(invalid="ignore"):  # a dual's r1*(0) and r2*(1) are nan
        lr1, lr2 = geom.log_radii(s)
        want = np.array([geom.log_r1(s), geom.log_r2(s)])
        for i, v in enumerate(s.tolist()):
            pair = geom.log_radii(v)
            assert all(type(x) is float for x in pair)
            np.testing.assert_allclose(pair, want[:, i], rtol=1e-15)
    assert isinstance(lr1, np.ndarray) and lr1.shape == s.shape
    np.testing.assert_array_equal(np.array([lr1, lr2]), want)


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", [{"kind": "egg", "p": 3.0},
                                  {"kind": "expr", "p_check": EX_PROFILE}])
def test_dual_radii_vanish_at_the_ends(spec):
    # r1*(0) = r2*(1) = 0 (log -inf), with no nan and no warning, for a
    # geometry and its dual, in every form; a dual's own radii there are
    # the primal's dual radii
    geom = domain_from_spec(spec)
    dual = dual_complement(geom)
    ends = np.array([0.0, 1.0])
    for g in (geom, dual):
        assert g.log_r1_star(0.0) == g.log_r2_star(1.0) == -math.inf
        assert g.log_r1_star_xy(0.0, 1.0) == -math.inf
        assert g.log_r2_star_xy(1.0, 0.0) == -math.inf
        assert g.log_r1_star(ends)[0] == g.log_r2_star(ends)[1] == -math.inf
        assert (g.log_star_radii(0.0)[0] == g.log_star_radii(1.0)[1]
                == -math.inf)
    assert dual.log_radii(0.0)[0] == dual.log_radii(1.0)[1] == -math.inf
    lr1, lr2 = dual.log_radii(ends)
    assert lr1[0] == lr2[1] == -math.inf
    assert np.all(np.isfinite([lr1[1], lr2[0]]))


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


@pytest.mark.parametrize("spec", [
    {"kind": "expr", "p_check": EX_PROFILE},
    {"kind": "table", "s": [0, 0.25, 0.5, 0.75, 1], "p": [2, 3, 2.5, 4, 3]},
], ids=["expr", "table"])
def test_curvatures_over_an_array_match_scalar_calls(spec):
    # an array of s takes one call of each radial profile; its values agree
    # with the per-point calls to rounding, and a scalar still gives floats
    geom = domain_from_spec(spec)
    ss = np.linspace(0.0, 1.0, 52)[1:-1]
    arr = curvatures_at(geom, ss)
    one = [curvatures_at(geom, float(s)) for s in ss]
    for f in dataclasses.fields(arr):
        got, want = getattr(arr, f.name), [getattr(c, f.name) for c in one]
        assert isinstance(got, np.ndarray) and got.shape == ss.shape
        assert all(type(v) is float for v in want)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    with pytest.raises(DomainError):
        curvatures_at(geom, np.array([0.5, 1.0]))


# ---------------------------------------------------------------------------
# limits, membership, classification
# ---------------------------------------------------------------------------

def test_p_limits_varying(varying):
    # p -> 2 as s -> 0 and p -> 2 + 1/log(10) as s -> 1
    limits = varying.describe()["p_limits"]
    assert limits["s0"] == pytest.approx(2.0, abs=1e-6)
    assert limits["s1"] == pytest.approx(2.0 + 1.0 / math.log(10.0),
                                         abs=1e-6)


def test_huge_exponent_gives_no_warning():
    # samples near the largest double must not be doubled, and Aitken's
    # second differences of them overflow to inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        info = domain_from_exponent(egg_profile(1e308)).describe()
        res = extrapolate_limit([1e308] * 8)
    assert info["p_limits"] == {"s0": 1e308, "s1": 1e308}
    assert res.limit == 1e308 and res.converged


def test_membership_flags(varying):
    info = varying.describe()
    assert info["in_R_tilde"]["value"]
    assert info["in_R_prime"]["value"]
    assert 0.0 < info["in_R_tilde"]["confidence"] <= 1.0


def test_construction_does_no_describe_work(monkeypatch):
    # the endpoint limits and class flags are estimated by describe() only,
    # so building a geometry or its dual makes no radial quadrature pass
    calls = []
    inner = geometry._integrals_to_zero
    monkeypatch.setattr(geometry, "_integrals_to_zero",
                        lambda *args: calls.append(args) or inner(*args))
    geom = domain_from_spec({"kind": "expr", "p_check": EX_PROFILE})
    assert len(calls) == 0
    dual_complement(geom)
    assert len(calls) == 0
    geom.describe()
    assert len(calls) == 2


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
