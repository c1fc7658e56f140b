"""Transform tests: coefficient grids, the Laplace coefficient map, and the
three weighted norms.

The ball spot-check oracle for the exponential boundary norm was computed
independently by 3-D adaptive quadrature of the full (s, theta1, theta2)
boundary integral (scipy.integrate.tplquad) and frozen below.
"""

import json
import math

import numpy as np
import pytest

from rlab.errors import DomainError, IndexOutOfTable
from rlab.geometry import (domain_from_exponent, dual_complement, egg_profile,
                           expression_profile, tabulated_profile)
from rlab.leray import _radial_log_nodes, moment_table
from rlab.numerics import (bessel_i0_log, log_gamma, nested_log_sums,
                           tanh_sinh_indexed)
from rlab.transform import (CoefficientGrid, _log_exp_norms, _series_degree,
                            bergman_nu_norm_sq, bergman_omega_norm_sq,
                            exp_norm_sq, hardy_norm_sq, invert_laplace,
                            laplace_map)


@pytest.fixture(scope="module")
def ball():
    return domain_from_exponent(egg_profile(2.0))


@pytest.fixture(scope="module")
def egg3():
    return domain_from_exponent(egg_profile(3.0))


def _grid(side, entries):
    return CoefficientGrid(side, dict(entries))


# ---------------------------------------------------------------------------
# coefficient grids
# ---------------------------------------------------------------------------

def test_grid_json_round_trip():
    g = _grid("hardy", {(0, 0): 1 + 2j, (3, 1): -0.5j})
    back = CoefficientGrid.from_json(json.dumps(g.to_json()))
    assert back.side == "hardy"
    assert back.entries == g.entries


def test_grid_validation():
    with pytest.raises(DomainError):
        CoefficientGrid("sobolev", {})
    with pytest.raises(DomainError):
        CoefficientGrid("hardy", {(-1, 0): 1.0})


def test_grid_support_sorted():
    g = _grid("hardy", {(2, 0): 1.0, (0, 1): 1.0, (1, 1): 1.0})
    assert g.support == [(0, 1), (1, 1), (2, 0)]


# ---------------------------------------------------------------------------
# Hardy norm and Laplace map
# ---------------------------------------------------------------------------

def test_hardy_norm_examples(ball):
    tab = moment_table(ball, 4, 4)
    # constant 1: (1/4) * I(0,0) = 1/4
    rep = hardy_norm_sq(ball, _grid("hardy", {(0, 0): 1.0}), tab)
    assert rep.value == pytest.approx(0.25, rel=1e-13)
    # z1 z2: (1/4) * B(2, 2) = 1/24
    rep2 = hardy_norm_sq(ball, _grid("hardy", {(1, 1): 1.0}), tab)
    assert rep2.value == pytest.approx(1.0 / 24.0, rel=1e-13)
    # additivity across orthogonal monomials
    both = hardy_norm_sq(ball, _grid("hardy", {(0, 0): 1.0, (1, 1): 1.0}), tab)
    assert both.value == pytest.approx(0.25 + 1.0 / 24.0, rel=1e-13)


def test_hardy_norm_guards(ball):
    tab = moment_table(ball, 2, 2)
    with pytest.raises(DomainError):
        hardy_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}), tab)
    with pytest.raises(IndexOutOfTable):
        hardy_norm_sq(ball, _grid("hardy", {(3, 0): 1.0}), tab)


def test_laplace_map_example(ball):
    tab = moment_table(ball, 2, 2)
    # t = (1/4) conj(a) I / (m1! m2!); for (1, 1) on the ball I = 1/6
    image = laplace_map(ball, _grid("hardy", {(1, 1): 2.0 + 4.0j}), tab)
    assert image.side == "laplace"
    want = (2.0 - 4.0j) * (1.0 / 6.0) / 4.0
    assert image.entries[(1, 1)] == pytest.approx(want, rel=1e-13)


def test_laplace_round_trip(egg3):
    tab = moment_table(egg3, 6, 6)
    rng = np.random.default_rng(3)
    entries = {(int(m1), int(m2)): complex(rng.normal(), rng.normal())
               for m1 in range(7) for m2 in range(0, 7, 2)}
    a = _grid("hardy", entries)
    back = invert_laplace(egg3, laplace_map(egg3, a, tab), tab)
    assert back.side == "hardy"
    for key, val in entries.items():
        assert back.entries[key] == pytest.approx(val, rel=1e-12)


def test_laplace_side_guards(ball):
    tab = moment_table(ball, 2, 2)
    with pytest.raises(DomainError):
        laplace_map(ball, _grid("laplace", {(0, 0): 1.0}), tab)
    with pytest.raises(DomainError):
        invert_laplace(ball, _grid("hardy", {(0, 0): 1.0}), tab)


# ---------------------------------------------------------------------------
# explicit-weight norm
# ---------------------------------------------------------------------------

def test_nu_ball_constant():
    # ball, beta = delta_{0,0}: J = int (s + 1-s)^{3/4} ds = 1, so the norm
    # is (1/4) Gamma(7/2) / 2^{7/2}
    ball = domain_from_exponent(egg_profile(2.0))
    rep = bergman_nu_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}))
    want = 0.25 * math.gamma(3.5) / 2.0 ** 3.5
    assert rep.value == pytest.approx(want, rel=1e-12)
    assert rep.convention == "exact_parametrized"


def test_nu_scales_quadratically(egg3):
    one = bergman_nu_norm_sq(egg3, _grid("bergman", {(2, 1): 1.0}))
    three = bergman_nu_norm_sq(egg3, _grid("bergman", {(2, 1): 3.0}))
    assert three.value == pytest.approx(9.0 * one.value, rel=1e-12)


def test_nu_paper_equivalent_convention(ball):
    # model series sum |beta|^2 ((M+1)!)^2 I_dual; the ball is self-dual so
    # for (0, 0) this is just 1
    rep = bergman_nu_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}),
                             convention="paper_equivalent")
    assert rep.value == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(DomainError):
        bergman_nu_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}),
                           convention="other")


def test_nu_side_guard(ball):
    with pytest.raises(DomainError):
        bergman_nu_norm_sq(ball, _grid("hardy", {(0, 0): 1.0}))


# ---------------------------------------------------------------------------
# exponential boundary norm
# ---------------------------------------------------------------------------

# frozen oracle: full 3-D boundary quadrature on the ball (see module
# docstring); keys are (r, t)
BALL_EXP_ORACLE = {
    (2.0, 0.5): 1.2199331442130563,
    (5.0, 0.2): 133.54941518506274,
    (10.0, 0.5): 1061374.3346281939,
    (20.0, 0.8): 183842452040741.75,
    (35.0, 0.35): 8.5212505634945e+26,
}


@pytest.mark.parametrize("key", sorted(BALL_EXP_ORACLE))
def test_exp_norm_matches_3d_oracle(ball, key):
    r, t = key
    got = exp_norm_sq(ball, r, t)
    want = BALL_EXP_ORACLE[key]
    assert math.exp(got - math.log(want)) == pytest.approx(
        1.0, abs=1e-6)


def test_exp_norm_at_zero(ball):
    # E(0, t) = (1/4) int ds = 1/4 for every t
    for t in (0.0, 0.5, 1.0):
        got = exp_norm_sq(ball, 0.0, t)
        assert math.exp(got) == pytest.approx(0.25, rel=1e-12)


def test_exp_norm_guards(ball):
    with pytest.raises(DomainError):
        exp_norm_sq(ball, -1.0, 0.5)
    with pytest.raises(DomainError):
        exp_norm_sq(ball, 1.0, 1.5)


@pytest.mark.parametrize("r", [math.nan, math.inf])
def test_exp_norm_rejects_non_finite_r(ball, r):
    with pytest.raises(DomainError):
        exp_norm_sq(ball, r, 0.5)


def test_exp_norm_monotone_in_r(ball):
    vals = [exp_norm_sq(ball, r, 0.3)
            for r in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_exp_norm_rejects_r_past_the_series_limit(ball):
    with pytest.raises(DomainError, match="r <= 1000"):
        exp_norm_sq(ball, 1000.5, 0.5)


# ---------------------------------------------------------------------------
# the exponential-norm kernel against the Bessel integrand
# ---------------------------------------------------------------------------

# the omega norm's largest r at the degree pair (60, 60): its peak
# 60 + 60 + 1.25, then 40 + 6 sqrt(peak + 1)
R_MAX_60 = 121.25 + 40.0 + 6.0 * math.sqrt(122.25)
VARYING = "2+1/log(10/s)"
KERNEL_DOMAINS = {
    "egg3": lambda: domain_from_exponent(egg_profile(3.0)),
    "varying": lambda: domain_from_exponent(expression_profile(VARYING)),
    "table": lambda: domain_from_exponent(tabulated_profile(
        [0.0, 0.3, 0.7, 1.0], [2.5, 3.5, 2.2, 4.0])),
    "varying_dual": lambda: dual_complement(
        domain_from_exponent(expression_profile(VARYING))),
}


@pytest.fixture(scope="module", params=sorted(KERNEL_DOMAINS))
def kernel_domain(request):
    return KERNEL_DOMAINS[request.param]()


def _t_nodes(geom):
    # every t node of the omega norm's level-3 rule, the extreme ones
    # (r1* or r2* below 1e-110) included
    _k, x, xm, _w = tanh_sinh_indexed(3)
    return geom.log_r1_star_xy(x, xm), geom.log_r2_star_xy(x, xm)


def _bessel_log_exp_norms(geom, rs, lr1t, lr2t, level):
    """log E(r, t) at s-levels `level` and `level - 1`: the tanh-sinh sums
    of (1/4) I0(2 r r1(s) r1*(t)) I0(2 r r2(s) r2*(t)), term by term."""
    logw, lr1, lr2, k = _radial_log_nodes(geom, level)
    r = rs[:, None, None]
    terms = (logw + bessel_i0_log(2.0 * r * np.exp(lr1 + lr1t[:, None]))
             + bessel_i0_log(2.0 * r * np.exp(lr2 + lr2t[:, None])))
    return np.array(nested_log_sums(terms, k)) - math.log(4.0)


def test_exp_norm_kernel_matches_bessel_sum(kernel_domain):
    lr1t, lr2t = _t_nodes(kernel_domain)
    rs = np.linspace(0.0, R_MAX_60, 13)
    got = _log_exp_norms(kernel_domain, rs, lr1t, lr2t, 4)
    want = _bessel_log_exp_norms(kernel_domain, rs, lr1t, lr2t, 4)
    assert got.shape == want.shape == (2, rs.size, lr1t.size)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("t", [0.0, 1.0, 0.3, 0.7])
def test_exp_norm_at_the_ends_matches_bessel_sum(kernel_domain, t):
    # exp_norm_sq sums at s-level 6, and r1*(0) = r2*(1) = 0; r = 300
    # (degrees 0..434 of the series) at t = 0.3 and 0.7, on either side of
    # r1*(t) = r2*(t) on egg 3
    lr1t = np.array([kernel_domain.log_r1_star(t)])
    lr2t = np.array([kernel_domain.log_r2_star(t)])
    for r in (0.0, 35.0, R_MAX_60) if t in (0.0, 1.0) else (300.0,):
        want = _bessel_log_exp_norms(kernel_domain, np.array([r]),
                                     lr1t, lr2t, 6)[0, 0, 0]
        assert exp_norm_sq(kernel_domain, r, t) == pytest.approx(
            want, rel=0, abs=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [0.0, 1.0])
def test_exp_norm_at_the_ends_of_a_dual(t):
    # the value a dual gave when exp_norm_sq set log r1*(0) and log r2*(1)
    # to -inf itself and took the other radius from log_radii
    dual = KERNEL_DOMAINS["varying_dual"]()
    lr1, lr2 = dual.log_radii(t)
    lr1t = float(np.log(t) - lr1) if t > 0 else -math.inf
    lr2t = float(np.log1p(-t) - lr2) if t < 1 else -math.inf
    for r in (0.0, 35.0, R_MAX_60):
        want = _log_exp_norms(dual, np.array([r]), np.array([lr1t]),
                              np.array([lr2t]), 6)[0, 0, 0]
        assert exp_norm_sq(dual, r, t) == want


def test_exp_series_tail_is_negligible(kernel_domain):
    # term n of the series is at most mu_00 r^{2n} / (n!)^2 / 4, with
    # mu_00 the sum of the s weights; sum those bounds past the last degree
    # and compare them with E at every r and t node
    lr1t, lr2t = _t_nodes(kernel_domain)
    rs = np.linspace(0.0, R_MAX_60, 13)[1:]
    log_e = _log_exp_norms(kernel_domain, rs, lr1t, lr2t, 4)[0]
    n = _series_degree(R_MAX_60)
    m = np.arange(n + 1.0, 3.0 * n + 100.0)
    log_terms = 2.0 * m * np.log(rs)[:, None] - 2.0 * log_gamma(m + 1.0)
    mx = log_terms.max(axis=1)
    log_tail = np.log(np.exp(log_terms - mx[:, None]).sum(axis=1)) + mx
    log_mu00 = np.log(np.exp(_radial_log_nodes(kernel_domain, 4)[0]).sum())
    rel = np.exp(log_mu00 + log_tail[:, None] - math.log(4.0) - log_e)
    assert rel.max() < 1e-16


# ---------------------------------------------------------------------------
# exponential-moment weighted norm
# ---------------------------------------------------------------------------

BALL_OMEGA_00 = 1.3256101628697334  # frozen from a fine-grid evaluation


def test_omega_ball_constant(ball):
    rep = bergman_omega_norm_sq(ball, _grid("bergman", {(0, 0): 1.0}))
    assert rep.value == pytest.approx(BALL_OMEGA_00, rel=1e-6)


def test_omega_empty_grid(ball):
    rep = bergman_omega_norm_sq(ball, _grid("bergman", {}))
    assert rep.value == 0.0


def test_omega_side_guard(ball):
    with pytest.raises(DomainError):
        bergman_omega_norm_sq(ball, _grid("laplace", {(0, 0): 1.0}))


def test_omega_dominates_nu(egg3):
    # the exponential-moment weight is pointwise comparable to but larger
    # than the explicit weight in total mass; per-monomial ratios stay in a
    # narrow band (the equivalence behind the norm comparison)
    ratios = []
    for key in [(0, 0), (2, 1), (5, 5)]:
        om = bergman_omega_norm_sq(egg3, _grid("bergman", {key: 1.0}))
        nu = bergman_nu_norm_sq(egg3, _grid("bergman", {key: 1.0}))
        ratios.append(om.value / nu.value)
    assert all(r > 1.0 for r in ratios)
    assert max(ratios) / min(ratios) < 1.5


# log omega norms of single monomials on the egg p = 3 at s- and t-level 6
# (r-rule as in the library), frozen
EGG3_OMEGA_REF = {(15, 15): 126.78436859299526, (30, 30): 328.0040839200187}


@pytest.mark.parametrize("key", sorted(EGG3_OMEGA_REF))
def test_omega_error_estimate_is_honest(egg3, key):
    rep = bergman_omega_norm_sq(egg3, _grid("bergman", {key: 1.0}))
    true_rel = abs(math.expm1(rep.log_value - EGG3_OMEGA_REF[key]))
    assert rep.err_est / rep.value >= true_rel
    assert rep.rel_err == pytest.approx(rep.err_est / rep.value, rel=1e-12)


def test_omega_error_estimate_is_measured(egg3):
    rep = bergman_omega_norm_sq(egg3, _grid("bergman", {(2, 1): 1.0}))
    assert rep.err_est > 0.0
