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
from rlab.geometry import domain_from_exponent, egg_profile, expression_profile
from rlab.leray import moment_table
from rlab.transform import (CoefficientGrid, bergman_nu_norm_sq,
                            bergman_omega_norm_sq, exp_norm_sq, hardy_norm_sq,
                            invert_laplace, laplace_map)


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


def test_nu_h_variant_smaller_on_ball(ball):
    # on the ball r1*^2 + r2*^2 = 1 pointwise, so the variant with the
    # norm factor dropped coincides with the exact convention
    full = bergman_nu_norm_sq(ball, _grid("bergman", {(1, 2): 1.0}))
    hv = bergman_nu_norm_sq(ball, _grid("bergman", {(1, 2): 1.0}),
                            h_variant=True)
    assert hv.value == pytest.approx(full.value, rel=1e-10)
    assert "H32" in hv.convention


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


def test_omega_error_estimate_is_measured(egg3):
    rep = bergman_omega_norm_sq(egg3, _grid("bergman", {(2, 1): 1.0}))
    assert rep.err_est > 0.0
