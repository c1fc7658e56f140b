"""Diagnostics tests: the boundary pairing function, the sampled comparison
inequality, exponential weight stability, and the witness series on the
absolute-sum ball."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab.diagnostics import (F_omega, _f_ball, egg_comparison_constant,
                              l1ball_counterexample, l1ball_log_moment,
                              verify_comparison_lemma,
                              verify_weight_equivalence)
from rlab.errors import DomainError, HypothesisNotMet
from rlab.geometry import domain_from_exponent, egg_profile, expression_profile

ZETA_3_2 = 2.6123753486854883


@pytest.fixture(scope="module")
def ball():
    return domain_from_exponent(egg_profile(2.0))


# ---------------------------------------------------------------------------
# the pairing function
# ---------------------------------------------------------------------------

def test_f_examples(ball):
    # ball, s = t, zero angles: sqrt(s t) + sqrt((1-s)(1-t)) = 1
    assert F_omega(ball, 0.3, 0.3, 0.0, 0.0) == pytest.approx(1.0, rel=1e-13)
    # s = 0.3, t = 0.7, zero angles: 2 sqrt(0.21)
    assert F_omega(ball, 0.3, 0.7, 0.0, 0.0) == pytest.approx(
        2.0 * math.sqrt(0.21), rel=1e-13)
    # right-angle second slot kills the second term
    assert F_omega(ball, 0.25, 0.25, 0.0, 0.5 * math.pi) == pytest.approx(
        0.25, rel=1e-13)


def test_f_ball_helper_consistency(ball):
    rng = np.random.default_rng(11)
    s, t = rng.uniform(0.01, 0.99, (2, 200))
    th1, th2 = rng.uniform(0.0, math.pi, (2, 200))
    assert np.allclose(F_omega(ball, s, t, th1, th2),
                       _f_ball(s, t, th1, th2), atol=1e-13)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
       st.floats(min_value=1e-4, max_value=1.0 - 1e-4),
       st.floats(min_value=0.0, max_value=2.0 * math.pi),
       st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_f_bounded_by_one(s, t, th1, th2):
    geom = _EGG3
    val = float(F_omega(geom, s, t, th1, th2))
    assert val <= 1.0 + 1e-12
    # equality requires s = t and both angles at 0 mod 2 pi
    if val > 1.0 - 1e-10:
        assert abs(s - t) < 1e-3
        assert min(th1, abs(th1 - 2 * math.pi)) < 1e-2
        assert min(th2, abs(th2 - 2 * math.pi)) < 1e-2


_EGG3 = domain_from_exponent(egg_profile(3.0))


def test_comparison_constant():
    assert egg_comparison_constant(4.0) == pytest.approx(2.0)
    assert egg_comparison_constant(2.0) == pytest.approx(1.0)
    assert egg_comparison_constant(1.5) == pytest.approx(1.5)
    with pytest.raises(DomainError):
        egg_comparison_constant(1.0)


# ---------------------------------------------------------------------------
# comparison inequality
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [1.25, 1.5, 2.0, 3.0, 4.0, 8.0])
def test_comparison_eggs(p):
    geom = domain_from_exponent(egg_profile(p))
    rep = verify_comparison_lemma(geom, n_samples=20_000, seed=1)
    assert rep.violations == 0
    assert rep.passed
    assert rep.theory_C1 - 1e-9 <= rep.empirical_min
    assert rep.empirical_max <= rep.theory_C2 + 1e-9
    if p == 2.0:
        # the ratio is identically 1 on the ball
        assert rep.empirical_min == pytest.approx(1.0, abs=1e-9)
        assert rep.empirical_max == pytest.approx(1.0, abs=1e-9)


def test_comparison_varying_profile():
    geom = domain_from_exponent(expression_profile("2+1/log(10/s)"))
    rep = verify_comparison_lemma(geom, n_samples=20_000, seed=2)
    assert rep.passed and rep.violations == 0
    assert 1.0 < rep.p_g < 3.0


def test_comparison_deterministic_in_seed(ball):
    a = verify_comparison_lemma(ball, n_samples=5_000, seed=9)
    b = verify_comparison_lemma(ball, n_samples=5_000, seed=9)
    assert a.empirical_min == b.empirical_min
    assert a.empirical_max == b.empirical_max


def test_comparison_hypothesis_guard():
    # an exponent running off to very large values breaks the boundedness
    # hypothesis and must be refused, not silently sampled
    geom = domain_from_exponent(
        expression_profile("2 + 1/((1.0001-s)^8)"))
    with pytest.raises(HypothesisNotMet):
        verify_comparison_lemma(geom, n_samples=1_000)


# ---------------------------------------------------------------------------
# weight equivalence
# ---------------------------------------------------------------------------

def test_weight_equivalence_ball(ball):
    rep = verify_weight_equivalence(ball)
    assert rep.passed
    assert rep.ratio < 1.5
    assert rep.rho_min > 0


def test_weight_equivalence_guards(ball):
    with pytest.raises(DomainError):
        verify_weight_equivalence(ball, r_range=(0.5, 10.0))
    with pytest.raises(DomainError):
        verify_weight_equivalence(ball, r_range=(5.0, 2.0))
    for rr in [(float("nan"), 5.0), (2.0, float("inf")), (2.0, float("nan"))]:
        with pytest.raises(DomainError):
            verify_weight_equivalence(ball, r_range=rr)
    for ts in [(), (0.0, 0.5), (0.5, 1.0), (0.5, float("nan")), (-0.2,)]:
        with pytest.raises(DomainError):
            verify_weight_equivalence(ball, t_samples=ts)


# ---------------------------------------------------------------------------
# the absolute-sum ball counterexample
# ---------------------------------------------------------------------------

def test_l1ball_moment_closed_form():
    # I(m1, m2) = (2m1)! (2m2)! / (2m1 + 2m2 + 1)!
    assert math.exp(l1ball_log_moment(0, 0)) == pytest.approx(1.0, rel=1e-13)
    assert math.exp(l1ball_log_moment(1, 1)) == pytest.approx(
        2.0 * 2.0 / 120.0, rel=1e-13)
    assert math.exp(l1ball_log_moment(2, 1)) == pytest.approx(
        24.0 * 2.0 / 5040.0, rel=1e-12)


def test_counterexample_term_laws():
    rep = l1ball_counterexample(2_000)
    # the omega series of G and the nu series of F are exactly k^{-3/2}
    k = np.arange(1, 2_001, dtype=float)
    omega_terms = np.diff(np.concatenate(
        [[0.0], rep.bergman_omega_G_partial_sums]))
    assert np.allclose(omega_terms, k ** -1.5, rtol=1e-10)
    nu_f_terms = np.diff(np.concatenate(
        [[0.0], rep.bergman_nu_F_partial_sums]))
    assert np.allclose(nu_f_terms, k ** -1.5, rtol=1e-10)


def test_counterexample_tail_slopes():
    rep = l1ball_counterexample(5_000)
    laws = rep.tail_law_estimates
    assert laws["omega_G"] == pytest.approx(-1.5, abs=0.05)
    assert laws["nu_F"] == pytest.approx(-1.5, abs=0.05)
    assert laws["nu_G"] == pytest.approx(-1.0, abs=0.05)
    assert laws["hardy"] == pytest.approx(-1.0, abs=0.05)


def _elementwise_log_terms(K):
    # the four log series term by term, each log-Gamma from its own gammaln
    # call, in the order of additions of the closed forms
    from scipy.special import gammaln
    k = np.arange(1, K + 1, dtype=float)
    log_t_sq = 2.0 * (2.0 * k * math.log(2.0) - 0.75 * np.log(k)
                      - 0.5 * gammaln(4.0 * k + 2.0))
    log_b_sq = 2.0 * (2.0 * k * math.log(2.0) - 0.75 * np.log(k)
                      - 0.5 * gammaln(4.0 * k + 2.5))
    log_pow4 = 4.0 * k * math.log(2.0)
    log_a_sq = (2.0 * math.log(4.0) + log_b_sq
                + 2.0 * (gammaln(4.0 * k + 2.0) + 2.0 * gammaln(k + 1.0)
                         - 2.0 * gammaln(2.0 * k + 1.0)))
    log_moment = 2.0 * gammaln(2.0 * k + 1.0) - gammaln(4.0 * k + 2.0)
    return k, {
        "omega_G": log_t_sq - log_pow4 + gammaln(4.0 * k + 2.0),
        "nu_G": log_t_sq - log_pow4 + gammaln(4.0 * k + 2.5),
        "nu_F": log_b_sq - log_pow4 + gammaln(4.0 * k + 2.5),
        "hardy": log_a_sq + log_moment - 2.0 * math.log(4.0),
    }


def test_counterexample_series_match_elementwise_terms():
    # one log-Gamma per distinct argument keeps every sum bit for bit
    rep = l1ball_counterexample(10_000)
    k, log_terms = _elementwise_log_terms(10_000)
    terms = {name: np.exp(t) for name, t in log_terms.items()}
    assert np.array_equal(rep.bergman_omega_G_partial_sums,
                          np.cumsum(terms["omega_G"]))
    assert np.array_equal(rep.bergman_nu_G_partial_sums,
                          np.cumsum(terms["nu_G"]))
    assert np.array_equal(rep.bergman_nu_F_partial_sums,
                          np.cumsum(terms["nu_F"]))
    assert np.array_equal(rep.hardy_partial_sums, np.cumsum(terms["hardy"]))
    assert np.array_equal(rep.hardy_k_times_term, k * terms["hardy"])


@pytest.mark.filterwarnings("error")
def test_counterexample_slopes_match_polyfit():
    # the closed-form least-squares slopes on the log terms, warning-free,
    # against np.polyfit of log(term) on log k over the top decade
    laws = l1ball_counterexample(10_000).tail_law_estimates
    k, log_terms = _elementwise_log_terms(10_000)
    lo = k.size // 10
    assert set(laws) == set(log_terms)
    for name, t in log_terms.items():
        want = np.polyfit(np.log(k[lo:]), np.log(np.exp(t[lo:])), 1)[0]
        assert abs(laws[name] - want) < 1e-12, name


def test_counterexample_hardy_tail_constant():
    rep = l1ball_counterexample(500)
    # k * (hardy term_k) tends to pi/2
    assert rep.hardy_k_times_term[99] == pytest.approx(math.pi / 2.0,
                                                       rel=0.05)
    assert rep.hardy_k_times_term[499] == pytest.approx(math.pi / 2.0,
                                                        rel=0.01)


def test_counterexample_convergent_sums():
    rep = l1ball_counterexample(10_000)
    assert rep.bergman_nu_F_partial_sums[-1] == pytest.approx(ZETA_3_2,
                                                              rel=0.02)
    assert rep.bergman_omega_G_partial_sums[-1] == pytest.approx(ZETA_3_2,
                                                                 rel=0.02)
    # the divergent series keep growing like log K
    tail_growth = (rep.bergman_nu_G_partial_sums[-1]
                   - rep.bergman_nu_G_partial_sums[4_999])
    assert tail_growth > 0.1


def test_counterexample_report_shape():
    rep = l1ball_counterexample(100)
    assert rep.K_max == 100
    assert len(rep.inclusions) == 2
    d = rep.as_dict(thin=10)
    assert len(d["k"]) == 10
    assert d["k"][0] == 1
    with pytest.raises(DomainError):
        l1ball_counterexample(5)
