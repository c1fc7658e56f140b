"""Diagnostics tests: the boundary pairing function, the sampled comparison
inequality, exponential weight stability, and the witness series on the
absolute-sum ball."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab import diagnostics
from rlab.diagnostics import (COMPARISON_SLACK, WEIGHT_FACTOR, WEIGHT_R_RANGE,
                              ComparisonReport, F_omega,
                              WeightEquivalenceReport, _ball_pairing,
                              _l1ball_log_terms, _pairing,
                              egg_comparison_constant,
                              l1ball_counterexample, l1ball_log_moment,
                              verify_comparison_lemma,
                              verify_weight_equivalence)
from rlab.errors import DomainError, HypothesisNotMet
from rlab.geometry import (domain_from_exponent, domain_from_spec, egg_profile,
                           expression_profile)
from rlab.numerics import log_gamma
from rlab.transform import _log_exp_norms, exp_norm_sq

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
                       _ball_pairing(s, t, np.cos(th1), np.cos(th2)),
                       atol=1e-13)


@pytest.mark.parametrize("spec, n, g", [
    ('{"kind": "egg", "p": 4}', 100_000, 81),
    ('{"kind": "expr", "p_check": "2+1/log(10/s)"}', 300, 9)])
def test_sampler_pairing_is_f_omega_bit_for_bit(spec, n, g):
    # the sampler takes the cosines once, in place on its (4, n + 4 g^2)
    # buffer, and hands them to _pairing: F_omega's bits on the angles
    geom = domain_from_spec(spec)
    s, t, c1, c2 = buf = np.random.default_rng(g).random((4, n + 4 * g * g))
    buf[2:] *= 0.5 * math.pi
    want = F_omega(geom, s, t, buf[2], buf[3])
    np.cos(buf[2:], out=buf[2:])
    assert _pairing(geom, s, t, c1, c2).tobytes() == want.tobytes()


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


@pytest.mark.parametrize("n", [0, -3])
def test_comparison_needs_a_sample(ball, n):
    # no draw would check the corner grid only, and a negative count would
    # slice the sample buffer from its end
    with pytest.raises(DomainError, match="n_samples must be at least 1"):
        verify_comparison_lemma(ball, n_samples=n)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_scaled_draws_match_uniform(seed):
    # the sampler draws u into its buffer and scales the angles in place:
    # rng.uniform(0, h) returns 0 + h u from the same u, which is h u
    h = 0.5 * math.pi
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.array([a.uniform(0.0, 1.0, 1000), a.uniform(0.0, h, 1000)])
    got = np.empty((2, 1000))
    for row in got:
        b.random(out=row)
    got[1] *= h
    assert np.array_equal(got, want)


def _comparison_from_fresh_arrays(geom, n_samples, seed):
    # the comparison sampler with each block drawn or filled as its own
    # array and concatenated, every cosine taken on the concatenation
    pvals = geom.p_at(np.linspace(1e-6, 1 - 1e-6, 1001))
    p_l, p_g = float(pvals.min()), float(pvals.max())
    c_low = p_l / (p_g * egg_comparison_constant(p_l))
    q_l, q_g = p_g / (p_g - 1.0), p_l / (p_l - 1.0)
    c_high = (q_g / q_l) * egg_comparison_constant(q_l)
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 1.0, n_samples)
    t = rng.uniform(0.0, 1.0, n_samples)
    th1 = rng.uniform(0.0, 0.5 * math.pi, n_samples)
    th2 = rng.uniform(0.0, 0.5 * math.pi, n_samples)
    g = np.linspace(0.005, 0.995, 81)
    sg, tg = [a.ravel() for a in np.meshgrid(g, g)]
    corners = [(0.0, 0.0), (0.0, 0.5 * math.pi),
               (0.5 * math.pi, 0.0), (0.5 * math.pi, 0.5 * math.pi)]
    s = np.concatenate([s] + [sg] * 4)
    t = np.concatenate([t] + [tg] * 4)
    th1 = np.concatenate([th1] + [np.full_like(sg, c[0]) for c in corners])
    th2 = np.concatenate([th2] + [np.full_like(sg, c[1]) for c in corners])
    one_minus_fb = 1.0 - (np.sqrt(s * t) * np.cos(th1)
                          + np.sqrt((1.0 - s) * (1.0 - t)) * np.cos(th2))
    one_minus_fo = 1.0 - (
        np.exp(geom.log_r1(s) + geom.log_r1_star(t)) * np.cos(th1)
        + np.exp(geom.log_r2(s) + geom.log_r2_star(t)) * np.cos(th2))
    keep = one_minus_fb > 1e-12
    ratio = one_minus_fo[keep] / one_minus_fb[keep]
    violations = int(np.sum(ratio < c_low - COMPARISON_SLACK)
                     + np.sum(ratio > c_high + COMPARISON_SLACK))
    return ComparisonReport(int(s.size), float(ratio.min()),
                            float(ratio.max()), c_low, c_high, p_l, p_g,
                            violations, violations == 0, seed)


_COMPARISON_SPECS = ['{"kind": "egg", "p": 2}', '{"kind": "egg", "p": 4}',
                     '{"kind": "expr", "p_check": "2+1/log(10/s)"}',
                     '{"kind": "table", "s": [0, 0.25, 0.5, 0.75, 1], '
                     '"p": [2, 3, 2.5, 4, 3]}']


@pytest.mark.parametrize("spec, n", [
    (spec, n) for spec in _COMPARISON_SPECS for n in (1, 1000)]
    + [(_COMPARISON_SPECS[1], 100_000)])
def test_comparison_matches_fresh_array_sampler(spec, n):
    # one buffer for the four coordinates, filled in place, gives every
    # field bit for bit
    geom = domain_from_spec(spec)
    for seed in (0, 7):
        assert (verify_comparison_lemma(geom, n, seed)
                == _comparison_from_fresh_arrays(geom, n, seed))


# ---------------------------------------------------------------------------
# weight equivalence
# ---------------------------------------------------------------------------

def test_weight_equivalence_ball(ball):
    rep = verify_weight_equivalence(ball)
    assert rep.passed
    assert rep.ratio < 1.5
    assert rep.rho_min > 0


@pytest.mark.parametrize("b", [1e-300, 1e300])
def test_weight_ratio_past_the_double_range(b):
    # rho overflows at b = 1e-300 (ratio nan) and underflows to 0 at
    # b = 1e300 (division by zero); its ratio does not depend on the scale
    spec = {"kind": "expr", "p_check": "2+1/log(10/s)"}
    base = verify_weight_equivalence(domain_from_spec(spec))
    rep = verify_weight_equivalence(domain_from_spec({**spec, "b1": b,
                                                      "b2": b}))
    assert rep.ratio == pytest.approx(base.ratio, rel=1e-10)
    assert rep.passed


def _weight_report_from_kernel(geom, ts):
    # the weight check as it was written before it called exp_norm_sq: the
    # star radii once, the kernel at s-level 6 on the same arrays
    ts = np.asarray(ts, dtype=float)
    rs = np.geomspace(*WEIGHT_R_RANGE, 12)
    lr1t, lr2t = geom.log_r1_star(ts), geom.log_r2_star(ts)
    log_e = _log_exp_norms(geom, rs, lr1t, lr2t, 6)[0]
    log_z = 0.5 * np.logaddexp(2.0 * lr1t, 2.0 * lr2t)
    log_vals = (-2.0 * rs[:, None] + 1.5 * (np.log(rs)[:, None] + log_z)
                + log_e)
    with np.errstate(over="ignore"):
        vals = np.exp(log_vals)
    lo, hi = float(vals.min()), float(vals.max())
    ratio = hi / lo if np.finfo(float).tiny <= lo and hi < math.inf else (
        math.exp(float(log_vals.max() - log_vals.min())))
    return WeightEquivalenceReport(tuple(float(r) for r in rs),
                                   tuple(ts.tolist()), lo, hi, ratio,
                                   WEIGHT_FACTOR, ratio < WEIGHT_FACTOR)


@pytest.mark.parametrize("spec", _COMPARISON_SPECS[:1] + _COMPARISON_SPECS[2:])
@pytest.mark.parametrize("ts", [(0.1, 0.3, 0.5, 0.7, 0.9), (0.5,)])
def test_weight_report_is_the_kernel_computation(spec, ts, monkeypatch):
    # byte for byte, with one exp_norm_sq call per check
    geom = domain_from_spec(spec)
    calls = []

    def counted(*args):
        calls.append(args)
        return exp_norm_sq(*args)

    monkeypatch.setattr(diagnostics, "exp_norm_sq", counted)
    rep = verify_weight_equivalence(geom, ts)
    assert len(calls) == 1
    assert repr(rep) == repr(_weight_report_from_kernel(geom, ts))


def test_weight_equivalence_guards(ball):
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
    # it is log B(2m1 + 1, 2m2 + 1), whose argument sum is exact: the
    # three-term form bit for bit
    for m1, m2 in [(0, 0), (1, 0), (3, 7), (29, 29), (1000, 3),
                   (123_456, 654_321), (10 ** 6, 1), (10 ** 6, 10 ** 6)]:
        assert l1ball_log_moment(m1, m2) == (
            log_gamma(2.0 * m1 + 1.0) + log_gamma(2.0 * m2 + 1.0)
            - log_gamma(2.0 * m1 + 2.0 * m2 + 2.0))


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
    # the four log series term by term in log-Gamma form, each log-Gamma
    # from scipy's gammaln: a form independent of the library's
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


def _exact_log_terms(k):
    # the four log terms at one k from exact integers: each term is an
    # integer ratio times k^{-3/2} pi^{e/2}, with Gamma(m + 1/2) =
    # (2m)! sqrt(pi) / (4^m m!) at m = 4k + 2; int / int rounds correctly
    f, m, p4 = math.factorial, 4 * k + 2, 2 ** (4 * k)
    g2, g25 = f(4 * k + 1), (f(2 * m), 4 ** m * f(m))  # Gamma(4k+5/2)/sqrt(pi)
    t_sq = (p4, g2)                                   # k^{3/2} t_k^2
    b_sq = (p4 * g25[1], g25[0])                      # k^{3/2} sqrt(pi) b_k^2
    a_sq = (b_sq[0] * (g2 * f(k) ** 2) ** 2,          # |a_k|^2 / 16, likewise
            b_sq[1] * f(2 * k) ** 4)
    omega, nu = (g2, p4), (g25[0], g25[1] * p4)       # the two weights
    moment = (f(2 * k) ** 2, g2)                      # I(k, k)

    def log_term(coef, weight, e):
        return (math.log(coef[0] * weight[0] / (coef[1] * weight[1]))
                + 0.5 * e * math.log(math.pi) - 1.5 * math.log(k))

    return {"omega_G": log_term(t_sq, omega, 0), "nu_G": log_term(t_sq, nu, 1),
            "nu_F": log_term(b_sq, nu, 0), "hardy": log_term(a_sq, moment, -1)}


def test_counterexample_log_terms_match_exact_arithmetic():
    # the log terms against exact integer arithmetic, then the report's
    # partial sums and k times the Hardy term from those same terms
    K = 10_000
    k = np.arange(1, K + 1, dtype=float)
    log_terms = _l1ball_log_terms(k, np.log(k))
    names = ("omega_G", "nu_G", "nu_F", "hardy")
    for j in (1, 2, 10, 100, 1_000, 10_000):
        want = _exact_log_terms(j)
        for name, row in zip(names, log_terms):
            assert abs(row[j - 1] - want[name]) <= 1e-11, (name, j)
    rep = l1ball_counterexample(K)
    terms = np.exp(log_terms)
    for sums, row in zip((rep.bergman_omega_G_partial_sums,
                          rep.bergman_nu_G_partial_sums,
                          rep.bergman_nu_F_partial_sums,
                          rep.hardy_partial_sums), terms):
        assert np.array_equal(sums, np.cumsum(row))
    assert np.array_equal(rep.hardy_k_times_term, k * terms[3])


def test_counterexample_peak_memory():
    # the four series live in one (4, K) buffer next to the running sum
    # S(j), j <= 4K + 2: twelve K-vectors at the peak, 9.2 MiB at K = 100,000
    l1ball_counterexample(100_000)   # one-time set-up is not counted
    tracemalloc.start()
    try:
        l1ball_counterexample(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


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
    assert rep.as_dict()["k"] == list(range(1, 101))
    # from K_max = 2,000 every (K_max // 1000)-th row is kept, counted back
    # from K_max, so the last one is k = K_max
    d = l1ball_counterexample(2_500).as_dict()
    assert d["k"] == list(range(2, 2_501, 2))
    assert len(d["hardy_partial_sums"]) == 1_250
    with pytest.raises(DomainError):
        l1ball_counterexample(5)
