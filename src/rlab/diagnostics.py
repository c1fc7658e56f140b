"""Desk-scale verification of inequalities, weight equivalences, and the
absolute-sum-ball counterexample.

Divergence of a series is never reported as a boolean; finite computation
cannot certify it.  Instead each witness series carries a fitted tail law
(slope of log term against log k) plus its partial-sum growth, and the
caller reads off "convergent-consistent" or "divergent-consistent".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, HypothesisNotMet
from .geometry import DomainGeometry
from .numerics import log_gamma
from .transform import _log_exp_norms

__all__ = [
    "F_omega",
    "ComparisonReport",
    "verify_comparison_lemma",
    "egg_comparison_constant",
    "WeightEquivalenceReport",
    "verify_weight_equivalence",
    "CounterexampleReport",
    "l1ball_counterexample",
    "l1ball_log_moment",
]


# ---------------------------------------------------------------------------
# the boundary pairing function
# ---------------------------------------------------------------------------

def F_omega(geom: DomainGeometry, s, t, theta1, theta2):
    """F(s, t, t1, t2) = r1(s) r1*(t) cos t1 + r2(s) r2*(t) cos t2.

    Bounded above by 1, with equality only at s = t, angles 0 (strict
    convexity of the domain).
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return (np.exp(geom.log_r1(s) + geom.log_r1_star(t)) * np.cos(theta1)
            + np.exp(geom.log_r2(s) + geom.log_r2_star(t)) * np.cos(theta2))


def _f_ball(s, t, theta1, theta2):
    return (np.sqrt(s * t) * np.cos(theta1)
            + np.sqrt((1.0 - s) * (1.0 - t)) * np.cos(theta2))


def egg_comparison_constant(p: float) -> float:
    """C_p with 1 - F_ball <= C_p (1 - F_egg): p/2 above 2, p/(2p-2) below."""
    if p <= 1:
        raise DomainError("exponent must exceed 1")
    return p / 2.0 if p >= 2.0 else p / (2.0 * p - 2.0)


# ---------------------------------------------------------------------------
# comparison inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    grid_size: int
    empirical_min: float
    empirical_max: float
    theory_C1: float
    theory_C2: float
    p_l: float
    p_g: float
    violations: int
    passed: bool
    seed: int


def verify_comparison_lemma(geom: DomainGeometry, n_samples: int = 100_000,
                            seed: int = 0,
                            slack: float = 1e-9) -> ComparisonReport:
    """Sample the ratio (1 - F_domain) / (1 - F_ball) and check containment.

    The theoretical bracket for the ratio is

        C1 = p_l / (p_g C_{p_l})   <=   ratio   <=   C2 = (q_g / q_l) C_{q_l}

    where p_l, p_g are the extreme exponent values, q = p/(p-1) their
    conjugates (q_l = conj(p_g), q_g = conj(p_l)), and C_. the egg constant
    above.  Sampling combines uniform draws on (0,1)^2 x (0, pi/2)^2 with
    the four angle-corner configurations on an (s, t) grid, mirroring the
    corner-maximum structure of the optimization.
    """
    grid = np.linspace(1e-6, 1 - 1e-6, 1001)
    pvals = geom.p_at(grid)
    p_l, p_g = float(pvals.min()), float(pvals.max())
    if p_l < 1.0 + 1e-6 or p_g > 1e4:
        raise HypothesisNotMet(
            f"exponent range [{p_l:.10g}, {p_g:.10g}] violates the "
            "bounded / away-from-1 hypothesis")

    c_low = p_l / (p_g * egg_comparison_constant(p_l))
    q_l = p_g / (p_g - 1.0)
    q_g = p_l / (p_l - 1.0)
    c_high = (q_g / q_l) * egg_comparison_constant(q_l)

    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 1.0, n_samples)
    t = rng.uniform(0.0, 1.0, n_samples)
    th1 = rng.uniform(0.0, 0.5 * math.pi, n_samples)
    th2 = rng.uniform(0.0, 0.5 * math.pi, n_samples)

    # corner configurations over a coarse (s, t) grid
    g = np.linspace(0.005, 0.995, 81)
    sg, tg = [a.ravel() for a in np.meshgrid(g, g)]
    corners = [(0.0, 0.0), (0.0, 0.5 * math.pi),
               (0.5 * math.pi, 0.0), (0.5 * math.pi, 0.5 * math.pi)]
    s = np.concatenate([s] + [sg] * 4)
    t = np.concatenate([t] + [tg] * 4)
    th1 = np.concatenate([th1] + [np.full_like(sg, c[0]) for c in corners])
    th2 = np.concatenate([th2] + [np.full_like(sg, c[1]) for c in corners])

    one_minus_fb = 1.0 - _f_ball(s, t, th1, th2)
    one_minus_fo = 1.0 - F_omega(geom, s, t, th1, th2)
    keep = one_minus_fb > 1e-12
    ratio = one_minus_fo[keep] / one_minus_fb[keep]

    emp_min, emp_max = float(ratio.min()), float(ratio.max())
    violations = int(np.sum(ratio < c_low - slack)
                     + np.sum(ratio > c_high + slack))
    passed = violations == 0
    return ComparisonReport(int(s.size), emp_min, emp_max, c_low, c_high,
                            p_l, p_g, violations, passed, seed)


# ---------------------------------------------------------------------------
# weight equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightEquivalenceReport:
    r_values: tuple
    t_values: tuple
    rho_min: float
    rho_max: float
    ratio: float
    factor: float
    passed: bool


WEIGHT_FACTOR = 1.5  # the spread max/min that the weight check allows


def verify_weight_equivalence(geom: DomainGeometry,
                              r_range: tuple = (2.0, 50.0),
                              t_samples: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9)
                              ) -> WeightEquivalenceReport:
    """Stability of rho(r, t) = e^{-2r} (r ||(r1*, r2*)(t)||)^{3/2} E(r, t).

    E is the squared boundary norm of the exponential (exp_norm_sq).  The
    equivalence is asserted only away from the origin, so r below 1 is
    rejected, and at interior t only.  passed means max/min < WEIGHT_FACTOR
    across the sampled grid.
    """
    r_lo, r_hi = float(r_range[0]), float(r_range[1])
    if not r_lo >= 1.0:
        raise DomainError("weight equivalence is asserted for r >= 1 only")
    if not r_lo < r_hi < math.inf:
        raise DomainError("the r range must be finite and non-empty")
    ts = np.asarray(t_samples, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.all((ts > 0.0) & (ts < 1.0)):
        raise DomainError("t samples must be a non-empty list inside (0, 1)")
    rs = np.geomspace(r_lo, r_hi, 12)
    lr1t, lr2t = geom.log_r1_star(ts), geom.log_r2_star(ts)
    log_e = _log_exp_norms(geom, rs, lr1t, lr2t, 6)[0]
    log_z = 0.5 * np.logaddexp(2.0 * lr1t, 2.0 * lr2t)
    vals = np.exp(-2.0 * rs[:, None] + 1.5 * (np.log(rs)[:, None] + log_z)
                  + log_e)
    lo, hi = float(vals.min()), float(vals.max())
    return WeightEquivalenceReport(tuple(float(r) for r in rs),
                                   tuple(ts.tolist()),
                                   lo, hi, hi / lo, WEIGHT_FACTOR,
                                   hi / lo < WEIGHT_FACTOR)


# ---------------------------------------------------------------------------
# the absolute-sum ball counterexample
# ---------------------------------------------------------------------------

def l1ball_log_moment(m1: int, m2: int) -> float:
    """log of (2 m1)! (2 m2)! / (2 m1 + 2 m2 + 1)!, the exact boundary
    moment of the domain |z1| + |z2| < 1."""
    return (log_gamma(2.0 * m1 + 1.0) + log_gamma(2.0 * m2 + 1.0)
            - log_gamma(2.0 * m1 + 2.0 * m2 + 2.0))


@dataclass(frozen=True)
class CounterexampleReport:
    K_max: int
    hardy_partial_sums: np.ndarray
    bergman_nu_F_partial_sums: np.ndarray
    bergman_nu_G_partial_sums: np.ndarray
    bergman_omega_G_partial_sums: np.ndarray
    hardy_k_times_term: np.ndarray
    tail_law_estimates: dict
    inclusions: tuple

    def as_dict(self, thin: int = 1) -> dict:
        idx = np.arange(0, self.K_max, thin)
        return {
            "K_max": self.K_max,
            "k": (idx + 1).tolist(),
            "hardy_partial_sums": self.hardy_partial_sums[idx].tolist(),
            "bergman_nu_F_partial_sums":
                self.bergman_nu_F_partial_sums[idx].tolist(),
            "bergman_nu_G_partial_sums":
                self.bergman_nu_G_partial_sums[idx].tolist(),
            "bergman_omega_G_partial_sums":
                self.bergman_omega_G_partial_sums[idx].tolist(),
            "tail_law_estimates": self.tail_law_estimates,
            "inclusions": list(self.inclusions),
        }


def l1ball_counterexample(K_max: int = 10_000) -> CounterexampleReport:
    """Witness series separating the three spaces on |z1| + |z2| < 1.

    Two diagonal coefficient families are built (k = 1 .. K_max):

        t_k = 2^{2k} / (k^{3/4} ((4k+1)!)^{1/2})        (grid G)
        b_k = 2^{2k} / (k^{3/4} Gamma(4k+5/2)^{1/2})    (grid F)

    and the Hardy coefficients a_k of the putative transform preimage of F.
    Series terms (all evaluated in log-Gamma space; (4k+1)! overflows
    doubles near k = 42):

        omega series of G:  exactly k^{-3/2}            -> convergent
        nu series of G:     ~ const / k                 -> divergent
        nu series of F:     exactly k^{-3/2}            -> convergent
        Hardy series of f:  k * term_k -> pi/2          -> divergent

    Each tail law is the least-squares slope of log term against log k on
    the top decade, fitted on the log terms themselves.  Together these
    evidence the strict inclusions
    transform(Hardy) < A2(nu) < A2(omega).
    """
    if K_max < 10:
        raise DomainError("K_max must be at least 10")
    k = np.arange(1, K_max + 1, dtype=float)
    # log Gamma at its four distinct arguments, each evaluated once
    lg_4k2, lg_4k25, lg_2k1, lg_k1 = (log_gamma(x) for x in (
        4.0 * k + 2.0, 4.0 * k + 2.5, 2.0 * k + 1.0, k + 1.0))
    log_k, log_pow2 = np.log(k), 2.0 * k * math.log(2.0)
    log_t_sq = 2.0 * (log_pow2 - 0.75 * log_k - 0.5 * lg_4k2)
    log_b_sq = 2.0 * (log_pow2 - 0.75 * log_k - 0.5 * lg_4k25)
    log_pow4 = 4.0 * k * math.log(2.0)   # log 2^{2m1+2m2} on the diagonal

    # a_k = 4 conj(b_k) (4k+1)! (k!)^2 / ((2k)!)^2; Hardy term |a|^2 I(k, k)
    log_a_sq = (2.0 * math.log(4.0) + log_b_sq
                + 2.0 * (lg_4k2 + 2.0 * lg_k1 - 2.0 * lg_2k1))
    log_moment = 2.0 * lg_2k1 - lg_4k2
    # the 1/16 restores the plain model series sum |a|^2 I of the norm
    # characterization; the display's factor 4 in a_k cancels against it
    log_terms = np.stack((log_t_sq - log_pow4 + lg_4k2,
                          log_t_sq - log_pow4 + lg_4k25,
                          log_b_sq - log_pow4 + lg_4k25,
                          log_a_sq + log_moment - 2.0 * math.log(4.0)))
    # top-decade slopes in closed form; einsum, not @, keeps the sums in
    # this thread (no BLAS)
    lo = K_max // 10
    x, y = log_k[lo:] - log_k[lo:].mean(), log_terms[:, lo:]
    slopes = (np.einsum("ij,j->i", y - y.mean(axis=1, keepdims=True), x)
              / np.einsum("j,j->", x, x))
    omega_g, nu_g, nu_f, hardy = np.exp(log_terms, out=log_terms)

    return CounterexampleReport(
        K_max,
        np.cumsum(hardy),
        np.cumsum(nu_f),
        np.cumsum(nu_g),
        np.cumsum(omega_g),
        k * hardy,
        dict(zip(("omega_G", "nu_G", "nu_F", "hardy"), slopes.tolist())),
        ("transform(Hardy) strictly inside A2(nu): F in A2(nu) with no "
         "Hardy preimage (Hardy series tail ~ (pi/2)/k)",
         "A2(nu) strictly inside A2(omega): G in A2(omega) with divergent "
         "nu series (tail ~ const/k)"),
    )
