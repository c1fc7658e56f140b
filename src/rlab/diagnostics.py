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
from .numerics import log_beta
from .transform import exp_norm_sq

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
    return _pairing(geom, s, t, np.cos(theta1), np.cos(theta2))


def _pairing(geom: DomainGeometry, s, t, c1, c2):
    """F_omega from the cosines c1 = cos t1 and c2 = cos t2."""
    return (np.exp(geom.log_r1(s) + geom.log_r1_star(t)) * c1
            + np.exp(geom.log_r2(s) + geom.log_r2_star(t)) * c2)


def _ball_pairing(s, t, c1, c2):
    """F on the ball, from the cosines c1 = cos t1 and c2 = cos t2."""
    return np.sqrt(s * t) * c1 + np.sqrt((1.0 - s) * (1.0 - t)) * c2


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


COMPARISON_SLACK = 1e-9  # a ratio this far outside the bracket is a violation


def verify_comparison_lemma(geom: DomainGeometry, n_samples: int = 100_000,
                            seed: int = 0) -> ComparisonReport:
    """Sample the ratio (1 - F_domain) / (1 - F_ball) and check containment.

    The theoretical bracket for the ratio is

        C1 = p_l / (p_g C_{p_l})   <=   ratio   <=   C2 = (q_g / q_l) C_{q_l}

    where p_l, p_g are the extreme exponent values, q = p/(p-1) their
    conjugates (q_l = conj(p_g), q_g = conj(p_l)), and C_. the egg constant
    above.  Sampling combines uniform draws on (0,1)^2 x (0, pi/2)^2 with
    the four angle-corner configurations on an (s, t) grid, mirroring the
    corner-maximum structure of the optimization.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
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

    # the n draws, then the four angle corners over an 81 x 81 (s, t) grid
    n, g, h = n_samples, np.linspace(0.005, 0.995, 81), 0.5 * math.pi
    s, t, c1, c2 = buf = np.empty((4, n + 4 * g.size ** 2))
    rng = np.random.default_rng(seed)
    for row in buf:
        # rng.uniform(0, h, n) is 0 + h u of these u, which is h u exactly
        rng.random(out=row[:n])
    buf[2:, :n] *= h
    blocks = buf[:, n:].reshape(4, 4, -1)    # coordinate, corner, point
    blocks[:2] = np.reshape(np.meshgrid(g, g), (2, 1, -1))
    blocks[2:] = np.reshape([[0.0, 0.0, h, h], [0.0, h, 0.0, h]], (2, 4, 1))

    # both pairings read the cosines, taken once in place of the angles
    np.cos(buf[2:], out=buf[2:])
    one_minus_fo = _pairing(geom, s, t, c1, c2)
    np.subtract(1.0, one_minus_fo, out=one_minus_fo)
    one_minus_fb = _ball_pairing(s, t, c1, c2)
    np.subtract(1.0, one_minus_fb, out=one_minus_fb)
    keep = one_minus_fb > 1e-12
    ratio = one_minus_fo[keep] / one_minus_fb[keep]

    emp_min, emp_max = float(ratio.min()), float(ratio.max())
    violations = int(np.sum(ratio < c_low - COMPARISON_SLACK)
                     + np.sum(ratio > c_high + COMPARISON_SLACK))
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
WEIGHT_R_RANGE = (2.0, 50.0)  # r is sampled geometrically over this range


def verify_weight_equivalence(geom: DomainGeometry,
                              t_samples: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9)
                              ) -> WeightEquivalenceReport:
    """Stability of rho(r, t) = e^{-2r} (r ||(r1*, r2*)(t)||)^{3/2} E(r, t).

    E is the squared boundary norm of the exponential (exp_norm_sq).  The
    equivalence is asserted only away from the origin, at 12 r values over
    WEIGHT_R_RANGE, and at interior t only.  passed means max/min <
    WEIGHT_FACTOR across the sampled grid.
    """
    ts = np.asarray(t_samples, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or not np.all((ts > 0.0) & (ts < 1.0)):
        raise DomainError("t samples must be a non-empty list inside (0, 1)")
    rs = np.geomspace(*WEIGHT_R_RANGE, 12)
    log_z = 0.5 * np.logaddexp(2.0 * geom.log_r1_star(ts),
                               2.0 * geom.log_r2_star(ts))
    log_vals = (-2.0 * rs[:, None] + 1.5 * (np.log(rs)[:, None] + log_z)
                + exp_norm_sq(geom, rs, ts))
    with np.errstate(over="ignore"):
        vals = np.exp(log_vals)
    lo, hi = float(vals.min()), float(vals.max())
    # rho scales with the domain, its ratio does not: past the doubles, logs
    ratio = hi / lo if np.finfo(float).tiny <= lo and hi < math.inf else (
        math.exp(float(log_vals.max() - log_vals.min())))
    return WeightEquivalenceReport(tuple(float(r) for r in rs),
                                   tuple(ts.tolist()),
                                   lo, hi, ratio, WEIGHT_FACTOR,
                                   ratio < WEIGHT_FACTOR)


# ---------------------------------------------------------------------------
# the absolute-sum ball counterexample
# ---------------------------------------------------------------------------

def l1ball_log_moment(m1: int, m2: int) -> float:
    """log of (2 m1)! (2 m2)! / (2 m1 + 2 m2 + 1)!, the exact boundary
    moment of the domain |z1| + |z2| < 1."""
    return log_beta(2.0 * m1 + 1.0, 2.0 * m2 + 1.0)


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

    def as_dict(self) -> dict:
        # every thin-th k back from K_max, the last row; at most 1,999 rows
        thin = max(1, self.K_max // 1000)
        idx = np.arange(self.K_max - 1, -1, -thin)[::-1]
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
            "hardy_k_times_term": self.hardy_k_times_term[idx].tolist(),
            "tail_law_estimates": self.tail_law_estimates,
            "inclusions": list(self.inclusions),
        }


def _l1ball_log_terms(k: np.ndarray, log_k: np.ndarray) -> np.ndarray:
    """The log terms of l1ball_counterexample's series, rows omega_G, nu_G,
    nu_F and hardy.  With S(j) = log(4^j (j!)^2 / (2j)!), one running sum of
    log1p(1/(2i - 1)) over i <= j <= 4K + 2, and R(k) = log Gamma(4k+5/2) -
    log Gamma(4k+2) = log(sqrt(pi) m) - S(m) at m = 4k + 2, they are exactly
    -3/2 log k, -3/2 log k + R(k), -3/2 log k and -3/2 log k - R(k) + 2 S(k).
    """
    s = np.cumsum(np.log1p(1.0 / np.arange(1.0, 8.0 * k.size + 4.0, 2.0)))
    out = np.empty((4, k.size))  # s[j - 1] is S(j); out[1] first holds R(k)
    out[1] = np.log(4.0 * k + 2.0) + 0.5 * math.log(math.pi) - s[5::4]
    out[0] = out[2] = -1.5 * log_k
    out[3] = out[0] - out[1] + 2.0 * s[:k.size]
    out[1] += out[0]
    return out


def l1ball_counterexample(K_max: int = 10_000) -> CounterexampleReport:
    """Witness series separating the three spaces on |z1| + |z2| < 1.

    Two diagonal coefficient families are built (k = 1 .. K_max):

        t_k = 2^{2k} / (k^{3/4} ((4k+1)!)^{1/2})        (grid G)
        b_k = 2^{2k} / (k^{3/4} Gamma(4k+5/2)^{1/2})    (grid F)

    and a_k = 4 conj(b_k) (4k+1)! (k!)^2 / ((2k)!)^2, the Hardy coefficients
    of the putative transform preimage of F.  The series terms are
    t_k^2 Gamma(4k+2) / 2^{4k} (omega), t_k^2 and b_k^2 times
    Gamma(4k+5/2) / 2^{4k} (nu) and |a_k|^2 I(k, k) / 16 (Hardy; I is
    l1ball_log_moment's), and _l1ball_log_terms gives their logs exactly,
    with no log-Gamma:

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
    log_k = np.log(k)
    # one buffer holds the log terms, the terms and the partial sums
    buf = _l1ball_log_terms(k, log_k)
    omega_g, nu_g, nu_f, hardy = buf
    # top-decade slopes in closed form; einsum, not @, keeps the sums in
    # this thread, and the BLAS thread numpy started stays idle
    lo = K_max // 10
    x, y = log_k[lo:] - log_k[lo:].mean(), buf[:, lo:]
    y_c = y - y.mean(axis=1, keepdims=True)
    slopes = np.einsum("ij,j->i", y_c, x) / np.einsum("j,j->", x, x)
    np.exp(buf, out=buf)
    k *= hardy
    np.cumsum(buf, axis=1, out=buf)

    return CounterexampleReport(
        K_max, hardy, nu_f, nu_g, omega_g, k,
        dict(zip(("omega_G", "nu_G", "nu_F", "hardy"), slopes.tolist())),
        ("transform(Hardy) strictly inside A2(nu): F in A2(nu) with no "
         "Hardy preimage (Hardy series tail ~ (pi/2)/k)",
         "A2(nu) strictly inside A2(omega): G in A2(omega) with divergent "
         "nu series (tail ~ const/k)"),
    )
