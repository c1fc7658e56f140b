"""Rank-one projection norms on monomial subspaces.

For degree pair (m1, m2) the squared operator norm is

    ||L_{m1,m2}||^2 = gamma^2 * I(m1, m2) * I*(m1, m2),
    gamma = (m1 + m2 + 1)! / (m1! m2!),

where I is the moment integral int_0^1 r1(s)^{2 m1} r2(s)^{2 m2} ds of the
domain and I* the same integral for its dual complement.  Everything is
carried in log space; gamma alone exceeds double range near m1 + m2 = 300.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, IndexOutOfTable
from .geometry import DomainGeometry, dual_complement
from .numerics import (extrapolate_limit, log_gamma, nested_log_sums,
                       tanh_sinh_indexed)

__all__ = [
    "MomentTable",
    "LerayNormGrid",
    "RayLimit",
    "RayDiagnostic",
    "BoundednessReport",
    "AxisProbe",
    "moment_table",
    "leray_norm_grid",
    "ray_limit_predictor",
    "boundedness_report",
    "axis_limit_probe",
]

_LEVEL = 7  # ~1600 nodes; moment integrals accurate to ~1e-14
_CONVERGED = 1e-7  # largest level-7 vs level-6 gap in log I taken as converged


# ---------------------------------------------------------------------------
# node cache
# ---------------------------------------------------------------------------

def _radial_log_nodes(geom: DomainGeometry, level: int):
    """(log w, log r1, log r2, k) at the tanh-sinh nodes of a level.

    geom.node_cache holds the finest level evaluated so far.  A coarser
    level is its subset with k a multiple of 2^(finest - level), weights
    scaled by exactly that power of two before the log, so the values equal
    a direct evaluation of the coarser level bit for bit.  A finer request
    replaces the cache.
    """
    cache = geom.node_cache
    if cache is None or cache[0] < level:
        k, x, xm, w = tanh_sinh_indexed(level)
        cache = (level, k, w, geom.log_r1_xy(x, xm), geom.log_r2_xy(x, xm))
        geom.node_cache = cache
    finest, k, w, lr1, lr2 = cache
    step = 1 << (finest - level)
    sel = k % step == 0
    return np.log(w[sel] * step), lr1[sel], lr2[sel], k[sel] // step


# ---------------------------------------------------------------------------
# moment tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentTable:
    """Grid of log moment integrals over 0..M1 x 0..M2."""

    geom: DomainGeometry
    M1: int
    M2: int
    log_I: np.ndarray          # shape (M1+1, M2+1)
    err: np.ndarray            # per-entry |log| discrepancy between levels
    converged: np.ndarray      # per-entry bool

    def log_I_at(self, m1: int, m2: int) -> float:
        if not (0 <= m1 <= self.M1 and 0 <= m2 <= self.M2):
            raise IndexOutOfTable(
                f"({m1},{m2}) outside table degrees ({self.M1},{self.M2})")
        return float(self.log_I[m1, m2])


def _egg_log_moments(geom: DomainGeometry, M1: int, M2: int):
    from .numerics import log_beta

    p = geom.profile.constant_p
    lb1 = math.log(geom.profile.b1)
    lb2 = math.log(geom.profile.b2)
    m1 = np.arange(M1 + 1, dtype=float)[:, None]
    m2 = np.arange(M2 + 1, dtype=float)[None, :]
    return (2.0 * m1 * lb1 + 2.0 * m2 * lb2
            + log_beta(2.0 * m1 / p + 1.0, np.broadcast_to(2.0 * m2 / p + 1.0,
                                                           (M1 + 1, M2 + 1))))


def moment_table(geom: DomainGeometry, M1: int, M2: int) -> MomentTable:
    """Tabulate log I(m1, m2) for the degree box 0..M1 x 0..M2.

    Constant-exponent domains use the Beta closed form
    I = b1^{2m1} b2^{2m2} B(2m1/p + 1, 2m2/p + 1); otherwise the tanh-sinh
    rule at level 7, with the level-6 sum from the same terms as the error
    estimate.  Non-converged entries are flagged, never fatal.
    """
    if M1 < 0 or M2 < 0:
        raise DomainError("degree bounds must be nonnegative")

    if geom.profile.constant_p is not None:
        log_i = _egg_log_moments(geom, M1, M2)
        err = np.zeros_like(log_i)
        return MomentTable(geom, M1, M2, log_i, err, np.ones_like(log_i, bool))

    logw, lr1, lr2, k = _radial_log_nodes(geom, _LEVEL)
    m2s = np.arange(M2 + 1, dtype=float)
    log_i = np.empty((M1 + 1, M2 + 1))
    coarse = np.empty_like(log_i)
    for m1 in range(M1 + 1):
        base = logw + 2.0 * m1 * lr1
        terms = base[None, :] + (2.0 * m2s[:, None]) * lr2[None, :]
        log_i[m1], coarse[m1] = nested_log_sums(terms, k)
    err = np.abs(log_i - coarse)
    return MomentTable(geom, M1, M2, log_i, err, err <= _CONVERGED)


# ---------------------------------------------------------------------------
# norm grids
# ---------------------------------------------------------------------------

def log_gamma_factor(m1, m2):
    """log of (m1 + m2 + 1)! / (m1! m2!)."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    return log_gamma(m1 + m2 + 2.0) - log_gamma(m1 + 1.0) - log_gamma(m2 + 1.0)


@dataclass(frozen=True)
class LerayNormGrid:
    geom: DomainGeometry
    M1: int
    M2: int
    log_norm_sq: np.ndarray
    log_gamma: np.ndarray
    err: np.ndarray
    converged: np.ndarray

    def log_norm_sq_at(self, m1: int, m2: int) -> float:
        if not (0 <= m1 <= self.M1 and 0 <= m2 <= self.M2):
            raise IndexOutOfTable(
                f"({m1},{m2}) outside grid degrees ({self.M1},{self.M2})")
        return float(self.log_norm_sq[m1, m2])


def leray_norm_grid(geom: DomainGeometry, M1: int, M2: int,
                    dual: DomainGeometry | None = None) -> LerayNormGrid:
    """log ||L||^2 over the degree box, from the two moment tables."""
    dual = dual or dual_complement(geom)
    tab = moment_table(geom, M1, M2)
    tab_star = moment_table(dual, M1, M2)
    m1 = np.arange(M1 + 1, dtype=float)[:, None]
    m2 = np.arange(M2 + 1, dtype=float)[None, :]
    lg = log_gamma_factor(np.broadcast_to(m1, (M1 + 1, M2 + 1)),
                          np.broadcast_to(m2, (M1 + 1, M2 + 1)))
    log_norm = 2.0 * lg + tab.log_I + tab_star.log_I
    err = tab.err + tab_star.err
    return LerayNormGrid(geom, M1, M2, log_norm, lg, err,
                         tab.converged & tab_star.converged)


def _leray_entries(geom: DomainGeometry, dual: DomainGeometry,
                   m1s: np.ndarray, m2s: np.ndarray,
                   level: int = _LEVEL) -> np.ndarray:
    """log ||L||^2 at arbitrary (possibly large) degree pairs."""
    m1s = np.asarray(m1s, dtype=float)
    m2s = np.asarray(m2s, dtype=float)
    out = np.empty(m1s.shape)
    if geom.profile.constant_p is not None:
        from .numerics import log_beta
        p = geom.profile.constant_p
        q = p / (p - 1.0)
        lb1 = math.log(geom.profile.b1)
        lb2 = math.log(geom.profile.b2)
        log_i = 2 * m1s * lb1 + 2 * m2s * lb2 + log_beta(2 * m1s / p + 1, 2 * m2s / p + 1)
        log_is = -2 * m1s * lb1 - 2 * m2s * lb2 + log_beta(2 * m1s / q + 1, 2 * m2s / q + 1)
        return 2.0 * log_gamma_factor(m1s, m2s) + log_i + log_is
    logw, lr1, lr2, _k = _radial_log_nodes(geom, level)
    logws, lr1s, lr2s, _k = _radial_log_nodes(dual, level)
    for i in np.ndindex(m1s.shape):
        a, b = m1s[i], m2s[i]
        t1 = logw + 2 * a * lr1 + 2 * b * lr2
        t2 = logws + 2 * a * lr1s + 2 * b * lr2s
        li = t1.max() + math.log(np.sum(np.exp(t1 - t1.max())))
        ls = t2.max() + math.log(np.sum(np.exp(t2 - t2.max())))
        out[i] = 2.0 * float(log_gamma_factor(a, b)) + li + ls
    return out


# ---------------------------------------------------------------------------
# asymptotic predictors and reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RayLimit:
    """Predicted limit of ||L||^2 along m1/m2 -> x."""

    x: float
    s: float
    value: float | None
    axis_case: bool = False


def ray_limit_predictor(geom: DomainGeometry, x: float) -> RayLimit:
    """Limit (1/2) sqrt(p(s) p*(s)) at s = x/(1+x) along the ray m1/m2 -> x.

    The two axis rays (x = 0 and x = inf) have no closed-form limit here;
    they are flagged axis_case and handled empirically by axis_limit_probe.
    """
    if x < 0:
        raise DomainError("ray ratio must be nonnegative")
    if x == 0.0 or math.isinf(x):
        return RayLimit(x, 0.0 if x == 0.0 else 1.0, None, axis_case=True)
    s = x / (1.0 + x)
    p = float(geom.p_at(s))
    p_star = p / (p - 1.0)
    return RayLimit(x, s, 0.5 * math.sqrt(p * p_star))


@dataclass(frozen=True)
class RayDiagnostic:
    x: float
    degrees: tuple
    values: tuple
    extrapolated: float
    predicted: float | None
    rel_dev: float | None
    converged: bool


@dataclass(frozen=True)
class BoundednessReport:
    M: int
    sup_small: float
    sup_full: float
    argmax: tuple
    growth_ratio: float
    rays: tuple
    verdict: str
    evidence: str


def _grid_sup(grid: LerayNormGrid, M: int):
    sub = grid.log_norm_sq[: M + 1, : M + 1]
    idx = np.unravel_index(np.argmax(sub), sub.shape)
    return float(np.exp(sub[idx])), (int(idx[0]), int(idx[1]))


def boundedness_report(geom: DomainGeometry, M: int,
                       rays: Sequence[float] = (0.25, 1.0, 4.0)
                       ) -> BoundednessReport:
    """Empirical boundedness verdict from a degree grid and ray sequences.

    A growing grid sup (full-degree sup well above the quarter-degree sup)
    is scored unbounded-consistent; a flat sup whose ray sequences land on
    the predicted limits is bounded-consistent; anything else is
    inconclusive.  This is numerical evidence, not a proof.
    """
    if M < 16:
        raise DomainError("boundedness_report needs M >= 16")
    dual = dual_complement(geom)
    grid = leray_norm_grid(geom, M, M, dual=dual)
    sup_small, _ = _grid_sup(grid, M // 4)
    sup_full, argmax = _grid_sup(grid, M)
    growth = sup_full / sup_small

    diagnostics = []
    for x in rays:
        degrees = [max(2, M // 8), M // 4, M // 2, 3 * M // 4, M]
        ns = sorted({int(n) for n in degrees})
        pairs_m = np.array([min(M, round(x * n)) for n in ns], dtype=float)
        pairs_n = np.array(ns, dtype=float)
        vals = np.exp(_leray_entries(geom, dual, pairs_m, pairs_n))
        pred = ray_limit_predictor(geom, x)
        res = extrapolate_limit(vals)
        dev = (abs(res.limit - pred.value) / pred.value
               if pred.value else None)
        diagnostics.append(RayDiagnostic(
            x, tuple(ns), tuple(float(v) for v in vals),
            res.limit, pred.value, dev, res.converged))

    rays_ok = all(d.rel_dev is not None and d.rel_dev < 0.05
                  for d in diagnostics) if diagnostics else True
    if growth > 2.0 and sup_full > 1.5:
        verdict = "unbounded-consistent"
        evidence = (f"grid sup grew {growth:.3g}x from degree {M//4} to {M} "
                    f"(sup {sup_full:.6g} at {argmax})")
    elif growth < 1.2 and rays_ok:
        verdict = "bounded-consistent"
        evidence = (f"grid sup stable ({sup_small:.6g} -> {sup_full:.6g}); "
                    "ray sequences match predicted limits within 5%")
    else:
        verdict = "inconclusive"
        evidence = (f"sup growth {growth:.3g}, ray agreement "
                    f"{[None if d.rel_dev is None else round(d.rel_dev, 4) for d in diagnostics]}")
    return BoundednessReport(M, sup_small, sup_full, argmax, growth,
                             tuple(diagnostics), verdict, evidence)


@dataclass(frozen=True)
class AxisProbe:
    m0: int
    degrees: tuple
    values: tuple
    extrapolated_limit: float
    converged: bool


def axis_limit_probe(geom: DomainGeometry, m0: int, N_max: int) -> AxisProbe:
    """Empirical limit of ||L_{m0, n}||^2 as n grows.

    Only Cauchy-style convergence detection; there is no closed form for
    the limiting constant along an axis ray.
    """
    if m0 < 0 or N_max < 16:
        raise DomainError("need m0 >= 0 and N_max >= 16")
    dual = dual_complement(geom)
    ns = sorted({int(round(N_max * (0.5 ** k))) for k in range(8)} | {N_max})
    ns = [n for n in ns if n >= 2]
    vals = np.exp(_leray_entries(geom, dual,
                                 np.full(len(ns), float(m0)),
                                 np.array(ns, dtype=float)))
    res = extrapolate_limit(vals)
    return AxisProbe(m0, tuple(ns), tuple(float(v) for v in vals),
                     res.limit, res.converged)
