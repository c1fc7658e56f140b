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
from .numerics import (extrapolate_limit, log_gamma, log_matmul,
                       tanh_sinh_indexed)

__all__ = [
    "MomentTable",
    "LerayNormGrid",
    "RayDiagnostic",
    "BoundednessReport",
    "moment_table",
    "leray_norm_grid",
    "ray_limit_predictor",
    "boundedness_report",
]

_LEVEL = 7  # ~1600 nodes; moment integrals accurate to ~1e-14
_CONVERGED = 1e-7  # largest level-7 vs level-6 gap in log I taken as converged
# a degree box holds at most 10^7 entries (M = 3161 if square): a norm
# grid peaks near 60-115 bytes an entry, so about 1 GiB
_MAX_ENTRIES = 10_000_000


# ---------------------------------------------------------------------------
# radial nodes and the moment kernel
# ---------------------------------------------------------------------------

def _radial_log_nodes(geom: DomainGeometry, level: int):
    """(log w, log r1, log r2, k) at the tanh-sinh nodes of a level, with
    the radii from one batched evaluation of the geometry's profiles."""
    k, x, xm, w = tanh_sinh_indexed(level)
    return np.log(w), geom.log_r1_xy(x, xm), geom.log_r2_xy(x, xm), k


def _log_moment_sums(geom: DomainGeometry, m1, m2, log_weight=None,
                     level: int = _LEVEL):
    """log int_0^1 r1^{2m1} r2^{2m2} g ds at tanh-sinh levels `level` and
    `level - 1` (same terms), shape (2,) + the degrees' broadcast shape;
    log g is log_weight(log r1, log r2) at the nodes, or g = 1.

    With A[i, k] = 2 m1_i log r1_k, B[k, j] = log(w_k g_k) + 2 m2_j log r2_k
    over the distinct degrees, log_matmul(A, B) on the even-k nodes (weights
    doubled) is the coarse level; its logaddexp with the odd-k one the fine.
    """
    m1, m2 = np.asarray(m1, float), np.asarray(m2, float)
    logw, lr1, lr2, k = _radial_log_nodes(geom, level)
    log_g = logw if log_weight is None else logw + log_weight(lr1, lr2)
    u1, inv1 = np.unique(m1, return_inverse=True)
    u2, inv2 = np.unique(m2, return_inverse=True)
    even_k = k % 2 == 0
    even, odd = (log_matmul(np.multiply.outer(2.0 * u1, lr1[s]),
                            np.multiply.outer(lr2[s], 2.0 * u2)
                            + log_g[s, None])
                 for s in (even_k, ~even_k))
    sums = np.stack((np.logaddexp(even, odd), even + math.log(2.0)))
    return sums[:, inv1.reshape(m1.shape), inv2.reshape(m2.shape)]


def _log_gammas(p, c, *ns):
    """log Gamma(2n/p + c) for each degree array n: one log_gamma on the
    range of integer n that spans at most their total size (a degree box),
    then gathers; else one call per array.  Both give the same bits."""
    ns = [np.asarray(n) for n in ns]
    if all(n.dtype.kind in "iu" and n.size for n in ns):
        lo, hi = min(n.min() for n in ns), max(n.max() for n in ns)
        if hi - lo < sum(n.size for n in ns):
            lg = log_gamma(2.0 * np.arange(lo, hi + 1) / p + c)
            return [lg[n - lo] for n in ns]
    return [log_gamma(2.0 * n / p + c) for n in ns]


def _log_moments(geom: DomainGeometry, m1, m2):
    """log I(m1, m2) and its error estimate, broadcast over the degrees:
    the Beta closed form I = b1^{2m1} b2^{2m2} B(2m1/p + 1, 2m2/p + 1),
    exact (error 0), for constant p, else the level-7 sum with its gap to
    the level-6 sum."""
    p = geom.profile.constant_p
    if p is None:
        fine, coarse = _log_moment_sums(geom, m1, m2)
        return fine, np.abs(fine - coarse)
    lg1, lg2 = _log_gammas(p, 1.0, m1, m2)
    (lg_sum,) = _log_gammas(p, 2.0, np.add(m1, m2))
    log_i = (2.0 * m1 * math.log(geom.profile.b1)
             + 2.0 * m2 * math.log(geom.profile.b2) + (lg1 + lg2 - lg_sum))
    return log_i, np.zeros_like(log_i)


# ---------------------------------------------------------------------------
# moment tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentTable:
    """Grid of log moment integrals over 0..M1 x 0..M2."""

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


def moment_table(geom: DomainGeometry, M1: int, M2: int) -> MomentTable:
    """Tabulate log I(m1, m2) for the degree box 0..M1 x 0..M2.

    See _log_moments for the closed form, the quadrature and its error
    estimate.  Non-converged entries are flagged, never fatal.  A box of
    more than _MAX_ENTRIES entries is a DomainError.
    """
    if M1 < 0 or M2 < 0:
        raise DomainError("degree bounds must be nonnegative")
    if (M1 + 1) * (M2 + 1) > _MAX_ENTRIES:
        raise DomainError(f"the degree box 0..{M1} x 0..{M2} has more than "
                          f"{_MAX_ENTRIES:,} entries")
    log_i, err = _log_moments(geom, np.arange(M1 + 1)[:, None],
                              np.arange(M2 + 1)[None, :])
    return MomentTable(M1, M2, log_i, err, err <= _CONVERGED)


# ---------------------------------------------------------------------------
# norm grids
# ---------------------------------------------------------------------------

def log_gamma_factor(m1, m2):
    """log of (m1 + m2 + 1)! / (m1! m2!)."""
    lg1, lg2 = _log_gammas(2.0, 1.0, m1, m2)  # 2n/2 + c = n + c exactly
    (lg_sum,) = _log_gammas(2.0, 2.0, np.add(m1, m2))
    return lg_sum - lg1 - lg2


@dataclass(frozen=True)
class LerayNormGrid:
    M1: int
    M2: int
    log_norm_sq: np.ndarray
    err: np.ndarray
    converged: np.ndarray


def leray_norm_grid(geom: DomainGeometry, M1: int, M2: int,
                    dual: DomainGeometry | None = None) -> LerayNormGrid:
    """log ||L||^2 over the degree box, from the two moment tables."""
    dual = dual or dual_complement(geom)
    tab = moment_table(geom, M1, M2)
    tab_star = moment_table(dual, M1, M2)
    lg = log_gamma_factor(np.arange(M1 + 1)[:, None], np.arange(M2 + 1))
    return LerayNormGrid(M1, M2, 2.0 * lg + tab.log_I + tab_star.log_I,
                         tab.err + tab_star.err,
                         tab.converged & tab_star.converged)


def _leray_entries(geom: DomainGeometry, dual: DomainGeometry,
                   m1s: np.ndarray, m2s: np.ndarray) -> np.ndarray:
    """log ||L||^2 at arbitrary (possibly large) degree pairs."""
    return (2.0 * log_gamma_factor(m1s, m2s)
            + _log_moments(geom, m1s, m2s)[0] + _log_moments(dual, m1s, m2s)[0])


# ---------------------------------------------------------------------------
# asymptotic predictors and reports
# ---------------------------------------------------------------------------

def ray_limit_predictor(geom: DomainGeometry, x: float) -> float | None:
    """Limit (1/2) sqrt(p(s) p*(s)) at s = x/(1+x) along the ray m1/m2 -> x,
    or None on the axis rays x = 0 and inf, which have no closed form."""
    if x < 0:
        raise DomainError("ray ratio must be nonnegative")
    if x == 0.0 or math.isinf(x):
        return None
    p = float(geom.p_at(x / (1.0 + x)))
    return 0.5 * math.sqrt(p * (p / (p - 1.0)))


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
    if len(rays) == 0 or not all(math.isfinite(x) and x >= 0.0 for x in rays):
        raise DomainError("rays must be non-empty, finite and non-negative")
    grid = leray_norm_grid(geom, M, M)
    sup_small, _ = _grid_sup(grid, M // 4)
    sup_full, argmax = _grid_sup(grid, M)
    growth = sup_full / sup_small

    ns = sorted({max(2, M // 8), M // 4, M // 2, 3 * M // 4, M})
    diagnostics = []
    for x in rays:
        # int(): numpy 1.x rounds a numpy float to a float
        ms = [min(M, int(round(x * n))) for n in ns]
        vals = np.exp(grid.log_norm_sq[ms, ns])
        pred = ray_limit_predictor(geom, x)
        res = extrapolate_limit(vals)
        dev = abs(res.limit - pred) / pred if pred else None
        diagnostics.append(RayDiagnostic(
            x, tuple(ns), tuple(float(v) for v in vals),
            res.limit, pred, dev, res.converged))

    rays_ok = all(d.rel_dev is not None and d.rel_dev < 0.05
                  for d in diagnostics)
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
    return BoundednessReport(sup_small, sup_full, argmax, growth,
                             tuple(diagnostics), verdict, evidence)

