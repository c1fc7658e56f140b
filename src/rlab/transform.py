"""Coefficient grids, the Laplace coefficient map, and weighted norms.

Monomials z1^{m1} z2^{m2} are orthogonal in every norm here (all weights are
rotation invariant), so norms reduce to diagonal series over the coefficient
support, with per-index radial factors computed by quadrature in log space.

The boundary measure in the (s, theta1, theta2) parametrization is
ds dtheta1 dtheta2 / (16 pi^2); integrating out the two angles produces the
exact constant 1/4 that appears in front of every formula below.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import DomainError, IndexOutOfTable
from .geometry import DomainGeometry, dual_complement
from .leray import MomentTable, _log_moment_sums
from .numerics import (log_gamma, log_matmul, nested_log_sums,
                       tanh_sinh_indexed)

__all__ = [
    "CoefficientGrid",
    "NormReport",
    "hardy_norm_sq",
    "laplace_map",
    "invert_laplace",
    "bergman_nu_norm_sq",
    "laplace_image_nu_norm_sq",
    "exp_norm_sq",
    "bergman_omega_norm_sq",
]

_SIDES = ("hardy", "bergman", "laplace")
_LOG4 = math.log(4.0)
_TAIL_NATS = 60.0  # the dropped exponential-series tail is e^-60 below e^{2r}
_R_LIMIT = 1000.0  # largest r summed; the work grows like N^2, N ~ r + 8 sqrt(r)


@dataclass(frozen=True)
class CoefficientGrid:
    """Finitely supported complex coefficients indexed by (m1, m2)."""

    side: str
    entries: Dict[Tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.side not in _SIDES:
            raise DomainError(f"unknown coefficient side {self.side!r}")
        for (m1, m2) in self.entries:
            if m1 < 0 or m2 < 0 or m1 != int(m1) or m2 != int(m2):
                raise DomainError(f"invalid index ({m1},{m2})")

    @property
    def support(self):
        return sorted(self.entries)

    @classmethod
    def from_json(cls, text: str | dict) -> "CoefficientGrid":
        obj = text
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except json.JSONDecodeError as exc:
                raise DomainError(f"invalid coefficient JSON: {exc}") from exc
        items = obj.get("entries", []) if isinstance(obj, dict) else None
        if not isinstance(items, list) or not all(
                isinstance(item, dict) for item in items):
            raise DomainError("a coefficient grid must be an object whose "
                              "'entries' is a list of objects")
        entries = {}
        try:
            for item in items:
                key = (int(item["m1"]), int(item["m2"]))
                entries[key] = complex(float(item.get("re", 0.0)),
                                       float(item.get("im", 0.0)))
        except KeyError as exc:
            raise DomainError(
                f"coefficient entry missing field {exc.args[0]!r}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"invalid coefficient entry: {exc}") from exc
        if not all(map(cmath.isfinite, entries.values())):
            raise DomainError("coefficient amplitudes must be finite")
        return cls(obj.get("side", "hardy"), entries)

    def to_json(self) -> dict:
        return {"side": self.side,
                "entries": [{"m1": k[0], "m2": k[1],
                             "re": v.real, "im": v.imag}
                            for k, v in sorted(self.entries.items())]}


@dataclass(frozen=True)
class NormReport:
    """value and err_est may read inf where log_value is finite; rel_err,
    err_est / value taken from their logs, stays finite there."""

    value: float
    log_value: float
    err_est: float
    convention: str
    rel_err: float


def _log_abs_sq(amp: complex) -> float:
    return 2.0 * math.log(abs(amp)) if amp else -math.inf


def _sum_report(log_terms: Dict[Tuple[int, int], float],
                rel_errs: Dict[Tuple[int, int], float],
                convention: str) -> NormReport:
    """Reduce per-index log terms to a report.  err_est sums each term
    times its relative error.  Sums stay in log space, so value and err_est
    may read inf where log_value is still finite; rel_err comes from the
    logs.  A sum with no error term has rel_err 0."""
    from scipy.special import logsumexp

    log_err = float(logsumexp([log_terms[key] + math.log(e)
                               for key, e in rel_errs.items() if e > 0.0]))
    logv = float(logsumexp(list(log_terms.values())))
    with np.errstate(over="ignore"):
        rel_err = float(np.exp(log_err - logv)) if log_err > -math.inf else 0.0
        return NormReport(float(np.exp(logv)), logv, float(np.exp(log_err)),
                          convention, rel_err)


# ---------------------------------------------------------------------------
# Hardy norm and the Laplace coefficient map
# ---------------------------------------------------------------------------

def hardy_norm_sq(geom: DomainGeometry, a: CoefficientGrid,
                  table: MomentTable) -> NormReport:
    """||f||^2 = (1/4) sum |a_{m1,m2}|^2 I(m1, m2) on the boundary measure."""
    if a.side != "hardy":
        raise DomainError("hardy_norm_sq expects a hardy-side grid")
    terms, errs = {}, {}
    for (m1, m2), amp in a.entries.items():
        log_i = table.log_I_at(m1, m2)  # raises IndexOutOfTable
        terms[(m1, m2)] = _log_abs_sq(amp) + log_i - _LOG4
        errs[(m1, m2)] = float(table.err[m1, m2])
    return _sum_report(terms, errs, "exact_parametrized")


def laplace_map(geom: DomainGeometry, a: CoefficientGrid,
                table: MomentTable) -> CoefficientGrid:
    """Coefficients of the transformed entire function:
    t = (1/4) conj(a) I(m1, m2) / (m1! m2!)."""
    if a.side != "hardy":
        raise DomainError("laplace_map expects a hardy-side grid")
    return CoefficientGrid("laplace", {
        key: amp.conjugate() * math.exp(_laplace_log_scale(table, *key))
        for key, amp in a.entries.items()})


def _laplace_log_scale(table: MomentTable, m1: int, m2: int) -> float:
    """log of t / conj(a) in laplace_map: log(I(m1, m2) / (4 m1! m2!))."""
    return (table.log_I_at(m1, m2) - _LOG4
            - log_gamma(m1 + 1.0) - log_gamma(m2 + 1.0))


def invert_laplace(geom: DomainGeometry, t: CoefficientGrid,
                   table: MomentTable) -> CoefficientGrid:
    """Inverse of laplace_map: a = 4 conj(t) m1! m2! / I(m1, m2)."""
    if t.side != "laplace":
        raise DomainError("invert_laplace expects a laplace-side grid")
    return CoefficientGrid("hardy", {
        key: amp.conjugate() * math.exp(-_laplace_log_scale(table, *key))
        for key, amp in t.entries.items()})


# ---------------------------------------------------------------------------
# explicit-weight Bergman norm (nu)
# ---------------------------------------------------------------------------

def bergman_nu_norm_sq(geom: DomainGeometry, beta: CoefficientGrid,
                       convention: str = "exact_parametrized",
                       dual: DomainGeometry | None = None) -> NormReport:
    """Squared norm against the explicit weight e^{-2 H(z)} ||z||^{3/2}.

    exact_parametrized (default):
        (1/4) sum |beta|^2 Gamma(2M + 7/2) / 2^{2M + 7/2} * J(m1, m2),
    with M = m1 + m2 and J = int r1*^{2m1} r2*^{2m2} (r1*^2 + r2*^2)^{3/4} ds
    over the dual radii.

    paper_equivalent: the model series sum |beta|^2 ((M + 1)!)^2 I*(m1, m2),
    comparable to the exact value up to fixed constants.

    In both conventions err_est sums each term times the gap between the
    level-7 and level-6 tanh-sinh values of its log integral.
    """
    if beta.side != "bergman":
        raise DomainError("bergman_nu_norm_sq expects a bergman-side grid")
    if convention not in ("exact_parametrized", "paper_equivalent"):
        raise DomainError(f"unknown convention {convention!r}")
    return _nu_norm_report(dual or dual_complement(geom), {
        key: _log_abs_sq(amp) for key, amp in beta.entries.items()},
        convention)


def laplace_image_nu_norm_sq(geom: DomainGeometry, a: CoefficientGrid,
                             table: MomentTable) -> NormReport:
    """bergman_nu_norm_sq of laplace_map(geom, a, table), summed from
    log |a|^2 + 2 log(I / (4 m1! m2!)): the image's coefficients underflow
    a double near degree (100, 100), their logs do not."""
    if a.side != "hardy":
        raise DomainError("laplace_image_nu_norm_sq expects a hardy-side grid")
    return _nu_norm_report(dual_complement(geom), {
        key: _log_abs_sq(amp) + 2.0 * _laplace_log_scale(table, *key)
        for key, amp in a.entries.items()}, "exact_parametrized")


def _nu_norm_report(dual: DomainGeometry, log_abs_sq: dict,
                    convention: str) -> NormReport:
    """The nu norm's term sum (see bergman_nu_norm_sq) from log |beta|^2
    per degree pair."""
    pairs = sorted(log_abs_sq)
    paper = convention == "paper_equivalent"
    # the paper's series uses the plain dual moment I*
    norm_factor = None if paper else (
        lambda lr1, lr2: 0.75 * np.logaddexp(2.0 * lr1, 2.0 * lr2))
    logs7, logs6 = _log_moment_sums(
        dual, *np.array(pairs, dtype=float).reshape(-1, 2).T, norm_factor)
    terms, errs = {}, {}
    for key, log_j, log_j6 in zip(pairs, logs7.tolist(), logs6.tolist()):
        m = key[0] + key[1]
        if paper:
            log_radial = 2.0 * log_gamma(m + 2.0)
        else:
            log_radial = (log_gamma(2.0 * m + 3.5)
                          - (2.0 * m + 3.5) * math.log(2.0) - _LOG4)
        terms[key] = log_abs_sq[key] + log_radial + log_j
        errs[key] = abs(log_j - log_j6)
    return _sum_report(terms, errs, convention)


# ---------------------------------------------------------------------------
# exponential-moment weight (omega)
# ---------------------------------------------------------------------------

def _log_powers(deg: np.ndarray, log_x: np.ndarray) -> np.ndarray:
    """2 n log x over the degrees n = 0, 1, ... (rows) and the points x
    (columns), with x^0 = 1 also where x = 0."""
    with np.errstate(invalid="ignore"):
        out = np.multiply.outer(2.0 * deg, log_x)
    out[0] = 0.0
    return out


def _series_degree(r_max: float) -> int:
    """The last degree N of the exponential series, from its largest r.

    Term n of the series is at most r^{2n} / (n!)^2 (see _log_exp_norms), so
    the tail past N is at most T_N(r) = r^{2N+2} / ((N+1)!)^2 / (1 - q),
    q = r^2 / (N+2)^2.  N is the first degree at or above r_max with
    T_N(r_max) <= e^{2 r_max - _TAIL_NATS}; E(r, t) itself is of order
    e^{2r} over a power of r.
    """
    if not r_max <= _R_LIMIT:
        raise DomainError(f"exponential norms are summed for r <= "
                          f"{_R_LIMIT:g} only (omega norms up to total "
                          f"degree about 790), not r = {r_max:.6g}")
    n = np.arange(math.ceil(r_max), 3 * math.ceil(r_max) + 60, dtype=float)
    with np.errstate(divide="ignore"):
        log_r = np.log(r_max)
    log_tail = (2.0 * (n + 1.0) * log_r - 2.0 * log_gamma(n + 2.0)
                - np.log1p(-(r_max / (n + 2.0)) ** 2))
    return int(n[np.argmax(log_tail <= 2.0 * r_max - _TAIL_NATS)])


def _log_exp_norms(geom: DomainGeometry, rs: np.ndarray, lr1t: np.ndarray,
                   lr2t: np.ndarray, level: int) -> np.ndarray:
    """log E(r, t) on the outer product of r values and t points, given
    log r1*(t) and log r2*(t), at s-levels `level` and `level - 1` from the
    same terms; shape (2, n_r, n_t).

    The monomials are orthogonal, so with a = r1*(t), b = r2*(t) the power
    series I0(2x) = sum_j x^{2j} / (j!)^2 (DLMF 10.25.2) gives

        E(r, t) = (1/4) sum_n r^{2n} c_n(t),
        c_n(t) = sum_{j+k=n} a^{2j} b^{2k} mu'_jk,  mu'_jk = mu_jk / (j! k!)^2,

    where mu_jk are the tanh-sinh moment sums of r1^{2j} r2^{2k} at the
    level: the same value as the level's sum of the Bessel integrand, term
    for term.  r1(s) a + r2(s) b <= 1 (the polar dual's Hoelder
    inequality), so c_n(t) <= mu_00 / (n!)^2; the series stops at
    _series_degree(max r), and the dropped tail is far below the rounding
    of E.  With x the smaller and y the larger of a and b, c_n(t) =
    y^{2n} sum_j (x/y)^{2j} mu'_{j,n-j} (mu' transposed where x = b), one
    log_matmul of D[n, j] = mu'_{j,n-j} (-inf for j > n) with (x/y)^{2j}
    per set of t.  E is one log_matmul of r^{2n} e^{lam_n} and
    c_n(t) e^{-lam_n}, lam_n = max_t log c_n(t) balancing the two.

    The gap between the two levels measures the s-rule only; the dropped
    tail of the series is not part of it.
    """
    n = _series_degree(float(rs.max()))
    deg = np.arange(n + 1.0)
    log_f = 2.0 * log_gamma(deg + 1.0)
    log_mu = _log_moment_sums(geom, deg[:, None], deg[None, :], level=level)
    log_mu -= log_f[:, None] + log_f
    j = np.arange(n + 1)
    k = j[:, None] - j          # k = n - j in row n, column j
    x, y = np.minimum(lr1t, lr2t), np.maximum(lr1t, lr2t)
    pows = _log_powers(deg, x - y)
    log_c = np.empty((2, n + 1, lr1t.size))
    first = lr1t <= lr2t
    for cols, mu in ((first, log_mu), (~first, log_mu.swapaxes(1, 2))):
        d = np.where(k >= 0, mu[:, j, k], -np.inf).reshape(-1, n + 1)
        log_c[:, :, cols] = log_matmul(d, pows[:, cols]).reshape(2, n + 1, -1)
    log_c = (log_c + _log_powers(deg, y)).swapaxes(0, 1).reshape(n + 1, -1)
    lam = log_c.max(axis=1)
    with np.errstate(divide="ignore"):
        rows = _log_powers(deg, np.log(rs)).T + lam
    out = log_matmul(rows, log_c - lam[:, None]) - _LOG4
    return out.reshape(rs.size, 2, lr1t.size).swapaxes(0, 1)


def exp_norm_sq(geom: DomainGeometry, r: float, t: float) -> float:
    """log of the squared boundary norm of the exponential e^{<z, .>}
    at z = r (r1*(t), r2*(t)):

        E(r, t) = (1/4) int_0^1 I0(2 r r1(s) r1*(t)) I0(2 r r2(s) r2*(t)) ds.

    The two angular integrals produce the Bessel factors; rotation
    invariance makes the phases of z irrelevant.  The s-integral is the
    tanh-sinh sum at level 6, taken term for term from the power series
    E(r, t) = (1/4) sum_n r^{2n} c_n(t) over the level's moment sums (see
    _log_exp_norms); r may be at most 1000.  No error estimate comes with
    the value: the s-rule's error is not measured here, and the series is
    cut where its tail is far below the rounding of E.
    """
    if not 0.0 <= r < math.inf:
        raise DomainError("exp_norm_sq needs a finite r >= 0")
    if not (0.0 <= t <= 1.0):
        raise DomainError("t must lie in [0, 1]")
    lr1t, lr2t = geom.log_star_radii(t)
    return float(_log_exp_norms(geom, np.array([float(r)]), np.array([lr1t]),
                                np.array([lr2t]), 6)[0, 0, 0])


def bergman_omega_norm_sq(geom: DomainGeometry,
                          beta: CoefficientGrid) -> NormReport:
    """Squared norm against the reciprocal exponential-moment weight.

    By rotation invariance monomials are orthogonal and

        ||F||^2 = (1/4) sum |beta|^2
                  int_0^inf int_0^1 r^{2M} r1*(t)^{2m1} r2*(t)^{2m2}
                                    E(r, t)^{-1} r dt dr,

    a 2-D quadrature.  The weight grows like e^{2r} r^{-3/2}, so each radial
    integrand behaves like r^{2M + 5/2} e^{-2r}; the r-range is truncated
    where the log-integrand falls 40 nats below its peak.  With t at
    tanh-sinh level 3 and s at level 4, err_est sums each term times its
    gaps to the s-level-3 and t-level-2 sums (same terms).  It does not
    cover the Gauss r-rule, the r truncation, or the cut of the power
    series for E (see _log_exp_norms), whose tail is far below rounding.
    """
    from scipy.special import logsumexp

    if beta.side != "bergman":
        raise DomainError("bergman_omega_norm_sq expects a bergman-side grid")
    pairs = beta.support
    if not pairs:
        return _sum_report({}, {}, "exact_parametrized")

    k_t, x, xm, w = tanh_sinh_indexed(3)
    lr1t, lr2t = geom.log_r1_star_xy(x, xm), geom.log_r2_star_xy(x, xm)
    logw_t = np.log(w)

    peak = max(k[0] + k[1] for k in pairs) + 1.25
    r_max = peak + 40.0 + 6.0 * math.sqrt(peak + 1.0)
    gx, gw = np.polynomial.legendre.leggauss(12)
    n_panels = int(math.ceil(r_max / max(2.0, math.sqrt(peak))))
    half = 0.5 * r_max / n_panels
    rs = ((2.0 * np.arange(n_panels) + 1.0)[:, None] + gx).ravel() * half
    logw_r = np.log(np.tile(half * gw, n_panels))

    log_e = _log_exp_norms(geom, rs, lr1t, lr2t, 4)   # s-levels 4 and 3
    log_rs = np.log(rs)
    terms, errs = {}, {}
    for (m1, m2) in pairs:
        m = m1 + m2
        g = ((logw_r + (2.0 * m + 1.0) * log_rs)[:, None]
             + (logw_t + 2.0 * m1 * lr1t + 2.0 * m2 * lr2t)[None, :]
             - log_e)
        fine, coarse = nested_log_sums(g, k_t)    # over t: (2, n_r) each
        val, val_s3, val_t2 = logsumexp(
            np.vstack((fine, coarse[:1])), axis=-1)
        terms[(m1, m2)] = _log_abs_sq(beta.entries[(m1, m2)]) - _LOG4 + val
        errs[(m1, m2)] = abs(val - val_s3) + abs(val - val_t2)
    return _sum_report(terms, errs, "exact_parametrized")
