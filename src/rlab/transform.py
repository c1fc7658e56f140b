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
import functools
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .errors import DomainError, IndexOutOfTable
from .geometry import DomainGeometry, dual_complement
from .leray import MomentTable, _log_moment_sums
from .numerics import (_EXP_MAX, log_gamma, log_matmul, nested_log_sums,
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
_MAX_DEGREE = 1e300  # keeps 2 m log r (|log r| < 745) and log Gamma(2 m) finite
_leggauss = functools.cache(np.polynomial.legendre.leggauss)  # on first use


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
            if max(m1, m2) > _MAX_DEGREE:
                raise DomainError(f"degrees must be at most {_MAX_DEGREE:g}"
                                  f": the norms' sums overflow past it")

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
                key = (item["m1"], item["m2"])
                # JSON integers and integral floats; not true, "1" or 1.9
                if not all(isinstance(m, numbers.Real) and not isinstance(
                        m, bool) and float(m).is_integer() for m in key):
                    raise DomainError(f"coefficient entry {item!r}: degrees "
                                      f"must be integers")
                key = (int(key[0]), int(key[1]))
                if key in entries:
                    raise DomainError(f"coefficient entry {item!r} repeats "
                                      f"the degree pair {key}")
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


def _log_abs_sq(amps) -> np.ndarray:
    """2 log |amp| for each amplitude, -inf for a zero."""
    return np.array([2.0 * math.log(abs(v)) if v else -math.inf
                     for v in amps])


def _logsumexp(a) -> float:
    """scipy.special.logsumexp(a) of a real vector, bit for bit: scipy 1.17's
    numpy steps (the maxima counted, not summed), without its dispatch."""
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mx = a.max(initial=-np.inf)     # no terms: the sum is -inf
        top = a == mx
        s = np.exp(np.where(top, -np.inf, a) - mx).sum()
        m = np.count_nonzero(top)
        out = np.log1p(s if s == 0 else s / m) + np.log(m) + mx
        return float(out if np.isfinite(out) else np.log(np.exp(a).sum()))


def _sum_report(log_terms: np.ndarray, rel_errs: np.ndarray,
                convention: str) -> NormReport:
    """Reduce the log terms over a support to a report.  err_est sums each
    term times its relative error.  Sums stay in log space, so value and
    err_est may read inf where log_value is still finite; rel_err comes from
    the logs.  A sum with no error term has rel_err 0."""
    log_err = _logsumexp([t + math.log(e) for t, e in zip(
        log_terms.tolist(), rel_errs.tolist()) if e > 0.0])
    logv = _logsumexp(log_terms)
    with np.errstate(over="ignore"):
        rel_err = float(np.exp(log_err - logv)) if log_err > -math.inf else 0.0
        return NormReport(float(np.exp(logv)), logv, float(np.exp(log_err)),
                          convention, rel_err)


def _table_index(table: MomentTable, keys):
    """The degree pairs of keys as (m1, m2) index arrays into the table;
    IndexOutOfTable, from table.log_I_at, at the first pair outside it."""
    idx = np.array(list(keys)).reshape(-1, 2)
    bad = (idx > (table.M1, table.M2)).any(axis=1)
    if bad.any():
        table.log_I_at(*idx[bad.argmax()].tolist())
    return idx.astype(np.int64).T


# ---------------------------------------------------------------------------
# Hardy norm and the Laplace coefficient map
# ---------------------------------------------------------------------------

def hardy_norm_sq(geom: DomainGeometry, a: CoefficientGrid,
                  table: MomentTable) -> NormReport:
    """||f||^2 = (1/4) sum |a_{m1,m2}|^2 I(m1, m2) on the boundary measure."""
    if a.side != "hardy":
        raise DomainError("hardy_norm_sq expects a hardy-side grid")
    m1, m2 = _table_index(table, a.entries)  # raises IndexOutOfTable
    return _sum_report(_log_abs_sq(a.entries.values()) + table.log_I[m1, m2]
                       - _LOG4, table.err[m1, m2], "exact_parametrized")


def laplace_map(geom: DomainGeometry, a: CoefficientGrid,
                table: MomentTable) -> CoefficientGrid:
    """Coefficients of the transformed entire function:
    t = (1/4) conj(a) I(m1, m2) / (m1! m2!)."""
    if a.side != "hardy":
        raise DomainError("laplace_map expects a hardy-side grid")
    try:
        return CoefficientGrid("laplace", {key: amp.conjugate() * math.exp(
            scale) for (key, amp), scale in zip(a.entries.items(),
            _laplace_log_scales(table, a.entries).tolist())})
    except OverflowError:  # from math.exp
        raise DomainError("a Laplace coefficient overflows a double") from None


def _laplace_log_scales(table: MomentTable, keys) -> np.ndarray:
    """log of t / conj(a) in laplace_map, log(I(m1, m2) / (4 m1! m2!)), at
    each key: one gather on table.log_I, one log_gamma over 0..max(M1, M2)."""
    m1, m2 = _table_index(table, keys)
    log_f = log_gamma(np.arange(max(table.M1, table.M2) + 1.0) + 1.0)
    return table.log_I[m1, m2] - _LOG4 - log_f[m1] - log_f[m2]


def invert_laplace(geom: DomainGeometry, t: CoefficientGrid,
                   table: MomentTable) -> CoefficientGrid:
    """Inverse of laplace_map: a = 4 conj(t) m1! m2! / I(m1, m2).  A
    DomainError names the first entry whose a overflows a double."""
    if t.side != "laplace":
        raise DomainError("invert_laplace expects a laplace-side grid")
    entries = {key: amp.conjugate() * math.exp(-scale) if scale >= -_EXP_MAX
               else math.inf for (key, amp), scale in zip(t.entries.items(),
               _laplace_log_scales(table, t.entries).tolist())}
    bad = [key for key, amp in entries.items() if not cmath.isfinite(amp)]
    if bad:
        raise DomainError(f"the inverse of entry {bad[0]} overflows a double")
    return CoefficientGrid("hardy", entries)


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
    return _nu_norm_report(dual or dual_complement(geom), dict(zip(
        beta.entries, _log_abs_sq(beta.entries.values()).tolist())), convention)


def laplace_image_nu_norm_sq(geom: DomainGeometry, a: CoefficientGrid,
                             table: MomentTable) -> NormReport:
    """bergman_nu_norm_sq of laplace_map(geom, a, table), summed from
    log |a|^2 + 2 log(I / (4 m1! m2!)): the image's coefficients underflow
    a double near degree (100, 100), their logs do not."""
    if a.side != "hardy":
        raise DomainError("laplace_image_nu_norm_sq expects a hardy-side grid")
    return _nu_norm_report(dual_complement(geom), dict(zip(a.entries, (
        _log_abs_sq(a.entries.values())
        + 2.0 * _laplace_log_scales(table, a.entries)).tolist())),
        "exact_parametrized")


def _nu_norm_report(dual: DomainGeometry, log_abs_sq: dict,
                    convention: str) -> NormReport:
    """The nu norm's term sum (see bergman_nu_norm_sq) from log |beta|^2
    per degree pair."""
    pairs = sorted(log_abs_sq)
    paper = convention == "paper_equivalent"
    # the paper's series uses the plain dual moment I*
    norm_factor = None if paper else (
        lambda lr1, lr2: 0.75 * np.logaddexp(2.0 * lr1, 2.0 * lr2))
    m1, m2 = np.array(pairs, dtype=float).reshape(-1, 2).T
    logs7, logs6 = _log_moment_sums(dual, m1, m2, norm_factor)
    m = m1 + m2
    log_radial = (2.0 * log_gamma(m + 2.0) if paper else
                  log_gamma(2.0 * m + 3.5) - (2.0 * m + 3.5) * math.log(2.0)
                  - _LOG4)
    return _sum_report(np.array([log_abs_sq[key] for key in pairs])
                       + log_radial + logs7, np.abs(logs7 - logs6), convention)


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


def _antidiagonals(mu: np.ndarray) -> np.ndarray:
    """D[l, i, j] = mu[l, j, i - j], -inf for j > i, over n-square levels: in
    a C-ordered copy (a view on mu's own layout reads other entries) it is
    i + j (n - 1) elements into its level, inside it for every i, j."""
    mu = np.ascontiguousarray(mu)
    s_level, s_row, s_col = mu.strides
    j = np.arange(mu.shape[-1])
    return np.where(j[:, None] >= j, np.lib.stride_tricks.as_strided(
        mu, mu.shape, (s_level, s_col, s_row - s_col), writeable=False), -np.inf)


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
    x, y = np.minimum(lr1t, lr2t), np.maximum(lr1t, lr2t)
    pows = _log_powers(deg, x - y)
    log_c = np.empty((2, n + 1, lr1t.size))
    first = lr1t <= lr2t
    for cols, mu in ((first, log_mu), (~first, log_mu.swapaxes(1, 2))):
        d = _antidiagonals(mu).reshape(-1, n + 1)
        log_c[:, :, cols] = log_matmul(d, pows[:, cols]).reshape(2, n + 1, -1)
    log_c = (log_c + _log_powers(deg, y)).swapaxes(0, 1).reshape(n + 1, -1)
    lam = log_c.max(axis=1)
    with np.errstate(divide="ignore"):
        rows = _log_powers(deg, np.log(rs)).T + lam
    out = log_matmul(rows, log_c - lam[:, None]) - _LOG4
    return out.reshape(rs.size, 2, lr1t.size).swapaxes(0, 1)


def exp_norm_sq(geom: DomainGeometry, r, t):
    """log of the squared boundary norm of the exponential e^{<z, .>}
    at z = r (r1*(t), r2*(t)):

        E(r, t) = (1/4) int_0^1 I0(2 r r1(s) r1*(t)) I0(2 r r2(s) r2*(t)) ds.

    The two angular integrals produce the Bessel factors; rotation
    invariance makes the phases of z irrelevant.  The s-integral is the
    tanh-sinh sum at level 6, taken term for term from the power series
    E(r, t) = (1/4) sum_n r^{2n} c_n(t) over the level's moment sums (see
    _log_exp_norms).  No error estimate comes with the value: the s-rule's
    error is not measured here, and the series is cut where its tail is far
    below the rounding of E.  Scalars give a float; r of shape R and t of
    shape T give log E on R + T from one kernel call.  Each r must be
    finite, >= 0 and at most 1000, each t in [0, 1] (NaN is neither).
    """
    r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
    if not np.all((r >= 0.0) & (r < math.inf)):
        raise DomainError("exp_norm_sq needs a finite r >= 0")
    if not np.all((t >= 0.0) & (t <= 1.0)):
        raise DomainError("t must lie in [0, 1]")
    if not (r.size and t.size):
        return np.empty(r.shape + t.shape)
    out = _log_exp_norms(geom, r.ravel(), np.ravel(geom.log_r1_star(t)),
                         np.ravel(geom.log_r2_star(t)), 6)[0]
    out = out.reshape(r.shape + t.shape)
    return float(out) if out.ndim == 0 else out


def bergman_omega_norm_sq(geom: DomainGeometry,
                          beta: CoefficientGrid) -> NormReport:
    """Squared norm against the reciprocal exponential-moment weight.

    By rotation invariance monomials are orthogonal and

        ||F||^2 = (1/4) sum |beta|^2
                  int_0^1 r1*(t)^{2m1} r2*(t)^{2m2}
                      int_0^inf r^{2M} E(r, t)^{-1} r dr dt,

    a 2-D quadrature.  The weight grows like e^{2r} r^{-3/2}, so each radial
    integrand behaves like r^{2M + 5/2} e^{-2r}; the r-range is truncated
    where the log-integrand falls 40 nats below its peak.  The r-sum comes
    first, over the distinct total degrees M of the support at once: one
    log_matmul of w_r r^{2M+1} e^{-2r} with e^{2r} / E(r, t) at every t node
    and both s-levels.  E grows like e^{2r}, so moving e^{-2r} across keeps
    both factors near their peaks and no entry needs the term-by-term
    fallback.  The t-sum of each pair follows.  With t at tanh-sinh level 3
    and s at level 4, err_est sums each term times its gaps to the
    s-level-3 and t-level-2 sums (same terms).  It does not cover the Gauss
    r-rule, the r truncation, or the cut of the power series for E (see
    _log_exp_norms), whose tail is far below rounding.
    """
    if beta.side != "bergman":
        raise DomainError("bergman_omega_norm_sq expects a bergman-side grid")
    pairs = beta.support
    if not pairs:
        return _sum_report(np.empty(0), np.empty(0), "exact_parametrized")
    m1, m2 = np.array(pairs, dtype=float).T
    ms, inv = np.unique(m1 + m2, return_inverse=True)

    k_t, x, xm, w = tanh_sinh_indexed(3)
    lr1t, lr2t = geom.log_r1_star_xy(x, xm), geom.log_r2_star_xy(x, xm)

    peak = ms[-1] + 1.25
    r_max = peak + 40.0 + 6.0 * math.sqrt(peak + 1.0)
    gx, gw = _leggauss(12)
    n_panels = int(math.ceil(r_max / max(2.0, math.sqrt(peak))))
    half = 0.5 * r_max / n_panels
    # the largest r node: past the limit, raise before building any r array
    _series_degree((2.0 * n_panels - 1.0 + gx[-1]) * half)
    rs = ((2.0 * np.arange(n_panels) + 1.0)[:, None] + gx).ravel() * half
    logw_r = np.log(np.tile(half * gw, n_panels)) - 2.0 * rs

    log_e = _log_exp_norms(geom, rs, lr1t, lr2t, 4)   # s-levels 4 and 3
    g = log_matmul(logw_r + np.multiply.outer(2.0 * ms + 1.0, np.log(rs)),
                   (2.0 * rs)[:, None] - log_e.swapaxes(0, 1).reshape(
                       rs.size, -1)).reshape(-1, 2, x.size)
    terms = g[inv] + (np.log(w) + np.multiply.outer(2.0 * m1, lr1t)
                      + np.multiply.outer(2.0 * m2, lr2t))[:, None]
    fine, coarse = nested_log_sums(terms, k_t)    # over t: (P, 2) each
    val, val_s3, val_t2 = fine[:, 0], fine[:, 1], coarse[:, 0]
    return _sum_report(
        _log_abs_sq(beta.entries[key] for key in pairs) - _LOG4 + val,
        np.abs(val - val_s3) + np.abs(val - val_t2), "exact_parametrized")
