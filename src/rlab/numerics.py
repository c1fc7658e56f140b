"""Shared numerical kernels.

The nested tanh-sinh rule on (0, 1), built once a level, log_matmul (the one
log-space product), log-Gamma/Beta (Python's math.lgamma), log I0 and
sequence-limit extrapolation.  log I0 is public API only: no library code
calls it, and scipy.special's i0e is imported at its first call.  So importing
the package loads numpy but no scipy, and neither does any verb.
Everything here is pure and reentrant.  No library product goes through BLAS
(einsum, never @): OpenBLAS starts its worker thread when numpy is imported,
but the thread stays idle, and CPU time tracks wall time.  log_matmul drops
every scaled factor below e^-700 before its einsum, so it never multiplies a
subnormal factor; an entry of n_k terms moves by at most n_k 1e-24 relative.
Every integral over the boundary parameter elsewhere in the library is one
sum over the nodes of a tanh-sinh level, with moment-type integrands
evaluated as exp(sum of m_i * log r_i) so that degrees up to a few hundred
stay inside double range.

Tanh-sinh levels nest (Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005):
the nodes of level L - 1 are the nodes of level L with even index k, carrying
exactly twice the weight.  So one pass over the terms of level L also gives
the level L - 1 sum, and the gap between the two is the error estimate.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "tanh_sinh_indexed",
    "nested_log_sums",
    "log_gamma",
    "log_beta",
    "bessel_i0_log",
    "ExtrapolationResult",
    "extrapolate_limit",
]


# ---------------------------------------------------------------------------
# the nested tanh-sinh rule
# ---------------------------------------------------------------------------

_TS_TMAX = 6.5  # |t| beyond which weights underflow double range
_EXP_MAX = math.log(sys.float_info.max)  # math.exp overflows past it


@functools.lru_cache(maxsize=16)
def tanh_sinh_indexed(level: int):
    """Tanh-sinh rule on (0, 1) with step h = 2^-level, as (k, x, 1 - x, w):
    read-only arrays, built on a level's first call and then reused.

    Node k sits at t = k h.  The complement 1 - x is computed directly, to
    full relative accuracy where it underflows the spacing of doubles
    around 1; integrands singular (or steep) at the right endpoint need it.
    Nodes whose x or 1 - x is 0 in double precision are dropped; the
    double-exponential weight decay makes that truncation negligible.
    """
    h = 2.0 ** (-level)
    k = np.arange(-int(_TS_TMAX / h), int(_TS_TMAX / h) + 1)
    t = k * h
    with np.errstate(over="ignore"):
        u = np.pi * np.sinh(t)
        # sigmoid form keeps relative accuracy for nodes near 0, which matters
        # for endpoint singularities; libm's exp makes it scipy's expit exactly
        x, xm = (np.array([1.0 / (1.0 + math.exp(-v)) if v >= -_EXP_MAX
                           else 0.0 for v in vs.tolist()]) for vs in (u, -u))
        w = 0.25 * np.pi * h * np.cosh(t) / np.cosh(0.5 * u) ** 2
    keep = (x > 0.0) & (xm > 0.0) & (w > 1e-320)
    rule = k[keep], x[keep], xm[keep], w[keep]
    for a in rule:
        a.flags.writeable = False
    return rule


def nested_log_sums(log_terms: np.ndarray, k: np.ndarray):
    """log of a tanh-sinh sum and of the next coarser level's sum.

    log_terms[..., i] is log(w_i f(x_i)) at the nodes of one level, whose
    indices are k.  Both sums reduce the last axis and share one
    exponentiation; the coarser sum takes the even-k terms, doubled.
    Returns (fine, coarse).
    """
    mx = np.max(log_terms, axis=-1, keepdims=True)
    e = np.exp(log_terms - mx)
    mx = mx[..., 0]
    fine = np.log(np.sum(e, axis=-1)) + mx
    coarse = np.log(2.0 * np.sum(e[..., k % 2 == 0], axis=-1)) + mx
    return fine, coarse


# ---------------------------------------------------------------------------
# the log-space matrix product
# ---------------------------------------------------------------------------

_FLOOR = 1e-280  # smallest scaled sum taken from the product
_CUT = -700.0  # scaled log below which a factor is dropped, a term clipped


def _scale(c: np.ndarray) -> np.ndarray:
    """np.nan_to_num(c, neginf=0.0), in place: a row with no terms scales by 0."""
    np.copyto(c, 0.0, where=~(c > -np.inf))
    return np.minimum(c, sys.float_info.max, out=c)


def log_matmul(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """log sum_k exp(log_a[i, k] + log_b[k, j]), shape (n_i, n_j): one einsum
    (in the calling thread, not BLAS) with rows and columns scaled by their
    maxima.  The terms are positive, so an entry is accurate unless its
    scaled sum is below _FLOOR (or NaN): there the scales missed the terms'
    peak, and the entry is summed again term by term.

    Scaled factors below e^-700 (_CUT) are set to 0 before the einsum, so
    neither exp nor the einsum meets a subnormal factor.  Every factor is
    at most 1, so an entry loses at most n_k e^-700 < n_k 1e-304 of its
    scaled sum, which is at least _FLOOR: n_k 1e-24 relative, far below
    rounding.  The term-by-term sums clip at the same _CUT.

    einsum sums a lone column in another order than a wider operand's, so
    one column is summed as the first of two: bits do not move with width."""
    if log_b.shape[1] == 1:
        return log_matmul(log_a, np.repeat(log_b, 2, axis=1))[:, :1]
    ca = _scale(log_a.max(axis=1, keepdims=True))
    cb = _scale(log_b.max(axis=0, keepdims=True))
    a, b = log_a - ca, log_b - cb
    np.putmask(a, a < _CUT, -np.inf)  # exp gives 0: see the docstring
    np.putmask(b, b < _CUT, -np.inf)
    prod = np.einsum("ik,kj->ij", np.exp(a, out=a), np.exp(b, out=b))
    ok = prod >= _FLOOR
    i, j = np.nonzero(np.logical_not(ok, out=ok))  # below the floor, or NaN
    chunk = max(1, (1 << 16) // log_a.shape[1])  # (chunk, n_k) terms at once
    log_bt = np.ascontiguousarray(log_b.T) if i.size else None
    with np.errstate(divide="ignore"):
        out = np.add(np.log(prod, out=prod), ca + cb, out=prod)
        for lo in range(0, i.size, chunk):
            ii, jj = i[lo:lo + chunk], j[lo:lo + chunk]
            terms = log_a[ii] + log_bt[jj]
            mx = _scale(terms.max(axis=1, keepdims=True))
            terms -= mx
            # exp is slow where it underflows, and a term 700 nats below
            # the peak adds nothing; -inf (no term) stays
            np.maximum(terms, _CUT, out=terms, where=terms > -np.inf)
            np.exp(terms, out=terms)
            out[ii, jj] = np.log(terms.sum(axis=1)) + mx[:, 0]
    return out


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def _lgamma(v: float) -> float:
    try:
        return math.lgamma(v)
    except OverflowError:  # finite v past ~2.5e305: log Gamma(v) > max
        return math.inf


def log_gamma(x):
    """log Gamma(x) for x > 0, elementwise from math.lgamma (CPython's own
    C code); inf above ~2.5e305 and at inf, with no warning; NaN for NaN."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("log_gamma requires x > 0")
    try:
        out = np.fromiter(map(math.lgamma, x.ravel().tolist()), float, x.size)
    except OverflowError:
        out = np.fromiter(map(_lgamma, x.ravel().tolist()), float, x.size)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def log_beta(x, y):
    """log B(x, y) = log Gamma(x) + log Gamma(y) - log Gamma(x + y)."""
    return log_gamma(x) + log_gamma(y) - log_gamma(np.asarray(x, float) + y)


def bessel_i0_log(x):
    """log I0(x) for x >= 0, as log(I0(x) e^-x) + x.

    Stays finite for arguments far past the overflow point of I0 itself.
    Public API only: no library code calls it, since the exponential norms
    are summed from the power series of I0 (transform._log_exp_norms).
    """
    from scipy.special import i0e

    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise DomainError("bessel_i0_log requires x >= 0")
    out = np.log(i0e(x)) + x
    return float(out) if x.ndim == 0 else out


# ---------------------------------------------------------------------------
# limit extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    converged: bool
    err_est: float  # the chosen row's trailing difference |r[-1] - r[-2]|


def extrapolate_limit(seq: Sequence[float]) -> ExtrapolationResult:
    """Estimate lim a_n from a finite tail via iterated Aitken acceleration.

    The limit is the last entry of the row (the tail itself or an Aitken
    row) with the smallest trailing difference; err_est is that difference,
    and converged says it is small.  A tail whose differences fail to
    shrink is not converged.
    """
    s = np.asarray(seq, dtype=float)
    if s.size < 4:
        raise DomainError("extrapolate_limit needs at least 4 terms")

    rows = [s]
    while (cur := rows[-1]).size >= 3:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d2 = cur[2:] - 2.0 * cur[1:-1] + cur[:-2]
            nxt = cur[2:] - (cur[2:] - cur[1:-1]) ** 2 / np.where(d2 == 0.0, np.nan, d2)
        if not np.all(np.isfinite(nxt)):
            break
        rows.append(nxt)

    # pick the acceleration depth with the smallest trailing difference (the
    # first such); deeper rows can be polluted by cancellation noise
    raw_resid = float(abs(s[-1] - s[-2]))
    best_resid, limit = min(((float(abs(r[-1] - r[-2])), float(r[-1]))
                             for r in rows if r.size >= 2), key=lambda t: t[0])

    scale = max(abs(limit), 1e-300)
    converged = bool(best_resid <= 1e-6 * scale
                     or best_resid <= 1e-3 * raw_resid + 1e-15 * scale)
    # a tail whose raw differences are not shrinking is not Cauchy; Aitken
    # can still stabilize on such input (it Abel-sums oscillations), so
    # refuse to certify convergence in that case
    first_resid = float(abs(s[1] - s[0]))
    if raw_resid > 1e-9 * scale and raw_resid >= first_resid > 0.0:
        converged = False
    return ExtrapolationResult(limit, converged, best_resid)
