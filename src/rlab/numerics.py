"""Shared numerical kernels.

The nested tanh-sinh rule on (0, 1), log_matmul (the library's one log-space
product), log-Gamma/Beta and log I0 (from scipy.special; log I0 is public API
only) and sequence-limit extrapolation.
scipy.special is imported inside the functions that call it, at their first
call, so importing the package loads numpy but no scipy; neither does building
any geometry or its dual, and no verb on a table loads scipy's interpolate.
Everything here is pure and reentrant.  No library product goes through BLAS
(einsum, never @), so no BLAS thread starts and CPU time tracks wall time.
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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "tanh_sinh_indexed",
    "tanh_sinh_nodes_sym",
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


def tanh_sinh_indexed(level: int):
    """Tanh-sinh rule on (0, 1) with step h = 2^-level, as (k, x, 1 - x, w).

    Node k sits at t = k h.  The complement 1 - x is computed directly, to
    full relative accuracy where it underflows the spacing of doubles
    around 1; integrands singular (or steep) at the right endpoint need it.
    Nodes whose x or 1 - x is 0 in double precision are dropped; the
    double-exponential weight decay makes that truncation negligible.
    """
    from scipy.special import expit

    h = 2.0 ** (-level)
    k = np.arange(-int(_TS_TMAX / h), int(_TS_TMAX / h) + 1)
    t = k * h
    with np.errstate(over="ignore"):
        u = np.pi * np.sinh(t)
        # sigmoid form keeps relative accuracy for nodes near 0, which
        # matters for integrands with an endpoint singularity there
        x = expit(u)
        xm = expit(-u)
        w = 0.25 * np.pi * h * np.cosh(t) / np.cosh(0.5 * u) ** 2
    keep = (x > 0.0) & (xm > 0.0) & (w > 1e-320)
    return k[keep], x[keep], xm[keep], w[keep]


def tanh_sinh_nodes_sym(level: int):
    """Tanh-sinh abscissae x, complements 1 - x and weights on (0, 1).

    No library code calls it; it is the node rule of the moment oracle in
    the acceptance suite (criterion 3)."""
    _k, x, xm, w = tanh_sinh_indexed(level)
    return x, xm, w


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


def log_matmul(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """log sum_k exp(log_a[i, k] + log_b[k, j]), shape (n_i, n_j): one einsum
    (in the calling thread, not BLAS) with rows and columns scaled by their
    maxima.  The terms are positive, so an entry is accurate unless its
    scaled sum is below _FLOOR (or NaN): there the scales missed the terms'
    peak, and the entry is summed again term by term."""
    # a row or column with no terms (all -inf) takes the scale 0
    ca = np.nan_to_num(log_a.max(axis=1, keepdims=True), neginf=0.0)
    cb = np.nan_to_num(log_b.max(axis=0, keepdims=True), neginf=0.0)
    a, b = log_a - ca, log_b - cb
    prod = np.einsum("ik,kj->ij", np.exp(a, out=a), np.exp(b, out=b))
    i, j = np.nonzero(~(prod >= _FLOOR))
    chunk = max(1, (1 << 16) // log_a.shape[1])  # (chunk, n_k) terms at once
    log_bt = np.ascontiguousarray(log_b.T) if i.size else None
    with np.errstate(divide="ignore"):
        out = np.log(prod) + (ca + cb)
        for lo in range(0, i.size, chunk):
            ii, jj = i[lo:lo + chunk], j[lo:lo + chunk]
            terms = log_a[ii] + log_bt[jj]
            mx = np.nan_to_num(terms.max(axis=1, keepdims=True), neginf=0.0)
            terms -= mx
            # exp is slow where it underflows, and a term 700 nats below
            # the peak adds nothing; -inf (no term) stays
            np.maximum(terms, -700.0, out=terms, where=terms > -np.inf)
            np.exp(terms, out=terms)
            out[ii, jj] = np.log(terms.sum(axis=1)) + mx[:, 0]
    return out


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def log_gamma(x):
    """log Gamma(x) for x > 0."""
    from scipy.special import gammaln

    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise DomainError("log_gamma requires x > 0")
    out = gammaln(x)
    return float(out) if x.ndim == 0 else out


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
    confidence: float
    converged: bool


def extrapolate_limit(seq: Sequence[float]) -> ExtrapolationResult:
    """Estimate lim a_n from a finite tail via iterated Aitken acceleration.

    Confidence comes from the decay of successive differences; a tail whose
    differences fail to shrink is reported converged=False with its raw
    last value as the limit estimate.
    """
    s = np.asarray(seq, dtype=float)
    if s.size < 4:
        raise DomainError("extrapolate_limit needs at least 4 terms")

    rows = [s]
    cur = s
    while cur.size >= 3:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d2 = cur[2:] - 2.0 * cur[1:-1] + cur[:-2]
            nxt = cur[2:] - (cur[2:] - cur[1:-1]) ** 2 / np.where(d2 == 0.0, np.nan, d2)
        if not np.all(np.isfinite(nxt)):
            break
        rows.append(nxt)
        cur = nxt

    # pick the acceleration depth with the smallest trailing difference;
    # deeper rows can be polluted by cancellation noise
    raw_resid = float(abs(s[-1] - s[-2]))
    best_row = s
    best_resid = raw_resid
    for row in rows[1:]:
        if row.size < 2:
            continue
        r = float(abs(row[-1] - row[-2]))
        if r < best_resid:
            best_resid = r
            best_row = row
    limit = float(best_row[-1])

    scale = max(abs(limit), 1e-300)
    converged = bool(best_resid <= 1e-6 * scale
                     or best_resid <= 1e-3 * raw_resid + 1e-15 * scale)
    # a tail whose raw differences are not shrinking is not Cauchy; Aitken
    # can still stabilize on such input (it Abel-sums oscillations), so
    # refuse to certify convergence in that case
    first_resid = float(abs(s[1] - s[0]))
    if raw_resid > 1e-9 * scale and raw_resid >= first_resid > 0.0:
        converged = False
    confidence = float(np.clip(1.0 - best_resid / (raw_resid + best_resid + 1e-300),
                               0.0, 1.0))
    if not converged:
        confidence = min(confidence, 0.5)
    return ExtrapolationResult(limit, confidence, converged)
