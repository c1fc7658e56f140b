"""Rotation-invariant convex domain geometry in two complex variables.

A domain is described by a boundary exponent profile p(s) on (0, 1) together
with two axis intercepts b1, b2.  The radial profiles are

    r1(s) = b1 * exp(-int_s^1 dt / (t p(t))),
    r2(s) = b2 * exp(-int_0^s dt / ((1 - t) p(t))),

and the dual (polar complement) domain has conjugate exponent p/(p-1) with
reciprocal intercepts; its radial profiles satisfy r1*(s) r1(s) = s and
r2*(s) r2(s) = 1 - s pointwise.  All radial evaluation happens in log space
so that high powers r1^{2 m} stay representable.  For a non-constant
exponent, one call evaluates all its points in a single cumulative pass of
16-point Gauss panels over u = log s (or u = log(1 - s)); both radii of one
point sum their pieces from one profile call.  Nothing is cached.
Tables use a numpy PCHIP, so no verb on a table imports scipy's interpolate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (DomainError, ExponentOutOfRange, NonEvaluableProfile)
from .exprdsl import parse_expr
from .numerics import extrapolate_limit

__all__ = [
    "ExponentProfile",
    "DomainGeometry",
    "CurvatureTriple",
    "egg_profile",
    "expression_profile",
    "tabulated_profile",
    "domain_from_exponent",
    "dual_complement",
    "curvatures_at",
    "domain_from_spec",
]

_VALIDATION_GRID = np.linspace(1e-6, 1.0 - 1e-6, 513)


def _log(x):
    """np.log with log 0 = -inf and no divide warning."""
    with np.errstate(divide="ignore"):
        return np.log(x)


def _log_over(log_a, log_b):
    """log_a - log_b, -inf where log_a is -inf: r1* = s / r1 and
    r2* = (1 - s) / r2 vanish at s = 0 and 1, where r1 and r2 do too."""
    out = np.full(np.broadcast(log_a, log_b).shape, -np.inf)
    return np.subtract(log_a, log_b, out=out, where=log_a != -np.inf)[()]


# ---------------------------------------------------------------------------
# exponent profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentProfile:
    """The defining tuple (p, b1, b2) of a domain.

    kind is one of "egg", "expression", "tabulated", or "conjugate" (the
    profile of a dual domain, kept callable rather than re-parsed).
    """

    kind: str
    b1: float
    b2: float
    p_fn: Callable[[np.ndarray], np.ndarray]
    knots: tuple = ()  # the s where p is not smooth (a table's samples)
    # the constant exponent value, or None if p varies with s; decided once,
    # from the validation samples
    constant_p: Optional[float] = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.b1 < math.inf and 0.0 < self.b2 < math.inf):
            raise DomainError("axis intercepts b1, b2 must be positive and "
                              "finite")
        try:
            vals = self(_VALIDATION_GRID)
        except Exception as exc:  # noqa: BLE001 - surface as library error
            raise NonEvaluableProfile(str(exc)) from exc
        if vals.shape != _VALIDATION_GRID.shape or not np.all(np.isfinite(vals)):
            raise NonEvaluableProfile(
                "exponent profile is not finite on (0, 1)")
        if np.any(vals <= 1.0):
            bad = float(_VALIDATION_GRID[np.argmin(vals)])
            raise ExponentOutOfRange(
                f"p(s) <= 1 detected near s = {bad:.6g}")
        lo, hi = float(vals.min()), float(vals.max())
        # halves first, so that a huge constant p does not overflow
        object.__setattr__(self, "constant_p", 0.5 * lo + 0.5 * hi
                           if hi - lo <= 1e-13 * hi else None)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(all="ignore"):
            return np.asarray(self.p_fn(s), dtype=float)


def egg_profile(p: float, a1: float = 1.0, a2: float = 1.0) -> ExponentProfile:
    """Profile of the model domain a1|z1|^p + a2|z2|^p < 1."""
    if not p > 1:
        raise ExponentOutOfRange("egg exponent must exceed 1")
    if a1 <= 0 or a2 <= 0:
        raise DomainError("egg weights must be positive")
    try:
        b1, b2 = a1 ** (-1.0 / p), a2 ** (-1.0 / p)
    except OverflowError:
        raise DomainError("egg weights too small: an intercept overflows") from None
    return ExponentProfile("egg", b1, b2,
                           lambda s, _p=float(p): np.full_like(np.asarray(s, float), _p))


def expression_profile(source: str, b1: float = 1.0,
                       b2: float = 1.0) -> ExponentProfile:
    return ExponentProfile("expression", b1, b2, parse_expr(source))


def tabulated_profile(s_samples, p_samples, b1: float = 1.0,
                      b2: float = 1.0) -> ExponentProfile:
    """Profile interpolated monotonically through (s, p) samples.

    Shape-preserving piecewise cubic Hermite interpolation (Fritsch–Carlson
    slopes, Moler's end rule from pchiptx, "Numerical Computing with MATLAB")
    keeps values between the sample extremes, so p > 1 at the samples implies
    p > 1 everywhere.  Outside the sampled range the boundary values are held
    constant.  Every operation follows scipy's PchipInterpolator, so the
    values match it bit for bit, without scipy.
    """
    try:
        s_arr = np.array(s_samples, dtype=float)  # copies: p_fn keeps them
        p_arr = np.array(p_samples, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"tabulated samples must be numbers: {exc}") from exc
    if s_arr.ndim != 1 or s_arr.shape != p_arr.shape or s_arr.size < 2:
        raise DomainError("tabulated profile needs matching 1-D s and p arrays")
    if not (np.isfinite(s_arr).all() and np.isfinite(p_arr).all()):
        raise DomainError("tabulated samples must be finite")
    h = np.diff(s_arr)
    if np.any(h <= 0):
        raise DomainError("tabulated s samples must be strictly increasing")
    with np.errstate(all="ignore"):  # overflow fails below or in validation
        m = np.diff(p_arr) / h
        if m.size == 1:  # two samples: the line through them
            d = np.array([m[0], m[0]])
        else:
            # weighted harmonic mean of adjacent secants; 0 at extrema, flats
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            sm = np.sign(m)
            flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
            # Moler's one-sided three-point slope at the two ends
            h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
            e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
            e = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(
                (np.sign(m0) != np.sign(m1)) & (abs(e) > 3 * abs(m0)),
                3 * m0, e))
            d = np.concatenate((e[:1], np.where(flat, 0.0, inner), e[1:]))
        # the cubic on each interval in ascending powers of s - s_k
        t = (d[:-1] + d[1:] - 2 * m) / h
        c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], p_arr[:-1]
    if not np.isfinite(d).all():
        raise DomainError("tabulated profile too steep: its slopes overflow")
    if not (np.isfinite(c0).all() and np.isfinite(c1).all()):
        # also on a piece narrower than the validation grid's spacing
        raise NonEvaluableProfile("exponent profile is not finite on (0, 1)")
    # one more piece, constant at the last sample, takes s >= the last knot,
    # so clipping s into the knots' range is all the end handling (±inf too)
    c0, c1, c2 = (np.append(c, 0.0) for c in (c0, c1, c2))
    c3, tops, lo_s, hi_s = p_arr, s_arr[1:], s_arr[0], s_arr[-1]

    def p_fn(s):
        x = np.asarray(s, dtype=float).clip(lo_s, hi_s)
        k = tops.searchsorted(x, side="right")
        dx = x - s_arr[k]
        out = c2[k] * dx + c3[k]
        dx2 = dx * dx
        out += c1[k] * dx2
        dx2 *= dx
        out += c0[k] * dx2
        return out

    return ExponentProfile("tabulated", b1, b2, p_fn,
                           knots=tuple(s_arr.tolist()))


# ---------------------------------------------------------------------------
# exponent integrals (u = log t substitution)
# ---------------------------------------------------------------------------

_GX, _GW = np.polynomial.legendre.leggauss(16)  # one Gauss panel
# Gauss pieces per batch of profile evaluations: 8,192 values, whose
# temporaries are cheaper to allocate than those of larger batches
_PIECE_CHUNK = 512
_DYADIC = 2.0 ** -np.arange(1, 48)
# the open interval (0, 1) in doubles: exp(u) and -expm1(u) round onto its
# ends near u = 0 and u = -inf, where p need not be finite
_OPEN = (np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))


def _panel_edges(a: float, knots: np.ndarray) -> np.ndarray:
    """Panel edges on [a, 0], dyadically graded toward 0 only, and the logs
    of the knots inside it, sorted; with no knots, nothing to filter or sort.

    The grading absorbs integrands that are bounded but only log-smooth at
    u = 0 (2 + 1/log(10/s) in r2, where s = 1 - e^u).  The lower end a
    is an ordinary point; on a dyadic panel the nearest end singularity is a
    panel length away, so 16 Gauss nodes err by about (3 + sqrt 8)^-32."""
    e = np.concatenate(([a], a * _DYADIC, [0.0]))
    if knots.size:
        e = np.sort(np.concatenate((e, np.log(
            knots[(knots > math.exp(a)) & (knots < 1.0)]))))
    return e


def _suffix_sums(pieces: np.ndarray) -> np.ndarray:
    """sum(pieces[i:]) for i = 0 .. n, overwriting pieces: a running sum of
    the reversed pieces b, each step's rounding error recovered exactly
    (TwoSum) and added back, in place to bound memory."""
    b = pieces[::-1]
    run = np.cumsum(b)
    err = run[1:] - run[:-1]             # the part of b[i] that was added
    b[1:] -= err                         # what b[i] lost
    np.subtract(run[1:], err, out=err)   # the part of run[i-1] that was kept
    np.subtract(run[:-1], err, out=err)  # what run[i-1] lost
    err += b[1:]
    run[1:] += np.cumsum(err, out=err)
    return np.append(run[::-1], 0.0)


def _panel_sums(f: Callable, e: np.ndarray) -> np.ndarray:
    """One 16-point Gauss panel of f on each piece between the sorted edges
    e; an empty piece counts 0 whatever f is there."""
    mid = 0.5 * (e[:-1] + e[1:])[:, None]
    half = 0.5 * (e[1:] - e[:-1])[:, None]
    vals = (half * _GW * f(mid + half * _GX)).sum(1)
    return np.where(half[:, 0] > 0.0, vals, 0.0)


def _integrals_to_zero(f: Callable, x: np.ndarray, knots) -> np.ndarray:
    """int_{log x}^0 f(u) du for every x in (0, 1], in one pass.

    The sorted log-queries and log-knots (the x where f is not smooth)
    split the graded panels of [min log x, 0] into pieces; each piece gets one
    16-point Gauss panel and suffix sums give every integral at once.
    (Both radii of one point take DomainGeometry's paired pass instead.)
    x <= 0 gives inf.  Empty pieces (from x >= 1 or repeated edges) count
    0 whatever f is there.  Peak memory is about four arrays the size of x.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    # log 1 = 0 stands in for x >= 1 (integral 0), and for x <= 0 and nan,
    # whose results are set last
    u = np.log(np.where((flat > 0.0) & (flat < 1.0), flat, 1.0))
    # repeated edges only add empty pieces, so they are not removed
    edges = np.concatenate((u, _panel_edges(float(u.min(initial=0.0)),
                                            knots)))
    edges.sort()
    idx = edges.searchsorted(u).astype(np.int32)  # half the memory
    del u
    pieces = np.empty(edges.size - 1)
    for lo in range(0, pieces.size, _PIECE_CHUNK):
        pieces[lo:lo + _PIECE_CHUNK] = _panel_sums(
            f, edges[lo:lo + _PIECE_CHUNK + 1])
    del edges
    out = _suffix_sums(pieces)[idx]
    out[flat <= 0.0] = np.inf
    out[np.isnan(flat)] = np.nan
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# domain geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureTriple:
    kappa1: float | np.ndarray
    kappa2: float | np.ndarray
    kappa3: float | np.ndarray
    p_recovered: float | np.ndarray


class DomainGeometry:
    """Immutable geometry of a domain given by an exponent profile.

    Radial profiles are exposed in log space (log_r1, log_r2) together with
    the dual profiles (log_r1_star, log_r2_star) defined by the exact
    pointwise identities r1*(s) r1(s) = s and r2*(s) r2(s) = 1 - s.
    An instance holds its profile, two radial functions and a dual's primal:
    every call evaluates its points afresh (describe() its limits and
    flags), so evaluators are pure and instances safe to share.
    """

    def __init__(self, profile: ExponentProfile,
                 _primal: DomainGeometry | None = None):
        self.profile, self._primal = profile, _primal
        const_p = profile.constant_p
        if _primal is not None:
            self._lr1_xy = _primal.log_r1_star_xy
            self._lr2_xy = _primal.log_r2_star_xy
        elif const_p is not None:
            lb1, lb2, q = math.log(profile.b1), math.log(profile.b2), 1.0 / const_p
            self._lr1_xy = lambda s, sm: lb1 + q * _log(s)
            self._lr2_xy = lambda s, sm: lb2 + q * _log(sm)
        else:
            self._lr1_xy = self._quadrature_log_r1
            self._lr2_xy = self._quadrature_log_r2

    # -- radial evaluators --------------------------------------------------
    # the two-argument forms take the parameter s together with its
    # complement sm = 1 - s so that callers near the right endpoint can pass
    # a complement that has not been rounded through 1 - s

    def _quadrature_log_r1(self, s: np.ndarray, sm: np.ndarray) -> np.ndarray:
        p = self.profile
        return math.log(p.b1) - _integrals_to_zero(
            lambda u: 1.0 / p(np.exp(u).clip(*_OPEN)), s,
            np.array(p.knots))

    def _quadrature_log_r2(self, s: np.ndarray, sm: np.ndarray) -> np.ndarray:
        p = self.profile
        return math.log(p.b2) - _integrals_to_zero(
            lambda u: 1.0 / p((-np.expm1(u)).clip(*_OPEN)), sm,
            1.0 - np.array(p.knots))

    def _quadrature_log_radii(self, s: float) -> tuple:
        # r1's pieces on [log s, 0], then r2's on [log(1 - s), 0], knots
        # included; the piece joining them runs backwards, so counts 0
        p, knots = self.profile, np.array(self.profile.knots)
        sides = [_panel_edges(a, k) for a, k in zip(
            np.log([s, 1.0 - s]).tolist(), (knots, 1.0 - knots))]
        n = sides[0].size
        pieces = _panel_sums(lambda u: 1.0 / p(np.concatenate(
            (np.exp(u[:n]), -np.expm1(u[n:]))).clip(*_OPEN)),
            np.concatenate(sides)).tolist()
        return (math.log(p.b1) - math.fsum(pieces[:n - 1]),
                math.log(p.b2) - math.fsum(pieces[n:]))

    def log_radii(self, s):
        """(log r1(s), log r2(s)), floats for a float; one s in (0, 1) of a
        non-constant primal takes the paired pass."""
        s = np.asarray(s, dtype=float)
        if (s.ndim == 0 and 0.0 < s < 1.0 and self._primal is None
                and self.profile.constant_p is None):
            return self._quadrature_log_radii(float(s))
        return self.log_r1(s), self.log_r2(s)

    def log_r1_xy(self, s, sm):
        return self._lr1_xy(np.asarray(s, float), np.asarray(sm, float))

    def log_r2_xy(self, s, sm):
        return self._lr2_xy(np.asarray(s, float), np.asarray(sm, float))

    def log_r1_star_xy(self, s, sm):
        return _log_over(_log(s), self.log_r1_xy(s, sm))

    def log_r2_star_xy(self, s, sm):
        return _log_over(_log(sm), self.log_r2_xy(s, sm))

    def log_r1(self, s):
        s = np.asarray(s, dtype=float)
        out = self._lr1_xy(s, 1.0 - s)
        return float(out) if s.ndim == 0 else out

    def log_r2(self, s):
        s = np.asarray(s, dtype=float)
        out = self._lr2_xy(s, 1.0 - s)
        return float(out) if s.ndim == 0 else out

    def r1(self, s):
        return np.exp(self.log_r1(s))

    def r2(self, s):
        return np.exp(self.log_r2(s))

    def log_r1_star(self, s):
        s = np.asarray(s, dtype=float)
        return _log_over(_log(s), self.log_r1(s))

    def log_r2_star(self, s):
        s = np.asarray(s, dtype=float)
        return _log_over(_log(1.0 - s), self.log_r2(s))

    def r1_star(self, s):
        return np.exp(self.log_r1_star(s))

    def r2_star(self, s):
        return np.exp(self.log_r2_star(s))

    def p_at(self, s):
        return self.profile(s)

    # -- membership heuristics ----------------------------------------------

    def _estimate_p_limits(self):
        # doubly exponential approach to the endpoint: profiles whose tail
        # behaves like a power of s or like 1/log(1/s) both produce
        # geometrically converging samples, which Aitken then accelerates
        depth = 2.0 ** np.arange(0, 9)
        limits = {}
        for end in (0, 1):
            s = 2.0 ** (-depth) if end == 0 else 1.0 - 2.0 ** (-depth)
            vals = self.profile(s)
            if not np.all(np.isfinite(vals)):
                limits[end] = math.inf
                continue
            if vals[-1] > 1e6 and 0.5 * vals[-1] > vals[len(vals) // 2]:
                limits[end] = math.inf
                continue
            res = extrapolate_limit(vals)
            limits[end] = res.limit if res.converged else (
                math.inf if vals[-1] > 10.0 * vals[0] else None)
        return {"s0": limits[0], "s1": limits[1]}

    def _estimate_membership(self, p_limits):
        # the class requires int_0 dt/(t p(t)) and int^1 dt/((1-t) p(t)) to
        # diverge; after u = log t this is divergence of int 1/p du as the
        # lower limit recedes.  Sampled truncations must keep growing with
        # slope bounded away from zero on a log scale.  This is a heuristic
        # (finitely many samples prove nothing), hence the confidence field.
        eps = np.array([1e-2, 1e-4, 1e-6, 1e-8, 1e-10])
        vals = -np.stack([self.log_r1_xy(eps, 1.0 - eps),
                          self.log_r2_xy(1.0 - eps, eps)], axis=1)
        growth = np.diff(vals, axis=0)  # per factor-100 shrink of eps
        diverging = bool(np.all(growth > 1e-3))
        conf = 0.9 if diverging and np.all(growth > 0.1 * growth[0]) else 0.6
        finite_limits = all(
            isinstance(v, float) and math.isfinite(v) and v > 1.0
            for v in p_limits.values())
        return {"in_R_tilde": {"value": diverging,
                               "confidence": conf if diverging else 0.9},
                "in_R_prime": {"value": diverging and finite_limits,
                               "confidence": 0.85 if finite_limits else 0.7}}

    # -- misc ---------------------------------------------------------------

    def describe(self) -> dict:
        p_limits = self._estimate_p_limits()
        return {
            "kind": self.profile.kind,
            "b1": self.profile.b1,
            "b2": self.profile.b2,
            "p_limits": {k: ("divergent" if v == math.inf else v)
                         for k, v in p_limits.items()},
            **self._estimate_membership(p_limits),
            "classification": _classify(self, p_limits),
        }


def domain_from_exponent(profile: ExponentProfile) -> DomainGeometry:
    """Build the geometry determined by an exponent profile."""
    return DomainGeometry(profile)


def dual_complement(geom: DomainGeometry) -> DomainGeometry:
    """Geometry of the polar-complement domain.

    Conjugate exponent p/(p - 1), reciprocal intercepts, and radial profiles
    taken from the exact identities r1*(s) = s / r1(s), r2*(s) = (1-s)/r2(s)
    rather than re-quadrature, so dual(dual(geom)) reproduces geom's
    profiles to machine precision.
    """
    src = geom.profile

    def p_star(s):
        p = src(s)
        return p / (p - 1.0)

    try:
        star = ExponentProfile("egg" if src.kind == "egg" else "conjugate",
                               1.0 / src.b1, 1.0 / src.b2, p_star)
    except ExponentOutOfRange as exc:  # p > 1, so only rounding gets here
        raise ExponentOutOfRange("the dual's exponent p/(p - 1) rounds to 1 "
                                 "in double precision: p is too large") from exc
    return DomainGeometry(star, _primal=geom)


def curvatures_at(geom: DomainGeometry, s) -> CurvatureTriple:
    """Principal curvatures of the boundary at parameter s: floats for a
    scalar s, arrays for an array s (one log_radii call).

    With Q = (s/r1)^2 + ((1-s)/r2)^2 the three curvatures are

        k1 = s / (r1^2 sqrt(Q)),
        k2 = (1-s) / (r2^2 sqrt(Q)),
        k3 = (p(s)-1) s(1-s) / (r1^2 r2^2) * Q^{-3/2},

    and the exponent is recovered as p = 1 + (k3/(k1 k2)) * sqrt(Q).
    """
    s = np.asarray(s, dtype=float)[()]  # a numpy float if s is a scalar
    if not ((s > 0.0) & (s < 1.0)).all():
        raise DomainError("curvatures are defined for s in (0, 1)")
    (r1, r2), sm = np.exp(geom.log_radii(s)), 1.0 - s
    q = (s / r1) ** 2 + (sm / r2) ** 2
    sq = np.sqrt(q)
    k1, k2 = s / (r1 * r1 * sq), sm / (r2 * r2 * sq)
    k3 = (geom.p_at(s) - 1.0) * s * sm / (r1 * r1 * r2 * r2) * q ** -1.5
    out = (k1, k2, k3, 1.0 + k3 / (k1 * k2) * sq)
    return CurvatureTriple(*(map(float, out) if s.ndim == 0 else out))


def _classify(geom: DomainGeometry, p_limits: dict) -> dict:
    """Heuristic contact-order classification at the two axis points.

    A finite exponent limit equal to an even integer 2m marks finite
    type 2m; a divergent limit marks infinite type; a limit below 2 means
    the boundary cannot be twice differentiable there.  Anything else is
    reported inconclusive together with the raw limit estimate.
    """
    out = {}
    for axis, key in (("axis0", "s1"), ("axis1", "s0")):
        # axis0 is the point where z2 = 0 (s -> 1); axis1 where z1 = 0
        lim = p_limits[key]
        if lim is None:
            out[axis] = {"class": "inconclusive", "limit": None}
        elif lim == math.inf:
            out[axis] = {"class": "infinite_type", "limit": "divergent"}
        elif lim < 2.0 - 1e-4:
            out[axis] = {"class": "not_C2", "limit": lim}
        else:
            near_even = round(lim / 2.0) * 2.0
            if near_even >= 2.0 and abs(lim - near_even) < 1e-4:
                low_conf = abs(lim - 2.0) < 1e-4 and geom.profile.constant_p is None
                out[axis] = {"class": f"finite_type({int(near_even)})",
                             "limit": lim,
                             "confidence": 0.5 if low_conf else 0.9}
            else:
                out[axis] = {"class": "inconclusive", "limit": lim}
    return out


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def _number(spec: dict, key: str, default: float | None = None) -> float:
    """A numeric field of a domain spec; raises KeyError if a required one
    is missing."""
    value = spec[key] if default is None else spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DomainError(f"domain field {key!r} must be a number, "
                          f"not {value!r}")
    return float(value)


def domain_from_spec(spec: dict | str) -> DomainGeometry:
    """Build a geometry from a JSON object (or JSON text).

    Recognized forms:
      {"kind": "egg",   "p": 4, "a1": 1.0, "a2": 1.0}
      {"kind": "expr",  "p_check": "2+1/log(10/s)", "b1": 1.0, "b2": 1.0}
      {"kind": "table", "s": [...], "p": [...], "b1": 1.0, "b2": 1.0}
    """
    if isinstance(spec, str):
        try:
            spec = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise DomainError(f"invalid domain JSON: {exc}") from exc
    if not isinstance(spec, dict) or "kind" not in spec:
        raise DomainError("domain spec must be an object with a 'kind' field")
    kind = spec["kind"]
    try:
        if kind == "egg":
            prof = egg_profile(_number(spec, "p"), _number(spec, "a1", 1.0),
                               _number(spec, "a2", 1.0))
        elif kind == "expr":
            if not isinstance(spec["p_check"], str):
                raise DomainError("domain field 'p_check' must be a string")
            prof = expression_profile(spec["p_check"], _number(spec, "b1", 1.0),
                                      _number(spec, "b2", 1.0))
        elif kind == "table":
            prof = tabulated_profile(spec["s"], spec["p"],
                                     _number(spec, "b1", 1.0),
                                     _number(spec, "b2", 1.0))
        else:
            raise DomainError(f"unknown domain kind {kind!r}")
    except KeyError as exc:
        raise DomainError(f"domain spec missing field {exc.args[0]!r}") from exc
    return domain_from_exponent(prof)
