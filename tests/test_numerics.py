"""Numerical kernel tests: the nested tanh-sinh rule, the log-space matrix
product, special functions, and limit extrapolation.  Oracle values come
from the standard library (math.lgamma), closed forms, brute-force sums, or
independent quadrature."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rlab.errors import DomainError
from rlab.numerics import (ExtrapolationResult, _CUT, _FLOOR, _scale,
                           bessel_i0_log, extrapolate_limit, log_beta,
                           log_gamma, log_matmul, nested_log_sums,
                           tanh_sinh_indexed)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

# (f, a, b, exact) - a small library of analytic integrals of positive
# integrands, for the honesty statistics of the nested error estimate
ANALYTIC_INTEGRALS = [
    (lambda x: x, 0.0, 1.0, 0.5),
    (lambda x: x * x, 0.0, 1.0, 1.0 / 3.0),
    (lambda x: np.ones_like(x), 0.0, 1.0, 1.0),
    (np.sin, 0.0, math.pi, 2.0),
    (np.cos, 0.0, 1.0, math.sin(1.0)),
    (np.exp, 0.0, 1.0, math.e - 1.0),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0),
    (lambda x: -np.log(x), 0.0, 1.0, 1.0),
    (lambda x: x ** 1.5, 0.0, 1.0, 0.4),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: np.sqrt(1.0 - x * x), 0.0, 1.0, math.pi / 4.0),
    (lambda x: x ** (-0.25), 0.0, 1.0, 4.0 / 3.0),
    (lambda x: np.log(x) ** 2, 0.0, 1.0, 2.0),
    (lambda x: np.exp(-x), 0.0, math.inf, 1.0),
    (lambda x: x * np.exp(-x), 0.0, math.inf, 1.0),
    (lambda x: np.exp(-x * x), 0.0, math.inf, 0.5 * math.sqrt(math.pi)),
    (lambda x: x ** 2 * np.exp(-2 * x), 0.0, math.inf, 0.25),
    (lambda x: np.exp(-x) / np.sqrt(x), 0.0, math.inf, math.sqrt(math.pi)),
    (lambda x: x ** 3 * np.exp(-x), 0.0, math.inf, 6.0),
    (lambda r: r ** 2.5 * np.exp(-2.0 * r), 0.0, math.inf,
     math.gamma(3.5) / 2.0 ** 3.5),
]


def _log_terms(f, a, b, level):
    """log(w f(x)) at the nodes of a level mapped onto (a, b), and the node
    indices; a half-line is reached through x = y / (1 - y).  Terms that
    are not finite (inf * 0 far out on a half-line) count as zero."""
    k, y, ym, w = tanh_sinh_indexed(level)
    if math.isinf(b):
        x, log_jac = a + y / ym, -2.0 * np.log(ym)
    else:
        x, log_jac = a + (b - a) * y, math.log(b - a)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_f = np.log(f(x))
    return np.log(w) + log_jac + np.where(np.isnan(log_f), -np.inf, log_f), k


def test_error_estimates_are_honest():
    # the gap between a level and the next coarser one bounds the level's
    # own error: true error <= 10 x estimate in at least 95% of the cases
    honest = cases = 0
    for f, a, b, exact in ANALYTIC_INTEGRALS:
        for level in (3, 4, 5):
            fine, coarse = nested_log_sums(*_log_terms(f, a, b, level))
            true_err = abs(fine - math.log(exact))
            honest += true_err <= 10.0 * max(abs(fine - coarse), 1e-15)
            cases += 1
    assert honest >= math.ceil(0.95 * cases)


@pytest.mark.parametrize("case", range(len(ANALYTIC_INTEGRALS)))
def test_level_7_accuracy(case):
    # endpoint singularities and half-lines included; the level-6 sum from
    # the same terms agrees, so the rule reports convergence
    f, a, b, exact = ANALYTIC_INTEGRALS[case]
    fine, coarse = nested_log_sums(*_log_terms(f, a, b, 7))
    assert abs(fine - math.log(exact)) < 1e-12
    assert abs(fine - coarse) < 1e-12


def test_nested_log_sums_match_direct_levels():
    f = lambda x: x ** (-0.25) * np.exp(x)
    log_t7, k7 = _log_terms(f, 0.0, 1.0, 7)
    log_t6, _k6 = _log_terms(f, 0.0, 1.0, 6)
    fine, coarse = nested_log_sums(log_t7, k7)
    assert fine == pytest.approx(math.log(np.sum(np.exp(log_t7))), abs=1e-14)
    assert coarse == pytest.approx(math.log(np.sum(np.exp(log_t6))), abs=1e-14)
    # rows of a 2-D array are reduced independently
    rows = np.vstack([log_t7, log_t7 + 1.0])
    fine2, coarse2 = nested_log_sums(rows, k7)
    assert np.allclose(fine2, [fine, fine + 1.0], rtol=0.0, atol=1e-14)
    assert np.allclose(coarse2, [coarse, coarse + 1.0], rtol=0.0, atol=1e-14)


def test_tanh_sinh_weights_sum_to_one():
    for level in (4, 5, 6, 7):
        _k, x, xm, w = tanh_sinh_indexed(level)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all((x > 0) & (xm > 0))


def test_tanh_sinh_levels_nest():
    # level L is the subset of level 7 with k a multiple of 2^(7 - L), at
    # exactly the same abscissae and 2^(7 - L) times the weight
    k7, x7, xm7, w7 = tanh_sinh_indexed(7)
    for level in (3, 4, 5, 6):
        step = 2 ** (7 - level)
        k, x, xm, w = tanh_sinh_indexed(level)
        sel = k7 % step == 0
        assert np.array_equal(k7[sel] // step, k)
        assert np.array_equal(x7[sel], x)
        assert np.array_equal(xm7[sel], xm)
        assert np.array_equal(w / w7[sel], np.full(w.size, float(step)))


def test_tanh_sinh_nodes_are_scipy_sigmoids():
    # the nodes are scipy's expit of pi sinh(t), bit for bit; a numpy
    # sigmoid 1 / (1 + exp(-u)) moves some of them by an ulp
    from scipy.special import expit

    for level in range(1, 9):
        h = 2.0 ** (-level)
        k = np.arange(-int(6.5 / h), int(6.5 / h) + 1)
        t = k * h
        with np.errstate(over="ignore"):
            u = np.pi * np.sinh(t)
            x, xm = expit(u), expit(-u)
            w = 0.25 * np.pi * h * np.cosh(t) / np.cosh(0.5 * u) ** 2
        keep = (x > 0.0) & (xm > 0.0) & (w > 1e-320)
        for got, want in zip(tanh_sinh_indexed(level),
                             (k[keep], x[keep], xm[keep], w[keep])):
            assert np.array_equal(got, want)


def test_tanh_sinh_rule_is_built_once_and_read_only():
    # a rule is built on its level's first call; later calls share its
    # arrays, so no caller may write to them
    rule = tanh_sinh_indexed(7)
    assert all(a is b for a, b in zip(tanh_sinh_indexed(7), rule))
    for a in rule:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_tanh_sinh_sym_complement():
    _k, x, xm, w = tanh_sinh_indexed(6)
    mid = np.abs(x - 0.5) < 0.4
    assert np.allclose(x[mid] + xm[mid], 1.0, atol=1e-15)
    # complements keep relative precision where 1 - x underflows
    assert xm.min() < 1e-30


# ---------------------------------------------------------------------------
# the log-space matrix product
# ---------------------------------------------------------------------------

def _brute_log_matmul(log_a, log_b):
    from scipy.special import logsumexp
    return logsumexp(log_a[:, :, None] + log_b[None], axis=1)


def _random_operands(seed, n_i=9, n_k=40, n_j=6):
    rng = np.random.default_rng(seed)
    return (rng.normal(scale=30.0, size=(n_i, n_k)),
            rng.normal(scale=30.0, size=(n_k, n_j)))


def _peaks_far_below_the_scales(n_k=50):
    # row i and column i fall in opposite directions: every term of entries
    # (0, 0) and (1, 1) is 30 (n_k - 1) nats below the row maximum plus the
    # column maximum; the terms of entry (2, 2) peak 40 (n_k - 1) nats
    # below it and spread over 20 (n_k - 1) nats
    k = np.arange(n_k)
    log_a = np.vstack((-30.0 * k, -30.0 * k[::-1], -40.0 * k))
    log_b = np.column_stack((-30.0 * k[::-1], -30.0 * k, -60.0 * k[::-1]))
    return log_a, log_b


def test_log_matmul_random_operands():
    for seed in range(3):
        log_a, log_b = _random_operands(seed)
        got = log_matmul(log_a, log_b)
        assert got.shape == (9, 6)
        assert np.max(np.abs(got - _brute_log_matmul(log_a, log_b))) < 1e-13


def test_log_matmul_minus_inf_entries():
    log_a, log_b = _random_operands(3)
    log_a[log_a < -20.0] = -np.inf
    log_b[log_b < -20.0] = -np.inf
    log_a[2] = -np.inf          # a row with no terms
    log_b[:, 4] = -np.inf       # a column with no terms
    got, want = log_matmul(log_a, log_b), _brute_log_matmul(log_a, log_b)
    assert np.all(got[2] == -np.inf) and np.all(got[:, 4] == -np.inf)
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    fin = np.isfinite(want)
    assert np.max(np.abs(got[fin] - want[fin])) < 1e-13


def test_log_matmul_falls_back_below_the_floor():
    log_a, log_b = _peaks_far_below_the_scales()
    peak = (log_a[:, :, None] + log_b[None]).max(axis=1)
    scales = log_a.max(axis=1)[:, None] + log_b.max(axis=0)
    # the scaled product underflows on the diagonal, not at (0, 1)
    far = peak < scales - 700.0
    assert np.all(np.diag(far)) and not far[0, 1]
    got, want = log_matmul(log_a, log_b), _brute_log_matmul(log_a, log_b)
    assert np.max(np.abs(got - want)) < 1e-13
    assert got[0, 0] == pytest.approx(math.log(50.0) - 30.0 * 49, abs=1e-12)
    # sum_k e^{20 (k - 49)} = 1 / (1 - e^-20) to rounding
    peak22 = -40.0 * 49 - math.log1p(-math.exp(-20.0))
    assert got[2, 2] == pytest.approx(peak22, abs=1e-12)


def test_log_matmul_einsum_sees_no_subnormal_factor(monkeypatch):
    # operands spanning thousands of nats: their scaled exponentials would
    # hold subnormal numbers, but every factor reaching the einsum is 0 or
    # a normal number
    einsum, factors = np.einsum, []

    def spy(subscripts, *operands, **kwargs):
        factors.extend(np.array(op) for op in operands)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    rng = np.random.default_rng(6)
    for log_a, log_b in ((rng.normal(scale=1000.0, size=(12, 80)),
                          rng.normal(scale=1000.0, size=(80, 7))),
                         _peaks_far_below_the_scales()):
        log_matmul(log_a, log_b)
    assert len(factors) == 4
    for f in factors:
        assert np.all((f == 0.0) | (f >= np.finfo(float).tiny))
        assert np.any((f > 0.0) & (f < 1.0))


def test_log_matmul_entry_above_the_floor_with_dropped_factors():
    # entry (0, 0) has its scaled sum e^-644 = 1.9e-280, just above the
    # floor, so the einsum gives it; its row and column also hold factors
    # e^-750 .. e^-1000, which the product drops
    log_a = np.array([[0.0, -322.0, -750.0, -1000.0, -800.0],
                      [-5.0, -2.0, 0.0, -3.0, -1.0]])
    log_b = np.array([[-900.0, 0.0], [-322.0, -1.0], [0.0, -2.0],
                      [-720.0, -3.0], [-710.0, -4.0]])
    scaled = (log_a[0] + log_b[:, 0]).max() - log_a[0].max() - log_b[:, 0].max()
    assert math.log(1e-280) < scaled < math.log(1e-280) + 1.0
    got, want = log_matmul(log_a, log_b), _brute_log_matmul(log_a, log_b)
    assert np.max(np.abs(got - want)) < 1e-13
    assert got[0, 0] == pytest.approx(-644.0, abs=1e-13)


def test_log_matmul_zero_columns():
    log_a, log_b = _random_operands(4)
    got = log_matmul(log_a, log_b[:, :0])
    assert got.shape == (9, 0)


def _nan_to_num_log_matmul(log_a, log_b):
    """log_matmul with its scales from np.nan_to_num and a fresh array for
    each step, as it was: the oracle for the in-place form."""
    ca = np.nan_to_num(log_a.max(axis=1, keepdims=True), neginf=0.0)
    cb = np.nan_to_num(log_b.max(axis=0, keepdims=True), neginf=0.0)
    a, b = log_a - ca, log_b - cb
    np.putmask(a, a < _CUT, -np.inf)
    np.putmask(b, b < _CUT, -np.inf)
    prod = np.einsum("ik,kj->ij", np.exp(a, out=a), np.exp(b, out=b))
    i, j = np.nonzero(~(prod >= _FLOOR))
    chunk = max(1, (1 << 16) // log_a.shape[1])
    log_bt = np.ascontiguousarray(log_b.T)
    with np.errstate(divide="ignore"):
        out = np.log(prod) + (ca + cb)
        for lo in range(0, i.size, chunk):
            ii, jj = i[lo:lo + chunk], j[lo:lo + chunk]
            terms = log_a[ii] + log_bt[jj]
            mx = np.nan_to_num(terms.max(axis=1, keepdims=True), neginf=0.0)
            terms -= mx
            np.maximum(terms, _CUT, out=terms, where=terms > -np.inf)
            np.exp(terms, out=terms)
            out[ii, jj] = np.log(terms.sum(axis=1)) + mx[:, 0]
    return out


def test_scale_is_nan_to_num_in_place():
    c = np.array([[1.5], [-np.inf], [np.nan], [np.inf], [-0.0], [-1e308]])
    want = np.nan_to_num(c, neginf=0.0)
    got = _scale(c)
    assert got is c and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("operands", ["random", "fallback"])
def test_log_matmul_scales_match_the_nan_to_num_form(operands):
    # rows and columns that are all -inf, hold a NaN or hold +inf, through
    # the einsum and through the term-by-term fallback: the same bits
    log_a, log_b = (_random_operands(7) if operands == "random"
                    else _peaks_far_below_the_scales())
    log_a[1] = -np.inf
    log_a[2, 5], log_b[5, 1] = np.nan, np.nan
    log_a[0, 3], log_b[3, 2] = np.inf, np.inf
    log_b[:, -1] = -np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        got = log_matmul(log_a, log_b)
        want = _nan_to_num_log_matmul(log_a, log_b)
    assert got.tobytes() == want.tobytes()
    # the diagonal of the unaltered operands takes the fallback
    log_a, log_b = _peaks_far_below_the_scales()
    assert log_matmul(log_a, log_b).tobytes() == _nan_to_num_log_matmul(
        log_a, log_b).tobytes()


def test_log_matmul_rerun_is_bit_identical():
    for log_a, log_b in (_random_operands(5), _peaks_far_below_the_scales()):
        assert np.array_equal(log_matmul(log_a, log_b),
                              log_matmul(log_a, log_b))


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def test_log_gamma_small_integers():
    assert math.exp(log_gamma(4.0)) == pytest.approx(6.0, rel=1e-13)
    assert math.exp(log_gamma(0.5)) == pytest.approx(math.sqrt(math.pi),
                                                     rel=1e-13)


def test_log_gamma_half_integer_recursion():
    # Gamma(13/2) = 10395 sqrt(pi) / 64 by repeated (x)Gamma(x)
    want = 10395.0 * math.sqrt(math.pi) / 64.0
    assert math.exp(log_gamma(6.5)) == pytest.approx(want, rel=1e-13)


def test_log_gamma_against_stdlib():
    xs = np.concatenate([np.linspace(0.01, 2.0, 97),
                         np.linspace(2.0, 170.0, 85),
                         [1e3, 1e6]])
    for x in xs:
        assert log_gamma(float(x)) == pytest.approx(math.lgamma(x),
                                                    rel=1e-12, abs=1e-12)


def test_log_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.2)


@pytest.mark.filterwarnings("error")
def test_log_gamma_at_the_edges():
    # log Gamma exceeds the doubles past ~2.5e305: inf, with no exception
    # and no warning, alone or among other elements
    for x in (1e306, 1e308, math.inf):
        assert log_gamma(x) == math.inf
    assert math.isfinite(log_gamma(2.5e305))
    got = log_gamma(np.array([[1e306, 3.0], [math.nan, 1e308]]))
    assert got.shape == (2, 2)
    assert got[0, 0] == got[1, 1] == math.inf
    assert got[0, 1] == math.lgamma(3.0) and math.isnan(got[1, 0])
    # NaN gives NaN, a 0-d input a float; the smallest subnormal is finite,
    # log Gamma(x) = -log x - gamma x + ... there
    assert math.isnan(log_gamma(math.nan))
    assert type(log_gamma(np.array(2.5))) is float
    assert log_gamma(5e-324) == pytest.approx(-math.log(5e-324), rel=1e-15)
    with pytest.raises(DomainError):
        log_gamma(-math.inf)


def test_log_beta_values():
    assert math.exp(log_beta(2.0, 2.0)) == pytest.approx(1.0 / 6.0, rel=1e-13)
    assert math.exp(log_beta(1.0, 1.0)) == pytest.approx(1.0, rel=1e-13)
    assert math.exp(log_beta(3.0, 5.0)) == pytest.approx(1.0 / 105.0, rel=1e-13)


def _i0_by_angular_quadrature(x: float) -> float:
    th = np.linspace(0.0, 2.0 * math.pi, 20001)
    vals = np.exp(x * np.cos(th))
    return float(np.trapezoid(vals, th) / (2.0 * math.pi))


@pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0, 50.0])
def test_bessel_i0_matches_angular_integral(x):
    want = _i0_by_angular_quadrature(x)
    assert math.exp(bessel_i0_log(x)) == pytest.approx(want, rel=1e-9)


def test_bessel_i0_basics():
    assert bessel_i0_log(0.0) == 0.0
    assert math.isfinite(bessel_i0_log(600.0))
    # branch boundary continuity
    assert bessel_i0_log(30.0 - 1e-9) == pytest.approx(
        bessel_i0_log(30.0 + 1e-9), rel=1e-10)
    with pytest.raises(DomainError):
        bessel_i0_log(-1.0)


def test_bessel_i0_vectorized():
    xs = np.array([0.0, 1.0, 10.0, 100.0])
    out = bessel_i0_log(xs)
    assert out.shape == xs.shape
    assert np.all(np.diff(out) > 0)


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_extrapolate_harmonic_shift():
    seq = [1.0 + 1.0 / n for n in range(1, 16)]
    res = extrapolate_limit(seq)
    assert res.limit == pytest.approx(1.0, abs=5e-3)


def test_extrapolate_geometric_exact():
    seq = [2.0 + 3.0 * 0.6 ** n for n in range(12)]
    res = extrapolate_limit(seq)
    assert res.converged
    assert res.limit == pytest.approx(2.0, abs=1e-10)


def test_extrapolate_alternating_divergent_is_inconclusive():
    res = extrapolate_limit([(-1) ** n * n for n in range(10)])
    assert not res.converged


def test_extrapolate_constant():
    res = extrapolate_limit([5.0] * 8)
    assert res.converged and res.limit == 5.0


def test_extrapolate_requires_four_terms():
    with pytest.raises(DomainError):
        extrapolate_limit([1.0, 2.0, 3.0])


def test_extrapolation_result_type():
    res = extrapolate_limit([1.0, 1.5, 1.75, 1.875, 1.9375])
    assert isinstance(res, ExtrapolationResult)


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

def _fresh_python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_does_not_load_scipy_integrate():
    assert _fresh_python(
        "import sys, rlab; print('scipy.integrate' in sys.modules)") == "False"


_TABLE = '{"kind": "table", "s": [0, 0.3, 0.5, 0.8, 1], "p": [2, 3, 3, 2.5, 4]}'
_SCIPY_MODULES = ("[m for m in sys.modules"
                  " if m == 'scipy' or m.startswith('scipy.')]")


def test_import_does_not_load_scipy():
    # importing the package, then building a table geometry and its dual,
    # loads no scipy at all
    assert _fresh_python(
        "import sys, rlab; print([m for m in sys.modules"
        " if m.startswith(('scipy.special', 'scipy.interpolate'))]);"
        f" rlab.dual_complement(rlab.domain_from_spec({_TABLE!r}));"
        f" print({_SCIPY_MODULES})").splitlines() == ["[]", "[]"]


def test_node_rules_and_norm_reports_do_not_load_scipy_special():
    # the rule's sigmoids and the reports' logsumexp are numpy and libm
    assert _fresh_python(
        "import sys; import numpy as np;"
        " from rlab.numerics import tanh_sinh_indexed;"
        " from rlab.transform import _sum_report;"
        " [tanh_sinh_indexed(level) for level in range(1, 9)];"
        " _sum_report(np.array([0.0, -1.0]), np.array([1e-9, 0.0]), 'c');"
        " print('scipy.special' in sys.modules)") == "False"


def test_table_verbs_do_not_load_scipy():
    code = f"""
import os, sys
from rlab.cli import main
for argv in (["describe"], ["dual"], ["curvature", "--samples", "3"],
             ["compare-lemma", "--samples", "10"]):
    status = main(argv + ["--domain", {_TABLE!r}, "--out", os.devnull])
    print(argv[0], status, {_SCIPY_MODULES})
"""
    assert _fresh_python(code).splitlines() == [
        "describe 0 []", "dual 0 []", "curvature 0 []", "compare-lemma 0 []"]


def test_no_verb_loads_scipy():
    # log-Gamma is math.lgamma and the counterexample needs none, so
    # each of the ten verbs, on an egg, runs with no scipy module loaded
    code = f"""
import json, os, sys
from rlab.cli import main
egg = '{{"kind": "egg", "p": 3}}'
coeffs = lambda side: json.dumps({{"side": side, "entries": [
    {{"m1": 1, "m2": 2, "re": 1.0}}, {{"m1": 3, "m2": 0, "im": 0.5}}]}})
for argv in (["describe"], ["dual"], ["curvature", "--samples", "3"],
             ["leray-grid", "--max", "4"], ["leray-rays", "--max", "16"],
             ["laplace", "--coeffs", coeffs("hardy")],
             ["norms", "--coeffs", coeffs("bergman")],
             ["compare-lemma", "--samples", "10"],
             ["weight-equiv", "--samples", "2"]):
    status = main(argv + ["--domain", egg, "--out", os.devnull])
    print(argv[0], status, {_SCIPY_MODULES})
status = main(["counterexample", "--kmax", "10", "--out", os.devnull])
print("counterexample", status, {_SCIPY_MODULES})
"""
    assert _fresh_python(code).splitlines() == [
        f"{verb} 0 []" for verb in (
            "describe", "dual", "curvature", "leray-grid", "leray-rays",
            "laplace", "norms", "compare-lemma", "weight-equiv",
            "counterexample")]
