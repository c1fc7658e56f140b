"""Acceptance gate: nine end-to-end checks at fixed tolerances.

Each test prints a single pass/fail line (run pytest with -s or read the
captured output).  Oracles: Beta/Gamma closed forms, zeta(3/2), pi/2, a
frozen 3-D boundary quadrature table, and closed-form bracket constants.
"""

import math
import time

import numpy as np
import pytest

from rlab.diagnostics import (l1ball_counterexample, verify_comparison_lemma,
                              verify_weight_equivalence)
from rlab.geometry import (DomainGeometry, domain_from_exponent,
                           dual_complement, egg_profile, expression_profile,
                           tabulated_profile)
from rlab.leray import _leray_entries, boundedness_report, leray_norm_grid
from rlab.numerics import log_beta, tanh_sinh_indexed
from rlab.transform import (CoefficientGrid, bergman_nu_norm_sq, exp_norm_sq,
                            hardy_norm_sq, laplace_map)
from rlab.leray import moment_table

EX_PROFILE = "2+1/log(10/s)"
ZETA_3_2 = 2.6123753486854883


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def test_criterion_1_ball_exactness():
    t0 = time.perf_counter()
    ball = domain_from_exponent(egg_profile(2.0))
    grid = leray_norm_grid(ball, 20, 20)
    dev = float(np.max(np.abs(np.exp(grid.log_norm_sq) - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-6 and elapsed < 5.0
    _report("1 ball exactness", ok, f"max dev {dev:.3g}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_diagonal_ray_limits():
    t0 = time.perf_counter()
    ok = True
    details = []
    for p in (1.5, 2.0, 3.0, 4.0):
        geom = domain_from_exponent(egg_profile(p))
        dual = dual_complement(geom)
        val = float(np.exp(_leray_entries(geom, dual,
                                          np.array([200.0]),
                                          np.array([200.0]))[0]))
        want = p / (2.0 * math.sqrt(p - 1.0))
        rel = abs(val - want) / want
        details.append(f"p={p}: {rel:.3g}")
        ok = ok and rel < 0.02
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report("2 diagonal ray limits", ok,
            "; ".join(details) + f", {elapsed:.2f}s")
    assert ok


def test_criterion_3_moment_oracle():
    # quadrature vs the Beta closed form on the egg p = 3, degrees to 50
    geom = domain_from_exponent(egg_profile(3.0))
    _k, x, xm, w = tanh_sinh_indexed(7)
    logw = np.log(w)
    lr1 = geom._quadrature_log_r1(x, xm)
    lr2 = geom._quadrature_log_r2(x, xm)
    m = np.arange(51, dtype=float)
    worst = 0.0
    for m1 in range(51):
        t = logw + 2.0 * m1 * lr1
        mat = t[None, :] + 2.0 * m[:, None] * lr2[None, :]
        mx = mat.max(axis=1)
        log_i = mx + np.log(np.sum(np.exp(mat - mx[:, None]), axis=1))
        want = log_beta(2.0 * m1 / 3.0 + 1.0, 2.0 * m / 3.0 + 1.0)
        worst = max(worst, float(np.max(np.abs(np.expm1(log_i - want)))))
    ok = worst < 1e-9
    _report("3 moment oracle", ok, f"worst rel err {worst:.3g}")
    assert ok


def test_criterion_4_duality():
    geom = domain_from_exponent(expression_profile(EX_PROFILE))
    dual = dual_complement(geom)
    g = leray_norm_grid(geom, 40, 40, dual=dual)
    gd = leray_norm_grid(dual, 40, 40, dual=dual_complement(dual))
    grid_dev = float(np.max(np.abs(g.log_norm_sq - gd.log_norm_sq)))

    back = dual_complement(dual)
    s = np.linspace(1e-3, 1.0 - 1e-3, 257)
    prof_dev = max(float(np.max(np.abs(np.exp(back.log_r1(s)) - geom.r1(s)))),
                   float(np.max(np.abs(np.exp(back.log_r2(s)) - geom.r2(s)))))
    ok = grid_dev < 1e-8 and prof_dev < 1e-9
    _report("4 duality", ok,
            f"grid dev {grid_dev:.3g}, profile dev {prof_dev:.3g}")
    assert ok


def test_criterion_5_counterexample():
    t0 = time.perf_counter()
    rep = l1ball_counterexample(10_000)
    nu_f_sum = float(rep.bergman_nu_F_partial_sums[-1])
    a = abs(nu_f_sum - ZETA_3_2) / ZETA_3_2
    b = abs(float(rep.hardy_k_times_term[99]) - math.pi / 2.0) / (math.pi / 2.0)
    laws = rep.tail_law_estimates
    c = (abs(laws["omega_G"] + 1.5) < 0.05 and abs(laws["nu_F"] + 1.5) < 0.05
         and abs(laws["nu_G"] + 1.0) < 0.05 and abs(laws["hardy"] + 1.0) < 0.05)
    elapsed = time.perf_counter() - t0
    ok = a < 0.02 and b < 0.05 and c and elapsed < 10.0
    _report("5 counterexample series", ok,
            f"zeta dev {a:.3g}, pi/2 dev {b:.3g}, slopes ok {c}, "
            f"{elapsed:.2f}s")
    assert ok


def test_criterion_6_comparison_lemma():
    ok = True
    details = []
    for p in (1.25, 1.5, 4.0, 8.0):
        geom = domain_from_exponent(egg_profile(p))
        rep = verify_comparison_lemma(geom, n_samples=100_000, seed=0)
        details.append(f"p={p}: {rep.violations} violations")
        ok = ok and rep.violations == 0 and rep.passed
    _report("6 comparison inequality", ok, "; ".join(details))
    assert ok


# frozen 3-D boundary quadrature values for the ball (see test_transform)
BALL_EXP_ORACLE = {
    (2.0, 0.5): 1.2199331442130563,
    (5.0, 0.2): 133.54941518506274,
    (10.0, 0.5): 1061374.3346281939,
    (20.0, 0.8): 183842452040741.75,
    (35.0, 0.35): 8.5212505634945e+26,
}


def test_criterion_7_weight_equivalence():
    ball = domain_from_exponent(egg_profile(2.0))
    rep = verify_weight_equivalence(
        ball, t_samples=tuple(np.round(np.arange(0.1, 0.95, 0.1), 2)))
    # the weight is sampled for r from 2 to 50
    assert rep.r_values[0] == 2.0 and rep.r_values[-1] == 50.0
    stable = rep.ratio < 1.5

    worst = 0.0
    for (r, t), want in BALL_EXP_ORACLE.items():
        got = exp_norm_sq(ball, r, t)
        worst = max(worst, abs(math.expm1(got - math.log(want))))
    ok = stable and worst < 1e-6
    _report("7 weight equivalence", ok,
            f"ratio {rep.ratio:.4f}, worst spot dev {worst:.3g}")
    assert ok


def test_criterion_8_isomorphism_bracket():
    geom = domain_from_exponent(egg_profile(3.0))
    table = moment_table(geom, 30, 30)
    grid = leray_norm_grid(geom, 30, 30)
    sup_norm_sq = float(np.exp(grid.log_norm_sq).max())

    # bracket endpoints: sqrt(pi)/e^2 c^{3/2} below and
    # 5^3 sqrt(e) / (2^{15/2} pi) C^{3/2} sup||L||^2 above, with
    # 1/c = sup of the support function on the unit sphere = 2^{1/6}
    # (conjugate exponent 3/2) and 1/C = inf = 1 for this egg
    c_low = math.sqrt(math.pi) / math.e ** 2 * 2.0 ** (-0.25)
    c_high = (125.0 * math.sqrt(math.e) / (2.0 ** 7.5 * math.pi)
              * sup_norm_sq)

    rng = np.random.default_rng(42)
    ratios_model = []
    ratios_exact = []
    for _ in range(100):
        n = rng.integers(1, 9)
        keys = {(int(rng.integers(0, 31)), int(rng.integers(0, 31)))
                for _ in range(n)}
        entries = {k: complex(rng.normal(), rng.normal()) for k in keys}
        f = CoefficientGrid("hardy", entries)
        h = hardy_norm_sq(geom, f, table)
        image = laplace_map(geom, f, table)
        beta = CoefficientGrid("bergman", dict(image.entries))
        nu_model = bergman_nu_norm_sq(geom, beta,
                                      convention="paper_equivalent")
        nu_exact = bergman_nu_norm_sq(geom, beta)
        ratios_model.append(nu_model.value / h.value)
        ratios_exact.append(nu_exact.value / h.value)

    width = max(ratios_exact) / min(ratios_exact)
    contained = (min(ratios_model) >= c_low
                 and max(ratios_model) <= c_high)
    ok = width < 1e3 and contained
    _report("8 isomorphism bracket", ok,
            f"width ratio {width:.4g}, model ratios "
            f"[{min(ratios_model):.4f}, {max(ratios_model):.4f}] vs "
            f"bracket [{c_low:.4f}, {c_high:.4f}]")
    assert ok


def test_criterion_9_unboundedness_signal():
    s = np.linspace(0.0, 0.999, 400)
    p = 2.0 + 10.0 / np.maximum(1.0 - s, 0.005) ** 6
    geom = domain_from_exponent(tabulated_profile(s, p))
    dual = dual_complement(geom)
    grid = leray_norm_grid(geom, 128, 128, dual=dual)
    sup32 = float(np.exp(grid.log_norm_sq[:33, :33]).max())
    sup128 = float(np.exp(grid.log_norm_sq).max())
    rep = boundedness_report(geom, 64)
    ok = sup128 > 3.0 * sup32 and rep.verdict == "unbounded-consistent"
    _report("9 unboundedness signal", ok,
            f"sup32 {sup32:.4g}, sup128 {sup128:.4g}, verdict {rep.verdict}")
    assert ok
