"""The benchmark's workloads.

Each workload has three parts:

  inputs(seed, tiny)  plain data made from the seed: coefficient amplitudes,
                      comparison sampling seeds and tabulated-profile values.
                      The seed never changes the amount of work; tiny
                      shrinks it for the smoke test.
  setup(inputs)       the geometries and duals the jobs share (what a user
                      builds once before a sweep).
  jobs(inputs, state) the job list, run one job at a time.  Each job returns
                      (key outputs, problems): the values a speed-up must not
                      change, and every failed output check.  The checks do
                      not depend on the seed.

Every job is short (well under two seconds, except the omega norms), so one
run repeats it several times; see run.py for why that matters.

rlab is imported inside functions, so a fresh process that imports this
module can time `import rlab` on its own.
"""

from __future__ import annotations

import json
import math

import numpy as np

ZETA_3_2 = 2.612375348685488
EXPR = "2+1/log(10/s)"


def _expr(src):
    return {"kind": "expr", "p_check": src}


def _egg(p):
    return {"kind": "egg", "p": p}


def _table(rng, n):
    s = np.linspace(0.0, 1.0, n)
    return {"kind": "table", "s": s.tolist(),
            "p": (2.0 + 2.0 * rng.uniform(size=n)).tolist()}


def _amplitudes(rng, keys):
    return [[int(m1), int(m2), float(re), float(im)]
            for (m1, m2), (re, im) in zip(keys, rng.normal(size=(len(keys), 2)))]


def _grid(side, amps):
    from rlab import transform
    return transform.CoefficientGrid(
        side, {(m1, m2): complex(re, im) for m1, m2, re, im in amps})


def _box(m):
    return [(i, j) for i in range(m + 1) for j in range(m + 1)]


def _problem(cond, text):
    return [] if cond else [text]


def _pair_setup(specs):
    from rlab import geometry
    geoms = [geometry.domain_from_spec(spec) for spec in specs]
    return {"geoms": geoms, "duals": [geometry.dual_complement(g) for g in geoms]}


# ---------------------------------------------------------------------------
# radial-profiles: non-constant profiles, so every radius is a quadrature
# ---------------------------------------------------------------------------

def radial_inputs(seed, tiny):
    rng = np.random.default_rng(seed)
    hardy = 4 if tiny else 15
    return {"table": _table(rng, 9),
            "compare_seed": int(rng.integers(2 ** 31)),
            "compare_samples": 20 if tiny else 300,
            "compare_side": 3 if tiny else 9,
            "curvature_points": 9 if tiny else 999,
            "profiles": [_expr(EXPR), _table(rng, 5)],
            "coeffs": [_amplitudes(rng, _box(hardy)) for _ in range(2)],
            "bound_M": 16 if tiny else 32,
            "grid_M": 16 if tiny else 64,
            "dual_M": 8 if tiny else 16}


def radial_setup(inp):
    from rlab import geometry
    return {"compare": geometry.domain_from_spec(_expr(EXPR)),
            "expr": geometry.domain_from_spec(_expr(EXPR)),
            "table": geometry.domain_from_spec(inp["table"]),
            **_pair_setup(inp["profiles"])}


def _compare_sample_job(geom, n, side, seed):
    # the sampling of verify_comparison_lemma at a size one job can repeat
    # (the verb's fixed 4 x 81^2 corner grid takes over ten seconds on this
    # profile): uniform draws of (s, t, theta1, theta2) plus the four angle
    # corners on a side x side (s, t) grid, checked against the same bracket
    from rlab import diagnostics
    rng = np.random.default_rng(seed)
    s, t = rng.uniform(0.0, 1.0, (2, n))
    th1, th2 = rng.uniform(0.0, 0.5 * math.pi, (2, n))
    g = np.linspace(0.005, 0.995, side)
    sg, tg = [a.ravel() for a in np.meshgrid(g, g)]
    half_pi = 0.5 * math.pi
    corners = [(0.0, 0.0), (0.0, half_pi), (half_pi, 0.0), (half_pi, half_pi)]
    s = np.concatenate([s] + [sg] * 4)
    t = np.concatenate([t] + [tg] * 4)
    th1 = np.concatenate([th1] + [np.full_like(sg, c[0]) for c in corners])
    th2 = np.concatenate([th2] + [np.full_like(sg, c[1]) for c in corners])

    one_minus_fb = 1.0 - (np.sqrt(s * t) * np.cos(th1)
                          + np.sqrt((1.0 - s) * (1.0 - t)) * np.cos(th2))
    one_minus_fo = 1.0 - diagnostics.F_omega(geom, s, t, th1, th2)
    keep = one_minus_fb > 1e-12
    ratio = one_minus_fo[keep] / one_minus_fb[keep]

    pvals = geom.p_at(np.linspace(1e-6, 1 - 1e-6, 1001))
    p_l, p_g = float(pvals.min()), float(pvals.max())
    c_low = p_l / (p_g * diagnostics.egg_comparison_constant(p_l))
    q_l, q_g = p_g / (p_g - 1.0), p_l / (p_l - 1.0)
    c_high = (q_g / q_l) * diagnostics.egg_comparison_constant(q_l)
    violations = int(np.sum(ratio < c_low - 1e-9) + np.sum(ratio > c_high + 1e-9))
    out = {"points": int(s.size), "min": float(ratio.min()),
           "max": float(ratio.max()), "violations": violations}
    return out, _problem(violations == 0, f"{violations} comparison violations")


def _curvature_job(geom, points):
    # the calls the curvature verb makes
    from rlab import geometry
    ss = np.linspace(0.0, 1.0, points + 2)[1:-1]
    curv = [geometry.curvatures_at(geom, float(s)) for s in ss]
    kappa = np.array([[c.kappa1, c.kappa2, c.kappa3] for c in curv])
    p_rec = np.array([c.p_recovered for c in curv])
    dev = float(np.max(np.abs(p_rec / geom.p_at(ss) - 1.0)))
    out = {"kappa_sum": float(kappa.sum()), "p_recovered_dev": dev}
    ok = bool(np.all(np.isfinite(kappa)) and np.all(kappa > 0) and dev < 1e-9)
    return out, _problem(ok, f"curvatures non-finite or p recovered off by {dev:.3g}")


def _boundedness_job(geom, M):
    from rlab import leray
    rep = leray.boundedness_report(geom, M)
    out = {"verdict": rep.verdict, "sup_full": rep.sup_full,
           "growth": rep.growth_ratio}
    return out, _problem(math.isfinite(rep.sup_full) and rep.sup_full > 0,
                         "grid sup not finite and positive")


def _norm_grid_job(geom, dual, M, M_dual, smooth):
    # the dual's grid, built against the dual of the dual, must match the
    # primal grid (acceptance criterion 4)
    from rlab import geometry, leray
    grid = leray.leray_norm_grid(geom, M, M, dual=dual)
    back = leray.leray_norm_grid(dual, M_dual, M_dual,
                                 dual=geometry.dual_complement(dual))
    dev = float(np.max(np.abs(back.log_norm_sq
                              - grid.log_norm_sq[:M_dual + 1, :M_dual + 1])))
    conv = float(np.mean(grid.converged))
    out = {"sup": float(np.exp(grid.log_norm_sq.max())), "dual_dev": dev,
           "converged_frac": conv}
    problems = _problem(dev < 1e-8, f"primal and dual grids differ by {dev:.3g}")
    if smooth:
        problems += _problem(conv == 1.0, f"only {conv:.3g} of entries converged")
    return out, problems


def _hardy_job(geom, dual, amps, smooth):
    # the calls the norms verb makes on a hardy grid, plus the inverse map
    from rlab import leray, transform
    a = _grid("hardy", amps)
    M = max(max(k) for k in a.entries)
    table = leray.moment_table(geom, M, M)
    hardy = transform.hardy_norm_sq(geom, a, table)
    image = transform.laplace_map(geom, a, table)
    back = transform.invert_laplace(geom, image, table)
    nu = transform.bergman_nu_norm_sq(
        geom, transform.CoefficientGrid("bergman", dict(image.entries)), dual=dual)
    dev = max(abs(back.entries[k] - v) / abs(v) for k, v in a.entries.items())
    conv = float(np.mean(table.converged))
    out = {"hardy": hardy.value, "nu": nu.value, "inverse_dev": dev,
           "converged_frac": conv}
    problems = _problem(dev < 1e-10, f"invert_laplace is off by {dev:.3g}")
    problems += _problem(hardy.value > 0 and nu.value > 0
                         and math.isfinite(hardy.value + nu.value),
                         "norms not finite and positive")
    if smooth:
        problems += _problem(conv == 1.0, f"only {conv:.3g} of moments converged")
    return out, problems


def radial_jobs(inp, st):
    n = inp["curvature_points"]
    jobs = [("compare_sample", lambda: _compare_sample_job(
                st["compare"], inp["compare_samples"], inp["compare_side"],
                inp["compare_seed"])),
            ("curvature_expr", lambda: _curvature_job(st["expr"], n)),
            ("curvature_table", lambda: _curvature_job(st["table"], n))]
    # each profile and its dual are reused by three jobs in this order, so
    # the first one pays for the radial nodes.  Moment convergence is checked
    # on the expression profiles; the tabulated profile is only C1
    # (monotone cubic), its entries do not settle between the two levels,
    # and its converged fraction is a key output instead of a check
    for k, spec in enumerate(inp["profiles"]):
        g, d = st["geoms"][k], st["duals"][k]
        smooth = spec["kind"] == "expr"
        jobs += [
            (f"boundedness_{k}", lambda g=g: _boundedness_job(g, inp["bound_M"])),
            (f"norm_grid_{k}", lambda g=g, d=d, s=smooth: _norm_grid_job(
                g, d, inp["grid_M"], inp["dual_M"], s)),
            (f"hardy_{k}", lambda g=g, d=d, k=k, s=smooth: _hardy_job(
                g, d, inp["coeffs"][k], s))]
    return jobs


# ---------------------------------------------------------------------------
# bergman-weights: egg domains only, so radial quadrature is bypassed
# ---------------------------------------------------------------------------

def bergman_inputs(seed, tiny):
    rng = np.random.default_rng(seed)
    m = 1 if tiny else 3
    # both omega grids reach the same degree bound m + m
    sparse = [(0, 0), (m, m), (1, m - 1 if m > 1 else 0)]
    return {"eggs": [_egg(2.0), _egg(3.0), _egg(4.0)],
            "omega_full": _amplitudes(rng, _box(m)),
            "omega_sparse": _amplitudes(rng, sparse),
            "grid_M": 20 if tiny else 200,
            "compare_seed": int(rng.integers(2 ** 31)),
            "compare_samples": 1000 if tiny else 100_000,
            "kmax": 2000 if tiny else 100_000}


def bergman_setup(inp):
    return _pair_setup(inp["eggs"])


def _omega_job(geom, dual, amps):
    from rlab import transform
    beta = _grid("bergman", amps)
    omega = transform.bergman_omega_norm_sq(geom, beta)
    nu = transform.bergman_nu_norm_sq(geom, beta, dual=dual)
    out = {"omega": omega.value, "nu": nu.value}
    # every monomial's omega term exceeds its nu term (test_omega_dominates_nu)
    return out, _problem(math.isfinite(omega.value) and omega.value > nu.value > 0,
                         "omega norm does not dominate the nu norm")


def _nu_job(geoms, duals, amps):
    from rlab import transform
    beta = _grid("bergman", amps)
    vals = [transform.bergman_nu_norm_sq(g, beta, dual=d).value
            for g, d in zip(geoms, duals)]
    return {"nu": vals}, _problem(all(v > 0 and math.isfinite(v) for v in vals),
                                  "nu norms not finite and positive")


def _weight_equiv_job(geom):
    from rlab import diagnostics
    rep = diagnostics.verify_weight_equivalence(geom)
    return ({"rho_min": rep.rho_min, "rho_max": rep.rho_max, "ratio": rep.ratio},
            _problem(rep.passed, f"weight ratio {rep.ratio:.4g} over the factor"))


def _closed_grid_job(geoms, duals, M):
    from rlab import geometry, leray
    out, problems = {}, []
    for k, (g, d) in enumerate(zip(geoms, duals)):
        grid = leray.leray_norm_grid(g, M, M, dual=d)
        back = leray.leray_norm_grid(d, M, M, dual=geometry.dual_complement(d))
        dev = float(np.max(np.abs(back.log_norm_sq - grid.log_norm_sq)))
        out[f"sup_{k}"] = float(np.exp(grid.log_norm_sq.max()))
        out[f"dual_dev_{k}"] = dev
        problems += _problem(dev < 1e-8, f"egg {k}: dual grid off by {dev:.3g}")
        if g.profile.constant_p == 2.0:
            ball = float(np.max(np.abs(np.exp(grid.log_norm_sq) - 1.0)))
            out["ball_dev"] = ball
            problems += _problem(ball < 1e-6, f"ball norms off 1 by {ball:.3g}")
    return out, problems


def _compare_job(geom, samples, seed):
    from rlab import diagnostics
    rep = diagnostics.verify_comparison_lemma(geom, samples, seed)
    out = {"grid_size": rep.grid_size, "min": rep.empirical_min,
           "max": rep.empirical_max, "violations": rep.violations}
    return out, _problem(rep.violations == 0 and rep.passed,
                         f"{rep.violations} compare-lemma violations")


def _counterexample_job(kmax):
    from rlab import diagnostics
    rep = diagnostics.l1ball_counterexample(kmax)
    nu_f = float(rep.bergman_nu_F_partial_sums[-1])
    dev = abs(nu_f - ZETA_3_2) / ZETA_3_2
    out = {"nu_F_sum": nu_f, "hardy_sum": float(rep.hardy_partial_sums[-1]),
           "slopes": rep.tail_law_estimates}
    return out, _problem(dev < 0.02, f"nu_F sum {nu_f:.6g} is {dev:.3g} off zeta(3/2)")


def bergman_jobs(inp, st):
    g, d = st["geoms"], st["duals"]
    # one geometry (p = 3) gets two omega calls at the same degree bound
    return [
        ("omega_full", lambda: _omega_job(g[1], d[1], inp["omega_full"])),
        ("omega_sparse", lambda: _omega_job(g[1], d[1], inp["omega_sparse"])),
        ("nu_norms", lambda: _nu_job(g, d, inp["omega_full"])),
        ("weight_equiv", lambda: _weight_equiv_job(g[0])),
        ("closed_grids", lambda: _closed_grid_job(g, d, inp["grid_M"])),
        ("compare_lemma", lambda: _compare_job(
            g[2], inp["compare_samples"], inp["compare_seed"])),
        ("counterexample", lambda: _counterexample_job(inp["kmax"])),
    ]


# ---------------------------------------------------------------------------
# registry and the probe pass
# ---------------------------------------------------------------------------

WORKLOADS = {
    "radial-profiles": (radial_inputs, radial_setup, radial_jobs),
    "bergman-weights": (bergman_inputs, bergman_setup, bergman_jobs),
}

CLI_PROBES = [
    ["describe", "--domain", json.dumps(_expr(EXPR))],
    ["dual", "--domain", json.dumps(_egg(3.0))],
    ["curvature", "--domain", json.dumps(_egg(3.0)), "--samples", "3"],
    ["leray-grid", "--domain", json.dumps(_egg(2.0)), "--max", "4"],
    ["leray-rays", "--domain", json.dumps(_egg(3.0)), "--max", "16"],
    ["laplace", "--domain", json.dumps(_egg(2.0)), "--coeffs",
     '{"side": "hardy", "entries": [{"m1": 1, "m2": 1, "re": 1.0}]}'],
    ["norms", "--domain", json.dumps(_egg(2.0)), "--coeffs",
     '{"side": "hardy", "entries": [{"m1": 1, "m2": 2, "re": 1.0}]}'],
    ["compare-lemma", "--domain", json.dumps(_egg(3.0)), "--samples", "10"],
    ["weight-equiv", "--domain", json.dumps(_egg(2.0)), "--samples", "1"],
    ["counterexample", "--kmax", "10"],
]


def probe(out_path):
    """Fixed tiny calls, the same on every workload, that reach every traced
    layer, so each layer metric is measured on every workload: one call of
    each CLI verb in this process, and an omega norm of an empty grid (any
    non-empty grid costs seconds).  Returns the problems: a verb that exits
    non-zero or writes output that is not JSON."""
    from rlab import cli, geometry, transform
    problems = []
    for argv in CLI_PROBES:
        code = cli.main(argv + ["--format", "json", "--out", str(out_path)])
        try:
            json.loads(out_path.read_text())
        except (OSError, ValueError):
            problems.append(f"{argv[0]}: output is not JSON")
        problems += _problem(code == 0, f"{argv[0]}: exit code {code}")
        out_path.unlink(missing_ok=True)
    transform.bergman_omega_norm_sq(geometry.domain_from_spec(_egg(3.0)),
                                    transform.CoefficientGrid("bergman", {}))
    return problems
