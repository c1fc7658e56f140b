"""Batch command-line front end.

Verbs: describe, dual, curvature, leray-grid, leray-rays, laplace, norms,
compare-lemma, weight-equiv, counterexample.

Exit codes: 0 success, 1 usage error, 2 domain hypothesis not met,
3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import diagnostics, geometry, leray, transform
from .errors import HypothesisNotMet, RlabError
from .reporting import emit_csv, emit_json, write_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_NONCONVERGENCE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_arg(value: str) -> str:
    """Inline JSON, or @path to read the JSON from a file."""
    if value.startswith("@"):
        with open(value[1:], "r", encoding="utf-8") as fh:
            return fh.read()
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="rlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="verb", metavar="verb")

    def common(p, domain=True):
        if domain:
            p.add_argument("--domain", required=True,
                           help="domain spec JSON, or @file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("describe", help="profile, limits, membership flags")
    common(p)
    p = sub.add_parser("dual", help="describe the dual-complement domain")
    common(p)
    p = sub.add_parser("curvature", help="principal curvatures on an s grid")
    common(p)
    p.add_argument("--samples", type=int, default=99)
    p = sub.add_parser("leray-grid", help="log squared norms up to --max")
    common(p)
    p.add_argument("--max", type=int, default=20)
    p = sub.add_parser("leray-rays", help="ray sequences and boundedness verdict")
    common(p)
    p.add_argument("--max", type=int, default=64)
    p.add_argument("--rays", default="0.25,1,4",
                   help="comma-separated degree ratios")
    p = sub.add_parser("laplace", help="transform a hardy coefficient grid")
    common(p)
    p.add_argument("--coeffs", required=True, help="coefficient JSON, or @file")
    p = sub.add_parser("norms", help="norms of a coefficient grid")
    common(p)
    p.add_argument("--coeffs", required=True, help="coefficient JSON, or @file")
    p = sub.add_parser("compare-lemma", help="sampled comparison inequality")
    common(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p = sub.add_parser("weight-equiv", help="exponential weight stability")
    common(p)
    p.add_argument("--samples", type=int, default=5,
                   help="number of t samples in (0, 1)")
    p = sub.add_parser("counterexample",
                       help="witness series on the |z1|+|z2|<1 ball")
    common(p, domain=False)
    p.add_argument("--kmax", type=int, default=10_000)
    return parser


def _geom(args) -> geometry.DomainGeometry:
    return geometry.domain_from_spec(_load_arg(args.domain))


def _coeffs(args) -> transform.CoefficientGrid:
    import json
    return transform.CoefficientGrid.from_json(json.loads(_load_arg(args.coeffs)))


def _max_degrees(grid: transform.CoefficientGrid):
    m1 = max((k[0] for k in grid.entries), default=0)
    m2 = max((k[1] for k in grid.entries), default=0)
    return m1, m2


def _emit(args, header, rows, json_obj) -> None:
    if args.format == "json":
        write_text(emit_json(json_obj), args.out)
    else:
        write_text(emit_csv(header, rows), args.out)


# ---------------------------------------------------------------------------
# verb implementations
# ---------------------------------------------------------------------------

def _run_describe(args) -> int:
    geom = _geom(args)
    if args.verb == "dual":
        geom = geometry.dual_complement(geom)
    info = geom.describe()
    rows = [(k, v) for k, v in sorted(info.items())]
    _emit(args, ["field", "value"], rows, info)
    return EXIT_OK


def _run_curvature(args) -> int:
    geom = _geom(args)
    ss = np.linspace(0.0, 1.0, args.samples + 2)[1:-1]
    rows = []
    for s in ss:
        c = geometry.curvatures_at(geom, float(s))
        rows.append((float(s), c.kappa1, c.kappa2, c.kappa3, c.p_recovered))
    header = ["s", "kappa1", "kappa2", "kappa3", "p_recovered"]
    _emit(args, header, rows,
          [dict(zip(header, r)) for r in rows])
    return EXIT_OK


def _run_leray_grid(args) -> int:
    geom = _geom(args)
    grid = leray.leray_norm_grid(geom, args.max, args.max)
    rows = [(m1, m2, float(grid.log_norm_sq[m1, m2]), float(grid.err[m1, m2]))
            for m1 in range(args.max + 1) for m2 in range(args.max + 1)]
    _emit(args, ["m1", "m2", "log_norm_sq", "err_est"], rows,
          {"M": args.max,
           "entries": [{"m1": r[0], "m2": r[1], "log_norm_sq": r[2],
                        "err_est": r[3]} for r in rows]})
    return EXIT_OK if bool(grid.converged.all()) else EXIT_NONCONVERGENCE


def _run_leray_rays(args) -> int:
    geom = _geom(args)
    rays = [float(x) for x in args.rays.split(",") if x.strip()]
    rep = leray.boundedness_report(geom, args.max, rays)
    rows = []
    for d in rep.rays:
        for n, v in zip(d.degrees, d.values):
            rows.append((d.x, n, v, d.extrapolated,
                         d.predicted if d.predicted is not None else math.nan,
                         d.rel_dev if d.rel_dev is not None else math.nan))
    obj = {"verdict": rep.verdict, "evidence": rep.evidence,
           "sup_small": rep.sup_small, "sup_full": rep.sup_full,
           "argmax": list(rep.argmax), "growth_ratio": rep.growth_ratio,
           "rays": [{"x": d.x, "degrees": list(d.degrees),
                     "values": list(d.values),
                     "extrapolated": d.extrapolated,
                     "predicted": d.predicted, "rel_dev": d.rel_dev,
                     "converged": d.converged} for d in rep.rays]}
    _emit(args, ["x", "n", "norm_sq", "extrapolated", "predicted", "rel_dev"],
          rows, obj)
    # an inconclusive verdict means the numeric evidence did not settle
    if rep.verdict == "inconclusive":
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _run_laplace(args) -> int:
    geom = _geom(args)
    grid = _coeffs(args)
    table = leray.moment_table(geom, *_max_degrees(grid))
    image = transform.laplace_map(geom, grid, table)
    rows = [(k[0], k[1], v.real, v.imag)
            for k, v in sorted(image.entries.items())]
    _emit(args, ["m1", "m2", "re", "im"], rows, image.to_json())
    return EXIT_OK


def _run_norms(args) -> int:
    geom = _geom(args)
    grid = _coeffs(args)
    results = {}
    if grid.side == "hardy":
        table = leray.moment_table(geom, *_max_degrees(grid))
        hn = transform.hardy_norm_sq(geom, grid, table)
        image = transform.laplace_map(geom, grid, table)
        beta = transform.CoefficientGrid(
            "bergman", dict(image.entries))
        nn = transform.bergman_nu_norm_sq(geom, beta)
        results["hardy_norm_sq"] = hn
        results["laplace_image_nu_norm_sq"] = nn
    else:
        beta = grid if grid.side == "bergman" else transform.CoefficientGrid(
            "bergman", dict(grid.entries))
        results["nu_norm_sq"] = transform.bergman_nu_norm_sq(geom, beta)
        results["omega_norm_sq"] = transform.bergman_omega_norm_sq(geom, beta)
    rows = [(name, rep.value, rep.err_est, rep.convention)
            for name, rep in results.items()]
    _emit(args, ["norm", "value", "err_est", "convention"], rows,
          {name: {"value": rep.value, "log_value": rep.log_value,
                  "err_est": rep.err_est, "convention": rep.convention}
           for name, rep in results.items()})
    return EXIT_OK


def _run_compare_lemma(args) -> int:
    geom = _geom(args)
    rep = diagnostics.verify_comparison_lemma(geom, args.samples, args.seed)
    obj = {"grid_size": rep.grid_size, "empirical_min": rep.empirical_min,
           "empirical_max": rep.empirical_max, "theory_C1": rep.theory_C1,
           "theory_C2": rep.theory_C2, "p_l": rep.p_l, "p_g": rep.p_g,
           "violations": rep.violations, "pass": rep.passed,
           "seed": rep.seed}
    _emit(args, ["field", "value"], sorted(obj.items()), obj)
    return EXIT_OK if rep.passed else EXIT_HYPOTHESIS


def _run_weight_equiv(args) -> int:
    geom = _geom(args)
    ts = tuple(np.linspace(0.0, 1.0, args.samples + 2)[1:-1])
    rep = diagnostics.verify_weight_equivalence(geom, t_samples=ts)
    obj = {"r_values": list(rep.r_values), "t_values": list(rep.t_values),
           "rho_min": rep.rho_min, "rho_max": rep.rho_max,
           "ratio": rep.ratio, "factor": rep.factor, "pass": rep.passed}
    rows = [("rho_min", rep.rho_min), ("rho_max", rep.rho_max),
            ("ratio", rep.ratio), ("pass", rep.passed)]
    _emit(args, ["field", "value"], rows, obj)
    return EXIT_OK if rep.passed else EXIT_HYPOTHESIS


def _run_counterexample(args) -> int:
    rep = diagnostics.l1ball_counterexample(args.kmax)
    thin = max(1, args.kmax // 1000)
    obj = rep.as_dict(thin=thin)
    rows = [(int(k), hs, nf, ng, og)
            for k, hs, nf, ng, og in zip(
                obj["k"], obj["hardy_partial_sums"],
                obj["bergman_nu_F_partial_sums"],
                obj["bergman_nu_G_partial_sums"],
                obj["bergman_omega_G_partial_sums"])]
    _emit(args, ["k", "hardy_partial", "nu_F_partial", "nu_G_partial",
                 "omega_G_partial"], rows, obj)
    return EXIT_OK


_VERBS = {
    "describe": _run_describe,
    "dual": _run_describe,
    "curvature": _run_curvature,
    "leray-grid": _run_leray_grid,
    "leray-rays": _run_leray_rays,
    "laplace": _run_laplace,
    "norms": _run_norms,
    "compare-lemma": _run_compare_lemma,
    "weight-equiv": _run_weight_equiv,
    "counterexample": _run_counterexample,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb is None:
            raise _UsageError("a verb is required")
        return _VERBS[args.verb](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n\n")
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except HypothesisNotMet as exc:
        sys.stderr.write(f"hypothesis not met: {exc}\n")
        return EXIT_HYPOTHESIS
    except RlabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
