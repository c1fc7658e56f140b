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

    def verb(name, summary, domain=True):
        p = sub.add_parser(name, help=summary)
        if domain:
            p.add_argument("--domain", required=True,
                           help="domain spec JSON, or @file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    verb("describe", "profile, limits, membership flags")
    verb("dual", "describe the dual-complement domain")
    p = verb("curvature", "principal curvatures on an s grid")
    p.add_argument("--samples", type=int, default=99)
    p = verb("leray-grid", "log squared norms up to --max")
    p.add_argument("--max", type=int, default=20)
    p = verb("leray-rays", "ray sequences and boundedness verdict")
    p.add_argument("--max", type=int, default=64)
    p.add_argument("--rays", default="0.25,1,4",
                   help="comma-separated degree ratios")
    p = verb("laplace", "transform a hardy coefficient grid")
    p.add_argument("--coeffs", required=True, help="coefficient JSON, or @file")
    p = verb("norms", "norms of a coefficient grid")
    p.add_argument("--coeffs", required=True, help="coefficient JSON, or @file")
    p = verb("compare-lemma", "sampled comparison inequality")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p = verb("weight-equiv", "exponential weight stability")
    p.add_argument("--samples", type=int, default=5,
                   help="number of t samples in (0, 1)")
    p = verb("counterexample", "witness series on the |z1|+|z2|<1 ball",
             domain=False)
    p.add_argument("--kmax", type=int, default=10_000)
    return parser


def _coeffs(args) -> transform.CoefficientGrid:
    return transform.CoefficientGrid.from_json(_load_arg(args.coeffs))


def _max_degrees(grid: transform.CoefficientGrid):
    return [max((k[i] for k in grid.entries), default=0) for i in (0, 1)]


# ---------------------------------------------------------------------------
# verb implementations: each takes (args, geom) and returns
# (csv header, csv rows, json object, exit code); main writes the output
# ---------------------------------------------------------------------------

def _run_describe(args, geom):
    if args.verb == "dual":
        geom = geometry.dual_complement(geom)
    info = geom.describe()
    return ["field", "value"], sorted(info.items()), info, EXIT_OK


def _run_curvature(args, geom):
    ss = np.linspace(0.0, 1.0, args.samples + 2)[1:-1]
    rows = []
    for s in ss:
        c = geometry.curvatures_at(geom, float(s))
        rows.append((float(s), c.kappa1, c.kappa2, c.kappa3, c.p_recovered))
    header = ["s", "kappa1", "kappa2", "kappa3", "p_recovered"]
    return header, rows, [dict(zip(header, r)) for r in rows], EXIT_OK


def _run_leray_grid(args, geom):
    grid = leray.leray_norm_grid(geom, args.max, args.max)
    rows = [(m1, m2, v, e) for m1, (vs, es) in enumerate(
                zip(grid.log_norm_sq.tolist(), grid.err.tolist()))
            for m2, (v, e) in enumerate(zip(vs, es))]
    header = ["m1", "m2", "log_norm_sq", "err_est"]
    obj = {"M": args.max, "entries": [dict(zip(header, r)) for r in rows]}
    code = EXIT_OK if bool(grid.converged.all()) else EXIT_NONCONVERGENCE
    return header, rows, obj, code


def _run_leray_rays(args, geom):
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
    # an inconclusive verdict means the numeric evidence did not settle
    code = EXIT_NONCONVERGENCE if rep.verdict == "inconclusive" else EXIT_OK
    return (["x", "n", "norm_sq", "extrapolated", "predicted", "rel_dev"],
            rows, obj, code)


def _run_laplace(args, geom):
    grid = _coeffs(args)
    table = leray.moment_table(geom, *_max_degrees(grid))
    image = transform.laplace_map(geom, grid, table)
    rows = [(k[0], k[1], v.real, v.imag)
            for k, v in sorted(image.entries.items())]
    return ["m1", "m2", "re", "im"], rows, image.to_json(), EXIT_OK


def _run_norms(args, geom):
    grid = _coeffs(args)
    results = {}
    if grid.side == "hardy":
        table = leray.moment_table(geom, *_max_degrees(grid))
        results["hardy_norm_sq"] = transform.hardy_norm_sq(geom, grid, table)
        results["laplace_image_nu_norm_sq"] = (
            transform.laplace_image_nu_norm_sq(geom, grid, table))
    else:
        beta = grid if grid.side == "bergman" else transform.CoefficientGrid(
            "bergman", dict(grid.entries))
        results["nu_norm_sq"] = transform.bergman_nu_norm_sq(geom, beta)
        results["omega_norm_sq"] = transform.bergman_omega_norm_sq(geom, beta)
    # value and err_est may overflow; log_value and rel_err do not
    rows = [(name, rep.value, rep.err_est, rep.convention, rep.log_value,
             rep.rel_err) for name, rep in results.items()]
    obj = {name: {"value": rep.value, "log_value": rep.log_value,
                  "err_est": rep.err_est, "rel_err": rep.rel_err,
                  "convention": rep.convention}
           for name, rep in results.items()}
    return (["norm", "value", "err_est", "convention", "log_value",
             "rel_err"], rows, obj, EXIT_OK)


def _run_compare_lemma(args, geom):
    rep = diagnostics.verify_comparison_lemma(geom, args.samples, args.seed)
    obj = {"grid_size": rep.grid_size, "empirical_min": rep.empirical_min,
           "empirical_max": rep.empirical_max, "theory_C1": rep.theory_C1,
           "theory_C2": rep.theory_C2, "p_l": rep.p_l, "p_g": rep.p_g,
           "violations": rep.violations, "pass": rep.passed,
           "seed": rep.seed}
    code = EXIT_OK if rep.passed else EXIT_HYPOTHESIS
    return ["field", "value"], sorted(obj.items()), obj, code


def _run_weight_equiv(args, geom):
    ts = tuple(np.linspace(0.0, 1.0, args.samples + 2)[1:-1])
    rep = diagnostics.verify_weight_equivalence(geom, t_samples=ts)
    obj = {"r_values": list(rep.r_values), "t_values": list(rep.t_values),
           "rho_min": rep.rho_min, "rho_max": rep.rho_max,
           "ratio": rep.ratio, "factor": rep.factor, "pass": rep.passed}
    rows = [(k, obj[k]) for k in ("rho_min", "rho_max", "ratio", "pass")]
    code = EXIT_OK if rep.passed else EXIT_HYPOTHESIS
    return ["field", "value"], rows, obj, code


def _run_counterexample(args, geom):
    rep = diagnostics.l1ball_counterexample(args.kmax)
    obj = rep.as_dict(thin=max(1, args.kmax // 1000))
    rows = list(zip(obj["k"], obj["hardy_partial_sums"],
                    obj["bergman_nu_F_partial_sums"],
                    obj["bergman_nu_G_partial_sums"],
                    obj["bergman_omega_G_partial_sums"]))
    return (["k", "hardy_partial", "nu_F_partial", "nu_G_partial",
             "omega_G_partial"], rows, obj, EXIT_OK)


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
        geom = (geometry.domain_from_spec(_load_arg(args.domain))
                if hasattr(args, "domain") else None)
        header, rows, obj, code = _VERBS[args.verb](args, geom)
        write_text(emit_json(obj) if args.format == "json"
                   else emit_csv(header, rows), args.out)
        return code
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
