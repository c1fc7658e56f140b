"""Run one rlab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from anywhere inside a source tree of rlab; the library is imported from
its src/ directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
The full result (metrics, every pass's job times, every job's key outputs
and problems, output digest, provenance) goes to
perfbench/out/result-<workload>-s<seed>-t<trace>.json, and a traced run also
writes its spans to perfbench/out/spans-*.json.

--trace 0: fresh-process set-up, repeated SETUP_REPEATS times, then passes
over the job list (one job at a time, fresh geometries each pass) until
--seconds is used up, at least one pass.  Each job's time is its fastest
pass, as timeit reports a statement: the virtual machine this was built on
switches between a fast and a slow speed (about 1.6x apart) for seconds at a
time, so a job's fastest pass repeats from run to run where its median does
not.  wall_s and cpu_s sum the jobs' fastest times; setup_s is the median
set-up.
--trace 1: the same set-up, one untraced pass, then one traced pass followed
by a fixed probe pass (workloads.probe); the difference between the traced
and untraced job-list wall times is the tracing overhead.
--smoke: every workload at a tiny size, traced; asserts every metric of
BENCHMARK.json is produced and no job fails, then asserts that a corrupted
library output is counted as a failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, outer_totals, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
SETUP_REPEATS = 5

CLI_VERBS = ("describe", "dual", "curvature", "leray-grid", "leray-rays",
             "laplace", "norms", "compare-lemma", "weight-equiv",
             "counterexample")

# per-layer time metrics: the summed time of the outermost spans among these
# names (see tracer.outer_totals)
LAYER_GROUPS = {
    "geometry.construct_s": {
        "geometry.DomainGeometry", "geometry.dual_complement",
        "geometry.domain_from_spec", "geometry.domain_from_exponent",
        "geometry.egg_profile", "geometry.expression_profile",
        "geometry.tabulated_profile"},
    "geometry.radial_nodes_s": {"geometry.radial_nodes"},
    "geometry.radial_s": {"geometry.radial"},
    "geometry.curvature_s": {"geometry.curvatures_at"},
    "exprdsl.parse_s": {"exprdsl.parse_expr"},
    "exprdsl.eval_s": {"exprdsl.Expr"},
    "leray.moment_table_s": {"leray.moment_table"},
    "leray.norm_grid_s": {"leray.leray_norm_grid"},
    "leray.boundedness_s": {"leray.boundedness_report"},
    "transform.omega_norm_s": {"transform.bergman_omega_norm_sq"},
    "transform.nu_norm_s": {"transform.bergman_nu_norm_sq"},
    "transform.laplace_s": {"transform.laplace_map", "transform.invert_laplace"},
    "transform.hardy_s": {"transform.hardy_norm_sq"},
    "transform.exp_norm_s": {"transform.exp_norm_sq"},
    "diagnostics.compare_lemma_s": {"diagnostics.verify_comparison_lemma",
                                    "diagnostics.F_omega"},
    "diagnostics.weight_equiv_s": {"diagnostics.verify_weight_equivalence"},
    "diagnostics.counterexample_s": {"diagnostics.l1ball_counterexample"},
    **{f"cli.{verb}_s": {f"cli.{verb}"} for verb in CLI_VERBS},
}


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


def run_pass(workload, inputs):
    """Build the shared state, then run the job list once, timing each job."""
    _, setup, jobs = workloads.WORKLOADS[workload]
    job_list = jobs(inputs, setup(inputs))
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    records = []
    for name, fn in job_list:
        cj, tj = _cpu_s(), time.perf_counter()
        try:
            outputs, problems = fn()
        except Exception as exc:  # noqa: BLE001 - a job that raises is a failed job
            traceback.print_exc(file=sys.stderr)
            outputs, problems = {"error": type(exc).__name__}, [f"raised {exc!r}"]
        records.append({"job": name, "seconds": time.perf_counter() - tj,
                        "cpu_s": _cpu_s() - cj,
                        "outputs": outputs, "problems": problems})
    return {"wall_s": time.perf_counter() - t0, "cpu_s": _cpu_s() - cpu0,
            "jobs": records}


def _fastest(passes, key):
    """Each job's smallest value of key over the passes."""
    return [min(p["jobs"][i][key] for p in passes)
            for i in range(len(passes[0]["jobs"]))]


def _digest(records):
    key = [[r["job"], r["outputs"]] for r in records]
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()


def _deterministic(key, digests, store):
    """Every pass, and every earlier run of the same code and seed recorded
    in store, must give the same digest of key outputs."""
    known = json.loads(store.read_text()) if store.exists() else {}
    ref = known.get(key, digests[0])
    if key not in known:
        known[key] = ref
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return all(d == ref for d in digests)


def _setup_child(workload, seed, tiny):
    proc = subprocess.run(
        [sys.executable, str(CHILD), workload, str(seed), "1" if tiny else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _files_digest(with_workloads=False):
    """sha256 of rlab's sources, and of the job definitions if asked."""
    paths = sorted((ROOT / "src" / "rlab").rglob("*.py"))
    if with_workloads:
        paths.append(HERE / "workloads.py")
    h = hashlib.sha256()
    for path in paths:
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload, seed, seconds, trace, tiny):
    import scipy
    return {"git_sha": _git_sha(), "src_sha256": _files_digest(),
            "cpu_count": os.cpu_count(),
            "cpu_affinity": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "RLAB_THREADS": os.environ.get("RLAB_THREADS"),
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "size": "tiny" if tiny else "full",
            "setup_repeats": SETUP_REPEATS}


def _median_time(fn, reps=5):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def numerics_probes():
    """Fixed-size array probes of the two special functions."""
    from rlab import numerics
    x = np.linspace(0.0, 60.0, 100_000)
    y = np.linspace(0.25, 500.0, 100_000)
    return {"numerics.bessel_i0_log_s": _median_time(lambda: numerics.bessel_i0_log(x)),
            "numerics.log_gamma_s": _median_time(lambda: numerics.log_gamma(y))}


def layer_metrics(tracer, setups, overhead_s):
    spans = tracer.spans
    seconds, work = outer_totals(spans, LAYER_GROUPS)
    out = {k: seconds[k] for k in LAYER_GROUPS if k != "geometry.radial_s"}
    out["geometry.radial_points_per_s"] = (
        work["geometry.radial_s"] / seconds["geometry.radial_s"])
    entries = tracer.counts["moment_entries"]
    out["leray.moment_entries"] = entries
    out["leray.converged_frac"] = tracer.counts["moment_converged"] / entries
    out["transform.omega_calls"] = sum(
        1 for s in spans if s[0] == "transform.bergman_omega_norm_sq")
    out["diagnostics.compare_points"] = tracer.counts["compare_points"]
    own = self_times(spans)
    for module in ("geometry", "exprdsl", "leray", "transform", "numerics",
                   "diagnostics", "cli"):
        out[f"self.{module}_s"] = own[module]
    out["import.rlab_s"] = statistics.median(s["import_s"] for s in setups)
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(spans)
    out.update(numerics_probes())
    return out


def run(workload, seed, seconds, trace, tiny=False, store=None):
    """Run one workload; returns the full result as a dict."""
    OUT.mkdir(exist_ok=True)
    tmp = OUT / "tmp" / f"{workload}-{seed}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, tiny,
                    store or OUT / "digests.json", tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(workload, seed, seconds, trace, tiny, store, tmp):
    setups = [_setup_child(workload, seed, tiny) for _ in range(SETUP_REPEATS)]
    inputs = workloads.WORKLOADS[workload][0](seed, tiny)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, inputs))
        if trace or time.perf_counter() - start + passes[-1]["wall_s"] > seconds:
            break
    fastest = _fastest(passes, "seconds")
    e2e = {
        "wall_s": sum(fastest),
        "setup_s": statistics.median(s["import_s"] + s["construct_s"]
                                     for s in setups),
        "cpu_s": sum(_fastest(passes, "cpu_s")),
        "peak_rss_mb": _peak_rss_mb(),
    }
    layer, probe = None, []
    if trace:
        tracer = Tracer().install()
        try:
            passes.append(run_pass(workload, inputs))
            problems = workloads.probe(tmp / "probe.out")
        finally:
            tracer.uninstall()
        probe = [{"job": "probe", "problems": problems}]
        layer = layer_metrics(tracer, setups,
                              passes[-1]["wall_s"] - passes[0]["wall_s"])
        spans_path = OUT / f"spans-{workload}-s{seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))

    records = [r for p in passes for r in p["jobs"]] + probe
    # the same sources and job definitions must give the same outputs
    key = (f"{workload}:{seed}:{'tiny' if tiny else 'full'}:"
           f"{_files_digest(with_workloads=True)[:16]}")
    digests = [_digest(p["jobs"]) for p in passes]
    deterministic = _deterministic(key, digests, store)
    failed = sum(1 for r in records if r["problems"]) + (not deterministic)
    attempted = len(records) + 1
    if layer is not None:
        layer["fail_frac"] = failed / attempted
    for r in records:
        for problem in r["problems"]:
            print(f"{workload}: job {r['job']} failed: {problem}", file=sys.stderr)
    if not deterministic:
        print(f"{workload}: key outputs differ between runs: {digests}",
              file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "end_to_end": e2e, "per_layer": layer, "digest": digests[0],
            "deterministic": deterministic,
            "key_outputs": {r["job"]: r["outputs"] for r in passes[0]["jobs"]},
            "job_fastest_s": {r["job"]: t for r, t in zip(passes[0]["jobs"], fastest)},
            "passes": [{k: v for k, v in p.items() if k != "jobs"}
                       | {"job_seconds": {r["job"]: r["seconds"] for r in p["jobs"]},
                          "job_cpu_s": {r["job"]: r["cpu_s"] for r in p["jobs"]}}
                       for p in passes],
            "provenance": provenance(workload, seed, seconds, trace, tiny)}


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def _line(result, units, values):
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def smoke():
    e2e_units, layer_units = _declared()
    store = OUT / "smoke-digests.json"
    OUT.mkdir(exist_ok=True)
    store.unlink(missing_ok=True)
    for workload in workloads.WORKLOADS:
        res = run(workload, 1, 1, 1, tiny=True, store=store)
        assert set(res["end_to_end"]) == set(e2e_units), res["end_to_end"].keys()
        assert set(res["per_layer"]) == set(layer_units), \
            set(res["per_layer"]) ^ set(layer_units)
        assert res["failed"] == 0, f"{workload}: {res['failed']} jobs failed"
        print(f"smoke: {workload} ok", file=sys.stderr)

    # a library output shifted by 1e-3 in log must be caught (the ball check)
    from rlab import leray
    original = leray.leray_norm_grid

    def shifted(*args, **kwargs):
        grid = original(*args, **kwargs)
        return dataclasses.replace(grid, log_norm_sq=grid.log_norm_sq + 1e-3)

    leray.leray_norm_grid = shifted
    try:
        res = run("bergman-weights", 1, 1, 0, tiny=True, store=store)
    finally:
        leray.leray_norm_grid = original
    assert res["failed"] >= 1 and not res["correct"], "corrupted output passed"
    print("smoke: corrupted output counted as a failure", file=sys.stderr)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rlab" / "__init__.py").is_file():
        print(f"error: no rlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    res = run(args.workload, args.seed, args.seconds, args.trace)
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(res, indent=1, sort_keys=True))
    print(f"result written to {path.relative_to(ROOT)}", file=sys.stderr)
    e2e_units, layer_units = _declared()
    print(json.dumps(_line(res, layer_units, res["per_layer"]) if args.trace
                     else _line(res, e2e_units, res["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
