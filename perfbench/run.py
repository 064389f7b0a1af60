"""Benchmark of the newtongraph pipeline.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src. Workloads: tower (the graph command over seeded conjugates), raster
(the render command) and query (questions asked of prebuilt graphs); see
BENCHMARK.json. One process drives the program in a closed loop, one call at
a time, for whole passes until --seconds have been measured; times are CPU
seconds, scaled for the host's speed drift (README.md). With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 a pass
with tracing off is followed by traced passes, and the line carries the
per-layer metrics. The line before it is a report with every named metric,
the checks, the failures and the provenance; a copy of both, and the spans
of a traced run, are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"  # one process, one thread: numpy's pools held at 1

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402


def import_program(root: str):
    """Import newtongraph from root/src; None if the sources are missing."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "newtongraph", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import newtongraph
    import newtongraph.cli

    if not os.path.abspath(newtongraph.__file__).startswith(src):
        return None
    return newtongraph


# --- provenance -------------------------------------------------------------


def git_commit(root: str) -> str | None:
    """HEAD of a git checkout, read from its files; None outside one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package_dir: str) -> str:
    """SHA-256 over the package's source files, which identifies the code
    measured even where the checkout has no git metadata."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package_dir, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(ng, root: str, args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(os.path.dirname(ng.__file__)),
    }


# --- metrics ----------------------------------------------------------------


def end_to_end(workload, out, setup_s: float) -> dict:
    """The metrics every workload reports, and the workload's own ones."""
    medians = out.medians()
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s": (sum(medians.values()), "s"),
        "op_gmean_ms": (workloads.geometric_mean(workload.kind_seconds(out).values()) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    metrics.update(workload.metrics(out))
    metrics["pass_wall_s"] = (statistics.median(out.wall), "s")
    metrics["fail_frac"] = (out.failed / out.attempted if out.attempted else 0.0, "ratio")
    return metrics


def per_layer(summary: dict, tracer: Tracer, passes: int, factor: float,
              overhead: float, traced_cpu_s: float) -> dict:
    """Layer self times, call counts and work counts per traced pass; times
    scaled by the run's speed factor. The self share compares the spans with
    the traced passes' unscaled CPU time."""
    spans, counts = summary["spans"], tracer.counts

    def incl(name):
        return spans.get(name, {}).get("inclusive_s", 0.0) / passes * factor

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / passes

    def count(name):
        return counts.get(name, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": (summary["layers"][layer] / passes * factor, "s") for layer in LAYERS}
    continues = calls("rays.continue_inverse_branch")
    leaf = spans.get("rays.continue_inverse_branch", {}).get("leaf_calls", 0) / passes
    m.update({
        "poly.make_newton_map_s": (incl("poly.make_newton_map"), "s"),
        "poly.roots_of_calls": (calls("poly.roots_of"), "count"),
        "poly.roots_of_s": (incl("poly.roots_of"), "s"),
        "dynamics.critical_orbits_s": (incl("dynamics.critical_orbits"), "s"),
        "dynamics.render_basins_s": (incl("dynamics.render_basins"), "s"),
        "dynamics.orbit_steps": (count("dynamics.orbit_steps"), "count"),
        "dynamics.steps_per_s": (ratio(count("dynamics.orbit_steps"), incl("dynamics.render_basins")), "1/s"),
        "dynamics.to_ppm_s": (incl("dynamics.to_ppm"), "s"),
        "dynamics.classify_point_s": (incl("dynamics.classify_point"), "s"),
        "dynamics.classify_steps": (count("dynamics.classify_steps"), "count"),
        "rays.channel_diagram_s": (incl("rays.channel_diagram"), "s"),
        "rays.ray_samples": (count("rays.ray_samples"), "count"),
        "rays.solve_calls": (calls("rays.solve_preimage_near"), "count"),
        "rays.solve_s": (incl("rays.solve_preimage_near"), "s"),
        "rays.solve_none": (count("rays.solve_none"), "count"),
        "rays.continue_calls": (continues, "count"),
        "rays.bisect_calls": (count("rays.bisect_calls"), "count"),
        "rays.first_try_ratio": (ratio(leaf, continues), "ratio"),
        "rays.nearest_edge_point_s": (incl("rays.nearest_edge_point"), "s"),
        "pullback.level1_s": (tracer.totals.get("pullback.level1_s", 0.0) / passes * factor, "s"),
        "pullback.level2_s": (tracer.totals.get("pullback.level2_s", 0.0) / passes * factor, "s"),
        "pullback.level_self_s": (spans.get("pullback.pullback_level", {}).get("self_s", 0.0) / passes * factor, "s"),
        "pullback.lift_edge_calls": (calls("pullback.lift_edge"), "count"),
        "pullback.lift_edge_s": (incl("pullback.lift_edge"), "s"),
        "pullback.lift_samples": (count("pullback.lift_samples"), "count"),
        "pullback.samples_per_s": (ratio(count("pullback.lift_samples"), incl("pullback.lift_edge")), "1/s"),
        "pullback.lift_point_calls": (calls("pullback.lift_point"), "count"),
        "pullback.lift_point_s": (incl("pullback.lift_point"), "s"),
        "pullback.extract_s": (incl("pullback.extract_combinatorial"), "s"),
        "pullback.export_s": (incl("pullback.newton_graph_to_json"), "s"),
        "pullback.locate_face_s": (incl("pullback.locate_face"), "s"),
        "combinatorial.graph_from_json_s": (incl("combinatorial.graph_from_json"), "s"),
        "combinatorial.graphs_equivalent_s": (incl("combinatorial.graphs_equivalent"), "s"),
        "combinatorial.anchors_tried": (count("combinatorial.anchors_tried"), "count"),
        "combinatorial.validate_s": (incl("combinatorial.validate_newton_graph"), "s"),
        "thurston.transition_matrix_s": (incl("thurston.transition_matrix"), "s"),
        "thurston.leading_eigenvalue_s": (incl("thurston.leading_eigenvalue"), "s"),
        "thurston.is_irreducible_s": (incl("thurston.is_irreducible"), "s"),
        "sphere.chordal_calls": (count("sphere.chordal_calls"), "count"),
        "trace.overhead": (overhead, "ratio"),
        "trace.self_share": (ratio(sum(summary["layers"].values()) / passes, traced_cpu_s), "ratio"),
    })
    return m


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


# --- runs -------------------------------------------------------------------

END_TO_END = ("setup_s", "pass_s", "op_gmean_ms", "peak_rss_mb")


def measure(workload, seconds: float):
    """Whole passes, at least one, until `seconds` of wall time have run."""
    out = workloads.Outcome()
    start = time.perf_counter()
    while out.passes < 1 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        workload.run_pass(out)
        out.wall.append(time.perf_counter() - t0)
        out.passes += 1
    return out


def run(ng, args, root: str, config=workloads.Config(), import_s: float = 0.0):
    """One benchmark run; returns (report, result line)."""
    work = os.path.join(root, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](ng, args.seed, work, config)
        probe = workload.probe
        setups = []
        for _ in range(config.setup_repeats or workload.setup_repeats):
            index = probe.maybe_sample()
            t0 = workloads.cpu_seconds()
            workload.setup()
            setups.append((workloads.cpu_seconds() - t0, index))
        # keep the collector from walking the set-up data before every call
        gc.collect()
        gc.freeze()

        if not args.trace:
            out = measure(workload, args.seconds)
            line_keys = END_TO_END
        else:
            untraced = measure(workload, 0)
            workload.tracer = tracer = Tracer()
            tracer.install()
            try:
                out = measure(workload, args.seconds)
            finally:
                tracer.uninstall()
                workload.tracer = None
            tracer.write(os.path.join(root, ".perfbench", f"spans-{args.workload}.npz"))
        probe.sample()  # the sample after the last operation
        out.probe = probe
        setup_s = out.seconds((import_s, 0)) + statistics.median(map(out.seconds, setups))
        metrics = end_to_end(workload, out, setup_s)
        if args.trace:
            factor = probe.REFERENCE_S / statistics.median(probe.samples)
            untraced.probe = probe
            overhead = sum(out.medians().values()) / sum(untraced.medians().values())
            traced_cpu_s = sum(cpu for t in out.times.values() for cpu, _ in t) / out.passes
            layers = per_layer(tracer.summary(), tracer, out.passes, factor, overhead, traced_cpu_s)
            metrics.update(layers)
            line_keys = tuple(layers)
        report = {
            "workload": args.workload,
            "trace": args.trace,
            "passes": out.passes,
            "metrics": as_json(metrics),
            "checks": out.checks,
            "failures": out.failures,
            "unexpected_failures": out.unexpected,
            "digests": out.digests,
            "item_seconds": out.medians(),
            "item_cpu_seconds": {item: statistics.median(cpu for cpu, _ in t)
                                 for item, t in out.times.items()},
            "probe_seconds": probe.samples,
            "provenance": provenance(ng, root, args),
        }
        result = {
            "correct": not out.unexpected,
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": as_json({k: metrics[k] for k in line_keys}),
        }
        return report, result
    finally:
        gc.unfreeze()
        for name in os.listdir(work):
            os.remove(os.path.join(work, name))
        os.rmdir(work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    t0 = workloads.cpu_seconds()
    ng = import_program(root)
    import_s = workloads.cpu_seconds() - t0
    if ng is None:
        print(f"error: no newtongraph sources under {os.path.join(root, 'src')}", file=sys.stderr)
        return 2
    report, result = run(ng, args, root, import_s=import_s)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(root, ".perfbench", name), "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result}, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
