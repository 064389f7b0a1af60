"""The benchmark's own smoke test: a tiny configuration of every workload.

    python3 perfbench/smoke.py

Run from the root of a source checkout. z^3 - 1 only, a 64x64 raster and one
query of each kind, with tracing off and on. Asserts that every metric named
in BENCHMARK.json, and every workload metric of the report, is emitted with
its unit, and that every output check ran. Takes about half a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

REPORT_METRICS = {
    "tower": {"graph_s": "s", "graph_small_s": "s", "export_mb": "MB"},
    "raster": {"raster_mpix_s": "Mpix/s"},
    "query": {"compare_ms": "ms", "validate_ms": "ms", "thurston_ms": "ms",
              "classify_us": "us", "locate_ms": "ms", "fiber_us": "us"},
}
CHECKS = {
    "tower": {"graph_export"},
    "raster": {"render_output"},
    "query": {"compare", "validate", "classify", "locate", "fiber", "thurston"},
}


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    ng = run.import_program(root)
    assert ng is not None, "newtongraph sources not found under ./src"
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for workload in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=7, seconds=0, trace=trace)
            report, result = run.run(ng, args, root, workloads.SMOKE)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
            assert result["correct"], report["unexpected_failures"]
            listed = bench["per_layer"] if trace else bench["end_to_end"]
            assert set(result["metrics"]) == {m["name"] for m in listed}, workload
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name], (workload, name)
                assert isinstance(metric["value"], (int, float)), (workload, name)
            if trace == 0:
                for name, unit in {**REPORT_METRICS[workload], "fail_frac": "ratio"}.items():
                    assert report["metrics"][name]["unit"] == unit, (workload, name)
                for name in units:
                    if name in result["metrics"]:
                        assert result["metrics"][name]["value"] > 0, (workload, name)
            missing = CHECKS[workload] - set(report["checks"])
            assert not missing, (workload, missing)
            for key in ("python", "numpy", "nproc", "cpu", "threads", "seed", "source_sha256"):
                assert key in report["provenance"], key
            print(f"{workload} trace={trace}: {result['attempted']} checked, "
                  f"{result['failed']} failed, {len(result['metrics'])} metrics")
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
