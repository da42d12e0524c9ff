"""Print every stored benchmark result: metrics with units, checks, environment.

    python3 perfbench/report.py

Reads ``.perfbench_out/results/*.json`` as written by run.py. Ends with the
per-workload medians of the end-to-end metrics over the stored untraced
runs and the paper's throughput ratio, examples_per_s of train_dot over
train_full (information only, not a gated metric).
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    paths = sorted(glob.glob(os.path.join(ROOT, ".perfbench_out", "results", "*.json")))
    if not paths:
        print("no results under .perfbench_out/results; run perfbench/run.py first",
              file=sys.stderr)
        return 1
    untraced: dict[str, dict[str, list[float]]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        res = rec["result"]
        env = rec["environment"]
        print(f"== {rec['workload']} seed={rec['seed']} trace={int(rec['trace'])} "
              f"correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              f"commit={env['commit'][:12]} src={env['source_sha256'][:12]} "
              f"blas_threads={env['blas_threads']} numpy={env['numpy']} "
              f"gemm_ceiling={env['gemm_ceiling_gflops_per_s']:.1f} GFLOP/s")
        for name, ok in rec["checks"].items():
            print(f"   check {name}: {'PASS' if ok else 'FAIL'}")
        for name, m in res["metrics"].items():
            print(f"   {name}: {m['value']:.6g} {m['unit']}")
        if not rec["trace"]:
            for name, m in res["metrics"].items():
                untraced.setdefault(rec["workload"], {}).setdefault(name, []).append(
                    m["value"])
    print("== medians over stored untraced runs")
    for workload, metrics in sorted(untraced.items()):
        for name, values in metrics.items():
            print(f"   {workload} {name}: {statistics.median(values):.6g} (n={len(values)})")
    if "train_dot" in untraced and "train_full" in untraced:
        dot = statistics.median(untraced["train_dot"]["examples_per_s"])
        full = statistics.median(untraced["train_full"]["examples_per_s"])
        print(f"== paper ratio (information only): train_dot / train_full examples_per_s "
              f"= {dot:.4g} / {full:.4g} = {dot / full:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
