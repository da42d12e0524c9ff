"""dotprune benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload train_dot --seed 1 --seconds 30 --trace 0

Run it from the root of a dotprune checkout; it imports the package from
``src/``. Workloads, inputs and metric definitions are in
``perfbench/spec.json``; metric names and units are in ``BENCHMARK.json``.
With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run. Lines
before the last one list the environment, every metric with its unit and
the pass/fail of each correctness check. Results, spans and loss /
prediction digests go to ``.perfbench_out/``; a digest that differs from
an earlier run of the same source, workload, seed and thread count fails
the ``digest_repeats`` check.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_sha256() -> str:
    """Hash of the package and benchmark sources, standing in for a commit."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(np, threads: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {"commit": git_commit(), "source_sha256": source_sha256(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads": threads, "numpy": np.__version__, "blas": blas_version,
            "python": platform.python_version(), "machine": platform.machine()}


def check_digest(run, env) -> bool:
    """Compare with the digest an earlier run of the same inputs stored."""
    path = os.path.join(OUT, "digests.json")
    key = (f"{run.name}|seed={run.seed}|threads={env['blas_threads']}"
           f"|src={env['source_sha256']}")
    try:
        with open(path, encoding="utf-8") as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    run.info["digest_compared"] = key in known
    digest = known.setdefault(key, run.info["digest"])
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(known, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return digest == run.info["digest"]


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dotprune", "__init__.py")):
        print(f"error: no dotprune package under {os.path.join(ROOT, 'src')}; run from "
              "the root of a dotprune checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)["workloads"]
    if args.workload not in spec:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(spec)}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    # BLAS reads its thread count once, when numpy loads
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_ENV:
        os.environ[var] = str(threads)
    # keep the CLI's `git rev-parse` inside the checkout
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import flops
    import selftest
    import workloads
    from tracer import unwrapped
    import_s = time.perf_counter() - START

    env = environment(np, threads)
    env["gemm_ceiling_gflops_per_s"] = flops.gemm_ceiling_gflops()
    run = workloads.Run(args.workload, spec[args.workload], args.seed, args.seconds,
                        bool(args.trace), os.path.join(OUT, f"work-{os.getpid()}"))
    run.checks["span_arithmetic"] = selftest.span_arithmetic_ok()
    setup_s = workloads.execute(run)
    if not args.trace:
        run.checks["no_wrappers_installed"] = unwrapped(workloads.MODULES)
    run.checks["digest_repeats"] = check_digest(run, env)
    correct = all(run.checks.values()) and run.failed == 0
    if not correct:
        run.failed = run.attempted  # a failed run-level check taints every output

    ops_failed_share = run.failed / run.attempted
    if args.trace:
        run.layer["ops_failed_share"] = ops_failed_share
        metrics, wanted = run.layer, bench["per_layer"]
    else:
        metrics = dict(run.e2e, setup_s=import_s + setup_s,
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        wanted = bench["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in wanted}}

    spans = run.info.pop("spans", [])
    record = {"workload": run.name, "seed": run.seed, "seconds": run.seconds,
              "trace": bool(args.trace), "environment": env, "checks": run.checks,
              "ops_failed_share": ops_failed_share, "import_s": import_s,
              "setup_reps_s": run.setup_calls["setup"], **run.info, "result": result}
    stem = f"{run.name}-seed{run.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    if spans:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        with open(os.path.join(OUT, "spans", stem + ".jsonl"), "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s, default=str) + "\n")

    for key, value in env.items():
        print(f"env {key}: {value}")
    for name, ok in run.checks.items():
        print(f"check {name}: {'PASS' if ok else 'FAIL'}")
    print(f"info ops_failed_share: {ops_failed_share} ({run.failed}/{run.attempted})")
    for key in ("step_samples", "traced_steps", "traced_calls", "digest",
                "digest_compared"):
        if key in run.info:
            print(f"info {key}: {run.info[key]}")
    for name, m in result["metrics"].items():
        print(f"metric {name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
