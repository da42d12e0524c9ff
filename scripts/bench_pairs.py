"""Alternating parent/change pairs of perfbench runs, written to BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --label mychange \\
        --workload infer_long:10 --workload train_dot:5 --seeds 7 --seconds 30

The change arm is a copy of this checkout's files as they stand (tracked,
and untracked but not ignored); the parent arm is ``--parent`` extracted
with ``git archive``. Both go into fresh scratch directories, so both arms
start without the ``.perfbench_out/`` and ``__pycache__/`` that earlier runs
leave in a checkout. Each workload runs
its pairs of ``perfbench/run.py --trace 0`` one process at a time. Pair i
uses data seed ``seeds[i % len(seeds)]`` on both arms, and the arm that runs
first alternates: the parent in even pairs, the change in odd ones.

The file holds, per workload and arm, the median and quartiles of every
end-to-end metric; per metric, each pair's change/parent ratio and their
quartiles (``ratio_quartiles``; a pair whose parent read 0 has no ratio),
the number of pairs the change won, the gap between the medians and the
parent's quartile spread; and every run's metrics, BLAS threads and GEMM ceiling,
with the seeds and both commits. ``change_commit`` is this checkout's HEAD;
when ``change_dirty`` is true the change arm ran uncommitted edits on top of
it, and each run's ``source_sha256`` names the sources it ran. A gain holds when the change wins at least
nine pairs in ten and its median is better than the parent's by more than
the parent's quartile spread.

Each metric's ``regression`` reads it against its ``bound`` in BENCHMARK.json,
a share of the parent's median: "worse" when the change's median is worse
than the parent's by more than the bound; else "unresolved" when the
parent's quartile spread is wider than the bound and not every change run
beats every parent run; else "none".

Each run's ``digest`` is the one its ``info digest:`` line printed (a hash of
the run's first losses or predictions); ``digests_equal`` says per pair
whether both arms printed the same one, and ``all_digests_equal`` whether
every pair of the workload did: the bit-identity evidence of a change that
must not move any result.

When a run holds both train_dot and train_full, ``speedup`` holds per arm
the measured DoT speed-up: train_dot's median ``examples_per_s`` over
train_full's.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ARMS = ("parent", "change")


def pair_order(i: int) -> tuple[str, str]:
    """The arms of pair ``i`` in the order they run."""
    return ARMS if i % 2 == 0 else ARMS[::-1]


def parse_run(stdout: str) -> dict:
    """One run's result line (the last line), its ``env`` lines and its digest."""
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = dict(line[4:].split(": ", 1) for line in lines[:-1] if line.startswith("env "))
    info = dict(line[5:].split(": ", 1) for line in lines[:-1] if line.startswith("info "))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": info["digest"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "source_sha256": env["source_sha256"], "blas_threads": int(env["blas_threads"]),
            "gemm_ceiling_gflops_per_s": float(env["gemm_ceiling_gflops_per_s"])}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def run_pairs(n: int, seeds: list[int], run) -> list[dict]:
    """``n`` pairs; ``run(arm, seed)`` returns one parsed run."""
    pairs = []
    for i in range(n):
        seed = seeds[i % len(seeds)]
        order = pair_order(i)
        pairs.append({"seed": seed, "first": order[0],
                      **{arm: run(arm, seed) for arm in order}})
    return pairs


def regression(parent: list[float], change: list[float], sign: int, bound: float) -> str:
    """"worse", "unresolved" or "none", as the module docstring defines them;
    ``sign`` is 1 when higher is better and -1 when lower is."""
    p = quartiles(parent)
    allowed = bound * abs(p["median"])
    if sign * (statistics.median(change) - p["median"]) < -allowed:
        return "worse"
    if p["q3"] - p["q1"] > allowed and not all(sign * (c - x) > 0
                                               for c in change for x in parent):
        return "unresolved"
    return "none"


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per-arm quartiles, per-metric pair statistics and per-pair digest
    equality; ``metrics`` maps each metric's name to its BENCHMARK.json entry
    ("better" is "higher" or "lower", "bound" a share of the parent's median)."""
    runs = [dict(p, digests_equal=p["parent"]["digest"] == p["change"]["digest"])
            for p in pairs]
    out = {"pairs": len(pairs), "seeds": [p["seed"] for p in pairs], "arms": {},
           "metrics": {}, "runs": runs,
           "all_digests_equal": all(p["digests_equal"] for p in runs)}
    for arm in ARMS:
        out["arms"][arm] = {name: quartiles([p[arm]["metrics"][name] for p in pairs])
                            for name in metrics}
    for name, spec in metrics.items():
        sign = 1 if spec["better"] == "higher" else -1
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        spread = out["arms"]["parent"][name]["q3"] - out["arms"]["parent"][name]["q1"]
        gap = sign * (statistics.median(change) - statistics.median(parent))
        ratios = [c / p if p else None for p, c in zip(parent, change)]
        defined = [r for r in ratios if r is not None]
        out["metrics"][name] = {
            "better": spec["better"], "bound": spec["bound"], "ratios": ratios,
            "ratio_quartiles": quartiles(defined) if defined else None,
            "wins": wins, "median_gap": gap, "parent_quartile_spread": spread,
            "gain_holds": wins >= math.ceil(0.9 * len(pairs)) and gap > spread,
            "regression": regression(parent, change, sign, spec["bound"])}
    out["all_correct"] = all(p[arm]["correct"] for p in pairs for arm in ARMS)
    return out


def speedup(workloads: dict) -> dict | None:
    """Per arm, train_dot's median examples_per_s over train_full's; None
    unless ``workloads`` (name -> ``summarize`` result) holds both."""
    if not {"train_dot", "train_full"} <= workloads.keys():
        return None
    return {arm: workloads["train_dot"]["arms"][arm]["examples_per_s"]["median"]
            / workloads["train_full"]["arms"][arm]["examples_per_s"]["median"]
            for arm in ARMS}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(rev: str, dest: str) -> None:
    """The tree of ``rev`` as plain files under ``dest``."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} exited {archive.returncode}")


def copy_checkout(dest: str) -> None:
    """This checkout's tracked, and untracked but not ignored, files as they
    stand, under ``dest``."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = os.path.join(ROOT, name)
        if name and os.path.isfile(source):  # a tracked file may be deleted
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def perfbench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git rev of the parent arm")
    p.add_argument("--label", required=True,
                   help="writes BENCH_<label>.json at the root of this checkout")
    p.add_argument("--workload", action="append", required=True,
                   help="NAME:PAIRS, repeatable")
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--scratch", default=None,
                   help="directory for both arms' files (default: a temporary one)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    record = {"parent_commit": git("rev-parse", args.parent),
              "change_commit": git("rev-parse", "HEAD"),
              "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
              "seconds": args.seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        checkouts = {arm: os.path.join(scratch, arm) for arm in ARMS}
        for path in checkouts.values():
            os.mkdir(path)
        extract(args.parent, checkouts["parent"])
        copy_checkout(checkouts["change"])
        for spec in args.workload:
            name, _, n = spec.partition(":")
            pairs = run_pairs(int(n or 10), args.seeds,
                              lambda arm, seed: perfbench(checkouts[arm], name, seed,
                                                          args.seconds))
            record["workloads"][name] = summarize(pairs, metrics)
            for metric, m in record["workloads"][name]["metrics"].items():
                arms = record["workloads"][name]["arms"]
                rq = m["ratio_quartiles"]
                ratios = (f"ratio q1/median/q3 {rq['q1']:.3f}/{rq['median']:.3f}/{rq['q3']:.3f}"
                          if rq else "no ratio")
                print(f"{name} {metric}: {arms['parent'][metric]['median']:.4g} -> "
                      f"{arms['change'][metric]['median']:.4g}, won {m['wins']}/{len(pairs)}, "
                      f"{ratios}, regression {m['regression']}",
                      flush=True)
            equal = [p["digests_equal"] for p in record["workloads"][name]["runs"]]
            print(f"{name} digests equal in {sum(equal)}/{len(equal)} pairs, "
                  f"all_digests_equal {all(equal)}", flush=True)
    ratio = speedup(record["workloads"])
    if ratio is not None:
        record["speedup"] = ratio
        print(f"speedup train_dot/train_full examples_per_s: {ratio['parent']:.3f} -> "
              f"{ratio['change']:.3f}")
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
