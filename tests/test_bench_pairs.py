"""The pairing order and statistics of scripts/bench_pairs.py, on stub runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

BETTER = {"examples_per_s": {"better": "higher", "bound": 0.25},
          "step_p50_ms": {"better": "lower", "bound": 0.25}}


def stub_stdout(examples_per_s, step_ms, ceiling=140.0, correct=True):
    result = {"correct": correct, "attempted": 32, "failed": 0,
              "metrics": {"examples_per_s": {"value": examples_per_s, "unit": "examples/s"},
                          "step_p50_ms": {"value": step_ms, "unit": "ms"}}}
    return "\n".join(["env commit: unknown", "env source_sha256: ab12", "env blas_threads: 2",
                      f"env gemm_ceiling_gflops_per_s: {ceiling}", "check digest_repeats: PASS",
                      f"metric examples_per_s: {examples_per_s} examples/s",
                      json.dumps(result)]) + "\n"


def test_parse_run_reads_the_result_line_and_the_environment():
    run = bp.parse_run(stub_stdout(20.5, 780.0, ceiling=147.25))
    assert run == {"correct": True, "attempted": 32, "failed": 0,
                   "metrics": {"examples_per_s": 20.5, "step_p50_ms": 780.0},
                   "source_sha256": "ab12", "blas_threads": 2,
                   "gemm_ceiling_gflops_per_s": 147.25}


def test_pairs_alternate_which_arm_runs_first_and_cycle_the_seeds():
    calls = []

    def run(arm, seed):
        calls.append((arm, seed))
        return bp.parse_run(stub_stdout(1.0, 1.0))

    pairs = bp.run_pairs(5, [7, 8], run)
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
                     ("parent", 7), ("change", 7)]
    assert [p["first"] for p in pairs] == ["parent", "change"] * 2 + ["parent"]
    assert [p["seed"] for p in pairs] == [7, 8, 7, 8, 7]


def _pairs(parent, change):
    return [{"seed": 1, "first": bp.pair_order(i)[0],
             "parent": bp.parse_run(stub_stdout(p, 1000.0 / p)),
             "change": bp.parse_run(stub_stdout(c, 1000.0 / c))}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_quartiles_ratios_and_wins():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [15.0, 10.5, 16.0, 17.0, 18.0]
    s = bp.summarize(_pairs(parent, change), BETTER)
    assert s["pairs"] == 5 and s["all_correct"]
    assert s["arms"]["parent"]["examples_per_s"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert s["arms"]["change"]["examples_per_s"]["median"] == 16.0
    m = s["metrics"]["examples_per_s"]
    assert m["ratios"] == pytest.approx([1.5, 10.5 / 11, 16 / 12, 17 / 13, 18 / 14])
    assert m["wins"] == 4 and m["median_gap"] == 4.0 and m["parent_quartile_spread"] == 2.0
    assert not m["gain_holds"]  # 4 of 5 is below nine in ten
    # a lower-is-better metric wins when it falls
    assert s["metrics"]["step_p50_ms"]["wins"] == 4
    assert s["metrics"]["step_p50_ms"]["median_gap"] == pytest.approx(1000 / 12 - 1000 / 16)


def test_a_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread():
    parent = [10.0 + i for i in range(10)]
    wide = bp.summarize(_pairs(parent, [p + 1.0 for p in parent]), BETTER)
    assert wide["metrics"]["examples_per_s"]["wins"] == 10
    assert not wide["metrics"]["examples_per_s"]["gain_holds"]  # 1.0 < spread 4.5
    clear = bp.summarize(_pairs(parent, [p + 6.0 for p in parent[:9]] + [parent[9] - 1]),
                         BETTER)
    assert clear["metrics"]["examples_per_s"]["wins"] == 9
    assert clear["metrics"]["examples_per_s"]["gain_holds"]


def test_one_pair_has_degenerate_quartiles():
    s = bp.summarize(_pairs([10.0], [12.0]), BETTER)
    assert s["arms"]["change"]["examples_per_s"] == {"q1": 12.0, "median": 12.0, "q3": 12.0}


def test_regression_none_when_the_change_stays_inside_the_bound():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8]
    s = bp.summarize(_pairs(parent, [p * 0.85 for p in parent]), BETTER)
    # 15% fewer examples/s and 18% more ms/step are inside the 25% bound,
    # and the parent's spread is narrow
    assert s["metrics"]["examples_per_s"]["regression"] == "none"
    assert s["metrics"]["examples_per_s"]["bound"] == 0.25
    assert s["metrics"]["step_p50_ms"]["regression"] == "none"


def test_regression_worse_when_the_median_moves_past_the_bound():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8]
    s = bp.summarize(_pairs(parent, [p * 0.7 for p in parent]), BETTER)
    assert s["metrics"]["examples_per_s"]["regression"] == "worse"
    # time per step rose by 1/0.7 - 1 = 43%, past the 25% bound of a lower-is-better metric
    assert s["metrics"]["step_p50_ms"]["regression"] == "worse"


def test_regression_unresolved_when_the_parent_spreads_wider_than_the_bound():
    parent = [6.0, 8.0, 10.0, 12.0, 14.0]  # quartile spread 4 is 40% of the median
    s = bp.summarize(_pairs(parent, [9.5, 9.5, 10.5, 10.5, 10.0]), BETTER)
    assert s["metrics"]["examples_per_s"]["regression"] == "unresolved"
    # unless every change run beats every parent run
    clear = bp.summarize(_pairs(parent, [15.0, 16.0, 17.0, 18.0, 19.0]), BETTER)
    assert clear["metrics"]["examples_per_s"]["regression"] == "none"


def test_ratio_quartiles_are_read_from_the_per_pair_ratios():
    parent = [10.0, 20.0, 10.0, 20.0, 10.0]  # the parent drifts between pairs
    change = [11.0, 22.0, 12.0, 21.0, 10.5]
    m = bp.summarize(_pairs(parent, change), BETTER)["metrics"]["examples_per_s"]
    # ratios 1.1, 1.1, 1.2, 1.05, 1.05: their quartiles carry none of the drift
    assert m["ratio_quartiles"] == pytest.approx({"q1": 1.05, "median": 1.1, "q3": 1.1})
    assert m["parent_quartile_spread"] == 10.0
    # the verdicts keep their own rules
    assert m["wins"] == 5 and not m["gain_holds"] and m["regression"] == "unresolved"


def test_ratio_quartiles_skip_pairs_whose_parent_read_zero():
    pairs = _pairs([10.0, 10.0, 10.0], [12.0, 13.0, 14.0])
    pairs[0]["parent"]["metrics"]["examples_per_s"] = 0.0
    m = bp.summarize(pairs, BETTER)["metrics"]["examples_per_s"]
    assert m["ratios"][0] is None
    assert m["ratio_quartiles"] == pytest.approx({"q1": 1.325, "median": 1.35, "q3": 1.375})
    for pair in pairs:
        pair["parent"]["metrics"]["examples_per_s"] = 0.0
    assert bp.summarize(pairs, BETTER)["metrics"]["examples_per_s"]["ratio_quartiles"] is None


def test_speedup_is_train_dot_over_train_full_median_examples_per_s_per_arm():
    dot = bp.summarize(_pairs([20.0, 18.0, 19.0], [21.0, 20.0, 22.0]), BETTER)
    full = bp.summarize(_pairs([10.0, 12.0, 11.0], [10.0, 11.0, 12.0]), BETTER)
    assert bp.speedup({"train_dot": dot, "train_full": full}) == {
        "parent": pytest.approx(19.0 / 11.0), "change": pytest.approx(21.0 / 11.0)}
    # a run without both training workloads has no speed-up to write
    assert bp.speedup({"train_dot": dot, "infer_long": full}) is None
    assert bp.speedup({}) is None


def test_main_writes_and_prints_the_speedup(tmp_path, monkeypatch, capsys):
    root = _PATH.parent.parent
    (tmp_path / "BENCHMARK.json").write_bytes((root / "BENCHMARK.json").read_bytes())
    rate = {("train_dot", "parent"): 18.0, ("train_dot", "change"): 18.5,
            ("train_full", "parent"): 10.0, ("train_full", "change"): 10.0}

    def perfbench(checkout, workload, seed, seconds):
        result = json.loads(stub_stdout(1.0, 1.0).splitlines()[-1])
        result["metrics"] = {name: {"value": rate[workload, Path(checkout).name], "unit": ""}
                             for name in ("setup_s", "examples_per_s", "step_p50_ms",
                                          "peak_rss_mb")}
        return bp.parse_run("env source_sha256: ab12\nenv blas_threads: 2\n"
                            "env gemm_ceiling_gflops_per_s: 140\n" + json.dumps(result))

    monkeypatch.setattr(bp, "ROOT", str(tmp_path))
    monkeypatch.setattr(bp, "git", lambda *args: "")
    monkeypatch.setattr(bp, "extract", lambda rev, dest: None)
    monkeypatch.setattr(bp, "copy_checkout", lambda dest: None)
    monkeypatch.setattr(bp, "perfbench", perfbench)
    bp.main(["--parent", "HEAD~1", "--label", "stub", "--seeds", "5", "--seconds", "1",
             "--workload", "train_dot:2", "--workload", "train_full:2",
             "--scratch", str(tmp_path)])
    record = json.loads((tmp_path / "BENCH_stub.json").read_text())
    assert record["speedup"] == {"parent": 1.8, "change": 1.85}
    assert record["workloads"]["train_dot"]["metrics"]["examples_per_s"]["ratio_quartiles"] \
        == pytest.approx({"q1": 18.5 / 18, "median": 18.5 / 18, "q3": 18.5 / 18})
    out = capsys.readouterr().out
    assert "speedup train_dot/train_full examples_per_s: 1.800 -> 1.850" in out
    assert "train_dot examples_per_s: 18 -> 18.5, won 2/2, ratio q1/median/q3 " \
        "1.028/1.028/1.028, regression none" in out


def test_the_change_arm_is_a_copy_of_the_checkout_without_ignored_files(tmp_path):
    bp.copy_checkout(str(tmp_path))
    root = _PATH.parent.parent
    assert (tmp_path / "scripts" / "bench_pairs.py").read_bytes() == _PATH.read_bytes()
    assert (tmp_path / "BENCHMARK.json").read_bytes() == (root / "BENCHMARK.json").read_bytes()
    assert not (tmp_path / ".git").exists()
    assert not list(tmp_path.rglob("__pycache__"))
