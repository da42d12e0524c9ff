"""The three workloads: set-up, timed phase, correctness checks, metrics.

A run sets up ``SETUP_REPS`` times and keeps the last set-up, then times
whole operations (optimizer steps or ``dotprune eval`` calls) until
``seconds`` have passed. In a traced run the first half of the timed phase
runs untraced and the second half with the tracer installed, so the
difference between the halves is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

from dotprune import cli, encoder, pruning, synth, tables, tensor, training
import flops
from tracer import Tracer, self_times

MODULES = {"tensor": tensor, "encoder": encoder, "pruning": pruning, "tables": tables,
           "synth": synth, "training": training, "cli": cli}
SETUP_REPS = 5


class Run:
    """State and results of one benchmark run."""

    def __init__(self, name, spec, seed, seconds, trace, work_dir):
        self.name, self.spec, self.seed = name, spec, seed
        self.seconds, self.trace, self.work_dir = seconds, trace, work_dir
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        self.info: dict = {}
        self.setup_calls: dict[str, list[float]] = defaultdict(list)
        self.tracer: Tracer | None = None

    def timed_setup_call(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.setup_calls[name].append(time.perf_counter() - t0)
        return out

    def install_tracer(self, per_example_ops: bool) -> None:
        self.tracer = Tracer()
        self.tracer.install_pipeline(MODULES, per_example_ops)

    def finish_tracer(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()


def configs(spec):
    dot_cfg = training.DoTConfig(**spec["task"])
    train_cfg = training.TrainConfig(**spec["train"])
    return dot_cfg, train_cfg


def flops_self_test(run: Run, model, example) -> None:
    """Formula vs the matmul shapes one forward really runs, both towers."""
    seq = training.preselect(tables.linearize(example, model.vocab), example,
                             model.config)
    ok = True
    for weights in (model.pruning.encoder, model.task.encoder):
        seen = flops.matmul_flops_seen(tensor, encoder, weights, seq)
        ok &= seen == flops.encoder_forward_flops(weights.config, len(seq))
    run.checks["flop_formula_matches_matmuls"] = bool(ok)


def build_inputs(run: Run):
    """One set-up repetition's data and model, each call timed."""
    dot_cfg, train_cfg = configs(run.spec)
    data = run.timed_setup_call("synth.generate", synth.generate,
                                synth.GeneratorSpec(seed=run.seed, **run.spec["data"]))
    vocab = tables.Vocabulary.from_examples(data)
    model = run.timed_setup_call("training.build_model", training.build_model,
                                 dot_cfg, vocab, dtype=train_cfg.dtype, seed=train_cfg.seed)
    return data, model


# ---------------------------------------------------------------------------
# training workloads
# ---------------------------------------------------------------------------


def setup_train(run: Run):
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        data, model = build_inputs(run)
        run.setup_calls["setup"].append(time.perf_counter() - t0)
    return data, model


def timed_train(run: Run, data, model) -> None:
    spec = run.spec
    dot_cfg, train_cfg = configs(spec)
    if run.trace:
        flops_self_test(run, model, data[0])
    override = ((lambda seq: pruning.constant_scores(seq, 0.0))
                if spec["bypass_scorer"] else None)
    scorer_before = [p.data.copy() for p in model.pruning_parameters()]
    stamps: list[float] = []
    traced_from = None

    def on_step(step, _model):
        nonlocal traced_from
        now = time.perf_counter()
        if run.tracer is not None:
            run.tracer.add_root("training.step", stamps[-1], now)
            run.tracer.op = step + 1
        stamps.append(now)
        if run.trace and run.tracer is None and now - stamps[0] >= run.seconds / 2:
            run.install_tracer(per_example_ops=False)
            run.tracer.register_model(model)
            run.tracer.op = step + 1
            traced_from = len(stamps) - 1

    def stop(step, _model):
        return step >= spec["digest_ops"] and stamps[-1] - stamps[0] >= run.seconds

    losses: list[float] = []
    try:
        result = training.train(dot_cfg, train_cfg, data, model=model,
                                step_callback=on_step, stop_condition=stop,
                                scores_override=override)
        losses = [m["loss"] for m in result.metrics]
    except Exception:  # a raising step counts as failed
        traceback.print_exc(file=sys.stderr)
        run.failed += 1
        run.attempted += 1
    finally:
        run.finish_tracer()

    run.attempted += len(losses)
    run.failed += sum(not np.isfinite(v) for v in losses)
    run.checks["losses_finite"] = run.failed == 0
    moved = any(not np.array_equal(a, p.data)
                for a, p in zip(scorer_before, model.pruning_parameters()))
    run.checks["scorer_moved" if not spec["bypass_scorer"] else "scorer_frozen"] = (
        moved != spec["bypass_scorer"])
    run.info["digest"] = sha256_text(json.dumps(losses[:spec["digest_ops"]]))

    gaps = np.diff(stamps)
    untraced = gaps[:traced_from] if traced_from else gaps
    batch = train_cfg.batch_size
    run.e2e["examples_per_s"] = batch * len(untraced) / float(np.sum(untraced))
    run.e2e["step_p50_ms"] = 1000 * float(np.median(untraced))
    run.info["step_samples"] = int(len(untraced))
    run.info["op_seconds"] = [float(g) for g in gaps]
    if traced_from:
        traced = gaps[traced_from:]
        run.info["traced_steps"] = int(len(traced))
        run.layer["trace.overhead_share"] = float(np.median(traced) / np.median(untraced) - 1)
        layer_metrics(run, ops=len(traced))


# ---------------------------------------------------------------------------
# eval workload
# ---------------------------------------------------------------------------


def setup_eval(run: Run):
    per_call = run.spec["examples_per_call"]
    os.makedirs(run.work_dir, exist_ok=True)
    ckpt = os.path.join(run.work_dir, "model.ckpt")
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        data, model = build_inputs(run)
        files = []
        for i in range(0, len(data), per_call):
            files.append(os.path.join(run.work_dir, f"examples{i // per_call:03d}.jsonl"))
            tables.write_jsonl(files[-1], data[i:i + per_call])
        run.timed_setup_call("training.save_checkpoint", training.save_checkpoint,
                             ckpt, model)
        run.setup_calls["setup"].append(time.perf_counter() - t0)
    return ckpt, files, model, data[0]


def timed_eval(run: Run, ckpt, files) -> None:
    spec = run.spec
    per_call = spec["examples_per_call"]
    out_dir = os.path.join(run.work_dir, "eval")
    digest = hashlib.sha256()
    call_seconds: list[float] = []
    traced_from = None
    ok = True
    t_start = None
    try:
        for call in itertools.count():
            argv = ["eval", "--checkpoint", ckpt, "--dataset", files[call % len(files)],
                    "--out", out_dir]
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    if run.tracer is not None:
                        run.tracer.op = ("call", call)
                        rc = run.tracer.call("cli.eval", cli.main, argv)
                    else:
                        rc = cli.main(argv)
                elapsed = time.perf_counter() - t0
                with open(os.path.join(out_dir, "report.json"), "rb") as fh:
                    report_bytes = fh.read()
                with open(os.path.join(out_dir, "histogram.csv"), "rb") as fh:
                    histogram_bytes = fh.read()
                report = json.loads(report_bytes)
                call_ok = (rc == 0 and report["n_examples"] == per_call
                           and report["accuracy"] == report["accuracy_recheck"])
            except Exception:  # a raising operation counts as failed, the run goes on
                traceback.print_exc(file=sys.stderr)
                elapsed, call_ok = time.perf_counter() - t0, False
                report_bytes = histogram_bytes = b""
            run.attempted += per_call
            run.failed += 0 if call_ok else per_call
            ok &= call_ok
            if call < spec["digest_ops"]:
                digest.update(report_bytes + histogram_bytes)
            if call == 0:  # warm-up call: checked, not timed
                t_start = time.perf_counter()
                continue
            call_seconds.append(elapsed)
            since = time.perf_counter() - t_start
            if run.trace and run.tracer is None and since >= run.seconds / 2:
                run.install_tracer(per_example_ops=True)
                traced_from = len(call_seconds)
            if call >= spec["digest_ops"] and since >= run.seconds:
                break
    finally:
        run.finish_tracer()
    run.checks["eval_exit0_and_counts"] = ok
    run.info["digest"] = digest.hexdigest()

    untraced = call_seconds[:traced_from] if traced_from else call_seconds
    run.e2e["examples_per_s"] = per_call * len(untraced) / sum(untraced)
    run.e2e["step_p50_ms"] = 1000 * statistics.median(untraced)
    run.info["step_samples"] = len(untraced)
    run.info["op_seconds"] = call_seconds
    if traced_from:
        traced = call_seconds[traced_from:]
        run.info["traced_calls"] = len(traced)
        run.layer["trace.overhead_share"] = float(
            statistics.median(traced) / statistics.median(untraced) - 1)
        layer_metrics(run, ops=per_call * len(traced))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------

# span name -> per-layer metric holding its self time per operation
SELF_TIME_METRICS = {
    "tensor.backward": "tensor.backward_s",
    "tensor.adamw_step": "tensor.adamw_step_s",
    "encoder.scorer.forward": "encoder.scorer.forward_s",
    "encoder.task.forward": "encoder.task.forward_s",
    "pruning.score_tokens": "pruning.score_tokens_s",
    "pruning.select_top_k_tokens": "pruning.select_s",
    "pruning.compact": "pruning.compact_s",
    "pruning.build_bias": "pruning.build_bias_s",
    "tables.linearize": "tables.linearize_s",
    "tables.cc_select": "tables.preselect_s",
    "tables.hem_select": "tables.preselect_s",
    "tables.read_jsonl": "tables.read_jsonl_s",
    "training.dot_forward": "training.dot_forward_self_s",
    "training.compute_loss": "training.compute_loss_s",
    "training.clip_grad_norm": "training.clip_grad_norm_s",
    "training.load_checkpoint": "training.load_checkpoint_s",
    "cli.eval": "cli.eval_s",
}

# set-up call -> per-layer metric holding its median seconds per call
SETUP_METRICS = {
    "synth.generate": "synth.generate_s",
    "training.build_model": "training.build_model_s",
    "training.save_checkpoint": "training.save_checkpoint_s",
}


def _ratio(num, den) -> float:
    return float(num / den) if den else 0.0


def layer_metrics(run: Run, ops: int) -> None:
    spans = run.tracer.spans
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span, s in zip(spans, selfs):
        self_s[span.name] += s
        by_name[span.name].append(span.attrs)
    run.info["spans"] = [
        {"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
         "op": sp.op, "self_s": s, **sp.attrs} for sp, s in zip(spans, selfs)]

    def total(name, key):
        return sum(a.get(key, 0) for a in by_name[name])

    m = run.layer
    for span_name, metric in SELF_TIME_METRICS.items():
        m[metric] = m.get(metric, 0.0) + self_s[span_name] / ops
    for tower in ("scorer", "task"):
        name = f"encoder.{tower}.forward"
        m[f"encoder.{tower}.tokens"] = total(name, "tokens") / ops
        m[f"encoder.{tower}.gflops_per_s"] = _ratio(total(name, "flops") / 1e9,
                                                    self_s[name])
    task_calls = by_name["encoder.task.forward"]
    m["encoder.task.f64_output_share"] = _ratio(sum(a["f64"] for a in task_calls),
                                                len(task_calls))
    forward_flops = total("encoder.scorer.forward", "flops") + total(
        "encoder.task.forward", "flops")
    backward_flops = 2 * forward_flops if by_name["tensor.backward"] else 0
    m["tensor.backward_gflops_per_s"] = _ratio(backward_flops / 1e9,
                                               self_s["tensor.backward"])
    m["tensor.graph_nodes"] = total("tensor.backward", "graph_nodes") / ops
    m["tensor.graph_nodes_f64"] = total("tensor.backward", "graph_nodes_f64") / ops
    m["tensor.adamw_bytes"] = total("tensor.adamw_step", "bytes") / ops
    forwards = by_name["training.dot_forward"]
    m["pruning.keep_share"] = _ratio(total("training.dot_forward", "kept_tokens"),
                                     total("training.dot_forward", "pre_tokens"))
    answered = [a["answer_kept"] for a in forwards if "answer_kept" in a]
    m["pruning.answer_kept_share"] = _ratio(sum(answered), len(answered))
    pre_in = total("tables.cc_select", "tokens_in") + total("tables.hem_select", "tokens_in")
    pre_out = total("tables.cc_select", "tokens_out") + total("tables.hem_select",
                                                              "tokens_out")
    m["tables.preselect_keep_share"] = _ratio(pre_out, pre_in)
    examples = {a["example_key"] for a in forwards}
    m["cli.forward_passes_per_example"] = _ratio(len(forwards), len(examples))


def setup_layer_metrics(run: Run) -> None:
    for call, metric in SETUP_METRICS.items():
        times = run.setup_calls.get(call)
        run.layer[metric] = statistics.median(times) if times else 0.0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute(run: Run) -> float:
    """Set up and time one workload; returns the median set-up seconds."""
    if run.spec["kind"] == "train":
        data, model = setup_train(run)
        setup_s = statistics.median(run.setup_calls["setup"])
        timed_train(run, data, model)
    else:
        try:
            ckpt, files, model, example = setup_eval(run)
            setup_s = statistics.median(run.setup_calls["setup"])
            if run.trace:
                flops_self_test(run, model, example)
            del model
            timed_eval(run, ckpt, files)
        finally:
            shutil.rmtree(run.work_dir, ignore_errors=True)
    setup_layer_metrics(run)
    return setup_s
