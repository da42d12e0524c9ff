"""The benchmark's tracer and FLOP cross-check still fit the package.

``perfbench/`` wraps module attributes that the pipeline looks up at call
time and counts the FLOPs of every ``tensor.matmul``. Every GEMM, forward and
backward, is a ``tensor.matmul`` call, so a counter over it sees a layer's
backward as exactly twice its forward, as ``flops.encoder_forward_flops``
states. A rename of a wrapped function, or a GEMM that bypasses
``tensor.matmul``, fails here.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from dotprune import encoder, pruning, tables, tensor, training
from dotprune import synth

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"tensor": tensor, "encoder": encoder, "pruning": pruning, "tables": tables,
           "synth": synth, "training": training}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import flops
    import tracer

    return tracer, flops


def test_tracer_wraps_the_pipeline_and_flops_match_matmuls(perfbench):
    import helpers

    tracer_mod, flops = perfbench
    examples = synth.generate(synth.GeneratorSpec(seed=2, n_examples=1, min_rows=2,
                                                  max_rows=2, max_cell_tokens=1,
                                                  vocab_size=20))
    model = helpers.tiny_model(examples, dtype=np.float32, hidden=8, layers=1)
    seq = training.preselect(tables.linearize(examples[0], model.vocab), examples[0],
                             model.config)
    tracer = tracer_mod.Tracer()
    tracer.install_pipeline(MODULES, per_example_ops=False)
    try:
        tracer.register_model(model)
        out = training.dot_forward(model, examples[0])
        training.compute_loss(model, out, examples[0])
        pipeline_spans = len(tracer.spans)
        flops_seen = [flops.matmul_flops_seen(tensor, encoder, weights, seq)
                      for weights in (model.pruning.encoder, model.task.encoder)]
    finally:
        tracer.uninstall()
    assert tracer_mod.unwrapped(MODULES)
    names = {s.name for s in tracer.spans[:pipeline_spans]}
    assert {"training.dot_forward", "pruning.score_tokens", "pruning.build_bias",
            "training.compute_loss"} <= names
    assert not any(name.startswith("encoder.") for name in names)
    # the pipeline runs the batched forward; the encoder spans come from the
    # FLOP cross-check's one-sequence ``encoder.forward`` calls
    assert [(s.name, s.attrs["tokens"]) for s in tracer.spans[pipeline_spans:]] == [
        ("encoder.scorer.forward", len(seq)), ("encoder.task.forward", len(seq))]

    for weights, seen in zip((model.pruning.encoder, model.task.encoder), flops_seen):
        assert seen == flops.encoder_forward_flops(weights.config, len(seq))


def count_matmul_flops(monkeypatch) -> list[int]:
    """FLOPs of each later ``tensor.matmul`` call, counted as
    ``flops.matmul_flops_seen`` counts them."""
    original, seen = tensor.matmul, []

    def counting(a, b):
        out = original(a, b)
        batch = int(np.prod(out.shape[:-2], dtype=np.int64))
        seen.append(2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1])
        return out

    monkeypatch.setattr(tensor, "matmul", counting)
    return seen


def test_a_matmul_counter_sees_every_gemm_of_a_layer_forward_and_backward(
        perfbench, monkeypatch):
    _, flops = perfbench
    batch, n = 3, 7
    cfg = encoder.EncoderConfig(num_layers=1, hidden=16, num_heads=2, intermediate=32,
                                vocab_size=20)
    per_layer = (flops.encoder_forward_flops(dataclasses.replace(cfg, num_layers=2), n)
                 - flops.encoder_forward_flops(cfg, n))
    lw = encoder.init_weights(cfg, np.random.default_rng(0), dtype=np.float64).layers[0]
    rng = np.random.default_rng(0)
    x = tensor.Tensor(rng.normal(size=(batch, n, cfg.hidden)), requires_grad=True)
    bias = tensor.Tensor(-rng.random((batch, n)), requires_grad=True)
    seen = count_matmul_flops(monkeypatch)
    out = encoder.layer(x, lw, bias, cfg.num_heads)
    assert sum(seen) == batch * per_layer
    seen.clear()
    tensor.backward(tensor.tensor_sum(out), [x, bias] + list(vars(lw).values()))
    assert sum(seen) == 2 * batch * per_layer

    # the graph op's backward (the head, the pooler) runs its two products
    # through the counter too
    a = tensor.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w = tensor.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    seen.clear()
    tensor.backward(tensor.tensor_sum(tensor.matmul(a, w)), [a, w])
    assert seen == [2 * 5 * 4 * 3] * 3


def test_tracer_survives_batched_training_steps(perfbench):
    import helpers

    tracer_mod, _ = perfbench
    examples = synth.generate(synth.GeneratorSpec(seed=3, n_examples=4, min_rows=2,
                                                  max_rows=4, max_cell_tokens=1,
                                                  vocab_size=20))
    model = helpers.tiny_model(examples, dtype=np.float32, hidden=8, layers=1)
    tracer = tracer_mod.Tracer()
    tracer.install_pipeline(MODULES, per_example_ops=False)
    try:
        tracer.register_model(model)
        result = training.train(model.config,
                                training.TrainConfig(num_steps=2, batch_size=2),
                                examples, model=model)
    finally:
        tracer.uninstall()
    assert tracer_mod.unwrapped(MODULES)
    assert len(result.metrics) == 2
    backward = [s for s in tracer.spans if s.name == "tensor.backward"]
    assert len(backward) == 2
    assert all(s.attrs["graph_nodes"] > 0 and s.attrs["graph_nodes_f64"] == 0
               for s in backward)
    # the scorer runs once per step on the padded batch, through the traced
    # entry point
    assert sum(s.name == "pruning.score_tokens" for s in tracer.spans) == 2
    # AdamW runs once per optimizer group, scorer first; the tracer counts 7
    # passes over each group's parameter bytes
    group_bytes = [7 * sum(p.data.nbytes for p in group)
                   for group in (model.pruning.parameters(), model.task.parameters())]
    adamw = [s.attrs["bytes"] for s in tracer.spans if s.name == "tensor.adamw_step"]
    assert adamw == group_bytes * 2
    assert sum(s.name == "training.clip_grad_norm" for s in tracer.spans) == 2


def test_single_tower_training_bypasses_and_freezes_the_scorer(perfbench):
    # the train_full workload's override: the task tower trains alone on
    # constant scores, which still go through selection and the bias
    import helpers

    tracer_mod, _ = perfbench
    examples = synth.generate(synth.GeneratorSpec(seed=3, n_examples=4, min_rows=2,
                                                  max_rows=4, max_cell_tokens=1,
                                                  vocab_size=20))
    model = helpers.tiny_model(examples, dtype=np.float32, hidden=8, layers=1)
    scorer_before = [p.data.copy() for p in model.pruning_parameters()]
    task_before = [p.data.copy() for p in model.task.parameters()]
    tracer = tracer_mod.Tracer()
    tracer.install_pipeline(MODULES, per_example_ops=False)
    try:
        tracer.register_model(model)
        result = training.train(model.config,
                                training.TrainConfig(num_steps=2, batch_size=2),
                                examples, model=model,
                                scores_override=lambda seq: pruning.constant_scores(seq, 0.0))
    finally:
        tracer.uninstall()
    assert tracer_mod.unwrapped(MODULES)
    assert len(result.metrics) == 2
    assert all(np.array_equal(before, p.data)
               for before, p in zip(scorer_before, model.pruning_parameters()))
    assert any(not np.array_equal(before, p.data)
               for before, p in zip(task_before, model.task.parameters()))
    task_bytes = 7 * sum(p.data.nbytes for p in model.task.parameters())
    assert [s.attrs["bytes"] for s in tracer.spans
            if s.name == "tensor.adamw_step"] == [task_bytes] * 2
    names = {s.name for s in tracer.spans}
    assert "pruning.score_tokens" not in names
    assert "training.clip_grad_norm" in names
    assert {"pruning.select_top_k_tokens", "pruning.build_bias"} <= names
