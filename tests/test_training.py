import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from dotprune import encoder as enc
from dotprune import pruning as pr
from dotprune import synth
from dotprune import tensor as T
from dotprune import training as tr
from dotprune.errors import ConfigError, ContractError, TrainingDivergedError
from helpers import tiny_model, workers


def loss_of(model, out, ex, mode="J", beta=1.0):
    """``compute_loss`` under the given loss mode and beta."""
    model.config = dataclasses.replace(model.config, loss_mode=mode, beta=beta)
    return tr.compute_loss(model, out, ex)


def forward_in(model, ex, mode, **kw):
    """``dot_forward_batch`` on one example under the given loss mode; P mode
    detaches the bias."""
    model.config = dataclasses.replace(model.config, loss_mode=mode)
    return tr.dot_forward_batch(model, [ex], **kw)[0]


def lookup_data(n=8, seed=0, **kw):
    spec_kw = dict(seed=seed, n_examples=n, min_rows=2, max_rows=3, min_cols=2,
                   max_cols=3, max_cell_tokens=1, vocab_size=24)
    spec_kw.update(kw)
    return synth.generate(synth.GeneratorSpec(**spec_kw))


def test_dot_config_validation():
    with pytest.raises(ConfigError):
        tr.DoTConfig(pre_limit=16, k=32)
    with pytest.raises(ConfigError):
        tr.DoTConfig(beta=-1.0)
    with pytest.raises(ConfigError):
        tr.DoTConfig(loss_mode="Q")
    with pytest.raises(ConfigError):
        tr.TrainConfig(warmup_ratio=1.5)


@pytest.mark.parametrize("field", ["num_steps", "batch_size"])
@pytest.mark.parametrize("value", [0, -1])
def test_train_config_rejects_counts_below_one(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
        tr.TrainConfig(**{field: value})


F32_RUN_WITHOUT_SCIPY = textwrap.dedent("""
    import sys
    import numpy as np
    from dotprune import cli, synth, training
    from helpers import tiny_model, workers

    data = synth.generate(synth.GeneratorSpec(seed=0, n_examples=4, min_rows=2,
                                              max_rows=2, max_cell_tokens=1,
                                              vocab_size=20))
    model = tiny_model(data, dtype=np.float32, hidden=8, layers=1)
    training.evaluate(model, data)
    training.train(model.config, training.TrainConfig(num_steps=1, batch_size=2),
                   data, model=model)
    assert "scipy" not in sys.modules
""")


def test_an_f32_run_does_not_import_scipy():
    """scipy is the float64 GELU reference; float32 evaluation and training need only numpy."""
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", F32_RUN_WITHOUT_SCIPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_forward_with_zero_scores_matches_plain_task_model():
    data = lookup_data()
    cfg = tr.DoTConfig(pre_limit=48, k=48)
    model = tiny_model(data, cfg)
    ex = data[0]
    out = tr.dot_forward_batch(model, [ex],
                               scores_override=lambda s, _ex: pr.constant_scores(s, 0.0))[0]
    with T.no_grad():
        from dotprune.tables import linearize
        pre = tr.preselect(linearize(ex, model.vocab), ex, cfg)
        hidden, _ = enc.forward(model.task.encoder, pre)
        plain_logits = T.reshape(
            T.add(T.matmul(hidden, model.task.head_w), model.task.head_b), (len(pre),))
    np.testing.assert_array_equal(out.logits.data, plain_logits.data)


def test_classification_head_is_single_logit():
    data = synth.generate(synth.GeneratorSpec(seed=2, n_examples=4, min_rows=2,
                                              max_rows=2, max_cell_tokens=1,
                                              task_type="entailment"))
    cfg = tr.DoTConfig(pre_limit=48, k=12, task_type="classification")
    model = tiny_model(data, cfg)
    out = tr.dot_forward(model, data[0])
    assert out.logits.shape == (1,)


def test_cell_selection_logits_cover_kept_table_tokens():
    data = lookup_data()
    model = tiny_model(data)
    out = tr.dot_forward(model, data[0])
    assert out.logits.shape == (len(out.compact_seq),)
    assert all(out.compact_seq.segment_ids[j] == 1 for j in out.kept_table_slots)
    assert out.kept_table_targets.shape == (len(out.kept_table_slots),)


def test_loss_j_perfect_logits_near_zero():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward(model, ex)
    forced = np.where(out.kept_table_targets > 0, 40.0, -40.0)
    logits = np.zeros(len(out.compact_seq))
    for j, v in zip(out.kept_table_slots, forced):
        logits[j] = v
    out.logits = T.Tensor(logits)
    assert float(loss_of(model, out, ex).data) < 1e-12


def test_loss_j_gradient_reaches_pruning_weights():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward(model, ex)
    loss = loss_of(model, out, ex)
    grads = dict(zip(map(id, model.parameters()), T.backward(loss, model.parameters())))
    head_grad = np.abs(grads[id(model.pruning.head_w)]).max()
    assert head_grad > 0.0


def test_loss_j_beta_zero_gives_zero_loss_and_grads():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward(model, ex)
    loss = loss_of(model, out, ex, beta=0.0)
    assert float(loss.data) == 0.0
    assert all(np.all(g == 0) for g in T.backward(loss, model.parameters()))


def test_j_gradients_flow_only_through_bias():
    # A P-mode forward detaches the bias, so the task loss (the whole J loss)
    # must not reach the scorer at all.
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = forward_in(model, ex, "P")
    assert out.bias_detached
    loss = tr._task_scalar_loss(out, ex, model.config.task_type)
    grads = T.backward(loss, model.pruning_parameters() + model.task.parameters())
    n_pruning = len(model.pruning_parameters())
    assert all(np.all(g == 0) for g in grads[:n_pruning])
    assert any(np.any(g != 0) for g in grads[n_pruning:])


def test_loss_p_requires_detached_bias():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward(model, ex)
    with pytest.raises(ContractError):
        loss_of(model, out, ex, "P")


def test_loss_p_task_term_detached_but_aux_term_reaches_scorer():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = forward_in(model, ex, "P")
    loss = loss_of(model, out, ex, "P")
    (head_grad,) = T.backward(loss, [model.pruning.head_w])
    assert np.abs(head_grad).max() > 0.0


def test_pruning_term_zero_at_perfect_scores():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward(model, ex)
    pre = out.pre_seq
    perfect = np.array([40.0 if pre.cell(i) in ex.answer_coords else -40.0
                        for i in range(len(pre))])
    out.scores = pr.PruningScores(seq=pre, log_probs=T.Tensor(perfect),
                                  logits=T.Tensor(perfect))
    assert float(tr._pruning_scalar_loss(out, ex).data) < 1e-12


def test_p_equals_pj_value_when_bias_zero_everywhere():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    override = lambda s, _ex: pr.constant_scores(s, 0.0)
    detached = forward_in(model, ex, "P", scores_override=override)
    attached = forward_in(model, ex, "PJ", scores_override=override)
    p = float(loss_of(model, detached, ex, "P", 0.7).data)
    pj = float(loss_of(model, attached, ex, "PJ", 0.7).data)
    assert abs(p - pj) < 1e-12


def test_pj_gradient_is_sum_of_both_paths():
    # By construction PJ = (task|bias) + aux, J = (task|bias), P = detached + aux,
    # so on the scorer's parameters grad(PJ) == grad(J) + grad(P).
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]

    def grads_of(loss_fn, mode):
        out = forward_in(model, ex, mode)
        return T.backward(loss_fn(out), model.pruning_parameters())

    g_pj = grads_of(lambda o: loss_of(model, o, ex, "PJ"), "PJ")
    g_j = grads_of(lambda o: loss_of(model, o, ex, "J"), "J")
    g_p = grads_of(lambda o: loss_of(model, o, ex, "P"), "P")
    assert any(np.abs(g).max() > 0 for g in g_j)
    assert any(np.abs(g).max() > 0 for g in g_p)
    for a, b, c in zip(g_pj, g_j, g_p):
        np.testing.assert_allclose(a, b + c, atol=1e-12)


def test_pj_is_j_plus_beta_times_pruning_term():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward(model, ex)
    pj = float(loss_of(model, out, ex, "PJ", 1.3).data)
    j = float(loss_of(model, out, ex, "J", 1.3).data)
    aux = float(tr._pruning_scalar_loss(out, ex).data)
    assert aux > 0.0
    assert abs(pj - (j + 1.3 * aux)) < 1e-12


def test_pj_loss_finite_at_score_floor():
    data = lookup_data()
    model = tiny_model(data)
    model.pruning.head_w.data[:] = 0.0
    model.pruning.head_b.data[:] = -60.0  # scores clip at the floor
    ex = data[0]
    out = tr.dot_forward(model, ex)
    assert (out.scores.values >= pr.SCORE_FLOOR).all()
    assert np.isfinite(float(loss_of(model, out, ex, "PJ").data))


def test_answer_score_gap_uniform_scores_zero():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward_batch(model, [ex],
                               scores_override=lambda s, _ex: pr.constant_scores(s, -0.3))[0]
    assert tr.answer_score_gap(out.scores, out.selection, ex) == pytest.approx(0.0, abs=1e-12)


def test_answer_score_gap_positive_when_answers_score_highest():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward_batch(
        model, [ex], scores_override=lambda s, ex: pr.oracle_scores(s, ex.answer_coords))[0]
    assert tr.answer_score_gap(out.scores, out.selection, ex) > 0.0


def test_answer_score_gap_matches_two_mean_oracle():
    rng = np.random.default_rng(3)
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    out = tr.dot_forward(model, ex)
    vals = -rng.random(len(out.pre_seq))
    scores = pr.PruningScores(seq=out.pre_seq, log_probs=T.Tensor(vals),
                              logits=T.Tensor(vals))
    got = tr.answer_score_gap(scores, out.selection, ex)
    ans = [i for i in range(len(out.pre_seq))
           if out.pre_seq.cell(i) in ex.answer_coords]
    expect = vals[ans].mean() - vals[list(out.selection.kept_indices)].mean()
    assert got == pytest.approx(expect, abs=1e-12)


def test_lr_schedule_warmup_then_linear_decay():
    cfg = tr.TrainConfig(learning_rate=1.0, warmup_ratio=0.1, num_steps=100)
    assert tr.lr_at(1, cfg) == pytest.approx(0.1)
    assert tr.lr_at(10, cfg) == pytest.approx(1.0)
    assert tr.lr_at(55, cfg) == pytest.approx(0.5)
    assert tr.lr_at(100, cfg) == pytest.approx(0.0)


def test_train_smoke_loss_decreases():
    data = lookup_data(n=24, seed=4)
    model = tiny_model(data, tr.DoTConfig(pre_limit=48, k=10))
    result = tr.train(model.config,
                      tr.TrainConfig(num_steps=60, batch_size=2, learning_rate=3e-3,
                                     seed=1, precision="f64"),
                      data, model=model)
    losses = [m["loss"] for m in result.metrics]
    first, last = np.mean(losses[:20]), np.mean(losses[-20:])
    assert last < first


def test_exploration_noise_rotates_selection_but_not_bias():
    data = lookup_data()
    model = tiny_model(data)
    ex = data[0]
    rng = np.random.default_rng(0)
    base = tr.dot_forward(model, ex)
    noisy = tr.dot_forward(model, ex, select=tr.explore(5.0, rng, model.config))
    # scores and bias values are untouched by the noise
    np.testing.assert_array_equal(base.scores.values, noisy.scores.values)
    # with a large sigma the kept set should differ from the clean ranking
    diffs = [tr.dot_forward(model, ex,
                            select=tr.explore(5.0, np.random.default_rng(s), model.config)
                            ).selection.kept_indices
             for s in range(6)]
    assert len({d for d in diffs}) > 1


def test_exploration_training_is_still_deterministic():
    data = lookup_data(n=10, seed=12)

    def run():
        model = tiny_model(data, seed=5)
        res = tr.train(model.config,
                       tr.TrainConfig(num_steps=6, batch_size=2, seed=2,
                                      precision="f64", exploration_noise=1.5),
                       data, model=model)
        return [(m["loss"], m["answer_pruned"]) for m in res.metrics]

    assert run() == run()


def stream_state(generator):
    state = generator.bit_generator.state["state"]
    return state["state"], state["inc"]


def test_no_two_random_streams_of_a_run_start_alike(monkeypatch):
    # the data order once restarted the task tower's init stream
    data = lookup_data(n=4, seed=6)
    states = []
    real = np.random.Generator

    def spy(bit_generator):
        generator = real(bit_generator)
        states.append(stream_state(generator))
        return generator

    monkeypatch.setattr(np.random, "Generator", spy)
    model = tiny_model(data, seed=2)
    tr.train(model.config, tr.TrainConfig(num_steps=1, batch_size=2, seed=2, precision="f64",
                                          exploration_noise=1.0), data, model=model)
    assert len(set(states)) == len(states)
    assert len(states) == 4  # scorer init, task init, data order, exploration


def test_the_streams_of_ten_seeds_are_pairwise_distinct():
    keys = ([tr.SCORER_INIT, tr.TASK_INIT, tr.DATA_ORDER, tr.EXPLORATION]
            + [(i,) for i in range(256)])  # synth's example streams
    states = {stream_state(synth.stream(seed, *key)) for seed in range(10) for key in keys}
    assert len(states) == 10 * len(keys)


@pytest.mark.parametrize("tower, key", [("pruning", tr.SCORER_INIT), ("task", tr.TASK_INIT)],
                         ids=["pruning", "task"])
def test_build_model_draws_each_tower_from_its_purpose_stream(tower, key):
    built = getattr(tiny_model(lookup_data(n=4, seed=6), seed=7), tower)
    config = built.encoder.config
    expected = enc.init_tower(config, synth.stream(7, *key), np.float64)
    named = built.encoder.named_tensors()
    for name, t in expected.encoder.named_tensors().items():
        assert (named[name].data == t.data).all(), name
    assert (built.head_w.data == expected.head_w.data).all()
    assert (built.head_b.data == expected.head_b.data).all()


def test_train_same_seed_bit_identical_metrics():
    data = lookup_data(n=12, seed=5)

    def run():
        model = tiny_model(data, seed=7)
        res = tr.train(model.config,
                       tr.TrainConfig(num_steps=8, batch_size=2, seed=3,
                                      precision="f64"),
                       data, model=model)
        return [(m["step"], m["loss"], m["lr"], m["answer_score_gap"], m["answer_pruned"])
                for m in res.metrics]

    assert run() == run()


def test_train_divergence_aborts_with_diagnostic():
    data = lookup_data(n=4, seed=6)
    model = tiny_model(data)
    model.task.head_w.data[0, 0] = np.nan
    with pytest.raises(TrainingDivergedError, match="step 1"):
        tr.train(model.config, tr.TrainConfig(num_steps=3, batch_size=1, precision="f64"),
                 data, model=model)


def test_a_non_finite_gradient_stops_training_at_its_own_step(monkeypatch):
    data = lookup_data(n=4, seed=6)
    model = tiny_model(data)
    params = model.parameters()
    backward = T.backward
    calls = []

    def inf_at_step_two(loss, params):
        grads = backward(loss, params)
        calls.append(1)
        if len(calls) == 2:
            grads[0] = grads[0].copy()
            grads[0].reshape(-1)[0] = np.inf
        return grads

    after = {}
    monkeypatch.setattr(T, "backward", inf_at_step_two)
    with pytest.raises(TrainingDivergedError, match="gradient norm became inf at step 2 "):
        tr.train(model.config, tr.TrainConfig(num_steps=3, batch_size=1, precision="f64"),
                 data, model=model,
                 step_callback=lambda step, m: after.setdefault(
                     step, [p.data.copy() for p in params]))
    assert list(after) == [1]
    for p, value in zip(params, after[1]):
        assert np.array_equal(p.data, value)


def test_the_select_hook_picks_the_kept_set_and_the_bias_keeps_clean_scores(monkeypatch):
    data = lookup_data(n=3, seed=7)
    model = tiny_model(data)
    k = model.config.k

    def last_tokens(seq):  # the question span and the last table tokens
        qspan = tuple(seq.question_span())
        return pr.Selection(qspan + tuple(seq.table_indices())[len(qspan) - k:], k=k)

    hook_values, encoder_biases = [], []

    def hook(values, seq):
        hook_values.append(values.copy())
        return last_tokens(seq)

    forward_batch = enc.forward_batch

    def recording(weights, seqs, biases=None):
        encoder_biases.append(biases)
        return forward_batch(weights, seqs, biases)

    monkeypatch.setattr(enc, "forward_batch", recording)
    outs = tr.dot_forward_batch(model, data, select=hook)
    assert len(hook_values) == len(data)
    assert any(out.selection != pr.select(out.scores.values, out.pre_seq, k, "token")
               for out in outs)
    for out, values, bias in zip(outs, hook_values, encoder_biases[-1]):  # the task tower's
        assert out.selection == last_tokens(out.pre_seq)
        np.testing.assert_array_equal(values, out.scores.values)
        kept = list(out.selection.kept_indices)
        table = np.asarray(out.pre_seq.segment_ids)[kept] == 1
        np.testing.assert_array_equal(bias.data, np.where(table, out.scores.values[kept], 0.0))


def test_an_empty_batch_is_refused_with_the_package_error():
    model = tiny_model(lookup_data(n=2))
    for override in (None, lambda seq, _ex: pr.constant_scores(seq, 0.0)):
        with pytest.raises(ContractError, match="at least one sequence"):
            tr.dot_forward_batch(model, [], scores_override=override)


def test_train_rejects_model_built_for_another_config():
    data = lookup_data(n=4, seed=6)
    model = tiny_model(data, tr.DoTConfig(pre_limit=48, k=10, loss_mode="J"))
    with pytest.raises(ContractError, match="built for"):
        tr.train(tr.DoTConfig(pre_limit=48, k=10, loss_mode="P"),
                 tr.TrainConfig(num_steps=1, batch_size=1, precision="f64"),
                 data, model=model)


def test_train_rejects_model_in_another_precision():
    data = lookup_data(n=4, seed=6)
    model = tiny_model(data, dtype=np.float64)
    with pytest.raises(ContractError, match="f32"):
        tr.train(model.config, tr.TrainConfig(num_steps=1, batch_size=1, precision="f32"),
                 data, model=model)


def test_train_rejects_empty_dataset():
    with pytest.raises(ContractError):
        tr.train(tr.DoTConfig(), tr.TrainConfig(), [])


def test_evaluate_rejects_empty_dataset():
    model = tiny_model(lookup_data(n=2))
    with pytest.raises(ContractError, match="dataset is empty"):
        tr.evaluate(model, [])


def test_oracle_scores_match_plain_task_model_on_answer_rows():
    data = lookup_data(n=6, seed=8)
    cfg = tr.DoTConfig(pre_limit=48, k=24)
    model = tiny_model(data, cfg)
    from dotprune.tables import linearize
    for ex in data:
        out = tr.dot_forward_batch(
            model, [ex], scores_override=lambda s, ex: pr.oracle_scores(s, ex.answer_coords))[0]
        # plain task model fed exactly question + answer-row tokens
        pre = tr.preselect(linearize(ex, model.vocab), ex, cfg)
        answer_rows = {r for r, _ in ex.answer_coords}
        kept = [i for i in range(len(pre))
                if pre.segment_ids[i] == 0 or (pre.row_ids[i] - 1) in answer_rows]
        manual = pre.subsequence(kept, keep_positions=True)
        with T.no_grad():
            hidden, _ = enc.forward(model.task.encoder, manual)
            plain = T.add(T.matmul(hidden, model.task.head_w), model.task.head_b)
        if len(out.compact_seq) == len(manual):
            np.testing.assert_allclose(out.logits.data,
                                       plain.data.ravel(), atol=1e-9)


def test_checkpoint_round_trip_preserves_outputs(tmp_path):
    data = lookup_data(n=4, seed=9)
    model = tiny_model(data)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, model)
    loaded = tr.load_checkpoint(path)
    ex = data[0]
    with T.no_grad():
        a = tr.dot_forward(model, ex)
        b = tr.dot_forward(loaded, ex)
    np.testing.assert_array_equal(a.logits.data, b.logits.data)
    assert a.selection.kept_indices == b.selection.kept_indices


def test_evaluate_reports_rates():
    data = lookup_data(n=6, seed=10)
    model = tiny_model(data)
    report = tr.evaluate(model, data)
    assert 0.0 <= report.accuracy <= 1.0
    assert report.n_examples == 6
    assert 0.0 <= report.answer_pruned_rate <= 1.0
    assert len(report.correct_flags) == 6


def test_evaluate_with_oracle_scores_is_perfect_when_task_sees_answers():
    # Oracle keeps the answer row; with forced-perfect task logits the
    # prediction must match the gold cell on every example.
    data = lookup_data(n=5, seed=11)
    cfg = tr.DoTConfig(pre_limit=48, k=24)
    model = tiny_model(data, cfg)
    for ex in data:
        out = tr.dot_forward_batch(
            model, [ex], scores_override=lambda s, ex: pr.oracle_scores(s, ex.answer_coords))[0]
        assert not out.answer_pruned
        forced = np.zeros(len(out.compact_seq))
        for j in out.kept_table_slots:
            forced[j] = 30.0 if out.compact_seq.cell(j) in ex.answer_coords else -30.0
        out.logits = T.Tensor(forced)
        assert tr.predict_cells(out) == ex.answer_coords


# ---------------------------------------------------------------------------
# batched evaluation against the one-example-at-a-time path
# ---------------------------------------------------------------------------


def per_example_evaluate(model, examples, scores_override=None):
    """The reference: ``evaluate``'s report fields, computed one example at a
    time through ``dot_forward_batch``, and each example's outputs."""
    outs, predictions, correct, gaps = [], [], [], []
    with T.no_grad():
        for ex in examples:
            (out,) = tr.dot_forward_batch(model, [ex], scores_override=scores_override)
            if model.config.task_type == "cell_selection":
                pred = tr.predict_cells(out)
                correct.append(pred == ex.answer_coords)
            else:
                pred = int(out.logits.data[0] > 0)
                correct.append(pred == ex.label)
            predictions.append(pred)
            gap = tr.answer_score_gap(out.scores, out.selection, ex)
            if gap is not None:
                gaps.append(gap)
            outs.append(out)
    pruned_rate = sum(out.answer_pruned for out in outs) / len(examples)
    return predictions, correct, gaps, pruned_rate, outs


EVAL_CASES = {"token": {}, "column": {"selection_mode": "column"},
              "classification": {"task_type": "classification"}, "oracle": {}}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", EVAL_CASES)
def test_batched_evaluate_matches_the_per_example_path(monkeypatch, case, dtype):
    # eleven examples of unequal length at pre_limit 256: chunks of 8 + 3
    task = "entailment" if case == "classification" else "lookup"
    data = lookup_data(n=11, seed=12, max_rows=5, max_cols=4, max_cell_tokens=2,
                       task_type=task)
    model = tiny_model(data, tr.DoTConfig(pre_limit=256, k=12, **EVAL_CASES[case]),
                       dtype=dtype)
    override = ((lambda s, ex: pr.oracle_scores(s, ex.answer_coords))
                if case == "oracle" else None)
    chunks = []
    original = tr.dot_forward_batch

    def recording(model, examples, **kw):
        chunks.append(original(model, examples, **kw))
        return chunks[-1]

    monkeypatch.setattr(tr, "dot_forward_batch", recording)
    report = tr.evaluate(model, data, scores_override=override)
    monkeypatch.undo()
    assert [len(chunk) for chunk in chunks] == [8, 3]
    predictions, correct, gaps, pruned_rate, ref_outs = per_example_evaluate(
        model, data, override)
    outs = [out for chunk in chunks for out in chunk]
    assert len({len(out.pre_seq) for out in outs}) > 1
    for out, ref in zip(outs, ref_outs):
        assert out.selection == ref.selection
        np.testing.assert_allclose(out.logits.data, ref.logits.data, rtol=0,
                                   atol=1e-6 if dtype == np.float32 else 1e-12)
    if dtype == np.float64:
        assert report.predictions == predictions
        assert report.correct_flags == correct
        assert report.answer_pruned_rate == pruned_rate
        np.testing.assert_allclose(report.gaps, gaps, rtol=1e-12, atol=0)
    assert report.n_examples == 11


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_evaluate_on_workers_matches_one_worker(dtype):
    data = lookup_data(n=11, seed=13, max_rows=5, max_cols=4, max_cell_tokens=2)
    model = tiny_model(data, tr.DoTConfig(pre_limit=256, k=12), dtype=dtype)
    reports = []
    for w in (1, 2):
        with workers(w):
            reports.append(tr.evaluate(model, data))
    one, two = reports
    assert two.predictions == one.predictions
    assert two.correct_flags == one.correct_flags
    assert two.answer_pruned_rate == one.answer_pruned_rate
    assert T._grad_enabled


MODES = [(mode, selection) for mode in ("J", "P", "PJ") for selection in ("token", "column")]


def padded_batch_model(dtype, mode, selection):
    """Four examples of unequal preselected length (the scorer batch is
    padded); column selection keeps unequal counts (the task batch is too)."""
    data = lookup_data(n=4, seed=3, max_rows=5, max_cols=4, max_cell_tokens=2)
    cfg = tr.DoTConfig(pre_limit=48, k=10, loss_mode=mode, selection_mode=selection)
    return data, tiny_model(data, cfg, dtype=dtype)


def summed_loss(model, examples, batched, scores_override=None):
    if batched:
        outs = tr.dot_forward_batch(model, examples, scores_override=scores_override)
    else:
        outs = [tr.dot_forward_batch(model, [ex], scores_override=scores_override)[0]
                for ex in examples]
    losses = [tr.compute_loss(model, out, ex) for out, ex in zip(outs, examples)]
    total = losses[0]
    for loss in losses[1:]:
        total = T.add(total, loss)
    return total, outs


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("mode,selection", MODES)
def test_batched_loss_and_gradients_match_batch_of_one(dtype, tol, mode, selection):
    data, model = padded_batch_model(dtype, mode, selection)
    params = model.parameters()
    results = []
    for batched in (False, True):
        total, outs = summed_loss(model, data, batched)
        results.append((float(total.data), T.backward(total, params)))
    assert len({len(out.pre_seq) for out in outs}) > 1
    if selection == "column":
        assert len({len(out.compact_seq) for out in outs}) > 1
    (loss_one, grads_one), (loss_batch, grads_batch) = results
    assert abs(loss_batch - loss_one) <= tol * abs(loss_one)
    # the key biases' true gradient is zero (a softmax row is shift-invariant),
    # so every entry is compared on the scale of the largest gradient
    scale = max(np.max(np.abs(g)) for g in grads_one)
    for one, batch in zip(grads_one, grads_batch):
        assert (np.abs(batch - one) <= tol * (np.abs(one) + scale)).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode,selection", MODES)
def test_every_node_of_the_loss_graph_has_the_model_dtype(dtype, mode, selection):
    data, model = padded_batch_model(dtype, mode, selection)
    overrides = (None, lambda seq, _ex: pr.constant_scores(seq, 0.0),
                 lambda seq, _ex: pr.oracle_scores(seq, data[0].answer_coords))
    for override in overrides:
        for batched in (False, True):
            total, _ = summed_loss(model, data[:2], batched, scores_override=override)
            assert {node.dtype for node in T.trace(total).nodes} == {np.dtype(dtype)}


def test_override_scores_that_are_not_a_float_array_per_token_are_refused():
    # a Tensor (graph or not), a PruningScores, a wrong-length array and an
    # integer array are all refused, and so is a float array holding NaN or
    # a score above 0, on a table token or a question token
    data = lookup_data(n=1)
    model = tiny_model(data, dtype=np.float32)
    zeros = lambda seq: np.zeros(len(seq), dtype=np.float32)

    pre = tr.dot_forward(model, data[0]).pre_seq
    table, question = pre.table_indices()[-1], pre.question_span()[0]

    def bad_at(value, *positions):
        def override(seq, _ex):
            values = zeros(seq)
            values[list(positions)] = value
            return values
        return override

    shape = "a float array of \\d+ values, got "
    overrides = {
        shape + "Tensor": lambda seq, _ex: T.Tensor(zeros(seq), requires_grad=True),
        shape + "PruningScores": lambda seq, _ex: pr.PruningScores(
            seq=seq, log_probs=T.Tensor(zeros(seq)), logits=T.Tensor(zeros(seq))),
        shape + r"float64 array of shape \(\d+,\)": lambda seq, _ex: np.zeros(len(seq) + 1),
        shape + r"int64 array of shape \(\d+,\)": lambda seq, _ex: np.zeros(
            len(seq), dtype=np.int64),
        f"<= 0 or -inf, got nan at position {table}": bad_at(np.nan, table),
        f"<= 0 or -inf, got inf at position {table}": bad_at(np.inf, table),
        f"<= 0 or -inf, got 0.5 at position {question}": bad_at(0.5, question, table),
    }
    for message, override in overrides.items():
        with pytest.raises(ContractError, match=f"override scores must be {message}$"):
            tr.dot_forward_batch(model, [data[0]], scores_override=override)
    (out,) = tr.dot_forward_batch(model, [data[0]], scores_override=bad_at(-np.inf, table))
    assert out.scores.log_probs.data[table] == pr.SCORE_FLOOR


def test_gradients_share_no_memory_with_parameters_moments_or_each_other():
    data, model = padded_batch_model(np.float32, "J", "token")
    params = model.parameters()
    state = {}
    for _ in range(2):  # the second backward runs with AdamW moments alive
        total, _ = summed_loss(model, data, batched=True)
        nodes = [n for n in T.trace(total).nodes if n.backward_fn is not None]
        grads = T.backward(total, params)
        assert nodes and all(n.backward_fn is None and n.parents == () for n in nodes)
        held = [p.data for p in params] + [x for pair in state.get("moments", {}).values()
                                           for x in pair]
        for i, g in enumerate(grads):
            assert not any(np.may_share_memory(g, other) for other in grads[i + 1:])
            assert not any(np.may_share_memory(g, x) for x in held)
        T.adamw_step(params, grads, state, 1e-3, 0.01)
    assert len(state["moments"]) == len(params)


@pytest.mark.parametrize("mode,selection", MODES)
def test_backward_releases_every_op_node_of_the_loss_graph(mode, selection):
    # the closures hold the forward activations; a walked graph keeps none
    data, model = padded_batch_model(np.float32, mode, selection)
    total, _ = summed_loss(model, data, batched=True)
    nodes = [n for n in T.trace(total).nodes if n.backward_fn is not None]
    T.backward(total, model.parameters())
    assert nodes and all(n.backward_fn is None and n.parents == () for n in nodes)
    assert T.trace(total).nodes == [total]


def test_clip_grad_norm_returns_the_norm_before_scaling():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=shape).astype(np.float32) for shape in ((3, 4), (5,))]
    before = [g.copy() for g in grads]
    expected = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads))
    norm, scale = tr.clip_grad_norm(grads, 0.5)
    assert norm == pytest.approx(expected, rel=1e-6)
    clipped = np.sqrt(sum(np.sum((g * scale).astype(np.float64) ** 2) for g in grads))
    assert clipped == pytest.approx(0.5, rel=1e-6)
    assert all(np.array_equal(g, b) for g, b in zip(grads, before))
    # within the bound, or not finite: a factor of exactly 1
    assert tr.clip_grad_norm(grads, 2 * expected) == (pytest.approx(expected, rel=1e-6), 1.0)
    assert tr.clip_grad_norm([np.array([np.inf, 1.0])], 0.5) == (np.inf, 1.0)


def test_train_records_the_global_gradient_norm():
    data = lookup_data(n=6, seed=4)
    for grad_clip in (None, 1e-6):
        model = tiny_model(data, seed=1)
        res = tr.train(model.config,
                       tr.TrainConfig(num_steps=3, batch_size=2, precision="f64",
                                      grad_clip=grad_clip),
                       data, model=model)
        norms = [m["grad_norm"] for m in res.metrics]
        assert len(norms) == 3
        # the norm before clipping, so a tiny clip does not show in it
        assert all(np.isfinite(n) and n > 1e-3 for n in norms)


def test_override_scores_are_clipped_at_the_score_floor_in_the_model_dtype():
    data = lookup_data(n=1)
    model = tiny_model(data, dtype=np.float32)
    out = tr.dot_forward_batch(model, [data[0]],
                               scores_override=lambda s, _ex: pr.constant_scores(s, -80.0))[0]
    assert out.scores.log_probs.dtype == np.float32
    assert (out.scores.values == pr.SCORE_FLOOR).all()


def test_concurrent_backward_on_graphs_that_share_leaves_equals_serial():
    # gradients are values, not state on the shared parameters, so two walks
    # over graphs built from one model's leaves do not meet
    import threading

    data, model = padded_batch_model(np.float64, "PJ", "token")
    params = model.parameters()
    halves = (data[:2], data[2:])

    def graphs():
        return [summed_loss(model, half, batched=True)[0] for half in halves]

    serial = [T.backward(total, params) for total in graphs()]
    for _ in range(3):
        totals, results = graphs(), [None, None]
        barrier = threading.Barrier(2)

        def walk(i):
            barrier.wait()
            results[i] = T.backward(totals[i], params)

        threads = [threading.Thread(target=walk, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for want, got in zip(serial, results):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(want, got))


def test_a_clipped_training_step_leaves_the_returned_gradients_unchanged(monkeypatch):
    # clip and AdamW only read the gradients backward returns; this is what
    # lets backward hand one array to several parameters
    data = lookup_data(n=4, seed=6)
    model = tiny_model(data)
    backward = T.backward
    seen = []

    def recording(loss, params):
        grads = backward(loss, params)
        seen.append((grads, [g.copy() for g in grads]))
        return grads

    monkeypatch.setattr(T, "backward", recording)
    res = tr.train(model.config, tr.TrainConfig(num_steps=2, batch_size=2, precision="f64",
                                                grad_clip=1e-3),
                   data, model=model)
    assert len(seen) == 2 and all(m["grad_norm"] > 1e-3 for m in res.metrics)
    for grads, copies in seen:
        assert all(g.tobytes() == c.tobytes() for g, c in zip(grads, copies))


@pytest.mark.parametrize("selection", ["token", "column"])
def test_no_backward_closure_writes_the_gradient_it_is_given(selection):
    # backward may hand one array to several nodes (add gives its g to both
    # operands), so a closure that wrote its input would corrupt a sibling's
    data, model = padded_batch_model(np.float64, "PJ", selection)
    params = model.parameters()
    want = T.backward(summed_loss(model, data, batched=True)[0], params)
    total = summed_loss(model, data, batched=True)[0]

    def read_only(backward_fn):
        def wrapped(g):
            if isinstance(g, np.ndarray):  # a numpy scalar is immutable already
                g.flags.writeable = False
            return backward_fn(g)
        return wrapped

    nodes = [n for n in T.trace(total).nodes if n.backward_fn is not None]
    assert len(nodes) > 10
    for node in nodes:
        node.backward_fn = read_only(node.backward_fn)
    got = T.backward(total, params)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(want, got))


@pytest.mark.parametrize("selection", ["token", "column"])
def test_a_question_that_fills_the_preselection_keeps_the_question_alone(selection):
    from dotprune import tables as tb

    ex = tb.Example("a b c d e f", tb.Table.make(["h1", "h2"], [["x", "y"], ["z", "w"]]),
                    answer_coords=frozenset({(0, 1)}))
    cfg = tr.DoTConfig(pre_limit=8, k=8, selection_mode=selection)
    model = tiny_model([ex], cfg)
    out = tr.dot_forward(model, ex)
    assert not out.pre_seq.table_indices()
    assert out.selection.kept_indices == tuple(out.pre_seq.question_span()) == tuple(range(8))
    assert out.answer_pruned and out.kept_table_slots == []
    assert tr.evaluate(model, [ex]).answer_pruned_rate == 1.0


@pytest.mark.parametrize("task_type", ["cell_selection", "classification"])
def test_evaluate_refuses_examples_the_task_type_cannot_score_before_any_forward(
        task_type, monkeypatch):
    # a cell-selection model on entailment examples, or a classifier on
    # lookup examples, used to score 0 silently; one such example after
    # others is refused before the first chunk runs
    lookup, entailment = lookup_data(n=3, seed=1), lookup_data(n=3, seed=2,
                                                              task_type="entailment")
    good, bad = ((lookup, entailment) if task_type == "cell_selection"
                 else (entailment, lookup))
    model = tiny_model(good + bad, tr.DoTConfig(pre_limit=48, k=12, task_type=task_type))
    calls = []
    monkeypatch.setattr(pr, "score_tokens", lambda *args: calls.append(args))
    need = "a label" if task_type == "classification" else "answer coordinates"
    for examples in (bad, good + bad[-1:]):
        with pytest.raises(ContractError, match=f"needs {need}"):
            tr.evaluate(model, examples)
    assert calls == []


def test_train_refuses_unscorable_supervision_before_step_1():
    # one entailment example among lookup examples used to let batches of
    # lookup examples train (and change the passed model) until it came up
    data = lookup_data(n=6, seed=1) + lookup_data(n=1, seed=2, task_type="entailment")
    model = tiny_model(data, tr.DoTConfig(pre_limit=48, k=12))
    before = [p.data.copy() for p in model.parameters()]
    steps = []
    with pytest.raises(ContractError, match="needs answer coordinates"):
        tr.train(model.config, tr.TrainConfig(num_steps=8, batch_size=1, precision="f64"),
                 data, model=model, step_callback=lambda step, _model: steps.append(step))
    assert steps == []
    assert all(np.array_equal(b, p.data) for b, p in zip(before, model.parameters()))


@pytest.mark.parametrize("mode", ["J", "P", "PJ"])
def test_train_under_a_scores_override_trains_only_in_loss_mode_j(mode):
    # the override's scores stand in for the scorer's logits, so the P
    # relevance term would be a BCE of constants that trains nothing
    data = lookup_data(n=4, seed=6)
    model = tiny_model(data, tr.DoTConfig(pre_limit=48, k=10, loss_mode=mode))
    before = [p.data.copy() for p in model.parameters()]
    steps = []

    def run():
        return tr.train(model.config, tr.TrainConfig(num_steps=2, batch_size=2,
                                                     precision="f64"),
                        data, model=model, step_callback=lambda step, _m: steps.append(step),
                        scores_override=lambda seq: pr.constant_scores(seq, 0.0))

    if mode != "J":
        with pytest.raises(ContractError, match=f"loss mode {mode} trains the scorer"):
            run()
        assert steps == []
        assert all(np.array_equal(b, p.data) for b, p in zip(before, model.parameters()))
        return
    assert len(run().metrics) == 2 and steps == [1, 2]
    changed = [not np.array_equal(b, p.data) for b, p in zip(before, model.parameters())]
    n_scorer = len(model.pruning_parameters())
    assert not any(changed[:n_scorer]) and any(changed[n_scorer:])
