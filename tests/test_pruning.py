import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from dotprune import encoder as enc
from dotprune import pruning as pr
from dotprune import tables as tb
from dotprune import tensor as T
from dotprune.errors import BudgetError, ContractError


def tiny_pruning(seed=0, dtype=np.float64):
    cfg = enc.EncoderConfig(num_layers=2, hidden=16, num_heads=2, intermediate=32,
                            vocab_size=40, max_input=40)
    return enc.init_tower(cfg, np.random.default_rng(seed), dtype)


def seq_with_values(rng, **kw):
    seq = helpers.random_sequence(rng, **kw)
    return seq, -rng.random(len(seq))


def constant_pruning_scores(seq, values):
    """Scores outside any graph, for ``build_bias``, which reads log_probs."""
    return pr.PruningScores(seq=seq, log_probs=T.Tensor(values), logits=T.Tensor(values))


def test_score_tokens_logit_zero_gives_log_half():
    rng = np.random.default_rng(0)
    seq = helpers.random_sequence(rng)
    w = tiny_pruning()
    # zero head makes every logit exactly the bias, i.e. zero
    w.head_w.data[:] = 0.0
    scores = pr.score_tokens(w, [seq])[0]
    np.testing.assert_allclose(scores.values, np.log(0.5), atol=1e-12)


def test_score_limits_are_stable():
    rng = np.random.default_rng(1)
    seq = helpers.random_sequence(rng)
    w = tiny_pruning()
    for forced in (50.0, -50.0):
        w.head_w.data[:] = 0.0
        w.head_b.data[:] = forced
        s = pr.score_tokens(w, [seq])[0].values
        assert np.isfinite(s).all()
        assert (s <= 0).all()
        if forced > 0:
            assert (s > -1e-9).all()
        else:
            assert (s < -40).all()


def test_scores_always_nonpositive():
    rng = np.random.default_rng(2)
    seq = helpers.random_sequence(rng)
    w = tiny_pruning(seed=7)
    assert (pr.score_tokens(w, [seq])[0].values <= 0).all()


def test_score_gradient_reaches_head():
    rng = np.random.default_rng(3)
    seq = helpers.random_sequence(rng)
    w = tiny_pruning(seed=1)

    def f(params):
        return T.tensor_sum(pr.score_tokens(w, [seq])[0].log_probs)

    err = T.gradient_check(f, [w.head_w, w.head_b], eps=1e-5)
    assert err < 1e-4


def test_top_k_keeps_everything_when_k_large():
    rng = np.random.default_rng(4)
    seq, values = seq_with_values(rng)
    sel = pr.select_top_k_tokens(values, seq, len(seq) + 5)
    assert sel.kept_indices == tuple(range(len(seq)))


def test_top_k_agrees_with_sort_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        seq, values = seq_with_values(rng)
        qspan = seq.question_span()
        k = int(rng.integers(len(qspan), len(seq) + 1))
        sel = pr.select_top_k_tokens(values, seq, k)
        budget = k - len(qspan)
        table = list(seq.table_indices())
        order = sorted(table, key=lambda i: (-values[i], i))
        expect = sorted(set(qspan) | set(order[:budget]))
        assert list(sel.kept_indices) == expect


def test_top_k_tie_earlier_position_wins():
    seq = helpers.random_sequence(np.random.default_rng(6))
    qspan = seq.question_span()
    sel = pr.select_top_k_tokens(np.full(len(seq), -1.0), seq, len(qspan) + 1)
    table = seq.table_indices()
    assert set(sel.kept_indices) == set(qspan) | {table[0]}


def test_top_k_budget_error():
    rng = np.random.default_rng(7)
    seq, values = seq_with_values(rng)
    with pytest.raises(BudgetError):
        pr.select_top_k_tokens(values, seq, len(seq.question_span()) - 1)


def test_column_scores_single_column():
    ex = tb.Example("q", tb.Table.make(["h"], [["x y"]]), label=0)
    seq = tb.linearize(ex, tb.Vocabulary.from_examples([ex]))
    vals = np.zeros(len(seq))
    vals[seq.table_indices(),] = [-1.0, -2.0, -3.0]
    assert pr.column_scores(vals, seq) == {1: -2.0}


def test_column_scores_uniform():
    rng = np.random.default_rng(8)
    seq = helpers.random_sequence(rng)
    c = -0.25
    assert all(abs(v - c) < 1e-12
               for v in pr.column_scores(np.full(len(seq), c), seq).values())


def test_column_scores_matches_grouped_mean_oracle():
    rng = np.random.default_rng(9)
    for _ in range(25):
        seq, values = seq_with_values(rng)
        got = pr.column_scores(values, seq)
        cols = {}
        for i in seq.table_indices():
            cols.setdefault(seq.column_ids[i], []).append(values[i])
        expect = {c: float(np.mean(v)) for c, v in cols.items()}
        assert set(got) == set(expect)
        for c in got:
            assert abs(got[c] - expect[c]) < 1e-12


def test_select_columns_greedy_with_skip():
    rng = np.random.default_rng(10)
    for _ in range(40):
        seq, values = seq_with_values(rng)
        qspan = seq.question_span()
        k = int(rng.integers(len(qspan), len(seq) + 2))
        cs = pr.column_scores(values, seq)
        sel = pr.select_columns(cs, seq, k)
        # greedy oracle: walk columns in (-score, id) order, admit if it fits
        members = {}
        for i in seq.table_indices():
            members.setdefault(seq.column_ids[i], []).append(i)
        budget = k - len(qspan)
        kept = set(qspan)
        for c in sorted(cs, key=lambda c: (-cs[c], c)):
            if len(members[c]) <= budget:
                kept |= set(members[c])
                budget -= len(members[c])
        assert set(sel.kept_indices) == kept
        assert len(sel.kept_indices) <= k


def test_select_columns_all_tied_uses_index_order():
    ex = tb.Example("q", tb.Table.make(["a", "b", "c"], [["t1", "t2", "t3"]]), label=0)
    seq = tb.linearize(ex, tb.Vocabulary.from_examples([ex]))
    qspan = seq.question_span()
    # room for exactly two 2-token columns
    sel = pr.select_columns(pr.column_scores(np.full(len(seq), -0.5), seq), seq,
                            len(qspan) + 4)
    kept_cols = {seq.column_ids[i] for i in sel.kept_indices if seq.segment_ids[i] == 1}
    assert kept_cols == {1, 2}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["shift", "scale", "tanh"]))
def test_selection_invariant_under_monotone_transform(seed, kind):
    rng = np.random.default_rng(seed)
    seq, v = seq_with_values(rng)
    k = len(seq.question_span()) + 2
    base = pr.select_top_k_tokens(v, seq, k)
    if kind == "shift":
        tv = v - 3.0
    elif kind == "scale":
        tv = v * 0.25
    else:
        tv = np.tanh(v) - 1.0
    assert pr.select_top_k_tokens(tv, seq, k).kept_indices == base.kept_indices


def test_oracle_scores_follow_the_per_token_rule():
    # the floor for table tokens outside every answer row, 0 for all others
    rng = np.random.default_rng(20)
    for _ in range(30):
        ex = helpers.random_example(rng, n_rows=int(rng.integers(1, 5)), n_cols=2)
        seq = tb.linearize(ex, tb.Vocabulary.from_examples([ex]))
        answer_rows = {r for r, _ in ex.answer_coords}
        expect = [pr.SCORE_FLOOR if seq.segment_ids[i] == 1
                  and seq.row_ids[i] - 1 not in answer_rows else 0.0
                  for i in range(len(seq))]
        got = pr.oracle_scores(seq, ex.answer_coords)
        assert got.dtype == np.float64 and got.tolist() == expect


def test_build_bias_all_zero_scores_gives_zero_bias():
    rng = np.random.default_rng(11)
    seq = helpers.random_sequence(rng)
    scores = constant_pruning_scores(seq, pr.constant_scores(seq, 0.0))
    sel = pr.select_top_k_tokens(scores.values, seq, len(seq))
    bias = pr.build_bias(sel, scores)
    assert bias.shape == (len(seq),)
    np.testing.assert_array_equal(bias.data, 0.0)


def test_build_bias_kept_token_carries_its_score():
    rng = np.random.default_rng(12)
    seq = helpers.random_sequence(rng)
    scores = constant_pruning_scores(seq, np.full(len(seq), np.log(0.5)))
    sel = pr.select_top_k_tokens(scores.values, seq, len(seq))
    bias = pr.build_bias(sel, scores)
    for j, i in enumerate(sel.kept_indices):
        if seq.segment_ids[i] == 1:
            assert bias.data[j] == pytest.approx(np.log(0.5))
        else:
            assert bias.data[j] == 0.0


def test_build_bias_soft_gradient_only_for_kept_tokens():
    rng = np.random.default_rng(13)
    seq = helpers.random_sequence(rng)
    w = tiny_pruning(seed=3)
    # the scorer's output values are held by a leaf, the one parameter
    log_probs = T.Tensor(pr.score_tokens(w, [seq])[0].values, requires_grad=True)
    scores = pr.PruningScores(seq=seq, log_probs=log_probs, logits=log_probs)
    qspan = seq.question_span()
    k = len(qspan) + max(1, len(seq.table_indices()) // 2)
    sel = pr.select_top_k_tokens(scores.values, seq, k)
    bias = pr.build_bias(sel, scores)
    assert bias.shape == (len(sel.kept_indices),)
    (g,) = T.backward(T.tensor_sum(bias), [log_probs])
    kept_table = [i for i in sel.kept_indices if seq.segment_ids[i] == 1]
    dropped = set(range(len(seq))) - set(sel.kept_indices)
    assert all(g[i] != 0 for i in kept_table)
    assert all(g[i] == 0 for i in dropped)


def test_hard_drop_equivalence_empty_drop_is_zero():
    rng = np.random.default_rng(15)
    seq = helpers.random_sequence(rng)
    w = tiny_pruning(seed=4, dtype=np.float64)
    assert pr.hard_drop_equivalence(w.encoder, seq, []) == 0.0


def test_hard_drop_equivalence_random_case():
    rng = np.random.default_rng(16)
    cfg = enc.preset("mini", vocab_size=40, max_input=64)
    w = helpers.init_encoder(cfg, np.random.default_rng(5), dtype=np.float64)
    seq = helpers.random_sequence(rng)
    table = seq.table_indices()
    drop = list(table[-3:])
    assert pr.hard_drop_equivalence(w, seq, drop) < 1e-9


def test_hard_drop_equivalence_query_mode_fails():
    rng = np.random.default_rng(17)
    cfg = enc.EncoderConfig(num_layers=2, hidden=16, num_heads=2, intermediate=32,
                            vocab_size=40, max_input=40)
    w = helpers.init_encoder(cfg, np.random.default_rng(6), dtype=np.float64)
    seq = helpers.random_sequence(rng)
    drop = [seq.table_indices()[-1]]
    # the engine applies the key bias only; the query-row mask lives on the reference
    assert helpers.reference_drop_diff(w, seq, drop, "query") > 1e-6
    assert pr.hard_drop_equivalence(w, seq, drop) < 1e-9


def test_hard_drop_equivalence_rejects_question_drop():
    rng = np.random.default_rng(18)
    seq = helpers.random_sequence(rng)
    w = tiny_pruning(seed=7, dtype=np.float64)
    with pytest.raises(ContractError):
        pr.hard_drop_equivalence(w.encoder, seq, [0])


@pytest.mark.parametrize("where", ["negative", "past_the_end"])
def test_hard_drop_equivalence_rejects_indices_outside_the_sequence(where):
    rng = np.random.default_rng(18)
    seq = helpers.random_sequence(rng)
    w = tiny_pruning(seed=7, dtype=np.float64)
    bad = -1 if where == "negative" else len(seq)
    with pytest.raises(ContractError, match=rf"\[0, {len(seq)}\)"):
        pr.hard_drop_equivalence(w.encoder, seq, [seq.table_indices()[-1], bad])


def test_full_keep_with_zero_scores_reproduces_unpruned_forward():
    rng = np.random.default_rng(19)
    seq = helpers.random_sequence(rng)
    cfg = enc.EncoderConfig(num_layers=2, hidden=16, num_heads=2, intermediate=32,
                            vocab_size=40, max_input=40)
    w = helpers.init_encoder(cfg, np.random.default_rng(8), dtype=np.float64)
    scores = constant_pruning_scores(seq, pr.constant_scores(seq, 0.0))
    sel = pr.select_top_k_tokens(scores.values, seq, len(seq))
    bias = pr.build_bias(sel, scores)
    with T.no_grad():
        biased, _ = enc.forward(w, pr.compact(seq, sel), bias=bias)
        plain, _ = enc.forward(w, seq)
    assert np.max(np.abs(biased.data - plain.data)) == 0.0


def test_token_and_column_selection_agree_on_single_token_columns():
    ex = tb.Example("q", tb.Table.make(["", "", ""], [["a", "b", "c"]]), label=0)
    seq = tb.linearize(ex, tb.Vocabulary.from_examples([ex]))
    vals = np.zeros(len(seq))
    vals[list(seq.table_indices())] = [-3.0, -1.0, -2.0]
    k = len(seq.question_span()) + 2
    tok = pr.select_top_k_tokens(vals, seq, k)
    col = pr.select_columns(pr.column_scores(vals, seq), seq, k)
    assert tok.kept_indices == col.kept_indices


@pytest.mark.parametrize("seed", range(6))
def test_select_dispatches_to_the_token_and_column_selectors(seed):
    rng = np.random.default_rng(40 + seed)
    seq, v = seq_with_values(rng)
    k = len(seq.question_span()) + int(rng.integers(1, 4))
    assert pr.select(v, seq, k, "token") == pr.select_top_k_tokens(v, seq, k)
    assert pr.select(v, seq, k, "column") == pr.select_columns(pr.column_scores(v, seq),
                                                               seq, k)
    with pytest.raises(ContractError, match="unknown selection mode 'row'"):
        pr.select(v, seq, k, "row")
