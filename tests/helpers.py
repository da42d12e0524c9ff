"""Shared builders and oracles for tests: small random tables, token
sequences and models, and brute-force checks of the synthetic data."""

import contextlib
import math

import numpy as np

from dotprune import encoder as enc
from dotprune import synth
from dotprune import tables as tb
from dotprune import tensor as T
from dotprune import training as tr

PAPER_BUCKET_EDGES = (256, 512, 1024)


def random_example(rng, n_rows=2, n_cols=2, cell_tokens=2, vocab_words=12,
                   question_tokens=2):
    words = [f"w{i}" for i in range(vocab_words)]
    header = [words[rng.integers(len(words))] for _ in range(n_cols)]
    rows = [[" ".join(rng.choice(words, size=rng.integers(1, cell_tokens + 1)))
             for _ in range(n_cols)] for _ in range(n_rows)]
    question = " ".join(rng.choice(words, size=question_tokens))
    table = tb.Table.make(header, rows)
    answer = (int(rng.integers(n_rows)), int(rng.integers(n_cols)))
    return tb.Example(question, table, answer_coords=frozenset({answer}))


def random_sequence(rng, max_len=32, vocab_size=32):
    """A structurally plausible TokenizedSequence of length <= max_len."""
    while True:
        ex = random_example(
            rng,
            n_rows=int(rng.integers(1, 4)),
            n_cols=int(rng.integers(1, 4)),
            cell_tokens=int(rng.integers(1, 3)),
            question_tokens=int(rng.integers(1, 4)),
        )
        vocab = tb.Vocabulary.from_examples([ex])
        seq = tb.linearize(ex, vocab)
        if len(seq) <= max_len and len(vocab) <= vocab_size:
            return seq


def compacted(seq, drop):
    """Sequence without the dropped indices, original positions preserved."""
    kept = [i for i in range(len(seq)) if i not in set(drop)]
    return seq.subsequence(kept, keep_positions=True)


def drop_bias(seq, drop):
    bias = np.zeros(len(seq))
    bias[list(drop)] = -np.inf
    return bias


def tiny_model(dataset, dot_config=None, dtype=np.float64, seed=0,
               hidden=16, layers=2):
    """A DoTModel with hand-sized towers, bypassing the published presets."""
    cfg = dot_config or tr.DoTConfig(pre_limit=48, k=10)
    vocab = tb.Vocabulary.from_examples(dataset)
    enc_kw = dict(num_layers=layers, hidden=hidden, num_heads=2, intermediate=2 * hidden,
                  vocab_size=len(vocab), max_input=cfg.pre_limit)
    return tr.build_model(cfg, vocab, dtype=dtype, seed=seed,
                          pruning_config=enc.EncoderConfig(seed=seed, **enc_kw),
                          task_config=enc.EncoderConfig(seed=seed + 1, **enc_kw))


def gelu(a):
    """Gaussian-error-linear unit, x Phi(x), as a tensor op over ``tensor.gelu_kernel``."""
    out, slope = T.gelu_kernel(a.data, T.grad_needed((a,)))
    if slope is None:
        return T.Tensor(out)
    return T.Tensor(out, requires_grad=True, parents=(a,),
                    backward_fn=lambda g: (g * slope,))


def softmax_rows(a):
    """Row-wise softmax over the last axis as a tensor op over
    ``tensor.softmax_rows_inplace``."""
    out = T.softmax_rows_inplace(a.data.copy())
    if not T.grad_needed((a,)):
        return T.Tensor(out)
    return T.Tensor(out, requires_grad=True, parents=(a,),
                    backward_fn=lambda g: (T.softmax_rows_grad_inplace(out, g.copy()),))


@contextlib.contextmanager
def workers(w, set_local=None):
    """Run the block with ``tensor.worker_map`` on ``w`` workers of a fresh
    pool. ``set_local`` stands in for OpenBLAS's thread setter; by default
    the real one, or a stub returning 1 where it is missing."""
    saved = T._blas, T._pool, T._unpin_to
    T._blas = (w, set_local or T._load_blas()[1] or (lambda n: 1))
    T._pool = T._unpin_to = None
    try:
        yield
    finally:
        T._unpin_blas()
        if T._pool is not None:
            T._pool.shutdown()
        T._blas, T._pool, T._unpin_to = saved


def composed_layer(x, lw, bias, mode, num_heads):
    """``enc.layer`` composed from one tensor op per step: the reference the
    fused layer's output and gradients are checked against."""
    batch, n, hidden = x.shape
    d = hidden // num_heads

    def split_heads(t):
        return T.permute(T.reshape(t, (batch, n, num_heads, d)), (0, 2, 1, 3))

    x = T.reshape(x, (batch * n, hidden))
    q = split_heads(T.add(T.matmul(x, lw.wq), lw.bq))
    k = split_heads(T.add(T.matmul(x, lw.wk), lw.bk))
    v = split_heads(T.add(T.matmul(x, lw.wv), lw.bv))
    scores = T.mul(T.matmul(q, T.permute(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d))
    if bias is not None:
        if mode in ("key", "symmetric"):
            scores = T.add(scores, T.reshape(bias, (batch, 1, 1, n)))
        if mode in ("query", "symmetric"):
            scores = T.add(scores, T.reshape(bias, (batch, 1, n, 1)))
    probs = softmax_rows(scores)
    ctx = T.reshape(T.permute(T.matmul(probs, v), (0, 2, 1, 3)), (batch * n, hidden))
    attn_out = T.add(T.matmul(ctx, lw.wo), lw.bo)
    x = T.layer_norm(T.add(x, attn_out), lw.ln1_gain, lw.ln1_bias)
    ff = T.matmul(gelu(T.add(T.matmul(x, lw.w_inter), lw.b_inter)), lw.w_out)
    x = T.layer_norm(T.add(x, T.add(ff, lw.b_out)), lw.ln2_gain, lw.ln2_bias)
    return T.reshape(x, (batch, n, hidden))


def composed_embed(weights, seqs, n):
    """``enc.embed`` composed from one tensor op per step: six ``take_rows``
    gathers summed by ``add`` in table order, then ``layer_norm``. The
    reference the embedding op's output and gradients are checked against."""
    ids = np.zeros((6, len(seqs), n), dtype=np.int64)
    for b, s in enumerate(seqs):
        ids[:, b, :len(s)] = (s.token_ids, s.effective_positions(), s.segment_ids,
                              s.column_ids, s.row_ids, s.rank_ids)
    token, position, segment, column, row, rank = ids.reshape(6, -1)
    cap = enc.STRUCT_ID_CAP
    x = T.take_rows(weights.word, token)
    x = T.add(x, T.take_rows(weights.position, position))
    x = T.add(x, T.take_rows(weights.type_segment, segment))
    x = T.add(x, T.take_rows(weights.type_column, np.minimum(column, cap)))
    x = T.add(x, T.take_rows(weights.type_row, np.minimum(row, cap)))
    x = T.add(x, T.take_rows(weights.type_rank, np.minimum(rank, cap)))
    return T.layer_norm(x, weights.emb_ln_gain, weights.emb_ln_bias)


def scan_answer(example):
    """Brute-force oracle: find the question's key and return its value cell."""
    key = example.question.split()[-1]
    hits = [r for r in range(example.table.n_rows)
            if example.table.rows[r][synth.KEY_COLUMN] == key]
    if len(hits) != 1:
        raise ValueError(f"key {key!r} found in {len(hits)} rows")
    return frozenset({(hits[0], synth.VALUE_COLUMN)})


def bucketize(examples, edges=synth.DESK_BUCKET_EDGES):
    """Group examples by linearized length; empty buckets are absent."""
    out = {}
    for ex in examples:
        out.setdefault(synth.bucket_label(tb.linearized_length(ex), edges), []).append(ex)
    return out
