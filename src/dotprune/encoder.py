"""Transformer encoder with an additive per-token attention bias.

The attention scores of every layer can be shifted by a per-token bias
vector of nonpositive log-probabilities, added to the key columns: bias[t]
is added to column t of the score matrix, so lowering a token's bias
reduces how much information other tokens read from it. This is the one
bias the scoring model trains through, and in the -inf limit, applied in
every layer, it removes the token exactly: the surviving positions equal a
forward on the compacted sequence.

A batch of sequences runs as one padded stack (``forward_batch``); padded
keys carry a -inf bias in every layer, which removes them exactly.
``_padded_bias``, the one bias check, builds that (B, n) bias once per
forward, and every forward has one (zeros where nothing is biased). A
forward that records no gradient runs as up to W contiguous groups of
examples, W being the BLAS thread count, on ``tensor.worker_map``'s
single-threaded-BLAS workers.

The embedding and each layer are one tensor op each, ``embed`` and
``layer``: their forwards work in place in buffers they own and are
bit-identical to the same steps composed from ``tensor`` ops (kept in the
tests as the references); under ``no_grad`` they save nothing, and
otherwise one node's hand-written backward reads only the arrays it saved.
``embed`` saves the index arrays and its layer norm's xhat and 1/std, not
the gathered rows or their partial sums; ``layer`` rebuilds its first layer
norm's output in the backward instead of saving it. Biased attention exists
once, as the array kernel ``attention_probs``, which only ``layer`` calls.

The scorer and the task model are both ``Tower``s: an encoder plus a
one-unit linear head. Init draws from a generator the caller passes, so
no config holds a seed. Model-size presets and the closed-form parameter
count mirror the standard compact BERT family the sizes are borrowed from.

The runtime holds six embedding tables, while the counting inventory books
nine: every token would read row 0 of the binary, relation and inverse-rank
type tables, a constant the segment table absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, InputTooLongError, check_field_types
from .tables import TokenizedSequence

STRUCT_ID_CAP = 255  # structural embedding tables have 256 rows; larger ids share the last
INIT_STD = 0.02  # stddev of every weight matrix at init, BERT's initializer range

# (num_layers, hidden, num_heads, intermediate)
_PRESETS = {
    "mini": (4, 256, 4, 1024),
    "small": (4, 512, 8, 2048),
    "medium": (8, 512, 8, 2048),
    "large": (24, 1024, 16, 4096),
}

DEFAULT_VOCAB_SIZE = 30522  # BERT wordpiece size, kept for parameter parity


@dataclass(frozen=True)
class EncoderConfig:
    num_layers: int
    hidden: int
    num_heads: int
    intermediate: int
    vocab_size: int = DEFAULT_VOCAB_SIZE
    max_input: int = 1024

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 1:
                raise ConfigError(f"{f.name} must be an int >= 1, got {value!r}")
        if self.hidden % self.num_heads != 0:
            raise ConfigError(
                f"hidden {self.hidden} not divisible by num_heads {self.num_heads}")
        if self.max_input < 4:
            raise ConfigError("max_input must be >= 4")


def preset(name: str, **overrides) -> EncoderConfig:
    """Named model size: mini, small, medium, or large."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    layers, hidden, heads, inter = _PRESETS[name]
    return EncoderConfig(num_layers=layers, hidden=hidden, num_heads=heads,
                         intermediate=inter, **overrides)


def count_parameters(config: EncoderConfig, input_len: int) -> int:
    """Closed-form used-parameter count at a given input length."""
    if input_len > config.max_input:
        raise ConfigError(f"input_len {input_len} exceeds max_input {config.max_input}")
    v, h, l, hi, i = (config.vocab_size, config.hidden, config.num_layers,
                      config.intermediate, input_len)
    return v * h + (2 + 3 * l) * i * h + i + (256 * 4 + 17 + 9 * l) * h + (1 + 2 * l * h) * hi


def parameter_inventory(config: EncoderConfig, input_len: int) -> list[tuple[str, tuple[int, ...]]]:
    """Named tensor shapes whose element sum reproduces ``count_parameters``.

    This is the accounting inventory, not the runtime weight layout: the
    published counting convention sizes the attention projections by input
    length, books a single shared intermediate bias, skips the per-layer
    attention output kernel entirely, and books the binary, relation and
    inverse-rank type tables the runtime does not hold, so it can only be
    walked as shape metadata.
    """
    v, h, hi, i = config.vocab_size, config.hidden, config.intermediate, input_len
    inv: list[tuple[str, tuple[int, ...]]] = [
        ("embeddings.word_embeddings", (v, h)),
        ("embeddings.position_embeddings", (i, h)),
        ("embeddings.token_type_embeddings.segment", (3, h)),
        ("embeddings.token_type_embeddings.binary", (2, h)),
        ("embeddings.token_type_embeddings.relation", (10, h)),
        ("embeddings.token_type_embeddings.column", (256, h)),
        ("embeddings.token_type_embeddings.row", (256, h)),
        ("embeddings.token_type_embeddings.rank", (256, h)),
        ("embeddings.token_type_embeddings.inv_rank", (256, h)),
        ("embeddings.LayerNorm.gain", (h,)),
        ("embeddings.LayerNorm.bias", (i,)),
        ("intermediate.dense.bias", (hi,)),
        ("pooler.dense.kernel", (i, h)),
        ("pooler.dense.bias", (h,)),
    ]
    for layer in range(config.num_layers):
        p = f"encoder.layer.{layer}."
        inv.extend([
            (p + "attention.self.query.kernel", (i, h)),
            (p + "attention.self.query.bias", (h,)),
            (p + "attention.self.key.kernel", (i, h)),
            (p + "attention.self.key.bias", (h,)),
            (p + "attention.self.value.kernel", (i, h)),
            (p + "attention.self.value.bias", (h,)),
            (p + "attention.output.dense.bias", (h,)),
            (p + "attention.output.LayerNorm.gain", (h,)),
            (p + "attention.output.LayerNorm.bias", (h,)),
            (p + "intermediate.dense.kernel", (h, hi)),
            (p + "output.dense.kernel", (hi, h)),
            (p + "output.dense.bias", (h,)),
            (p + "output.LayerNorm.gain", (h,)),
            (p + "output.LayerNorm.bias", (h,)),
        ])
    return inv


def shape_walk_count(config: EncoderConfig, input_len: int) -> int:
    """Independent counting path: sum of products over the inventory."""
    return sum(int(np.prod(shape)) for _, shape in parameter_inventory(config, input_len))


def truncated_normal(rng: np.random.Generator, shape, dtype=np.float32) -> np.ndarray:
    """Normal draws (stddev ``INIT_STD``) re-sampled until within 2 stddevs."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    for _ in range(16):
        bad = np.abs(out) > 2.0 * INIT_STD
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
    return np.clip(out, -2.0 * INIT_STD, 2.0 * INIT_STD).astype(dtype)


@dataclass
class LayerWeights:
    wq: T.Tensor
    bq: T.Tensor
    wk: T.Tensor
    bk: T.Tensor
    wv: T.Tensor
    bv: T.Tensor
    wo: T.Tensor
    bo: T.Tensor
    ln1_gain: T.Tensor
    ln1_bias: T.Tensor
    w_inter: T.Tensor
    b_inter: T.Tensor
    w_out: T.Tensor
    b_out: T.Tensor
    ln2_gain: T.Tensor
    ln2_bias: T.Tensor


@dataclass
class EncoderWeights:
    """Runtime weights; see ``parameter_inventory`` for the counting view."""

    config: EncoderConfig
    word: T.Tensor
    position: T.Tensor
    type_segment: T.Tensor
    type_column: T.Tensor
    type_row: T.Tensor
    type_rank: T.Tensor
    emb_ln_gain: T.Tensor
    emb_ln_bias: T.Tensor
    pooler_w: T.Tensor
    pooler_b: T.Tensor
    layers: list[LayerWeights]

    def named_tensors(self) -> dict[str, T.Tensor]:
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("config", "layers")}
        for i, lw in enumerate(self.layers):
            for name, t in vars(lw).items():
                out[f"layer{i}.{name}"] = t
        return out

    def parameters(self) -> list[T.Tensor]:
        return list(self.named_tensors().values())


def tensor_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every runtime tensor, in the order ``init_weights``
    draws them; checkpoints are checked against the same table."""
    h, hi = config.hidden, config.intermediate
    layer = {
        "wq": (h, h), "bq": (h,), "wk": (h, h), "bk": (h,), "wv": (h, h), "bv": (h,),
        "wo": (h, h), "bo": (h,), "ln1_gain": (h,), "ln1_bias": (h,),
        "w_inter": (h, hi), "b_inter": (hi,), "w_out": (hi, h), "b_out": (h,),
        "ln2_gain": (h,), "ln2_bias": (h,),
    }
    shapes = {f"layer{i}.{name}": shape
              for i in range(config.num_layers) for name, shape in layer.items()}
    shapes.update(
        word=(config.vocab_size, h), position=(config.max_input, h),
        type_segment=(3, h), type_column=(256, h), type_row=(256, h),
        type_rank=(256, h), emb_ln_gain=(h,), emb_ln_bias=(h,),
        pooler_w=(h, h), pooler_b=(h,),
    )
    return shapes


def init_arrays(config: EncoderConfig, rng: np.random.Generator,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """Fresh values: truncated normal (std 0.02) matrices drawn from ``rng``
    in ``tensor_shapes`` order, zero biases, unit gains."""

    def init(name, shape):
        if len(shape) == 2:
            return truncated_normal(rng, shape, dtype=dtype)
        return np.full(shape, 1.0 if name.endswith("gain") else 0.0, dtype=dtype)

    return {name: init(name, shape) for name, shape in tensor_shapes(config).items()}


def weights_from_arrays(config: EncoderConfig, arrays: dict[str, np.ndarray]
                        ) -> EncoderWeights:
    """Trainable weights over ``arrays``, keyed as in ``tensor_shapes``."""
    t = {name: T.Tensor(arrays[name], requires_grad=True) for name in tensor_shapes(config)}
    layers = [LayerWeights(**{f.name: t[f"layer{i}.{f.name}"] for f in fields(LayerWeights)})
              for i in range(config.num_layers)]
    return EncoderWeights(config=config, layers=layers,
                          **{k: v for k, v in t.items() if not k.startswith("layer")})


def init_weights(config: EncoderConfig, rng: np.random.Generator,
                 dtype=np.float32) -> EncoderWeights:
    """Fresh trainable weights drawn from ``rng``."""
    return weights_from_arrays(config, init_arrays(config, rng, dtype))


@dataclass
class Tower:
    """An encoder plus a one-unit linear head, read per token or on the pooled
    CLS vector. The scorer and the task model are both towers."""

    encoder: EncoderWeights
    head_w: T.Tensor
    head_b: T.Tensor

    def parameters(self) -> list[T.Tensor]:
        return self.encoder.parameters() + [self.head_w, self.head_b]

    def head(self, x: T.Tensor) -> T.Tensor:
        """One logit per row of ``x``: hidden states or pooled vectors."""
        return T.reshape(T.add(T.matmul(x, self.head_w), self.head_b), (x.shape[0],))

    @staticmethod
    def tensor_shapes(config: EncoderConfig) -> dict[str, tuple[int, ...]]:
        return tensor_shapes(config) | {"head_w": (config.hidden, 1), "head_b": (1,)}

    @classmethod
    def from_arrays(cls, config: EncoderConfig, arrays: dict[str, np.ndarray]) -> "Tower":
        return cls(encoder=weights_from_arrays(config, arrays),
                   head_w=T.Tensor(arrays["head_w"], requires_grad=True),
                   head_b=T.Tensor(arrays["head_b"], requires_grad=True))


def init_tower(config: EncoderConfig, rng: np.random.Generator, dtype=np.float32) -> Tower:
    """Fresh tower drawn from ``rng``: the encoder first, then the head."""
    arrays = init_arrays(config, rng, dtype)
    arrays["head_w"] = truncated_normal(rng, (config.hidden, 1), dtype=dtype)
    arrays["head_b"] = np.zeros(1, dtype=dtype)
    return Tower.from_arrays(config, arrays)


def _padded_bias(biases, lengths: list[int], n: int, dtype) -> T.Tensor:
    """The one bias check, run once per forward: each example's bias, then
    one (B, n) bias for the batch padded to ``n`` tokens.

    ``biases`` is None or one entry per example: None, or a vector of
    ``lengths[b]`` values in (-inf, 0]. NumPy biases are converted to
    ``dtype``, the dtype of the attention scores; tensors must already have
    it, and pass through unchanged so gradients reach whatever built them.
    Row b holds example b's bias (zeros when it has none) followed by -inf
    on its padded positions, so padding is removed exactly: the -inf key
    bias equals compaction.
    """
    if biases is None:
        biases = [None] * len(lengths)
    elif len(biases) != len(lengths):
        raise ContractError(f"{len(biases)} biases for {len(lengths)} sequences")
    pieces = []
    for bias, m in zip(biases, lengths):
        if not isinstance(bias, T.Tensor):
            bias = T.Tensor(np.zeros(m, dtype=dtype) if bias is None
                            else np.asarray(bias, dtype=dtype))
        elif bias.dtype != dtype:
            raise ContractError(f"bias dtype {bias.dtype} != scores' dtype {np.dtype(dtype)}")
        if bias.shape != (m,):
            raise ContractError(f"bias length {bias.shape} != key count {m}")
        if not (bias.data <= 0).all():  # NaN compares false, so it is refused too
            raise ContractError("attention bias entries must be <= 0 or -inf")
        pieces.append(bias)
        if m < n:
            pieces.append(T.Tensor(np.full(n - m, -np.inf, dtype=dtype)))
    return T.reshape(T.concat(pieces), (len(lengths), n))


def attention_probs(q: np.ndarray, k: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Softmax of the scaled, biased scores QK^T / sqrt(d): the one attention
    kernel, which only ``layer`` calls.

    ``q`` and ``k`` are (B, heads, n, d) arrays, and ``bias`` is the (B, n)
    values of ``_padded_bias``, added to every key column. Rows that end up
    fully masked (every key -inf) become all-zero rows rather than an error.
    The scores are scaled, biased and normalized in place in the buffer the
    QK^T product returns.
    """
    probs = T.matmul(q, np.swapaxes(k, -1, -2)).data
    probs *= 1.0 / math.sqrt(q.shape[-1])
    batch, n = bias.shape
    probs += bias.reshape(batch, 1, 1, n)
    return T.softmax_rows_inplace(probs)


def _attention_grads(g: np.ndarray, probs: np.ndarray, q: np.ndarray, k: np.ndarray,
                     bias: T.Tensor, scale: float):
    """Gradients of ``attention_probs``'s q, k and (B, n) bias (None when the
    bias needs none) from the (B, heads, n, n) probabilities'
    gradient ``g``, which is overwritten."""
    ds = T.softmax_rows_grad_inplace(probs, g)
    gbias = None
    if bias.requires_grad:  # over the heads, then over the queries
        gbias = ds.sum(axis=1, keepdims=True).sum(axis=-2).reshape(bias.shape)
    ds *= scale
    gq = T.matmul(ds, k).data
    gk = T.matmul(np.swapaxes(ds, -1, -2), q).data
    return gq, gk, gbias


def embed(weights: EncoderWeights, seqs: list[TokenizedSequence], n: int) -> T.Tensor:
    """Sum word, position, and segment/column/row/rank type embeddings,
    then normalize, as a single tensor op.

    Sequences are zero-padded to ``n`` tokens and stacked into (B*n, H) rows.
    The word rows are gathered into a new buffer, the other five tables'
    rows are added into it in that order, and it is layer-normed in place:
    bit-identical to the sum composed from ``take_rows`` and ``add`` ops and
    normalized (the tests' reference). Under ``no_grad`` nothing is saved;
    otherwise one node, whose parents are the six tables and the two
    layer-norm parameters, saves only the index arrays, xhat and 1/std, and
    its backward scatters the layer-norm input's gradient into each table.
    """
    cfg = weights.config
    ids = np.zeros((6, len(seqs), n), dtype=np.int64)
    for b, s in enumerate(seqs):
        ids[:, b, :len(s)] = (s.token_ids, s.effective_positions(), s.segment_ids,
                              s.column_ids, s.row_ids, s.rank_ids)
    ids = ids.reshape(6, -1)
    position = ids[1]
    if position.size and position.max() >= cfg.max_input:
        raise InputTooLongError(
            f"position id {position.max()} exceeds max_input {cfg.max_input}")
    np.minimum(ids[3:], STRUCT_ID_CAP, out=ids[3:])  # column, row and rank ids
    tables = (weights.word, weights.position, weights.type_segment, weights.type_column,
              weights.type_row, weights.type_rank)
    x = tables[0].data[ids[0]]
    for table, idx in zip(tables[1:], ids[1:]):
        x += table.data[idx]
    gain, bias = weights.emb_ln_gain, weights.emb_ln_bias
    parents = tables + (gain, bias)
    save = T.grad_needed(parents)
    out, xhat, inv_std = T.layer_norm_inplace(x, gain.data, bias.data, keep_xhat=save)
    if not save:
        return T.Tensor(out)

    def back(g):
        gx = T.layer_norm_grad(g, gain.data, xhat, inv_std)
        rows = tuple(T.scatter_rows(gx, idx, table.data) for table, idx in zip(tables, ids))
        return rows + ((g * xhat).sum(axis=0), g.sum(axis=0))

    return T.Tensor(out, requires_grad=True, parents=parents, backward_fn=back)


def forward(weights: EncoderWeights, seq: TokenizedSequence,
            bias: T.Tensor | np.ndarray | None = None) -> tuple[T.Tensor, T.Tensor]:
    """Run the encoder stack on one sequence; returns (hidden states (n, H),
    pooled CLS (1, H)). ``bias`` applies in every layer. This is the
    batch-of-one ``forward_batch``."""
    return forward_batch(weights, [seq], [bias])


def forward_batch(weights: EncoderWeights, seqs: list[TokenizedSequence],
                  biases: list | None = None) -> tuple[T.Tensor, T.Tensor]:
    """Run the encoder stack once on a batch padded to its longest sequence,
    then the pooler.

    Returns hidden states (B*n, H), of which ``batch_rows(seqs)[b]`` are
    example b's, and pooled CLS vectors (B, H). ``biases[b]`` applies to
    example b's keys; padded keys get a -inf bias, so every example's rows
    equal its own unpadded forward up to rounding.

    The batch runs as contiguous groups of examples through
    ``tensor.worker_map``, and the groups' outputs are joined in order. A
    forward that records a gradient is one group, on the calling thread with
    the padded bias itself, so the graph reaches the bias; otherwise each of
    up to ``tensor.worker_count`` groups gets its own rows of the bias.
    """
    if not seqs:
        raise ContractError("a forward needs at least one sequence")
    cfg = weights.config
    lengths = [len(s) for s in seqs]
    n = max(lengths)
    if n > cfg.max_input:
        raise InputTooLongError(f"sequence length {n} exceeds max_input {cfg.max_input}")
    batch = len(seqs)
    bias_t = _padded_bias(biases, lengths, n, weights.word.dtype)

    parents = weights.parameters() + [bias_t]
    groups = 1 if T.grad_needed(parents) else min(batch, T.worker_count())
    bounds = [batch * g // groups for g in range(groups + 1)]

    def run_group(span: tuple[int, int]) -> T.Tensor:
        lo, hi = span
        rows = bias_t if groups == 1 else T.Tensor(bias_t.data[lo:hi])
        return _layer_stack(weights, seqs[lo:hi], n, rows)

    x = T.concat(T.worker_map(run_group, zip(bounds[:-1], bounds[1:])))
    x = T.reshape(x, (batch * n, cfg.hidden))

    cls = T.take_rows(x, np.arange(batch) * n)
    pooled = T.tanh(T.add(T.matmul(cls, weights.pooler_w), weights.pooler_b))
    return x, pooled


def batch_rows(seqs: list[TokenizedSequence]) -> list[np.ndarray]:
    """Each sequence's rows of the stack ``forward_batch`` returns: rows b*n
    to b*n + len(seqs[b]) - 1 for example b, where n is the longest length."""
    n = max(len(s) for s in seqs)
    return [b * n + np.arange(len(s)) for b, s in enumerate(seqs)]


def _layer_stack(weights: EncoderWeights, seqs: list[TokenizedSequence], n: int,
                 bias: T.Tensor) -> T.Tensor:
    """Embeddings and every layer on ``seqs`` padded to ``n`` tokens: (B, n, H)."""
    cfg = weights.config
    x = T.reshape(embed(weights, seqs, n), (len(seqs), n, cfg.hidden))
    for lw in weights.layers:
        x = layer(x, lw, bias, cfg.num_heads)
    return x


def _linear(x: np.ndarray, w: T.Tensor, b: T.Tensor) -> np.ndarray:
    """x W + b, the bias added into the product's own buffer."""
    out = T.matmul(x, w.data).data
    out += b.data
    return out


def layer(x: T.Tensor, lw: LayerWeights, bias: T.Tensor, num_heads: int) -> T.Tensor:
    """One encoder layer on a (B, n, H) stack as a single tensor op.

    Biased multi-head self-attention, residual and layer norm, then the GELU
    feed-forward, residual and layer norm, post-norm as in BERT. ``bias`` is
    ``_padded_bias``'s (B, n) matrix, added to the key columns.

    The forward runs in numpy buffers it owns: each bias is added into its
    product, the scores are scaled, biased and normalized in place, and each
    residual is added into the projection output, which is then normalized in
    place. Every operation keeps the order and operands of the composed graph
    of ``tensor`` ops, so the output is bit-identical to it. All GEMMs, forward
    and backward, are ``T.matmul`` calls; ``attention_probs`` gives the probabilities.

    Without a gradient to record (``no_grad``, or no parent requires one) the
    op saves nothing and returns a leaf. Otherwise it returns one graph node
    whose parents are ``x``, ``bias`` and the 16 weights, and
    whose backward reads only the layer input, q, k, v, the probabilities,
    the attention context, both layer norms' xhat and 1/std, and the GELU
    output and slope. The first layer norm's output is not saved: the
    backward rebuilds it from xhat with the forward's own expression.
    """
    parents = (x, bias) + tuple(vars(lw).values())
    save = T.grad_needed(parents)
    batch, n, hidden = x.shape
    rows, d = batch * n, hidden // num_heads

    def split_heads(a: np.ndarray) -> np.ndarray:
        return a.reshape(batch, n, num_heads, d).transpose(0, 2, 1, 3)

    def merge_heads(a: np.ndarray) -> np.ndarray:
        return a.transpose(0, 2, 1, 3).reshape(rows, hidden)

    x_in = x.data.reshape(rows, hidden)
    q, k, v = (_linear(x_in, w, b) for w, b in ((lw.wq, lw.bq), (lw.wk, lw.bk),
                                                (lw.wv, lw.bv)))
    probs = attention_probs(split_heads(q), split_heads(k), bias.data)
    ctx = merge_heads(T.matmul(probs, split_heads(v)).data)
    s1 = _linear(ctx, lw.wo, lw.bo)
    s1 += x_in
    h1, xhat1, inv_std1 = T.layer_norm_inplace(s1, lw.ln1_gain.data, lw.ln1_bias.data,
                                               keep_xhat=save)
    inter = _linear(h1, lw.w_inter, lw.b_inter)
    act, slope = T.gelu_kernel(inter, save, out=inter)
    s2 = _linear(act, lw.w_out, lw.b_out)
    s2 += h1
    out, xhat2, inv_std2 = T.layer_norm_inplace(s2, lw.ln2_gain.data, lw.ln2_bias.data,
                                                keep_xhat=save)
    out = out.reshape(batch, n, hidden)
    if not save:
        return T.Tensor(out)

    def back(g):
        g = g.reshape(rows, hidden)
        grads = {"ln2_gain": (g * xhat2).sum(axis=0), "ln2_bias": g.sum(axis=0)}
        d2 = T.layer_norm_grad(g, lw.ln2_gain.data, xhat2, inv_std2)
        grads["w_out"], grads["b_out"] = T.matmul(act.T, d2).data, d2.sum(axis=0)
        d_inter = T.matmul(d2, lw.w_out.data.T).data
        d_inter *= slope
        h1 = xhat1 * lw.ln1_gain.data + lw.ln1_bias.data  # the forward's own expression
        grads["w_inter"], grads["b_inter"] = T.matmul(h1.T, d_inter).data, d_inter.sum(axis=0)
        d_h1 = T.matmul(d_inter, lw.w_inter.data.T).data
        d_h1 += d2
        grads["ln1_gain"], grads["ln1_bias"] = (d_h1 * xhat1).sum(axis=0), d_h1.sum(axis=0)
        d1 = T.layer_norm_grad(d_h1, lw.ln1_gain.data, xhat1, inv_std1)
        grads["wo"], grads["bo"] = T.matmul(ctx.T, d1).data, d1.sum(axis=0)
        d_ctx = split_heads(T.matmul(d1, lw.wo.data.T).data)
        d_probs = T.matmul(d_ctx, np.swapaxes(split_heads(v), -1, -2)).data
        dv = merge_heads(T.matmul(np.swapaxes(probs, -1, -2), d_ctx).data)
        dq, dk, gbias = _attention_grads(d_probs, probs, split_heads(q), split_heads(k),
                                         bias, 1.0 / math.sqrt(d))
        dq, dk = merge_heads(dq), merge_heads(dk)
        gx = d1  # the residual's share; d1 is not read again
        for name, dy in (("q", dq), ("k", dk), ("v", dv)):
            grads["w" + name], grads["b" + name] = T.matmul(x_in.T, dy).data, dy.sum(axis=0)
            gx += T.matmul(dy, getattr(lw, "w" + name).data.T).data
        return (gx.reshape(batch, n, hidden), gbias) + tuple(grads[name] for name in vars(lw))

    return T.Tensor(out, requires_grad=True, parents=parents, backward_fn=back)
