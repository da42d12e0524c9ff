"""Transformer encoder with an additive per-token attention bias.

The attention scores of every layer can be shifted by a per-token bias
vector of nonpositive log-probabilities. Three application modes exist:

* ``key``: bias[t] is added to column t of the score matrix, so lowering a
  token's bias reduces how much information other tokens read from it.
  This is the mode the scoring model trains through, and in the -inf limit
  it removes the token exactly.
* ``query``: bias[t] is added to row t instead. For finite biases this is a
  softmax no-op; at -inf it silences the token's own reads but leaves the
  token readable by everyone else, which is why one-sided masking is only
  an approximation of dropping the token.
* ``symmetric``: both. This realizes exact hard-drop equivalence and is
  what the verification harness uses.

A batch of sequences runs as one padded stack (``forward_batch``); padded
keys carry a -inf bias in every layer, which removes them exactly.

The scorer and the task model are both ``Tower``s: an encoder plus a
one-unit linear head. Model-size presets and the closed-form parameter
count mirror the standard compact BERT family the sizes are borrowed from.

The runtime holds six embedding tables, while the counting inventory books
nine: every token would read row 0 of the binary, relation and inverse-rank
type tables, a constant the segment table absorbs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, InputTooLongError, check_field_types
from .tables import TokenizedSequence

BIAS_MODES = ("key", "query", "symmetric")
STRUCT_ID_CAP = 255  # structural embedding tables have 256 rows; larger ids share the last

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
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            value, least = getattr(self, f.name), 0 if f.name == "seed" else 1
            if value < least:
                raise ConfigError(f"{f.name} must be an int >= {least}, got {value!r}")
        if self.hidden % self.num_heads != 0:
            raise ConfigError(
                f"hidden {self.hidden} not divisible by num_heads {self.num_heads}")
        if self.max_input < 4:
            raise ConfigError("max_input must be >= 4")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.num_heads


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


def truncated_normal(rng: np.random.Generator, shape, std: float = 0.02,
                     dtype=np.float32) -> np.ndarray:
    """Normal draws re-sampled until within two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    for _ in range(16):
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
    return np.clip(out, -2.0 * std, 2.0 * std).astype(dtype)


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
    layers: list[LayerWeights] = field(default_factory=list)
    pooler_w: T.Tensor | None = None
    pooler_b: T.Tensor | None = None

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


def init_arrays(config: EncoderConfig, dtype=np.float32) -> dict[str, np.ndarray]:
    """Fresh values: truncated normal (std 0.02) matrices, zero biases, unit gains."""
    rng = np.random.Generator(np.random.PCG64(config.seed))

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


def init_weights(config: EncoderConfig, dtype=np.float32) -> EncoderWeights:
    """Fresh trainable weights, deterministic in ``config.seed``."""
    return weights_from_arrays(config, init_arrays(config, dtype))


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


def init_tower(config: EncoderConfig, head_seed: int, dtype=np.float32) -> Tower:
    """Fresh tower; the head draws from its own stream seeded by ``head_seed``."""
    rng = np.random.Generator(np.random.PCG64(head_seed))
    arrays = init_arrays(config, dtype)
    arrays["head_w"] = truncated_normal(rng, (config.hidden, 1), dtype=dtype)
    arrays["head_b"] = np.zeros(1, dtype=dtype)
    return Tower.from_arrays(config, arrays)


def attention_bias(bias: T.Tensor | np.ndarray | None, n_keys: int, dtype,
                   mode: str) -> T.Tensor | None:
    """Check ``mode`` and one sequence's ``bias`` once for a whole stack of
    attention layers.

    ``bias`` is a length-``n_keys`` vector of values in (-inf, 0]. NumPy
    biases are converted to ``dtype``, the dtype of the attention scores;
    tensors pass through unchanged so gradients reach whatever built them.
    """
    if mode not in BIAS_MODES:
        raise ContractError(f"unknown bias mode {mode!r}")
    if bias is None:
        return None
    bias_t = bias if isinstance(bias, T.Tensor) else T.Tensor(np.asarray(bias, dtype=dtype))
    data = bias_t.data
    if data.shape != (n_keys,):
        raise ContractError(f"bias length {data.shape} != key count {n_keys}")
    if not (data <= 0).all():  # NaN compares false, so it is refused too
        raise ContractError("attention bias entries must be <= 0 or -inf")
    return bias_t


def _padded_bias(biases, lengths: list[int], n: int, dtype, mode: str) -> T.Tensor | None:
    """One (B, n) bias for a batch padded to ``n`` tokens.

    Row b holds example b's bias (zeros when it has none) followed by -inf
    on its padded positions, so padding is removed exactly: the -inf key
    bias equals compaction. Only ``forward_batch`` pads, and only in key mode.
    """
    checked = [attention_bias(None if biases is None else biases[b], m, dtype, mode)
               for b, m in enumerate(lengths)]
    if all(m == n for m in lengths) and all(t is None for t in checked):
        return None
    pieces = []
    for bias, m in zip(checked, lengths):
        pieces.append(bias if bias is not None else T.Tensor(np.zeros(m, dtype=dtype)))
        if m < n:
            pieces.append(T.Tensor(np.full(n - m, -np.inf, dtype=dtype)))
    return T.reshape(T.concat(pieces), (len(lengths), n))


def attention_probs(q: T.Tensor, k: T.Tensor, bias: T.Tensor | None,
                    mode: str = "key") -> T.Tensor:
    """Softmax of the scaled, biased scores QK^T / sqrt(d).

    ``q`` and ``k`` are (..., n, d) with matching leading dims. ``bias`` is
    one sequence's (n,) vector from ``attention_bias`` or a batch's (B, n)
    matrix from ``_padded_bias`` for (B, heads, n, d) inputs. Rows that end
    up fully masked become all-zero rows rather than an error, which is the
    convention that makes a symmetric -inf bias equal to deleting tokens.
    """
    axes = list(range(len(k.shape)))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = T.mul(T.matmul(q, T.permute(k, tuple(axes))), 1.0 / math.sqrt(q.shape[-1]))
    if bias is not None:
        lead = bias.shape[:-1] + (1,) * (len(scores.shape) - len(bias.shape) - 1)
        n = bias.shape[-1]
        if mode in ("key", "symmetric"):
            scores = T.add(scores, T.reshape(bias, lead + (1, n)))
        if mode in ("query", "symmetric"):
            scores = T.add(scores, T.reshape(bias, lead + (n, 1)))
    return T.softmax_rows(scores)


def embed(weights: EncoderWeights, seqs: list[TokenizedSequence], n: int) -> T.Tensor:
    """Sum word, position, and segment/column/row/rank type embeddings,
    then normalize.

    Sequences are zero-padded to ``n`` tokens and stacked into (B*n, H) rows.
    """
    cfg = weights.config
    ids = np.zeros((6, len(seqs), n), dtype=np.int64)
    for b, s in enumerate(seqs):
        ids[:, b, :len(s)] = (s.token_ids, s.effective_positions(), s.segment_ids,
                              s.column_ids, s.row_ids, s.rank_ids)
    token, position, segment, column, row, rank = ids.reshape(6, -1)
    if position.size and position.max() >= cfg.max_input:
        raise InputTooLongError(
            f"position id {position.max()} exceeds max_input {cfg.max_input}")
    x = T.take_rows(weights.word, token)
    x = T.add(x, T.take_rows(weights.position, position))
    x = T.add(x, T.take_rows(weights.type_segment, segment))
    x = T.add(x, T.take_rows(weights.type_column, np.minimum(column, STRUCT_ID_CAP)))
    x = T.add(x, T.take_rows(weights.type_row, np.minimum(row, STRUCT_ID_CAP)))
    x = T.add(x, T.take_rows(weights.type_rank, np.minimum(rank, STRUCT_ID_CAP)))
    return T.layer_norm(x, weights.emb_ln_gain, weights.emb_ln_bias)


def forward(weights: EncoderWeights, seq: TokenizedSequence,
            bias: T.Tensor | np.ndarray | None = None, mode: str = "key"
            ) -> tuple[T.Tensor, T.Tensor]:
    """Run the encoder stack on one sequence; returns (hidden states (n, H),
    pooled CLS (1, H)). ``bias`` applies in every layer.

    In key mode this is the batch-of-one case of ``forward_batch``.
    """
    return _forward_padded(weights, [seq], None if bias is None else [bias], mode)


def forward_batch(weights: EncoderWeights, seqs: list[TokenizedSequence],
                  biases: list | None = None) -> tuple[T.Tensor, T.Tensor]:
    """Run the encoder stack once on a batch padded to its longest sequence.

    Returns hidden states (B*n, H), of which ``batch_rows(seqs)[b]`` are
    example b's, and pooled CLS vectors (B, H). ``biases[b]``
    applies to example b as in ``forward``'s key mode; padded keys get a -inf
    bias, so every example's rows equal its own unpadded forward up to rounding.
    """
    if len(seqs) == 1:
        # through ``forward``, so wrappers of the one-sequence entry point
        # (the benchmark's tracer) see batches of one
        return forward(weights, seqs[0], None if biases is None else biases[0])
    return _forward_padded(weights, seqs, biases, "key")


def batch_rows(seqs: list[TokenizedSequence]) -> list[np.ndarray]:
    """Each sequence's rows of the stack ``forward_batch`` returns: rows b*n
    to b*n + len(seqs[b]) - 1 for example b, where n is the longest length."""
    n = max(len(s) for s in seqs)
    return [b * n + np.arange(len(s)) for b, s in enumerate(seqs)]


def _forward_padded(weights: EncoderWeights, seqs: list[TokenizedSequence],
                    biases: list | None, mode: str) -> tuple[T.Tensor, T.Tensor]:
    cfg = weights.config
    lengths = [len(s) for s in seqs]
    n = max(lengths)
    if n > cfg.max_input:
        raise InputTooLongError(f"sequence length {n} exceeds max_input {cfg.max_input}")
    batch = len(seqs)
    bias_t = _padded_bias(biases, lengths, n, weights.word.dtype, mode)

    x = embed(weights, seqs, n)
    heads, d = cfg.num_heads, cfg.head_dim

    def split_heads(t: T.Tensor) -> T.Tensor:
        return T.permute(T.reshape(t, (batch, n, heads, d)), (0, 2, 1, 3))

    for lw in weights.layers:
        q = split_heads(T.add(T.matmul(x, lw.wq), lw.bq))
        k = split_heads(T.add(T.matmul(x, lw.wk), lw.bk))
        v = split_heads(T.add(T.matmul(x, lw.wv), lw.bv))
        probs = attention_probs(q, k, bias_t, mode)
        ctx = T.reshape(T.permute(T.matmul(probs, v), (0, 2, 1, 3)), (batch * n, cfg.hidden))
        attn_out = T.add(T.matmul(ctx, lw.wo), lw.bo)
        x = T.layer_norm(T.add(x, attn_out), lw.ln1_gain, lw.ln1_bias)
        ff = T.matmul(T.gelu(T.add(T.matmul(x, lw.w_inter), lw.b_inter)), lw.w_out)
        x = T.layer_norm(T.add(x, T.add(ff, lw.b_out)), lw.ln2_gain, lw.ln2_bias)

    cls = T.take_rows(x, np.arange(batch) * n)
    pooled = T.tanh(T.add(T.matmul(cls, weights.pooler_w), weights.pooler_b))
    return x, pooled
