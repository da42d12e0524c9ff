import gc
import threading
import tracemalloc

import numpy as np
import pytest

import helpers
from dotprune import encoder as enc
from dotprune import pruning as pr
from dotprune import tables as tb
from dotprune import tensor as T
from dotprune.container import load_tensors, save_tensors
from dotprune.errors import ConfigError, ContractError, InputTooLongError


def tiny_config(**kw):
    defaults = dict(num_layers=2, hidden=16, num_heads=2, intermediate=32,
                    vocab_size=40, max_input=40)
    defaults.update(kw)
    return enc.EncoderConfig(**defaults)


def test_presets_match_published_sizes():
    assert enc.preset("mini") == enc.EncoderConfig(4, 256, 4, 1024)
    assert enc.preset("small") == enc.EncoderConfig(4, 512, 8, 2048)
    assert enc.preset("medium") == enc.EncoderConfig(8, 512, 8, 2048)
    assert enc.preset("large") == enc.EncoderConfig(24, 1024, 16, 4096)


def test_preset_unknown_name():
    with pytest.raises(ConfigError):
        enc.preset("huge")


def test_zero_layer_config_rejected():
    with pytest.raises(ConfigError):
        enc.EncoderConfig(num_layers=0, hidden=16, num_heads=2, intermediate=32)


@pytest.mark.parametrize("field", ["num_layers", "hidden", "num_heads", "intermediate",
                                   "vocab_size", "max_input"])
@pytest.mark.parametrize("value", [-1, 0, 1.5, True, "8", np.int64(8)])
def test_integer_config_fields_refuse_non_ints_and_counts_below_one(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be an int"):
        tiny_config(**{field: value})


def test_count_parameters_reference_values():
    assert enc.count_parameters(enc.preset("mini", max_input=256), 256) == 11_105_280
    assert enc.count_parameters(enc.preset("small"), 512) == 28_239_872
    assert enc.count_parameters(enc.preset("medium"), 1024) == 46_608_896


def test_count_parameters_matches_shape_walk():
    for name in ("mini", "small", "medium", "large"):
        for input_len in (256, 512, 1024):
            cfg = enc.preset(name)
            assert enc.count_parameters(cfg, input_len) == enc.shape_walk_count(cfg, input_len)
    cfg = tiny_config()
    assert enc.count_parameters(cfg, 24) == enc.shape_walk_count(cfg, 24)


def test_count_parameters_respects_max_input():
    with pytest.raises(ConfigError):
        enc.count_parameters(tiny_config(max_input=16), 32)


def _plain_attention(q, k, v):
    d = q.shape[-1]
    scores = q @ np.swapaxes(k, -1, -2) / np.sqrt(d)
    ex = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return (ex / ex.sum(axis=-1, keepdims=True)) @ v


def _probs(q, k, bias):
    """The attention kernel on one single-head sequence: (n, d) inputs and an
    (n,) bias run as (1, 1, n, d) and (1, n); returns the (n, n) weights."""
    b = np.asarray(bias, dtype=q.dtype)[None]
    return enc.attention_probs(q[None, None], k[None, None], b)[0, 0]


def test_biased_attention_zero_bias_is_unbiased():
    rng = np.random.default_rng(0)
    q, k, v = (rng.normal(size=(3, 4)) for _ in range(3))
    out = _probs(q, k, np.zeros(3)) @ v
    np.testing.assert_allclose(out, _plain_attention(q, k, v), atol=1e-12)


def test_biased_attention_single_query_weights():
    # z = [0, 0], bias = [0, log 0.5] -> weights [2/3, 1/3]
    weights = _probs(np.zeros((1, 2)), np.zeros((2, 2)), [0.0, np.log(0.5)])
    np.testing.assert_allclose(weights, [[2 / 3, 1 / 3]], atol=1e-12)


def test_biased_attention_key_drop_equals_reduced_set():
    rng = np.random.default_rng(1)
    q, k, v = (rng.normal(size=(5, 4)) for _ in range(3))
    bias = np.zeros(5)
    bias[2] = -np.inf
    full = _probs(q, k, bias) @ v
    keep = [0, 1, 3, 4]
    reduced = _plain_attention(q[keep], k[keep], v[keep])
    assert np.max(np.abs(full[keep] - reduced)) < 1e-9


@pytest.mark.parametrize("bad", [0.1, np.nan, np.inf])
def test_forward_refuses_a_positive_nan_or_inf_bias(bad):
    seq = helpers.random_sequence(np.random.default_rng(30))
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    bias = np.zeros(len(seq))
    bias[-1] = bad
    with pytest.raises(ContractError, match="must be <= 0"):
        enc.forward(w, seq, bias=bias)
    seqs = [seq, helpers.random_sequence(np.random.default_rng(31))]
    with pytest.raises(ContractError, match="must be <= 0"):
        enc.forward_batch(w, seqs, [np.zeros(len(seqs[0])), np.full(len(seqs[1]), bad)])


def test_forward_refuses_a_bias_of_the_wrong_length():
    seq = helpers.random_sequence(np.random.default_rng(32))
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    with pytest.raises(ContractError, match="key count"):
        enc.forward(w, seq, bias=np.zeros(len(seq) + 1))
    with pytest.raises(ContractError, match="key count"):
        enc.forward_batch(w, [seq, seq], [np.zeros(len(seq)), np.zeros(len(seq) - 1)])


def test_forward_accepts_minus_inf_and_negative_zero():
    seq = helpers.random_sequence(np.random.default_rng(33))
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    bias = np.zeros(len(seq))
    bias[-1], bias[-2] = -np.inf, -0.0
    with T.no_grad():
        hidden, _ = enc.forward(w, seq, bias=bias)
    assert np.isfinite(hidden.data).all()


@pytest.mark.parametrize("n_seqs, n_biases", [(2, 1), (2, 3), (1, 0), (1, 2)])
def test_forward_batch_refuses_a_bias_count_other_than_the_sequence_count(n_seqs,
                                                                           n_biases):
    rng = np.random.default_rng(34)
    seqs = [helpers.random_sequence(rng) for _ in range(n_seqs)]
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    biases = [np.zeros(len(seqs[b % n_seqs])) for b in range(n_biases)]
    with pytest.raises(ContractError, match=f"{n_biases} biases for {n_seqs} sequences"):
        enc.forward_batch(w, seqs, biases)


@pytest.mark.parametrize("padded", [False, True])
def test_forward_refuses_a_tensor_bias_of_another_dtype(padded):
    seq = helpers.random_sequence(np.random.default_rng(35))
    seqs = [seq, helpers.compacted(seq, [len(seq) - 1])] if padded else [seq]
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float32)
    biases = [T.Tensor(np.zeros(len(s))) for s in seqs]  # float64
    with pytest.raises(ContractError, match="bias dtype float64 != scores' dtype float32"):
        enc.forward_batch(w, seqs, biases)


def test_forward_batch_refuses_an_empty_batch():
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    with pytest.raises(ContractError, match="at least one sequence"):
        enc.forward_batch(w, [])


def _drop_diff(seq, drop, mode):
    """The reference's masked forward in ``mode`` against the engine's
    compacted forward, on tiny_config weights."""
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    return helpers.reference_drop_diff(w, seq, drop, mode)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("masked", [False, True], ids=["zero", "masked"])
def test_the_composed_key_forward_is_the_engine_bit_for_bit(dtype, masked):
    rng = np.random.default_rng(2)
    seq = helpers.random_sequence(rng)
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=dtype)
    bias = np.zeros(len(seq))
    if masked:
        bias = -rng.random(len(seq))
        bias[[1, -1]] = -np.inf
    with T.no_grad():
        hidden, _ = enc.forward(w, seq, bias=bias)
        reference = helpers.composed_forward(w, seq, bias, "key")
    assert hidden.data.dtype == dtype
    assert np.array_equal(hidden.data, reference.data)


@pytest.mark.parametrize("with_bias", [False, True])
def test_forward_is_the_batch_of_one_forward_batch(monkeypatch, with_bias):
    rng = np.random.default_rng(36)
    seq = helpers.random_sequence(rng)
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    bias = -rng.random(len(seq)) if with_bias else None
    forward, forward_batch, calls = enc.forward, enc.forward_batch, []

    def spy(name, fn):
        return lambda *args: calls.append((name, *args)) or fn(*args)

    monkeypatch.setattr(enc, "forward", spy("forward", forward))
    monkeypatch.setattr(enc, "forward_batch", spy("forward_batch", forward_batch))
    with T.no_grad():
        hidden, pooled = forward(w, seq, bias)
        assert calls == [("forward_batch", w, [seq], [bias])]
        calls.clear()
        batch_hidden, batch_pooled = forward_batch(w, [seq], [bias])
    assert calls == []  # a batch of one takes no detour through ``forward``
    assert np.array_equal(hidden.data, batch_hidden.data)
    assert np.array_equal(pooled.data, batch_pooled.data)


def test_symmetric_drop_matches_compacted_forward():
    rng = np.random.default_rng(2)
    seq = helpers.random_sequence(rng)
    drop = [len(seq) - 1, len(seq) - 3]
    assert _drop_diff(seq, drop, "symmetric") < 1e-9


def test_key_only_drop_is_also_exact_when_applied_in_all_layers():
    # The per-key mask alone removes a token as an information source in
    # every layer, so survivors match the compacted run exactly.
    rng = np.random.default_rng(3)
    seq = helpers.random_sequence(rng)
    drop = [len(seq) - 2]
    assert _drop_diff(seq, drop, "key") < 1e-9
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    assert pr.hard_drop_equivalence(w, seq, drop) < 1e-9


def test_query_only_drop_is_not_equivalent():
    # One-sided application on the query rows leaves the token readable by
    # the survivors; this is the approximate regime of one-sided masking.
    rng = np.random.default_rng(4)
    seq = helpers.random_sequence(rng)
    drop = [len(seq) - 1]
    assert _drop_diff(seq, drop, "query") > 1e-6


def test_pad_tail_with_key_mask_matches_unpadded():
    rng = np.random.default_rng(5)
    seq = helpers.random_sequence(rng)
    n = len(seq)
    padded = tb.TokenizedSequence(
        token_ids=seq.token_ids + (tb.PAD_ID,) * 3,
        segment_ids=seq.segment_ids + (1, 1, 1),
        column_ids=seq.column_ids + (0, 0, 0),
        row_ids=seq.row_ids + (0, 0, 0),
        rank_ids=seq.rank_ids + (0, 0, 0),
    )
    cfg = tiny_config()
    w = helpers.init_encoder(cfg, np.random.default_rng(0), dtype=np.float64)
    bias = np.zeros(n + 3)
    bias[n:] = -np.inf
    with T.no_grad():
        padded_h, _ = enc.forward(w, padded, bias=bias)
        plain_h, _ = enc.forward(w, seq)
    assert np.max(np.abs(padded_h.data[:n] - plain_h.data)) < 1e-9


def test_forward_rejects_too_long_sequence():
    rng = np.random.default_rng(6)
    seq = helpers.random_sequence(rng)
    cfg = tiny_config(max_input=4)
    w = helpers.init_encoder(cfg, np.random.default_rng(0))
    with pytest.raises(InputTooLongError):
        enc.forward(w, seq)


def record_attention(monkeypatch) -> list[np.ndarray]:
    """Capture every layer's attention probabilities from ``enc.forward``."""
    captured = []
    original = enc.attention_probs

    def recording(*args):
        probs = original(*args)
        captured.append(probs.copy())
        return probs

    monkeypatch.setattr(enc, "attention_probs", recording)
    return captured


def test_attention_rows_sum_to_one(monkeypatch):
    rng = np.random.default_rng(7)
    seq = helpers.random_sequence(rng)
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    captured = record_attention(monkeypatch)
    with T.no_grad():
        enc.forward(w, seq)
    assert len(captured) == 2
    for probs in captured:
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)


def test_lowering_key_bias_strictly_lowers_received_mass(monkeypatch):
    rng = np.random.default_rng(8)
    seq = helpers.random_sequence(rng)
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    t = len(seq) - 1
    captured = record_attention(monkeypatch)
    masses = []
    for s_t in (0.0, -0.5, -2.0):
        bias = np.zeros(len(seq))
        bias[t] = s_t
        captured.clear()
        with T.no_grad():
            enc.forward(w, seq, bias=bias)
        masses.append(captured[0][..., t].sum())
    assert masses[0] > masses[1] > masses[2]


def test_forward_precision_agreement():
    rng = np.random.default_rng(9)
    seq = helpers.random_sequence(rng)
    cfg = enc.preset("mini", vocab_size=40, max_input=64)
    w64 = helpers.init_encoder(cfg, np.random.default_rng(1), dtype=np.float64)
    w32 = helpers.init_encoder(cfg, np.random.default_rng(1), dtype=np.float32)
    with T.no_grad():
        h64, _ = enc.forward(w64, seq)
        h32, _ = enc.forward(w32, seq)
    assert h32.data.dtype == np.float32
    assert np.max(np.abs(h64.data - h32.data.astype(np.float64))) < 1e-3


def test_init_is_seed_deterministic():
    a = helpers.init_encoder(tiny_config(), np.random.default_rng(3))
    b = helpers.init_encoder(tiny_config(), np.random.default_rng(3))
    for (na, ta), (nb, tb_) in zip(a.named_tensors().items(), b.named_tensors().items()):
        assert na == nb
        assert (ta.data == tb_.data).all()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_init_tower_draws_the_encoder_then_the_head(dtype):
    # one rule over Tower.tensor_shapes, in its order: truncated normal
    # matrices, unit gains, zero biases; the head comes after the encoder
    cfg = tiny_config()
    shapes = enc.Tower.tensor_shapes(cfg)
    assert list(shapes)[-2:] == ["head_w", "head_b"]
    assert shapes["head_w"] == (cfg.hidden, 1) and shapes["head_b"] == (1,)
    drawn = np.random.default_rng(5)
    named = enc.init_tower(cfg, drawn, dtype).named_tensors()
    assert set(named) == set(shapes)
    rng = np.random.default_rng(5)
    for name, shape in shapes.items():
        t = named[name].data
        assert t.dtype == dtype and t.shape == shape, name
        if len(shape) == 2:
            expected = enc.truncated_normal(rng, shape, dtype)
        else:
            expected = np.full(shape, 1.0 if name.endswith("gain") else 0.0)
        assert (t == expected).all(), name
    assert drawn.bit_generator.state == rng.bit_generator.state  # nothing else is drawn


def test_tower_parameters_are_the_encoder_then_the_head():
    # AdamW's moment keys and the order of the grad-norm sum follow this order
    tower = enc.init_tower(tiny_config(), np.random.default_rng(5))
    expected = tower.encoder.parameters() + [tower.head_w, tower.head_b]
    assert [id(p) for p in tower.parameters()] == [id(p) for p in expected]
    assert list(tower.named_tensors())[-2:] == ["head_w", "head_b"]


@pytest.mark.parametrize("make", [
    tiny_config, lambda **kw: enc.preset("mini", vocab_size=40, max_input=40, **kw),
], ids=["config", "preset"])
def test_an_encoder_config_holds_no_seed(make):
    # init draws from the generator its caller passes, so no config names a seed
    with pytest.raises(TypeError, match="seed"):
        make(seed=0)


def test_checkpoint_round_trip_and_byte_stability(tmp_path):
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(4))
    named = {k: t.data for k, t in w.named_tensors().items()}
    header = {"kind": "encoder", "seed": 4}
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_tensors(p1, named, header)
    save_tensors(p2, named, header)
    assert p1.read_bytes() == p2.read_bytes()
    loaded_header, loaded = load_tensors(p1)
    assert loaded_header == header
    for k, arr in named.items():
        assert (loaded[k] == arr).all()


def test_forward_batch_rows_match_each_sequence_forward():
    rng = np.random.default_rng(11)
    seqs = [helpers.random_sequence(rng) for _ in range(3)]
    assert len({len(s) for s in seqs}) > 1
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=np.float64)
    biases = [-rng.random(len(s)) for s in seqs]
    biases[1][-1] = -np.inf
    with T.no_grad():
        hidden, pooled = enc.forward_batch(w, seqs, biases)
        all_rows = enc.batch_rows(seqs)
        for b, (seq, bias) in enumerate(zip(seqs, biases)):
            own_h, own_p = enc.forward(w, seq, bias=bias)
            rows = hidden.data[all_rows[b]]
            assert np.max(np.abs(rows - own_h.data)) < 1e-12
            assert np.max(np.abs(pooled.data[b] - own_p.data[0])) < 1e-12


def _worker_case(dtype, with_bias):
    rng = np.random.default_rng(21)
    seqs = [helpers.random_sequence(rng) for _ in range(5)]
    assert len({len(s) for s in seqs}) > 1
    biases = None
    if with_bias:
        biases = [-rng.random(len(s)) for s in seqs]
        biases[3][1] = -np.inf
    return helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=dtype), seqs, biases


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("with_bias", [False, True])
def test_no_grad_forward_batch_on_workers_matches_the_serial_path(monkeypatch, dtype, tol,
                                                                  with_bias):
    w, seqs, biases = _worker_case(dtype, with_bias)
    threads = []
    stack = enc._layer_stack

    def spy(*args):
        threads.append(threading.current_thread().name)
        return stack(*args)

    monkeypatch.setattr(enc, "_layer_stack", spy)
    with T.no_grad():
        with helpers.workers(1):
            serial = enc.forward_batch(w, seqs, biases)
        assert threads == [threading.current_thread().name]
        with helpers.workers(2):
            first = enc.forward_batch(w, seqs, biases)
            second = enc.forward_batch(w, seqs, biases)
    assert len(threads) == 5 and all(t.startswith("dotprune-worker") for t in threads[1:])
    for a, b, c in zip(serial, first, second):
        assert a.shape == b.shape and b.dtype == dtype
        assert np.max(np.abs(a.data - b.data)) <= tol
        assert np.array_equal(b.data, c.data)


def test_recording_forwards_and_batches_of_one_never_reach_the_pool(monkeypatch):
    w, seqs, biases = _worker_case(np.float64, True)

    def no_pool():
        raise AssertionError("the worker pool was reached")

    with helpers.workers(2):
        monkeypatch.setattr(T, "_worker_pool", no_pool)
        hidden, _ = enc.forward_batch(w, seqs, biases)
        assert hidden.requires_grad
        with T.no_grad():
            enc.forward_batch(w, seqs[:1], biases[:1])
            enc.forward(w, seqs[0], bias=biases[0])
            with pytest.raises(AssertionError, match="pool was reached"):
                enc.forward_batch(w, seqs, biases)


def _layer_case(dtype, seed=12):
    """Layer 0 of tiny_config with perturbed weights, on a (3, 7, 16) stack.

    The bias is a padded batch's: example 0 is two tokens shorter, so its
    last two keys carry -inf, and example 2 masks every key, so each of its
    rows is all-zero.
    """
    rng = np.random.default_rng(seed)
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=dtype)
    lw = w.layers[0]
    for t in vars(lw).values():
        t.data = (t.data + rng.normal(0.0, 0.05, t.shape)).astype(dtype)
    x = T.Tensor(rng.normal(size=(3, 7, 16)).astype(dtype), requires_grad=True)
    bias = -rng.random((3, 7)).astype(dtype)
    bias[0, 5:] = -np.inf
    bias[2] = -np.inf
    return x, lw, T.Tensor(bias, requires_grad=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_is_bit_identical_to_the_composed_graph(dtype):
    x, lw, bias = _layer_case(dtype)
    heads = tiny_config().num_heads
    with T.no_grad():
        fused = enc.layer(x, lw, bias, heads)
        reference = helpers.composed_layer(x, lw, bias, "key", heads)
        unbiased = enc.layer(x, lw, T.Tensor(np.zeros(bias.shape, dtype)), heads)
        unbiased_reference = helpers.composed_layer(x, lw, None, "key", heads)
    assert fused.data.dtype == dtype
    assert np.array_equal(fused.data, reference.data)
    assert np.array_equal(unbiased.data, unbiased_reference.data)
    assert fused.parents == () and fused.backward_fn is None
    # the op recording a node computes the same bits
    recorded = enc.layer(x, lw, bias, heads)
    assert np.array_equal(recorded.data, fused.data)
    assert recorded.parents == (x, bias, *vars(lw).values())


def test_layer_f64_gradients_match_the_composed_graph():
    x, lw, bias = _layer_case(np.float64)
    heads = tiny_config().num_heads
    params = [x, bias, *vars(lw).values()]
    names = ["x", "bias", *vars(lw)]
    weight = np.random.default_rng(13).normal(size=x.shape)

    def grads(out):
        loss = T.tensor_sum(T.mul(out, weight))
        return dict(zip(names, T.backward(loss, params)))

    fused = grads(enc.layer(x, lw, bias, heads))
    reference = grads(helpers.composed_layer(x, lw, bias, "key", heads))
    largest = max(np.abs(g).max() for g in reference.values())
    # softmax ignores a per-row shift, so the key projection's bias has an
    # exact gradient of zero
    for name in names:
        scale = np.abs(reference[name]).max()
        tol = 1e-12 * largest if name == "bk" else 1e-9 * scale
        assert np.abs(fused[name] - reference[name]).max() <= tol, name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_never_writes_its_inputs(dtype):
    x, lw, bias = _layer_case(dtype)
    heads = tiny_config().num_heads
    params = [x, bias, *vars(lw).values()]
    before = [p.data.copy() for p in params]
    with T.no_grad():
        enc.layer(x, lw, bias, heads)
    T.backward(T.tensor_sum(enc.layer(x, lw, bias, heads)), params)
    for p, b in zip(params, before):
        assert np.array_equal(p.data, b)


def _embed_case(dtype, seed=14):
    """Weights of tiny_config with every table, gain and bias perturbed, and
    three sequences padded to 11 tokens: random ids with repeats, and
    column, row and rank ids past ``STRUCT_ID_CAP``, which share its row."""
    rng = np.random.default_rng(seed)
    w = helpers.init_encoder(tiny_config(), np.random.default_rng(0), dtype=dtype)
    for t in w.parameters():
        t.data = (t.data + rng.normal(0.0, 0.05, t.shape)).astype(dtype)

    def ids(m, high):
        return tuple(int(i) for i in rng.integers(0, high, m))

    seqs = [tb.TokenizedSequence(token_ids=ids(m, 40), segment_ids=ids(m, 3),
                                 column_ids=ids(m, 300), row_ids=ids(m, 300),
                                 rank_ids=ids(m, 300), positions=ids(m, 40))
            for m in (9, 6, 7)]
    return w, seqs, 11


def _embed_parents(w):
    return [w.word, w.position, w.type_segment, w.type_column, w.type_row, w.type_rank,
            w.emb_ln_gain, w.emb_ln_bias]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_is_bit_identical_to_the_composed_graph(dtype):
    w, seqs, n = _embed_case(dtype)
    with T.no_grad():
        fused = enc.embed(w, seqs, n)
        reference = helpers.composed_embed(w, seqs, n)
    assert fused.data.dtype == dtype and fused.shape == (len(seqs) * n, 16)
    assert np.array_equal(fused.data, reference.data)
    assert fused.parents == () and fused.backward_fn is None
    recorded, recorded_reference = enc.embed(w, seqs, n), helpers.composed_embed(w, seqs, n)
    assert np.array_equal(recorded.data, recorded_reference.data)
    assert np.array_equal(recorded.data, fused.data)
    assert recorded.parents == tuple(_embed_parents(w))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embed_gradients_equal_the_composed_graphs_bit_for_bit(dtype):
    w, seqs, n = _embed_case(dtype)
    params = _embed_parents(w)
    weight = np.random.default_rng(15).normal(size=(len(seqs) * n, 16)).astype(dtype)

    def grads(embed_fn):
        return T.backward(T.tensor_sum(T.mul(embed_fn(w, seqs, n), weight)), params)

    fused = grads(enc.embed)
    for got, reference in zip(fused, grads(helpers.composed_embed)):
        assert got.dtype == dtype
        assert np.array_equal(got, reference)
    # the capped ids all read the last row of each structural table
    assert np.abs(fused[3][enc.STRUCT_ID_CAP]).sum() > 0


def test_embed_never_writes_its_tables():
    w, seqs, n = _embed_case(np.float32)
    params = _embed_parents(w)
    before = [p.data.copy() for p in params]
    with T.no_grad():
        enc.embed(w, seqs, n)
    T.backward(T.tensor_sum(enc.embed(w, seqs, n)), params)
    for p, b in zip(params, before):
        assert np.array_equal(p.data, b)


# Python objects a recording op allocates besides its arrays (the node, its
# closure and parent tuple): far below one activation block in the cases below
ALLOWANCE = 16 * 1024


def _retained_bytes(fn):
    """Bytes still allocated once ``fn()`` has returned, while its result is
    alive, as ``tracemalloc`` counts them (NumPy reports its buffers to it).
    ``fn`` runs once untraced first, so lazily filled caches are not counted."""
    fn()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert result is not None
    return retained


def test_a_recording_embed_keeps_its_output_xhat_ids_and_inv_std_only():
    batch, n, hidden = 4, 32, 256
    w = helpers.init_encoder(tiny_config(hidden=hidden, num_heads=4, num_layers=1,
                                     intermediate=16, max_input=64), np.random.default_rng(0))
    seqs = [helpers.random_sequence(np.random.default_rng(s), max_len=n) for s in range(batch)]
    block = batch * n * hidden * 4  # one (B*n, H) float32 array: 128 KiB
    budget = 2 * block + 6 * batch * n * 8 + batch * n * 4  # out, xhat; int64 ids; 1/std
    assert _retained_bytes(lambda: enc.embed(w, seqs, n)) <= budget + ALLOWANCE


def test_a_recording_f32_layer_keeps_only_what_its_backward_reads():
    batch, n, hidden, heads, inter = 2, 64, 128, 2, 512
    w = helpers.init_encoder(tiny_config(hidden=hidden, num_heads=heads, intermediate=inter,
                                     num_layers=1, max_input=n), np.random.default_rng(0))
    x = T.Tensor(np.random.default_rng(16).normal(size=(batch, n, hidden)).astype(np.float32),
                 requires_grad=True)
    bias = T.Tensor(np.zeros((batch, n), np.float32))
    block = batch * n * hidden * 4  # one (B*n, H) float32 array: 64 KiB
    budget = (block * 7  # q, k, v, the context, xhat1, xhat2 and the output
              + batch * heads * n * n * 4  # the probabilities
              + 2 * batch * n * inter * 4  # the GELU output and slope
              + 2 * batch * n * 4)  # both layer norms' 1/std
    retained = _retained_bytes(lambda: enc.layer(x, w.layers[0], bias, heads))
    assert retained <= budget + ALLOWANCE
