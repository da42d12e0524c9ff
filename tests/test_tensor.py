import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf, ndtr

from dotprune import tensor as T
from helpers import gelu, layer_norm, softmax_rows, workers
from dotprune.errors import ContractError, ShapeError


def test_matmul_identity():
    a = T.Tensor(np.eye(2))
    b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(a, b)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_scalar_case():
    out = T.matmul(T.Tensor([[2.0]]), T.Tensor([[3.0]]))
    assert out.data[0, 0] == 6.0


def test_matmul_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 5))
    b = rng.normal(size=(5, 3))
    expect = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for l in range(5):
                expect[i, j] += a[i, l] * b[l, j]
    out = T.matmul(T.Tensor(a), T.Tensor(b))
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))))


def test_softmax_symmetric_row():
    out = softmax_rows(T.Tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]])


def test_softmax_mask_sentinel_is_exact_zero():
    out = softmax_rows(T.Tensor([[0.0, -np.inf]]))
    assert out.data[0, 0] == 1.0
    assert out.data[0, 1] == 0.0


def test_softmax_matches_direct_formula():
    row = np.array([[1.0, 2.0, 3.0]])
    expect = np.exp(row) / np.exp(row).sum()
    out = softmax_rows(T.Tensor(row))
    assert np.max(np.abs(out.data - expect)) < 1e-12


def test_softmax_rejects_nan_and_inf_but_takes_the_mask_sentinel():
    for bad in (np.nan, np.inf):
        for dtype in (np.float32, np.float64):
            with pytest.raises(ContractError, match="finite or -inf"):
                softmax_rows(T.Tensor(np.array([[0.0, 1.0], [bad, 0.0]], dtype=dtype)))
    out = softmax_rows(T.Tensor(np.array([[0.0, -np.inf]], dtype=np.float32)))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("at", [1, 3])
def test_softmax_refuses_nan_and_inf_beside_larger_finite_values(dtype, bad, at):
    x = np.array([[0.0, 1.0, 2.0, 3.0], [9.0, -2.0, -np.inf, 5.0]], dtype=dtype)
    x[1, at] = bad  # a NaN there is not the row's largest value; 9.0 is
    with pytest.raises(ContractError, match="finite or -inf"):
        T.softmax_rows_inplace(x)


def test_softmax_empty_row_zeros_mode():
    out = softmax_rows(T.Tensor([[-np.inf, -np.inf], [0.0, 0.0]]))
    np.testing.assert_array_equal(out.data[0], [0.0, 0.0])
    np.testing.assert_allclose(out.data[1], [0.5, 0.5])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_in_place_equals_the_three_array_expression_bitwise(dtype):
    x = np.random.default_rng(0).normal(0.0, 4.0, size=(3, 5, 17)).astype(dtype)
    x[0, 1, [2, 5]] = -np.inf
    x[1, 3, :] = -np.inf
    rowmax = np.max(x, axis=-1, keepdims=True)
    rowmax = np.where(np.isneginf(rowmax), 0.0, rowmax)
    ex = np.exp(x - rowmax)
    denom = ex.sum(axis=-1, keepdims=True)
    expect = ex / np.where(denom == 0.0, 1.0, denom)
    out = softmax_rows(T.Tensor(x)).data
    assert out.dtype == dtype
    assert out.tobytes() == expect.astype(dtype).tobytes()
    assert not out[1, 3].any()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
                min_size=1, max_size=5).filter(lambda rows: len({len(r) for r in rows}) == 1))
def test_softmax_rows_sum_to_one(rows):
    out = softmax_rows(T.Tensor(np.array(rows, dtype=np.float64)))
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_layer_norm_constant_vector_is_zero():
    h = 5
    out = layer_norm(T.Tensor(np.full(h, 3.7)), T.Tensor(np.ones(h)), T.Tensor(np.zeros(h)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_already_normalized():
    out = layer_norm(T.Tensor([1.0, -1.0]), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)),
                     eps=1e-30)
    np.testing.assert_allclose(out.data, [1.0, -1.0], atol=1e-12)


def test_layer_norm_matches_mean_variance_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=12)
    gain = rng.normal(size=12)
    bias = rng.normal(size=12)
    eps = 1e-12
    expect = (x - x.mean()) / np.sqrt(x.var() + eps) * gain + bias
    out = layer_norm(T.Tensor(x), T.Tensor(gain), T.Tensor(bias), eps=eps)
    assert np.max(np.abs(out.data - expect)) < 1e-10


def test_gelu_at_zero():
    assert gelu(T.Tensor([0.0])).data[0] == 0.0


def _gelu_and_slope(x):
    """Forward values and d gelu / dx (the gradient of sum(gelu(x)))."""
    t = T.Tensor(x, requires_grad=True)
    out = gelu(t)
    (grad,) = T.backward(T.tensor_sum(out), [t])
    return out.data, grad


def test_gelu_f32_is_within_3e_7_of_the_normal_cdf():
    x = np.linspace(-12.0, 12.0, 2_000_001).astype(np.float32)
    x = x[x != 0]
    y = gelu(T.Tensor(x)).data
    assert y.dtype == np.float32
    # y = fl(x Phi_f32(x)), so y / x carries one more float32 rounding of Phi
    phi = y.astype(np.float64) / x.astype(np.float64)
    assert np.abs(phi - ndtr(x.astype(np.float64))).max() <= 3e-7 + 2.0 ** -24
    big = np.concatenate([np.linspace(6.0, 1e4, 100_001),
                          [np.finfo(np.float32).max]]).astype(np.float32)
    np.testing.assert_array_equal(gelu(T.Tensor(big)).data, big)
    np.testing.assert_array_equal(gelu(T.Tensor(-big)).data, 0.0)


def test_gelu_f32_is_bit_exact_under_slicing():
    n = 3 * T._BLOCK + 12345
    x = (np.random.default_rng(7).standard_normal(n) * 4).astype(np.float32)
    out, slope = _gelu_and_slope(x)
    for start, stop in [(0, n), (1, n - 1), (T._BLOCK - 3, 2 * T._BLOCK + 5),
                        (n - 100, n), (12345, 12346)]:
        part_out, part_slope = _gelu_and_slope(x[start:stop])
        np.testing.assert_array_equal(part_out, out[start:stop])
        np.testing.assert_array_equal(part_slope, slope[start:stop])
    rows = x[:-1].reshape(8, -1)
    rows_out, rows_slope = _gelu_and_slope(rows)
    np.testing.assert_array_equal(rows_out.reshape(-1), out[:-1])
    np.testing.assert_array_equal(rows_slope.reshape(-1), slope[:-1])
    cols_out, cols_slope = _gelu_and_slope(rows.T)  # a strided view
    np.testing.assert_array_equal(cols_out, rows_out.T)
    np.testing.assert_array_equal(cols_slope, rows_slope.T)


def test_gelu_f32_backward_agrees_with_f64():
    x = np.linspace(-9.0, 9.0, 400_001).astype(np.float32)
    _, slope32 = _gelu_and_slope(x)
    _, slope64 = _gelu_and_slope(x.astype(np.float64))
    assert slope32.dtype == np.float32
    # Phi's bound plus a few float32 roundings of x phi(x) <= 0.25 and the sum
    assert np.abs(slope32 - slope64).max() <= 3e-7 + 4 * 2.0 ** -24


def test_gelu_f64_passes_gradient_check():
    rng = np.random.default_rng(8)
    x = T.Tensor(rng.normal(size=(5, 7)) * 2, requires_grad=True)
    w = T.Tensor(rng.normal(size=(5, 7)))
    err = T.gradient_check(lambda p: T.tensor_sum(T.mul(gelu(p[0]), w)), [x], eps=1e-5)
    assert err < 1e-4


def test_gelu_f64_is_bit_identical_to_the_erf_formula():
    x = np.random.default_rng(9).normal(size=(37, 29)) * 4
    out, slope = _gelu_and_slope(x)
    cdf = 0.5 * (1.0 + erf(x * 0.7071067811865476))  # x / sqrt 2 as multiplication
    np.testing.assert_array_equal(out, x * cdf)
    pdf = np.exp(-0.5 * x * x) * 0.3989422804014327  # 1 / sqrt(2 pi)
    np.testing.assert_array_equal(slope, cdf + x * pdf)


def test_adamw_single_step_decreases_weight():
    w = T.Tensor(np.array([1.0]), requires_grad=True)
    # f(w) = w^2, grad = 2w
    state = {}
    T.adamw_step([w], [np.array([2.0])], state, lr=0.1, weight_decay=0.01)
    assert abs(w.data[0]) < 1.0
    assert state["step"] == 1


def _adamw_whole_array(params, grads, state, lr, weight_decay):
    """The whole-array AdamW formula that the blocked ``adamw_step`` must equal
    bit for bit."""
    b1, b2, eps = 0.9, 0.999, 1e-6
    step = state.get("step", 0) + 1
    state["step"] = step
    moments = state.setdefault("moments", {})
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            continue
        if i not in moments:
            moments[i] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = moments[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * np.square(g)
        update = np.sqrt(v / c2)
        update += eps
        np.divide(m / c1, update, out=update)
        update *= lr
        if weight_decay:
            update += (lr * weight_decay) * p.data
        p.data -= update


ADAMW_SHAPES = [(1,), (T._BLOCK - 1,), (T._BLOCK,), (T._BLOCK + 1,), (7 * T._BLOCK // 2,),
                (257, 300)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
def test_blocked_adamw_equals_the_whole_array_formula_bitwise(dtype, weight_decay):
    rng = np.random.default_rng(11)
    init = [rng.normal(size=shape).astype(dtype) for shape in ADAMW_SHAPES]
    blocked = [T.Tensor(a.copy(), requires_grad=True) for a in init]
    whole = [T.Tensor(a.copy(), requires_grad=True) for a in init]
    blocked_state, whole_state = {}, {}
    for step in range(1, 6):
        grads = [rng.normal(size=shape).astype(dtype) for shape in ADAMW_SHAPES]
        lr = 1e-3 * step / 5
        T.adamw_step(blocked, grads, blocked_state, lr, weight_decay)
        _adamw_whole_array(whole, grads, whole_state, lr, weight_decay)
        for i, (b, w) in enumerate(zip(blocked, whole)):
            assert b.data.tobytes() == w.data.tobytes()
            for mb, mw in zip(blocked_state["moments"][i], whole_state["moments"][i]):
                assert mb.tobytes() == mw.tobytes()
    assert all(not np.array_equal(b.data, a) for b, a in zip(blocked, init))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_grad_scale_equals_adamw_on_gradients_scaled_beforehand_bitwise(dtype):
    # the factor is applied block by block inside the sweep, as the clip's
    # factor is; the gradients passed in are only read
    rng = np.random.default_rng(13)
    init = [rng.normal(size=shape).astype(dtype) for shape in ADAMW_SHAPES]
    folded = [T.Tensor(a.copy(), requires_grad=True) for a in init]
    scaled = [T.Tensor(a.copy(), requires_grad=True) for a in init]
    folded_state, scaled_state = {}, {}
    for step, grad_scale in enumerate((0.37, 1.0, 1e-3, 0.9), start=1):
        grads = [rng.normal(size=shape).astype(dtype) for shape in ADAMW_SHAPES]
        before = [g.copy() for g in grads]
        lr = 1e-3 * step
        T.adamw_step(folded, grads, folded_state, lr, 0.01, grad_scale=grad_scale)
        for g, b in zip(grads, before):
            assert g.tobytes() == b.tobytes()
        pre = [g * grad_scale for g in grads]
        T.adamw_step(scaled, pre, scaled_state, lr, 0.01)
        for i, (f, s) in enumerate(zip(folded, scaled)):
            assert f.data.tobytes() == s.data.tobytes()
            for mf, ms in zip(folded_state["moments"][i], scaled_state["moments"][i]):
                assert mf.tobytes() == ms.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_adamw_call_over_a_list_equals_a_call_per_part_of_it_bitwise(dtype):
    # the update is element-wise per parameter, so training's one call over
    # both towers equals a call per tower with its own state
    rng = np.random.default_rng(17)
    init = [rng.normal(size=shape).astype(dtype) for shape in ADAMW_SHAPES]
    whole = [T.Tensor(a.copy(), requires_grad=True) for a in init]
    parts = [T.Tensor(a.copy(), requires_grad=True) for a in init]
    cut = 2
    whole_state, part_states = {}, ({}, {})
    for step, grad_scale in enumerate((1.0, 0.37, 0.9), start=1):
        grads = [rng.normal(size=shape).astype(dtype) for shape in ADAMW_SHAPES]
        lr = 1e-3 * step
        assert T.adamw_step(whole, grads, whole_state, lr, 0.01, grad_scale=grad_scale) is None
        for state, sl in zip(part_states, (slice(None, cut), slice(cut, None))):
            T.adamw_step(parts[sl], grads[sl], state, lr, 0.01, grad_scale=grad_scale)
        assert [w.data.tobytes() for w in whole] == [p.data.tobytes() for p in parts]
    assert all(not np.array_equal(w.data, a) for w, a in zip(whole, init))


def _adamw_refusal_leaves_everything_unchanged(params, grads, match):
    """Run one good AdamW step, then one that must be refused with ``match``:
    no parameter, moment or step count may change."""
    state = {}
    T.adamw_step(params, [np.full(p.shape, 0.5, p.dtype) for p in params], state,
                 lr=0.1, weight_decay=0.01)
    before = [p.data.copy() for p in params]
    moments = {i: tuple(m.copy() for m in mv) for i, mv in state["moments"].items()}
    with pytest.raises(ContractError, match=match):
        T.adamw_step(params, grads, state, lr=0.1, weight_decay=0.01)
    assert state["step"] == 1
    assert state["moments"].keys() == moments.keys()
    for i, (m, v) in moments.items():
        assert state["moments"][i][0].tobytes() == m.tobytes()
        assert state["moments"][i][1].tobytes() == v.tobytes()
    for p, b in zip(params, before):
        assert p.data.tobytes() == b.tobytes()


@pytest.mark.parametrize("view", [np.transpose, lambda a: a[:, :4]],
                         ids=["transposed", "column-sliced"])
def test_adamw_refuses_a_parameter_that_is_not_c_contiguous(view):
    # a parameter is updated in place through reshape(-1), which is a view
    # only of a C-contiguous array
    data = view(np.random.default_rng(12).normal(size=(4, 6)))
    assert not data.flags.c_contiguous
    params = [T.Tensor(np.ones(3), requires_grad=True), T.Tensor(data, requires_grad=True)]
    with pytest.raises(ContractError, match="not C-contiguous"):
        T.adamw_step(params, [np.zeros(3), np.zeros(data.shape)], {}, lr=0.1,
                     weight_decay=0.01)
    assert params[0].data.tolist() == [1.0, 1.0, 1.0]


def test_adamw_refuses_a_gradient_of_another_shape_or_dtype():
    p = T.Tensor(np.zeros(3), requires_grad=True)
    for g in (np.zeros(1), np.zeros(3, dtype=np.float32)):
        with pytest.raises(ContractError, match="gradient"):
            T.adamw_step([p], [g], {}, lr=0.1, weight_decay=0.0)


def test_adamw_checks_every_gradient_before_it_writes():
    params = [T.Tensor(np.ones(3), requires_grad=True), T.Tensor(np.ones(2), requires_grad=True)]
    # the gradient at index 1 is refused: parameter 0 must not move either
    _adamw_refusal_leaves_everything_unchanged(params, [np.ones(3), np.ones(5)], "gradient")
    fresh = {}
    with pytest.raises(ContractError, match="gradient"):
        T.adamw_step(params, [np.ones(3), np.ones(2, np.float32)], fresh, lr=0.1,
                     weight_decay=0.0)
    assert fresh == {}


def test_adamw_refuses_a_gradient_list_of_another_length():
    params = [T.Tensor(np.ones(3), requires_grad=True), T.Tensor(np.ones(2), requires_grad=True)]
    # zip would have skipped the last parameter
    _adamw_refusal_leaves_everything_unchanged(params, [np.ones(3)],
                                               "1 gradients for 2 parameters")
    _adamw_refusal_leaves_everything_unchanged(params, [np.ones(3), np.ones(2), np.ones(1)],
                                               "3 gradients for 2 parameters")


@pytest.mark.parametrize("data", [np.arange(3), np.array([True, False]),
                                  np.ones(2, np.float16), 1],
                         ids=["int64", "bool", "float16", "python-int"])
def test_tensor_refuses_data_that_is_not_float32_or_float64(data):
    # a silent cast to float64 would turn a float32 graph into float64
    with pytest.raises(ContractError, match=f"float32 or float64, got {np.asarray(data).dtype}"):
        T.Tensor(data)


@pytest.mark.parametrize("case", ["add(a, a)", "add(a, b)", "concat", "reshape"])
def test_backward_leaves_own_their_gradients_and_nodes_release_theirs(case):
    a = T.Tensor(np.zeros(4), requires_grad=True)
    b = T.Tensor(np.zeros(4), requires_grad=True)
    out = {"add(a, a)": lambda: T.add(a, a), "add(a, b)": lambda: T.add(a, b),
           "concat": lambda: T.concat([a, b]),
           "reshape": lambda: T.reshape(a, (2, 2))}[case]()
    w = np.arange(1.0, out.data.size + 1)
    loss = T.tensor_sum(T.mul(out, w.reshape(out.shape)))
    nodes = [n for n in T.trace(loss).nodes if n.backward_fn is not None]
    ga, gb = T.backward(loss, [a, b])
    expect = {"add(a, a)": (2 * w, 0 * w), "add(a, b)": (w, w),
              "concat": (w[:4], w[4:]), "reshape": (w, 0 * w)}[case]
    np.testing.assert_array_equal(ga, expect[0])
    np.testing.assert_array_equal(gb, expect[1])
    # add hands one array to both operands; nothing writes a returned gradient
    if case != "add(a, b)":
        assert not np.may_share_memory(ga, gb)
    assert not any(np.may_share_memory(g, p.data) for g in (ga, gb) for p in (a, b))
    assert all(n.backward_fn is None and n.parents == () for n in nodes)


def test_backward_sum_of_squares():
    x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    loss = T.tensor_sum(T.mul(x, x))
    (grad,) = T.backward(loss, [x])
    np.testing.assert_allclose(grad, 2 * x.data)


def test_backward_unreachable_param_gets_zero():
    x = T.Tensor(np.array([1.0]), requires_grad=True)
    w = T.Tensor(np.array([5.0]), requires_grad=True)
    loss = T.tensor_sum(T.mul(x, x))
    _, grad_w = T.backward(loss, [x, w])
    np.testing.assert_array_equal(grad_w, [0.0])


def test_backward_rejects_non_scalar_loss():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(T.mul(x, x), [x])


def test_graph_trace_is_topological():
    x = T.Tensor(np.ones(2), requires_grad=True)
    y = T.mul(x, x)
    z = T.tensor_sum(T.add(y, y))
    graph = T.trace(z)
    pos = {id(n): i for i, n in enumerate(graph.nodes)}
    for node in graph.nodes:
        for p in node.parents:
            assert pos[id(p)] < pos[id(node)]


def _mlp_loss(params):
    w1, b1, w2, b2, x = params
    h = gelu(T.add(T.matmul(x, w1), b1))
    out = T.add(T.matmul(h, w2), b2)
    return T.tensor_sum(T.mul(out, out))


def test_two_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(2)
    params = [
        T.Tensor(rng.normal(size=(4, 6), scale=0.5), requires_grad=True),
        T.Tensor(rng.normal(size=(6,), scale=0.5), requires_grad=True),
        T.Tensor(rng.normal(size=(6, 2), scale=0.5), requires_grad=True),
        T.Tensor(rng.normal(size=(2,), scale=0.5), requires_grad=True),
        T.Tensor(rng.normal(size=(3, 4), scale=0.5), requires_grad=True),
    ]
    err = T.gradient_check(_mlp_loss, params, eps=1e-5)
    assert err < 1e-4


def test_gradient_check_quadratic_form():
    rng = np.random.default_rng(3)
    a = T.Tensor(rng.normal(size=(5, 5)))
    w = T.Tensor(rng.normal(size=(5, 1)), requires_grad=True)

    def quad(params):
        (p,) = params
        return T.tensor_sum(T.matmul(T.permute(p, (1, 0)), T.matmul(a, p)))

    err = T.gradient_check(quad, [w], eps=1e-6)
    assert err < 1e-7
    # Closed form: (A + A^T) w
    (grad,) = T.backward(quad([w]), [w])
    np.testing.assert_allclose(grad, (a.data + a.data.T) @ w.data, rtol=1e-8)


def test_gradient_check_rejects_nonpositive_eps():
    w = T.Tensor(np.ones(1), requires_grad=True)
    with pytest.raises(ContractError):
        T.gradient_check(lambda p: T.tensor_sum(p[0]), [w], eps=0.0)


def test_composed_graph_passes_gradient_check():
    rng = np.random.default_rng(4)
    w = T.Tensor(rng.normal(size=(3, 4), scale=0.3), requires_grad=True)
    g = T.Tensor(rng.normal(size=(4,), scale=0.3), requires_grad=True)
    b = T.Tensor(rng.normal(size=(4,), scale=0.3), requires_grad=True)

    def f(params):
        ww, gg, bb = params
        h = layer_norm(ww, gg, bb)
        p = softmax_rows(h)
        s = T.log_sigmoid(T.tanh(p))
        return T.mul(T.tensor_sum(T.mul(s, s)), 1.0 / s.data.size)

    assert T.gradient_check(f, [w, g, b], eps=1e-5) < 1e-4


def test_log_sigmoid_stability_and_limits():
    x = T.Tensor(np.array([-50.0, 0.0, 50.0]))
    out = T.log_sigmoid(x).data
    assert np.isfinite(out).all()
    assert abs(out[1] - np.log(0.5)) < 1e-12
    assert out[2] > -1e-12 and out[2] <= 0.0
    assert out[0] == pytest.approx(-50.0, abs=1e-9)


def test_bce_with_logits_value_and_gradient():
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.normal(size=6), requires_grad=True)
    y = np.array([1.0, 0, 1, 0, 0, 1])
    # value matches the definition computed directly
    loss = T.bce_with_logits(x, y)
    s = 1 / (1 + np.exp(-x.data))
    direct = -(y * np.log(s) + (1 - y) * np.log(1 - s)).mean()
    assert abs(float(loss.data) - direct) < 1e-10
    assert T.gradient_check(lambda params: T.bce_with_logits(params[0], y), [x],
                            eps=1e-6) < 1e-7


def test_take_rows_gradient_scatters():
    table = T.Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = T.take_rows(table, [1, 1, 3])
    (grad,) = T.backward(T.tensor_sum(out), [table])
    np.testing.assert_array_equal(grad, [[0, 0, 0], [2, 2, 2], [0, 0, 0], [1, 1, 1]])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_take_rows_gradient_equals_add_at(dtype):
    # repeated, unsorted indices (an index used 5 times, rows never used),
    # gathered from a 2-D index array
    rng = np.random.default_rng(12)
    idx = np.array([[7, 2, 7, 0, 9], [2, 7, 7, 3, 7]])
    table = T.Tensor(np.zeros((11, 6), dtype=dtype), requires_grad=True)
    for values, exact in ((rng.integers(-50, 50, size=idx.shape + (6,)), True),
                          (rng.normal(size=idx.shape + (6,)), False)):
        g = values.astype(dtype)
        (grad,) = T.backward(T.tensor_sum(T.mul(T.take_rows(table, idx), g)), [table])
        expected = np.zeros_like(table.data)
        np.add.at(expected, idx, g)
        assert grad.dtype == dtype
        if exact:
            np.testing.assert_array_equal(grad, expected)
        else:
            np.testing.assert_allclose(grad, expected, rtol=0, atol=1e-6)


def test_batched_matmul_gradcheck():
    rng = np.random.default_rng(5)
    a = T.Tensor(rng.normal(size=(2, 3, 4), scale=0.5), requires_grad=True)
    b = T.Tensor(rng.normal(size=(2, 4, 3), scale=0.5), requires_grad=True)

    def f(params):
        return T.tensor_sum(T.matmul(params[0], params[1]))

    assert T.gradient_check(f, [a, b], eps=1e-5) < 1e-4


def test_dtype_preserved_through_graph():
    x32 = T.Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    y = gelu(T.mul(x32, 2.0))
    assert y.dtype == np.float32


def test_ops_deterministic():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(16, 16))
    b = rng.normal(size=(16, 16))
    r1 = T.matmul(T.Tensor(a), T.Tensor(b)).data
    r2 = T.matmul(T.Tensor(a.copy()), T.Tensor(b.copy())).data
    assert (r1 == r2).all()


def test_detach_cuts_gradient():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    y = T.mul(x, 3.0)
    loss = T.tensor_sum(T.mul(y.detach(), x))
    (grad,) = T.backward(loss, [x])
    # d/dx of detach(3x) * x is just detach(3x) = 6
    np.testing.assert_allclose(grad, [6.0])


@pytest.mark.parametrize("op", [T.add, T.mul, T.matmul])
def test_binary_ops_refuse_mixed_dtypes(op):
    x32 = np.ones((2, 2), dtype=np.float32)
    x64 = np.ones((2, 2), dtype=np.float64)
    for a, b in ((x32, x64), (x64, x32)):
        with pytest.raises(ContractError, match="dtype"):
            op(T.Tensor(a), T.Tensor(b))
        with pytest.raises(ContractError, match="dtype"):
            op(T.Tensor(a), b)


@pytest.mark.parametrize("op", [T.add, T.mul])
def test_python_scalars_take_the_tensor_dtype(op):
    for dtype in (np.float32, np.float64):
        x = T.Tensor(np.ones(3, dtype=dtype))
        assert op(x, 0.5).dtype == dtype
        assert op(2, x).dtype == dtype


def test_concat_splits_gradient_back_to_its_parts():
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = T.Tensor(np.array([3.0]), requires_grad=True)
    out = T.concat([a, T.Tensor(np.array([-np.inf])), b])
    np.testing.assert_array_equal(out.data, [1.0, 2.0, -np.inf, 3.0])
    ga, gb = T.backward(
        T.tensor_sum(T.mul(T.take_rows(out, [0, 1, 3]), np.array([1.0, 2.0, 3.0]))), [a, b])
    np.testing.assert_array_equal(ga, [1.0, 2.0])
    np.testing.assert_array_equal(gb, [3.0])
    with pytest.raises(ContractError, match="dtype"):
        T.concat([a, T.Tensor(np.zeros(1, dtype=np.float32))])


def _thread_name(x):
    return x, threading.current_thread().name


def test_worker_map_keeps_order_and_runs_on_the_workers():
    calls = []
    with workers(2, set_local=lambda n: calls.append(n) or 2):
        assert T.worker_count() == 2
        out = T.worker_map(_thread_name, range(5))
        assert calls[-1] == 2  # a grad-enabled map puts the BLAS count back at once
    assert [x for x, _ in out] == list(range(5))
    assert all(name.startswith("dotprune-worker") for _, name in out)
    assert calls.count(1) >= 2  # the caller and each started worker pin to one thread


def test_worker_map_keeps_one_item_and_one_worker_on_the_caller():
    me = threading.current_thread().name
    with workers(2):
        assert T.worker_map(_thread_name, [7]) == [(7, me)]
    with workers(1):
        assert T.worker_map(_thread_name, range(3)) == [(i, me) for i in range(3)]


def test_worker_count_is_one_without_the_blas_symbols(monkeypatch):
    class NoSymbols:
        def __init__(self, path):
            pass

    monkeypatch.setattr(T.ctypes, "CDLL", NoSymbols)
    assert T._load_blas() == (1, None)
    with workers(2):
        monkeypatch.setattr(T, "_blas", None)
        assert T.worker_count() == 1
        me = threading.current_thread().name
        assert T.worker_map(_thread_name, range(3)) == [(i, me) for i in range(3)]
        assert T._pool is None


def test_worker_exception_reaches_the_caller_with_its_type():
    def fail_on_two(x):
        if x == 2:
            raise ShapeError("item 2")
        return x

    with workers(2):
        with pytest.raises(ShapeError, match="item 2"):
            T.worker_map(fail_on_two, range(4))
        assert T.worker_map(fail_on_two, [0, 1]) == [0, 1]


def test_worker_map_inside_a_worker_runs_serially():
    def inner(x):
        assert T.worker_count() == 1
        return T.worker_map(_thread_name, [x, x + 1])

    done = []
    with workers(2):
        thread = threading.Thread(target=lambda: done.append(T.worker_map(inner, [0, 10])))
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive() and done
    for pairs in done[0]:
        assert len({name for _, name in pairs}) == 1  # both inner calls on one worker


@pytest.mark.parametrize("grad", [True, False])
def test_worker_map_leaves_the_grad_flag_and_restores_the_blas_count(grad):
    calls = []
    seen = []
    with workers(2, set_local=lambda n: calls.append(n) or 2):
        with contextlib.ExitStack() as stack:
            if not grad:
                stack.enter_context(T.no_grad())
            for _ in range(2):
                T.worker_map(lambda x: seen.append(T._grad_enabled), range(4))
                assert T._grad_enabled is grad
            # inside no_grad the count stays pinned until the block ends
            assert (T._unpin_to is None) is grad
        assert calls[-1] == 2 and T._unpin_to is None
    assert seen == [grad] * 8


def test_worker_map_with_more_workers_than_cores_under_fast_thread_switching():
    rng = np.random.default_rng(14)
    mats = [rng.normal(size=(24, 24)) for _ in range(64)]

    def work(m):
        return np.tanh(m @ m.T).sum(axis=1)

    expected = [work(m) for m in mats]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(8):
            results = [T.worker_map(work, mats) for _ in range(4)]
    finally:
        sys.setswitchinterval(interval)
    for out in results:
        assert all(np.array_equal(a, b) for a, b in zip(out, expected))
