"""Dense tensors with reverse-mode automatic differentiation.

Just enough machinery for a transformer encoder: numpy arrays for storage
and kernels, a dynamically built graph of operation nodes for gradients,
and a central-difference gradient checker for verification. Two precision
modes are supported by construction: every op preserves the dtype of its
inputs and binary ops refuse operands of two dtypes, so a graph built from
float32 leaves stays float32 end to end. Gradients are values: ``backward``
returns one array per parameter and no tensor holds a gradient, so graphs
that share leaves can be walked on two threads at once.

The softmax, layer-norm, GELU and row-scatter array kernels
(``softmax_rows_inplace``, ``softmax_rows_grad_inplace``,
``layer_norm_inplace``, ``layer_norm_grad``, ``gelu_kernel``,
``scatter_rows``) exist once: ``take_rows`` wraps its own here, and
``encoder.embed`` and ``encoder.layer`` call them on buffers they own, each
inside one op with its own backward. Such an op asks
``grad_needed`` whether to save activations and record a node. ``matmul``
is the one GEMM entry point: every matrix product, forward and backward,
calls it, so a counter over it sees them all. ``scatter_rows``, the gradient
of a row gather, sums each index's rows by a stable sort and one
``np.add.reduceat``, deterministic but not in ``np.add.at``'s order.

GELU is exact in float64, through ``scipy.special.erf``, which is imported
on the first float64 call. In float32 it is an in-package rational
approximation within 3e-7 of the exact normal CDF, built from exactly
rounded numpy arithmetic, so a float32 run needs only numpy.

Negative infinity is a legal value only as an attention-mask sentinel;
``softmax_rows_inplace`` maps it to an exact zero probability.

``worker_map`` runs independent calls on W worker threads, W being the
thread count of the OpenBLAS numpy loaded; each worker's BLAS runs on one
thread, so the process's BLAS thread budget goes to W workers instead of
one caller running W BLAS threads. Without the OpenBLAS symbols W is 1 and
the calls run in order on the calling thread.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import ctypes
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT2PI = 0.3989422804014327

# float32 normal CDF: Phi(x) = 1/2 + z P(z^2) / Q(z^2) with z = clip(x, -X, X).
# Minimax fit of (Phi(x) - 1/2) / x on [0, X] against mpmath.ncdf at 40
# digits: differential correction (a linear program per iteration, solved by
# scipy.optimize.linprog) over 3000 Chebyshev nodes, minimizing the absolute
# error of Phi; Q made monic, then every coefficient rounded to float32.
# The fit's own error is 5.8e-8; with float32 rounding, |Phi_f32 - Phi| is
# at most 2.33e-7 over every float32 x in [-8, 8] (checked exhaustively
# against scipy.special.ndtr in float64), and Phi_f32 is exactly 0 or 1
# beyond the clamp, so gelu(x) == x for x >= X.
_PHI_X = 5.7
_PHI_P = (5965.9907, 561.7003, 69.07741, 2.7804408, 0.050059076, -0.0003201693,
          1.5406747e-06)  # P(t), constant term first
_PHI_Q = (14954.526, 3900.3728, 449.39517, 28.8218)  # monic Q(t) = t^4 + ..., constant first
# elements per pass of the blocked kernels (float32 GELU, AdamW), so their
# work buffers and the slices they stream stay in L2
_BLOCK = 1 << 16
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-6  # AdamW's published defaults (arXiv 1711.05101)

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (evaluation fast path)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev
        if prev:
            _unpin_blas()


# ---------------------------------------------------------------------------
# Worker threads
# ---------------------------------------------------------------------------

_blas: tuple[int, Callable | None] | None = None  # (W, set_local), looked up once
_pool: concurrent.futures.ThreadPoolExecutor | None = None
_in_worker = threading.local()
_unpin_to: int | None = None  # the BLAS thread count to put back, while pinned to 1


def _openblas_symbol(lib: ctypes.CDLL, name: str):
    """``openblas_<name>``, or the export renamed with ``scipy_`` and ``64_``
    that some builds carry instead; None when neither exists."""
    for prefix in ("", "scipy_"):
        for suffix in ("", "64_"):
            fn = getattr(lib, f"{prefix}openblas_{name}{suffix}", None)
            if fn is not None:
                return fn
    return None


def _load_blas() -> tuple[int, Callable | None]:
    """(W, ``openblas_set_num_threads_local``) of the OpenBLAS numpy loaded,
    W being its thread count; (1, None) when the library or a symbol is
    missing."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return 1, None
    numpy_dir = os.path.dirname(np.__file__)  # wheels bundle theirs in numpy.libs
    for path in [p for p in paths if p.startswith(numpy_dir)] or paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = _openblas_symbol(lib, "get_num_threads")
        set_local = _openblas_symbol(lib, "set_num_threads_local")
        if get is not None and set_local is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_local.argtypes, set_local.restype = [ctypes.c_int], ctypes.c_int
            return max(1, get()), set_local
    return 1, None


def worker_count() -> int:
    """W, the number of calls ``worker_map`` runs at once: the BLAS thread
    count, or 1 inside a worker or without the OpenBLAS symbols."""
    global _blas
    if getattr(_in_worker, "active", False):
        return 1
    if _blas is None:
        _blas = _load_blas()
    return _blas[0]


def _start_worker(set_local: Callable) -> None:
    _in_worker.active = True
    set_local(1)


def _worker_pool() -> concurrent.futures.ThreadPoolExecutor:
    global _pool
    if _pool is None:
        w, set_local = _blas
        _pool = concurrent.futures.ThreadPoolExecutor(
            w, "dotprune-worker", initializer=_start_worker, initargs=(set_local,))
    return _pool


def _pin_blas() -> None:
    global _unpin_to
    if _unpin_to is None:
        _unpin_to = _blas[1](1)


def _unpin_blas() -> None:
    global _unpin_to
    if _unpin_to is not None:
        _blas[1](_unpin_to)
        _unpin_to = None


def worker_map(fn: Callable, items) -> list:
    """``[fn(x) for x in items]``, the calls spread over W worker threads
    whose BLAS runs on one thread each.

    The W threads start on the first call with two or more items. With one
    item, or W = 1, or when called from a worker, the calls run in order on
    the calling thread. An exception a call raises reaches the caller once
    every call has ended.

    The caller's BLAS is pinned to one thread too, because some OpenBLAS
    builds keep the count per process rather than per thread, and because
    an idle BLAS thread of the caller's spins on a core the workers need.
    The count is put back when the map ends, or, inside ``no_grad``, when
    the outermost ``no_grad`` block ends, so the small products a no-grad
    pass runs between maps stay on one thread as well.
    """
    items = list(items)
    if len(items) < 2 or worker_count() < 2:
        return [fn(x) for x in items]
    pool = _worker_pool()
    _pin_blas()
    try:
        futures = [pool.submit(fn, x) for x in items]
        concurrent.futures.wait(futures)
    finally:
        if _grad_enabled:
            _unpin_blas()
    return [f.result() for f in futures]


class Tensor:
    """A dense row-major array plus an optional position in a backward graph.

    ``data`` is always a float32 or float64 numpy array; other data is
    refused, as a cast would turn a float32 graph float64. Operation
    results record their parents and a backward closure until
    ``backward`` walks them; leaves record neither.
    """

    __slots__ = ("data", "requires_grad", "parents", "backward_fn")

    def __init__(self, data, requires_grad: bool = False, parents=(), backward_fn=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            raise ContractError(f"tensor data must be float32 or float64, got {arr.dtype}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.backward_fn: Callable | None = backward_fn

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def detach(self) -> "Tensor":
        """Return a leaf sharing this tensor's values, cut from the graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"


def _as_tensor(x, dtype=None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x if dtype is None else np.asarray(x, dtype=dtype))


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """The two operands of a binary op, in one dtype.

    A Python scalar takes the dtype of the other operand. Two arrays of
    different dtypes are refused: a silent promotion would turn a float32
    graph into float64 from that op on.
    """
    if isinstance(b, (int, float)):
        a = _as_tensor(a)
        return a, _as_tensor(b, a.dtype)
    if isinstance(a, (int, float)):
        b = _as_tensor(b)
        return _as_tensor(a, b.dtype), b
    a, b = _as_tensor(a), _as_tensor(b)
    if a.dtype != b.dtype:
        raise ContractError(f"operands of different dtypes: {a.dtype} and {b.dtype}")
    return a, b


def grad_needed(parents: Sequence[Tensor]) -> bool:
    """True when an op on ``parents`` must record a graph node: gradients are
    enabled and some parent requires one. An op that saves activations for
    its backward asks this first and saves nothing when it is false."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data: np.ndarray, parents: Sequence[Tensor], backward_fn) -> Tensor:
    if grad_needed(parents):
        return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)
    return Tensor(data)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


@dataclass
class Graph:
    """Topologically ordered view of the nodes reachable from a root."""

    root: Tensor
    nodes: list[Tensor] = field(default_factory=list)


def trace(root: Tensor) -> Graph:
    """Collect the graph under ``root`` in topological (parents-first) order."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return Graph(root=root, nodes=order)


def backward(loss: Tensor, params: Sequence[Tensor]) -> list[np.ndarray]:
    """The gradient of the scalar ``loss`` with respect to each of ``params``,
    in order: one array each, zeros where the loss does not reach.

    The walk keeps gradients in its own dict, keyed by node, and sets no
    attribute of a tensor. A node's first gradient is the array its child's
    closure returned, cast to the node's dtype (no copy when it has it); a
    later one is added out of place. A backward closure never writes the
    gradient it is given, and nothing in the package writes one that
    ``backward`` returned, so returned arrays may share memory with each
    other (``add`` hands one array to both operands).

    The walk releases the graph as it goes: every op node it visits drops
    its closure, and with it the activations the closure saved, and its
    parents. So a graph can be walked only once.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(trace(loss).nodes):
        backward_fn, parents = node.backward_fn, node.parents
        if backward_fn is None:
            continue
        node.backward_fn, node.parents = None, ()
        grad = grads.pop(id(node), None)
        if grad is None:
            continue
        for parent, g in zip(parents, backward_fn(grad)):
            if g is None or not parent.requires_grad:
                continue
            g = g.astype(parent.data.dtype, copy=False)
            acc = grads.get(id(parent))
            grads[id(parent)] = g if acc is None else acc + g
    return [grads[id(p)] if id(p) in grads else np.zeros_like(p.data) for p in params]


# ---------------------------------------------------------------------------
# Elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data + b.data

    def back(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data * b.data

    def back(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _node(out, (a, b), back)


def matmul(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Matrix product of tensors or arrays, 2-D or batched with equal leading dims."""
    a, b = _operands(a, b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2] or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def back(g):
        return (matmul(g, np.swapaxes(b.data, -1, -2)).data,
                matmul(np.swapaxes(a.data, -1, -2), g).data)

    return _node(out, (a, b), back)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    out = a.data.reshape(shape)

    def back(g):
        return (g.reshape(a.shape),)

    return _node(out, (a,), back)


def permute(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    out = np.transpose(a.data, axes)
    inverse = np.argsort(axes)

    def back(g):
        return (np.transpose(g, inverse),)

    return _node(out, (a,), back)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join tensors of one dtype along axis 0; one tensor is returned as is."""
    if len(tensors) == 1:
        return tensors[0]
    dtypes = {t.dtype for t in tensors}
    if len(dtypes) != 1:
        raise ContractError(f"concat of different dtypes: {sorted(map(str, dtypes))}")
    out = np.concatenate([t.data for t in tensors])
    bounds = np.cumsum([t.shape[0] for t in tensors])[:-1]

    def back(g):
        return tuple(np.split(g, bounds))

    return _node(out, tuple(tensors), back)


def take_rows(a: Tensor, indices) -> Tensor:
    """Gather rows along axis 0; its gradient is ``scatter_rows``."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    out = a.data[idx]

    def back(g):
        return (scatter_rows(g, idx, a.data),)

    return _node(out, (a,), back)


def scatter_rows(g: np.ndarray, idx: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The gradient of the gather ``table[idx]`` from its output gradient
    ``g``: an array shaped as ``table`` holding, in each indexed row, the sum
    of the rows of ``g`` that read it, and zeros elsewhere."""
    # rows of g grouped by index (a stable sort keeps each group in input
    # order), each group summed by one reduceat into the zero array
    flat = idx.reshape(-1)
    out = np.zeros_like(table)
    if flat.size:
        order = np.argsort(flat, kind="stable")
        sorted_idx = flat[order]
        starts = np.flatnonzero(np.r_[True, sorted_idx[1:] != sorted_idx[:-1]])
        rows = g.reshape((flat.size,) + table.shape[1:])[order]
        out[sorted_idx[starts]] = np.add.reduceat(rows, starts, axis=0)
    return out


def tensor_sum(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.asarray(a.data.sum(), dtype=a.dtype)

    def back(g):
        return (np.broadcast_to(g, a.shape).astype(a.dtype, copy=False),)

    return _node(out, (a,), back)


def maximum_scalar(a: Tensor, floor: float) -> Tensor:
    """Elementwise max(a, floor); gradient passes only where a > floor."""
    a = _as_tensor(a)
    out = np.maximum(a.data, floor)
    mask = a.data > floor

    def back(g):
        return (g * mask,)

    return _node(out, (a,), back)


def tanh(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.tanh(a.data)

    def back(g):
        return (g * (1.0 - out * out),)

    return _node(out, (a,), back)


def _gelu_f64(x: np.ndarray, want_slope: bool, out: np.ndarray):
    """Exact GELU and its slope, Phi(x) + x phi(x), through scipy's erf."""
    from scipy.special import erf

    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    slope = cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT2PI) if want_slope else None
    return np.multiply(x, cdf, out=out), slope


def _gelu_f32(x: np.ndarray, want_slope: bool, out: np.ndarray):
    """GELU and its slope from the rational Phi, block by block.

    Only clip, +, -, *, / and exp (slope only) act elementwise, so every output
    depends on its input value alone, whatever the block it falls in. A block
    is read in full before its output is written, so ``out`` may be ``x``.
    """
    flat, flat_out = x.reshape(-1), out.reshape(-1)
    slope = np.empty_like(flat) if want_slope else None
    z, t, p, q = np.empty((4, min(_BLOCK, flat.size)), dtype=np.float32)
    for start in range(0, flat.size, _BLOCK):
        xs = flat[start:start + _BLOCK]
        m = xs.size
        zb, tb, pb, qb = z[:m], t[:m], p[:m], q[:m]
        np.clip(xs, -_PHI_X, _PHI_X, out=zb)
        np.multiply(zb, zb, out=tb)
        np.multiply(tb, _PHI_P[-1], out=pb)
        pb += _PHI_P[-2]
        for c in _PHI_P[-3::-1]:
            pb *= tb
            pb += c
        np.add(tb, _PHI_Q[-1], out=qb)
        for c in _PHI_Q[-2::-1]:
            qb *= tb
            qb += c
        pb *= zb
        pb /= qb
        pb += 0.5
        np.clip(pb, 0.0, 1.0, out=pb)  # pb is now Phi(x)
        if want_slope:
            np.multiply(xs, xs, out=qb)
            qb *= -0.5
            np.exp(qb, out=qb)
            qb *= _INV_SQRT2PI
            qb *= xs
            np.add(pb, qb, out=slope[start:start + m])
        np.multiply(xs, pb, out=flat_out[start:start + m])
    if want_slope:
        slope = slope.reshape(x.shape)
    return out, slope


def gelu_kernel(x: np.ndarray, want_slope: bool, out: np.ndarray):
    """Array GELU of ``x`` into ``out`` (a C-contiguous array of ``x``'s
    shape, ``x`` itself allowed) and, when ``want_slope``, its derivative as
    a new array.

    Exact in float64; in float32 Phi is the rational approximation above.
    """
    x = np.ascontiguousarray(x)
    kernel = _gelu_f32 if x.dtype == np.float32 else _gelu_f64
    return kernel(x, want_slope, out)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Stable logistic function: no overflowing exp on either side of zero."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_sigmoid(a: Tensor) -> Tensor:
    """Numerically stable log(sigmoid(x)); finite for any finite input."""
    a = _as_tensor(a)
    x = a.data
    out = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))),
                   x - np.log1p(np.exp(-np.abs(x)))).astype(a.dtype, copy=False)

    def back(g):
        # d/dx log sigmoid(x) = sigmoid(-x)
        return (g * _sigmoid(-x),)

    return _node(out, (a,), back)


def softmax_rows_inplace(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, written over ``x``, which is
    returned.

    Entries equal to -inf map to an exact 0, and a row with no finite entry
    becomes an all-zero row: the convention that makes hard token drops
    exact.
    """
    rowmax = np.max(x, axis=-1, keepdims=True)
    # a row's max is NaN when the row holds a NaN, else +inf when it holds a +inf
    if not (rowmax < np.inf).all():
        raise ContractError("softmax_rows input must be finite or -inf")
    empty = np.isneginf(rowmax)
    if empty.any():
        rowmax = np.where(empty, 0.0, rowmax)
    x -= rowmax
    np.exp(x, out=x)
    denom = x.sum(axis=-1, keepdims=True)
    x /= np.where(denom == 0.0, 1.0, denom)
    return x


def softmax_rows_grad_inplace(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the softmax input from the output gradient ``g``, written
    over ``g``, which is returned."""
    dot = np.sum(g * probs, axis=-1, keepdims=True)
    g -= dot
    g *= probs
    return g


def layer_norm_inplace(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = 1e-12, keep_xhat: bool = False):
    """Normalize the last axis of ``x`` to zero mean, unit variance, then
    affine; returns (out, xhat, inv_std).

    ``x`` is overwritten: with ``xhat``, and the output is a new array, when
    ``keep_xhat``; with the output otherwise, and then ``xhat`` is None.
    """
    if x.shape[-1] < 1:
        raise ShapeError("layer_norm needs at least one feature")
    mu = x.mean(axis=-1, keepdims=True)
    x -= mu
    var = np.mean(x * x, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x *= inv_std
    if keep_xhat:
        return (x * gain + bias).astype(x.dtype, copy=False), x, inv_std
    x *= gain
    x += bias
    return x, None, inv_std


def layer_norm_grad(g: np.ndarray, gain: np.ndarray, xhat: np.ndarray,
                    inv_std: np.ndarray) -> np.ndarray:
    """Gradient of the layer-norm input from the output gradient ``g``."""
    dxhat = g * gain
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = np.mean(dxhat * xhat, axis=-1, keepdims=True)
    dxhat -= m1
    dxhat -= xhat * m2
    dxhat *= inv_std
    return dxhat


def bce_with_logits(logits: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy against 0/1 targets, stable in the logits."""
    logits = _as_tensor(logits)
    y = np.asarray(targets, dtype=logits.dtype)
    if logits.shape != y.shape:
        raise ShapeError(f"bce_with_logits shape mismatch: {logits.shape} vs {y.shape}")
    if logits.data.size == 0:
        raise ContractError("bce_with_logits on an empty tensor")
    x = logits.data
    softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    # (1-y) softplus(x) + y softplus(-x)
    loss = (1.0 - y) * softplus + y * (softplus - x)
    n = x.size
    out = np.asarray(loss.sum() / n, dtype=logits.dtype)

    def back(g):
        s = _sigmoid(x)
        grad = (1.0 - y) * s - y * (1.0 - s)
        return (grad * (g / n),)

    return _node(out, (logits,), back)


# ---------------------------------------------------------------------------
# Optimizer and verification
# ---------------------------------------------------------------------------


def adamw_step(params: Sequence[Tensor], grads: Sequence[np.ndarray], state: dict,
               lr: float, weight_decay: float, grad_scale: float = 1.0) -> None:
    """One AdamW update from ``grads`` times ``grad_scale`` (the clip
    factor): bias-corrected moments, decoupled weight decay.

    ``state`` is mutated in place; pass ``{}`` on the first call. ``grads``
    are only read; one per parameter, of its shape and dtype, and each
    parameter C-contiguous, all checked before anything is written. Each
    parameter is updated in place in blocks of ``_BLOCK`` elements through
    three work buffers per dtype (one holds the scaled gradient block),
    with the whole-array formula's operations in its order, so the result
    is bit-identical to that formula on the gradients ``g * grad_scale``.
    """
    if len(grads) != len(params):
        raise ContractError(f"adamw_step: {len(grads)} gradients for {len(params)} parameters")
    for p, g in zip(params, grads):
        if g.shape != p.shape or g.dtype != p.dtype:
            raise ContractError(f"adamw_step: gradient {g.shape} {g.dtype} for a "
                                f"parameter {p.shape} {p.dtype}")
        # the blocks are slices of reshape(-1), a view only of a C-contiguous array
        if not p.data.flags.c_contiguous:
            raise ContractError(f"adamw_step: parameter {p.shape} is not C-contiguous")
    step = state.get("step", 0) + 1
    state["step"] = step
    moments = state.setdefault("moments", {})
    c1 = 1.0 - _BETA1 ** step
    c2 = 1.0 - _BETA2 ** step
    work: dict[np.dtype, np.ndarray] = {}
    for i, (p, g) in enumerate(zip(params, grads)):
        if i not in moments:
            moments[i] = (np.zeros(p.shape, p.dtype), np.zeros(p.shape, p.dtype))
        flat_p, flat_g = p.data.reshape(-1), g.reshape(-1)
        flat_m, flat_v = (x.reshape(-1) for x in moments[i])
        if p.dtype not in work:
            work[p.dtype] = np.empty((3, _BLOCK), p.dtype)
        t, u, s = work[p.dtype]
        for start in range(0, flat_p.size, _BLOCK):
            blk = slice(start, start + _BLOCK)
            ps, gs, ms, vs = flat_p[blk], flat_g[blk], flat_m[blk], flat_v[blk]
            tb, ub = t[:ps.size], u[:ps.size]
            gs = np.multiply(gs, grad_scale, out=s[:ps.size])
            ms *= _BETA1
            np.multiply(gs, 1.0 - _BETA1, out=tb)
            ms += tb
            vs *= _BETA2
            np.square(gs, out=tb)
            tb *= 1.0 - _BETA2
            vs += tb
            np.divide(vs, c2, out=ub)
            np.sqrt(ub, out=ub)
            ub += _ADAM_EPS
            np.divide(ms, c1, out=tb)
            np.divide(tb, ub, out=ub)
            ub *= lr
            if weight_decay:
                np.multiply(ps, lr * weight_decay, out=tb)
                ub += tb
            ps -= ub


def gradient_check(f: Callable[[Sequence[Tensor]], Tensor], params: Sequence[Tensor],
                   eps: float = 1e-5, max_entries_per_param: int | None = None) -> float:
    """Compare analytic gradients of ``f(params)`` to central differences.

    Returns the maximum over checked coordinates of
    ``|analytic - numeric| / max(|analytic|, |numeric|, 1e-8)``. When
    ``max_entries_per_param`` is set, coordinates are subsampled per tensor
    with an RNG seeded 0; small tensors are always checked in full.
    """
    if eps <= 0:
        raise ContractError("gradient_check requires eps > 0")
    loss = f(params)
    if not np.isfinite(loss.data).all():
        raise ContractError("gradient_check: loss is not finite")
    analytic = backward(loss, params)
    rng = np.random.default_rng(0)
    worst = 0.0
    for p, a in zip(params, analytic):
        n = p.data.size
        if max_entries_per_param is not None and n > max_entries_per_param:
            coords = rng.choice(n, size=max_entries_per_param, replace=False)
        else:
            coords = range(n)
        p.data = np.ascontiguousarray(p.data)
        flat = p.data.reshape(-1)
        for i in coords:
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                up = float(f(params).data)
                flat[i] = orig - eps
                down = float(f(params).data)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise ContractError("gradient_check: perturbed loss is not finite")
            numeric = (up - down) / (2.0 * eps)
            ana = float(a.reshape(-1)[i])
            err = abs(ana - numeric) / max(abs(ana), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst
