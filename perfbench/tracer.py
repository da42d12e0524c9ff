"""In-memory spans around calls into dotprune's public functions.

The tracer replaces module attributes that the pipeline looks up at call
time (``training.dot_forward``, ``encoder.forward``, ``tensor.backward``,
...) with wrappers that record a span per call: name, start, end, parent
span and operation id. Spans of one optimizer step or one eval example
share an operation id. Nothing is written until the run ends, and
``uninstall`` puts every original function back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from flops import encoder_forward_flops


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: object
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other; the covered part is the union of
    their intervals clipped to the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self.towers: dict[int, str] = {}  # id(EncoderWeights) -> "scorer" | "task"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def register_model(self, model) -> None:
        self.towers[id(model.pruning.encoder)] = "scorer"
        self.towers[id(model.task.encoder)] = "task"

    def _open(self, name: str, op) -> Span:
        parent = self._stack[-1] if self._stack else None
        if op is None:
            op = self.spans[parent].op if parent is not None else self.op
        span = Span(name, 0.0, 0.0, parent, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the benchmark's own calls into a layer."""
        span = self._open(name, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def add_root(self, name: str, start: float, end: float) -> None:
        """Record a span measured outside the tracer (one optimizer step)
        and adopt the parentless spans of the current operation."""
        index = len(self.spans)
        for s in self.spans:
            if s.parent is None and s.op == self.op:
                s.parent = index
        self.spans.append(Span(name, start, end, None, self.op))

    def wrap(self, module, attr: str, name, before=None, after=None, op_of=None):
        """Replace ``module.attr`` by a spanning wrapper.

        ``name`` is a string or a function of the call arguments. ``before``
        runs outside the timed interval and ``after`` sees the result; both
        write into the span's ``attrs``. ``op_of`` derives the operation id
        from the arguments; by default a span inherits its parent's.
        """
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                before(attrs, args, kwargs)
            span = tracer._open(name(args) if callable(name) else name,
                                op_of(args) if op_of is not None else None)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            span.attrs = attrs
            if after is not None:
                after(attrs, args, kwargs, result)
            return result

        wrapper._perfbench_wrapper = True
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def install_pipeline(self, modules: dict, per_example_ops: bool) -> None:
        """Wrap every pipeline function that the per-layer metrics read.

        ``per_example_ops`` gives each example its own operation id (eval);
        otherwise spans take the tracer's current ``op`` (one per step).
        """
        T, enc, pr, tr, tb = (modules[k] for k in
                              ("tensor", "encoder", "pruning", "training", "tables"))

        def tower_name(args):
            return f"encoder.{self.towers.get(id(args[0]), 'other')}.forward"

        def encoder_after(attrs, args, kwargs, result):
            weights, seq = args[0], args[1]
            attrs["tokens"] = len(seq)
            attrs["flops"] = encoder_forward_flops(weights.config, len(seq))
            attrs["f64"] = result[0].data.dtype == np.float64

        def backward_before(attrs, args, kwargs):
            nodes = T.trace(args[0]).nodes
            attrs["graph_nodes"] = len(nodes)
            attrs["graph_nodes_f64"] = sum(n.data.dtype == np.float64 for n in nodes)

        def adamw_before(attrs, args, kwargs):
            params, grads = args[0], args[1]
            attrs["bytes"] = 7 * sum(p.data.nbytes for p, g in zip(params, grads)
                                     if g is not None)

        def preselect_after(attrs, args, kwargs, result):
            attrs["tokens_in"] = len(args[0])
            attrs["tokens_out"] = len(result)

        def dot_forward_after(attrs, args, kwargs, out):
            attrs["pre_tokens"] = len(out.pre_seq)
            attrs["kept_tokens"] = len(out.selection.kept_indices)
            attrs["example_key"] = (self.op, id(args[1]))
            if args[1].answer_coords is not None:
                attrs["answer_kept"] = not out.answer_pruned

        def load_after(attrs, args, kwargs, model):
            self.register_model(model)

        example_op = ((lambda args: (self.op, id(args[1]))) if per_example_ops
                      else None)
        self.wrap(enc, "forward", tower_name, after=encoder_after)
        self.wrap(pr, "score_tokens", "pruning.score_tokens")
        self.wrap(pr, "select_top_k_tokens", "pruning.select_top_k_tokens")
        self.wrap(pr, "compact", "pruning.compact")
        self.wrap(pr, "build_bias", "pruning.build_bias")
        self.wrap(tr, "linearize", "tables.linearize")
        self.wrap(tr, "cc_select", "tables.cc_select", after=preselect_after)
        self.wrap(tr, "hem_select", "tables.hem_select", after=preselect_after)
        self.wrap(tr, "dot_forward", "training.dot_forward", after=dot_forward_after,
                  op_of=example_op)
        self.wrap(tr, "compute_loss", "training.compute_loss")
        self.wrap(T, "backward", "tensor.backward", before=backward_before)
        self.wrap(tr, "clip_grad_norm", "training.clip_grad_norm")
        self.wrap(T, "adamw_step", "tensor.adamw_step", before=adamw_before)
        self.wrap(tr, "evaluate", "training.evaluate")
        self.wrap(tr, "load_checkpoint", "training.load_checkpoint", after=load_after)
        self.wrap(tb, "read_jsonl", "tables.read_jsonl")


def unwrapped(modules: dict) -> bool:
    """True when no function of ``modules`` is a tracer wrapper."""
    return not any(getattr(value, "_perfbench_wrapper", False)
                   for module in modules.values() for value in vars(module).values())
