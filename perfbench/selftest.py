"""Self-tests of the benchmark's own arithmetic (no dotprune import needed)."""

from __future__ import annotations

import math

from tracer import Span, Tracer, self_times


def span_arithmetic_ok() -> bool:
    """Self time under nested, overlapping and out-of-bounds children."""
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),       # overlaps its sibling b
        Span("b", 3.0, 6.0, 0, 1),
        Span("a.child", 2.0, 3.0, 1, 1),  # nested two deep
        Span("c", 8.0, 12.0, 0, 1),      # runs past the root's end
        Span("other", 20.0, 21.0, None, 2),
    ]
    # root: 10 - |[1,6] u [8,10]| = 3; a: 3 - 1; c keeps its own full length
    expected = [3.0, 2.0, 3.0, 1.0, 4.0, 1.0]
    got = self_times(spans)
    ok = all(math.isclose(g, e, abs_tol=1e-12) for g, e in zip(got, expected))

    # add_root adopts only the parentless spans of the current operation
    tracer = Tracer()
    tracer.op = 7
    tracer.call("outer", tracer.call, "inner", lambda: None)
    tracer.op = 8
    tracer.call("next_op", lambda: None)
    tracer.op = 7
    tracer.add_root("step", tracer.spans[0].start, tracer.spans[1].end)
    parents = [s.parent for s in tracer.spans]
    ok &= parents == [3, 0, None, None]
    ok &= [s.op for s in tracer.spans] == [7, 7, 8, 7]
    return bool(ok)
