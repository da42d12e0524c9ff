"""Analytic FLOP counts for the encoder, and a check against real matmuls."""

from __future__ import annotations

import time

import numpy as np


def encoder_forward_flops(cfg, n: int) -> int:
    """Multiply-add FLOPs (2 per MAC) of one ``encoder.forward`` over n tokens.

    Per layer: the Q, K, V and output projections (4 GEMMs of n x H x H),
    the two FFN GEMMs (n x H x I and n x I x H) and the two attention
    products QK^T and PV (n x n x H each, summed over heads). The pooler
    adds one 1 x H x H GEMM. Backward is counted as twice this.
    """
    h, inter = cfg.hidden, cfg.intermediate
    per_layer = 8 * n * h * h + 4 * n * h * inter + 4 * n * n * h
    return cfg.num_layers * per_layer + 2 * h * h


def matmul_flops_seen(T, enc, weights, seq) -> int:
    """FLOPs of the matmuls one no-grad ``encoder.forward`` actually runs.

    ``tensor.matmul`` is wrapped for the one call and restored afterwards.
    """
    original = T.matmul
    seen = []

    def counting(a, b):
        out = original(a, b)
        batch = int(np.prod(out.shape[:-2], dtype=np.int64))
        seen.append(2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1])
        return out

    counting._perfbench_wrapper = True
    T.matmul = counting
    try:
        with T.no_grad():
            enc.forward(weights, seq)
    finally:
        T.matmul = original
    return sum(seen)


def gemm_ceiling_gflops(reps: int = 5, size: int = 1024) -> float:
    """Best-of-``reps`` GFLOP/s of one size^3 float32 GEMM."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((size, size), dtype=np.float32)
    b = rng.standard_normal((size, size), dtype=np.float32)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.matmul(a, b)
        best = min(best, time.perf_counter() - t0)
    return 2 * size ** 3 / best / 1e9
