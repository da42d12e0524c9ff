"""Token relevance scoring, top-k / column selection, and drop verification.

A small encoder scores every token with a log-probability of being
relevant, s = max(log(sigmoid(logit)), SCORE_FLOOR) in [-50, 0]; -inf stays
reserved for hard masks. Every ``PruningScores`` is built here:
``score_tokens`` runs the encoder once on a padded batch, and
``fixed_scores`` checks an override's float array. Selection reads only a
1-D array of score values and passes no gradient: ``select``, the one
token/column dispatch, keeps the question span and fills the budget with
the best-scoring table tokens or with whole columns ranked by mean score.
The kept tokens' scores become an additive attention bias for the task
encoder (``build_bias``), the one path along which the task loss reaches
the scorer.

``hard_drop_equivalence`` is the verification harness: it compares a
forward pass under a -inf key bias against a forward pass on the compacted
sequence and reports the largest deviation at surviving positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from . import tensor as T
from .errors import BudgetError, ContractError
from .tables import TokenizedSequence

SCORE_FLOOR = -50.0  # soft scores are clipped here; -inf is reserved for hard masks


@dataclass
class PruningScores:
    """Per-token log-probabilities aligned with a sequence.

    ``log_probs``/``logits`` stay in the autodiff graph; ``values`` is the
    detached numpy view selections are computed from.
    """

    seq: TokenizedSequence
    log_probs: T.Tensor
    logits: T.Tensor

    @property
    def values(self) -> np.ndarray:
        return self.log_probs.data


@dataclass(frozen=True)
class Selection:
    """An ordered subset of sequence positions within a token budget."""

    kept_indices: tuple[int, ...]
    k: int

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.kept_indices, self.kept_indices[1:])):
            raise ContractError("kept_indices must be strictly ascending")
        if len(self.kept_indices) > self.k:
            raise ContractError("selection exceeds its budget")


def score_tokens(weights: enc.Tower, seqs: list[TokenizedSequence]) -> list[PruningScores]:
    """Score every token of a batch with log P(relevant); differentiable.

    The encoder runs once on the padded batch. Log-probabilities are
    clipped at ``SCORE_FLOOR``; logits are not. Each sequence's scores are
    its own rows of the result.
    """
    hidden, _ = enc.forward_batch(weights.encoder, seqs)
    logits = weights.head(hidden)
    log_probs = T.maximum_scalar(T.log_sigmoid(logits), SCORE_FLOOR)
    return [PruningScores(seq=seq, log_probs=T.take_rows(log_probs, own),
                          logits=T.take_rows(logits, own))
            for seq, own in zip(seqs, enc.batch_rows(seqs))]


def fixed_scores(seq: TokenizedSequence, values: np.ndarray, dtype) -> PruningScores:
    """An override's float array of one score per token, each <= 0 or -inf, as
    constant scores in the model's dtype, clipped at ``SCORE_FLOOR``;
    anything else is refused."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "f"
            and values.shape == (len(seq),)):
        got = (f"{values.dtype} array of shape {values.shape}"
               if isinstance(values, np.ndarray) else type(values).__name__)
        raise ContractError(f"override scores must be a float array of {len(seq)} "
                            f"values, got {got}")
    bad = ~(values <= 0)  # NaN compares false, so it is refused too
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(f"override scores must be <= 0 or -inf, got {values[i]} "
                            f"at position {i}")
    logits = values.astype(dtype)
    return PruningScores(seq=seq, log_probs=T.Tensor(np.maximum(logits, SCORE_FLOOR)),
                         logits=T.Tensor(logits))


def constant_scores(seq: TokenizedSequence, value: float = 0.0) -> np.ndarray:
    """The same fixed score for every token (forced-zero-score baselines)."""
    return np.full(len(seq), float(value))


def oracle_scores(seq: TokenizedSequence, answer_coords) -> np.ndarray:
    """Score 0 for tokens in any answer row, ``SCORE_FLOOR`` for other table tokens."""
    answer_rows = {r for r, _ in answer_coords}
    kept = [s == 0 or (cell is not None and cell[0] in answer_rows)
            for s, cell in zip(seq.segment_ids, map(seq.cell, range(len(seq))))]
    return np.where(kept, 0.0, SCORE_FLOOR)


def select_top_k_tokens(values: np.ndarray, seq: TokenizedSequence,
                        k: int) -> Selection:
    """Keep the question span plus the best-scoring table tokens.

    Ties break toward the earlier position; output indices are ascending.
    """
    qspan = seq.question_span()
    if k < len(qspan):
        raise BudgetError(f"k={k} below question span {len(qspan)}")
    budget = k - len(qspan)
    table = seq.table_indices()
    ranked = sorted(table, key=lambda i: (-values[i], i))
    kept = sorted(set(qspan) | set(ranked[:budget]))
    return Selection(tuple(kept), k=k)


def column_scores(values: np.ndarray, seq: TokenizedSequence) -> dict[int, float]:
    """Mean score per column id over header and cell tokens, summed in index
    order; empty for a sequence without table tokens (a preselection that
    kept the question alone)."""
    means: dict[int, float] = {}
    for c, members in seq.tokens_by_column().items():
        total = 0.0
        for i in members:
            total += float(values[i])
        means[c] = total / len(members)
    return means


def select_columns(col_scores: dict[int, float], seq: TokenizedSequence,
                   k: int) -> Selection:
    """Admit whole columns by descending mean score while they fit.

    A column that does not fit is skipped and later columns are still
    considered. Ties break toward the lower column id.
    """
    qspan = seq.question_span()
    if k < len(qspan):
        raise BudgetError(f"k={k} below question span {len(qspan)}")
    budget = k - len(qspan)
    members = seq.tokens_by_column()
    kept = set(qspan)
    for c in sorted(col_scores, key=lambda c: (-col_scores[c], c)):
        size = len(members.get(c, ()))
        if size <= budget:
            kept.update(members.get(c, ()))
            budget -= size
    return Selection(tuple(sorted(kept)), k=k)


def select(values: np.ndarray, seq: TokenizedSequence, k: int, mode: str) -> Selection:
    """The one token/column dispatch: ``select_top_k_tokens`` in ``token``
    mode, ``select_columns`` over ``column_scores`` in ``column`` mode."""
    if mode == "token":
        return select_top_k_tokens(values, seq, k)
    if mode == "column":
        return select_columns(column_scores(values, seq), seq, k)
    raise ContractError(f"unknown selection mode {mode!r}")


def compact(seq: TokenizedSequence, selection: Selection) -> TokenizedSequence:
    """The kept subsequence with original position ids preserved."""
    return seq.subsequence(selection.kept_indices, keep_positions=True)


def build_bias(selection: Selection, scores: PruningScores) -> T.Tensor:
    """Soft bias for the task encoder over the compacted sequence.

    Kept table tokens carry their scores (gradient flows back into the
    scorer) and the question span carries zero.
    """
    seq = scores.seq
    kept = list(selection.kept_indices)
    keep_mask = np.array([1.0 if seq.segment_ids[i] == 1 else 0.0 for i in kept],
                         dtype=scores.log_probs.dtype)
    return T.mul(T.take_rows(scores.log_probs, kept), T.Tensor(keep_mask))


def hard_drop_equivalence(weights: enc.EncoderWeights, seq: TokenizedSequence,
                          drop_set) -> float:
    """Max |masked forward - compacted forward| over surviving positions,
    the masked forward carrying a -inf key bias on every dropped token.

    ``drop_set`` holds token indices in ``[0, len(seq))`` and must not touch
    the question span. Run in 64-bit weights for meaningful thresholds.
    """
    dropped = set(drop_set)
    drop = sorted(dropped)
    if drop and (drop[0] < 0 or drop[-1] >= len(seq)):
        raise ContractError(f"drop_set indices must lie in [0, {len(seq)})")
    qspan = set(seq.question_span())
    if any(d in qspan for d in drop):
        raise ContractError("drop_set must not contain question-span tokens")
    if not drop:
        return 0.0
    bias = np.zeros(len(seq))
    bias[drop] = -np.inf
    kept = [i for i in range(len(seq)) if i not in dropped]
    with T.no_grad():
        full, _ = enc.forward(weights, seq, bias=bias)
        compacted, _ = enc.forward(weights, seq.subsequence(kept, keep_positions=True))
    return float(np.max(np.abs(full.data[kept] - compacted.data)))
