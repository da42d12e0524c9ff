"""Joint training of the scoring and task encoders.

The pipeline: linearize each example, shorten it with a heuristic
preselector, score every token (``pruning.score_tokens``, or an override's
float array through ``pruning.fixed_scores``), keep the top-k tokens (or
top columns) by score value alone through one selection hook, compact, and
run the task encoder with the kept tokens' clean scores as a soft
attention bias. The default hook is ``pruning.select``; the trainer's
exploration is the hook ``explore`` returns. Each tower runs once per
batch on a padded stack; selection and compaction run per example.
Three loss modes differ in how the scorer learns:

* ``J``: the task loss alone; gradient reaches the scorer only through the
  attention bias.
* ``P``: the forward detaches the bias and the scorer instead gets an
  auxiliary per-token relevance loss against answer-cell membership.
* ``PJ``: both paths at once.

The trainer is deterministic given (config, seed, thread count) and keeps
no clock: a caller times steps from ``step_callback``. Its four random
streams, one per purpose (scorer init, task init, data order and
exploration), are ``synth.stream(seed, *key)`` under the keys
``SCORER_INIT``, ``TASK_INIT``, ``DATA_ORDER`` and ``EXPLORATION``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import encoder as enc
from . import pruning as pr
from . import tensor as T
from .container import load_tensors, save_tensors
from .errors import ConfigError, ContractError, TrainingDivergedError, check_field_types
from .synth import stream
from .tables import (RESERVED_TOKENS, Example, TokenizedSequence, Vocabulary, cc_select,
                     hem_select, linearize)

LOSS_MODES = ("J", "P", "PJ")
PRESELECTORS = ("cc", "hem")
SELECTION_MODES = ("token", "column")
TASK_TYPES = ("cell_selection", "classification")

SelectHook = Callable[[np.ndarray, TokenizedSequence], pr.Selection]

# stream keys of the four purposes; length 2, which no synth example key has
SCORER_INIT, TASK_INIT, DATA_ORDER, EXPLORATION = (0, 0), (0, 1), (0, 2), (0, 3)


@dataclass(frozen=True)
class DoTConfig:
    pruning_preset: str = "mini"
    task_preset: str = "small"
    pre_limit: int = 64
    k: int = 16
    preselector: str = "cc"
    selection_mode: str = "token"
    loss_mode: str = "J"
    beta: float = 1.0
    task_type: str = "cell_selection"
    # positive-class weight for the per-token cell loss: kept sets hold few
    # answer tokens, and from-scratch training saturates on the all-negative
    # majority without it
    positive_weight: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        if self.k > self.pre_limit:
            raise ConfigError(f"k={self.k} exceeds pre_limit={self.pre_limit}")
        if self.beta < 0:
            raise ConfigError("beta must be >= 0")
        if self.positive_weight <= 0:
            raise ConfigError("positive_weight must be > 0")
        if self.preselector not in PRESELECTORS:
            raise ConfigError(f"unknown preselector {self.preselector!r}")
        if self.selection_mode not in SELECTION_MODES:
            raise ConfigError(f"unknown selection_mode {self.selection_mode!r}")
        if self.loss_mode not in LOSS_MODES:
            raise ConfigError(f"unknown loss_mode {self.loss_mode!r}")
        if self.task_type not in TASK_TYPES:
            raise ConfigError(f"unknown task_type {self.task_type!r}")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-4
    warmup_ratio: float = 0.1
    num_steps: int = 200
    batch_size: int = 4
    seed: int = 0
    precision: str = "f32"
    weight_decay: float = 0.01
    # learning-rate multiplier for the scoring tower; < 1 keeps early score
    # dynamics slow enough for the task head to learn answer detection first
    pruning_lr_scale: float = 1.0
    # stddev of selection-only score noise at step 1, annealed linearly to
    # zero by 60% of the run. Hard top-k freezes once scores stop moving;
    # training from scratch needs the kept set to keep rotating until the
    # towers have something to say. The attention bias always uses the
    # clean scores; evaluation never sees noise.
    exploration_noise: float = 0.0
    # global gradient-norm clip; None disables
    grad_clip: float | None = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.num_steps < 1:
            raise ConfigError("num_steps must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0.0 <= self.warmup_ratio <= 1.0:
            raise ConfigError("warmup_ratio must be in [0, 1]")
        if self.precision not in ("f32", "f64"):
            raise ConfigError("precision must be f32 or f64")
        if self.pruning_lr_scale < 0:
            raise ConfigError("pruning_lr_scale must be >= 0")
        if self.exploration_noise < 0:
            raise ConfigError("exploration_noise must be >= 0")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ConfigError("grad_clip must be > 0 or None")

    @property
    def dtype(self):
        return np.float32 if self.precision == "f32" else np.float64


@dataclass
class DoTModel:
    config: DoTConfig
    vocab: Vocabulary
    pruning: enc.Tower
    task: enc.Tower

    def parameters(self) -> list[T.Tensor]:
        return self.pruning.parameters() + self.task.parameters()

    def pruning_parameters(self) -> list[T.Tensor]:
        return self.pruning.parameters()


def build_model(config: DoTConfig, vocab: Vocabulary, dtype=np.float32,
                seed: int = 0, pruning_config: enc.EncoderConfig | None = None,
                task_config: enc.EncoderConfig | None = None) -> DoTModel:
    """Construct both towers sized for the vocabulary and budgets.

    The task encoder's position table spans pre_limit because compaction
    keeps original position ids. Explicit encoder configs override the
    presets (hand-sized towers for verification suites). The scorer draws
    from ``seed``'s stream ``SCORER_INIT``, the task tower from ``TASK_INIT``.
    """
    pruning_cfg = pruning_config or enc.preset(
        config.pruning_preset, vocab_size=len(vocab), max_input=config.pre_limit)
    task_cfg = task_config or enc.preset(
        config.task_preset, vocab_size=len(vocab), max_input=config.pre_limit)
    return DoTModel(config=config, vocab=vocab,
                    pruning=enc.init_tower(pruning_cfg, stream(seed, *SCORER_INIT), dtype),
                    task=enc.init_tower(task_cfg, stream(seed, *TASK_INIT), dtype))


@dataclass
class DotOutputs:
    """Everything a loss or an evaluation needs from one forward pass."""

    pre_seq: TokenizedSequence
    compact_seq: TokenizedSequence
    scores: pr.PruningScores
    selection: pr.Selection
    logits: T.Tensor  # one per compact_seq token, or the CLS logit (1,) to classify
    kept_table_slots: list[int]  # positions within compact_seq with table tokens
    kept_table_targets: np.ndarray | None  # answer-cell membership of those slots
    answer_pruned: bool
    bias_detached: bool


def preselect(seq: TokenizedSequence, example: Example, config: DoTConfig
              ) -> TokenizedSequence:
    if config.preselector == "cc":
        return cc_select(seq, config.pre_limit)
    return hem_select(seq, example.question, example.table, config.pre_limit)


def dot_forward(model: DoTModel, example: Example,
                select: SelectHook | None = None) -> DotOutputs:
    """Full pipeline for one example: the batch-of-one ``dot_forward_batch``."""
    return dot_forward_batch(model, [example], select=select)[0]


def dot_forward_batch(model: DoTModel, examples: list[Example],
                      scores_override: Callable[[TokenizedSequence, Example],
                                                np.ndarray] | None = None,
                      select: SelectHook | None = None) -> list[DotOutputs]:
    """Full pipeline for a batch; each tower runs once on a padded stack.

    Selection and compaction run per example; every output tensor is a
    per-example slice of the batch's tensors. ``scores_override(seq,
    example)`` replaces the learned scorer with a float array per
    preselected sequence (oracle and constant baselines). ``select(values,
    seq)``, the one selection hook, picks each kept set (by default
    ``pruning.select`` under the config's ``k`` and ``selection_mode``);
    the bias always carries the clean scores. In the P loss mode the bias
    is detached, so the task loss does not reach the scorer.
    """
    cfg = model.config
    select = select or functools.partial(pr.select, k=cfg.k, mode=cfg.selection_mode)
    detach = cfg.loss_mode == "P"
    pre_seqs = [preselect(linearize(ex, model.vocab), ex, cfg) for ex in examples]
    if scores_override is not None:
        all_scores = [pr.fixed_scores(seq, scores_override(seq, ex), model.task.head_w.dtype)
                      for seq, ex in zip(pre_seqs, examples)]
    else:
        all_scores = pr.score_tokens(model.pruning, pre_seqs)

    selections = [select(scores.values, seq) for seq, scores in zip(pre_seqs, all_scores)]
    compact_seqs = list(map(pr.compact, pre_seqs, selections))
    biases = [b.detach() if detach else b for b in map(pr.build_bias, selections, all_scores)]

    hidden, pooled = enc.forward_batch(model.task.encoder, compact_seqs, biases)
    cell_selection = cfg.task_type == "cell_selection"
    logits = model.task.head(hidden if cell_selection else pooled)
    rows = (enc.batch_rows(compact_seqs) if cell_selection
            else [[b] for b in range(len(examples))])

    outputs = []
    for b, (ex, compact_seq) in enumerate(zip(examples, compact_seqs)):
        kept_table_slots = list(compact_seq.table_indices())
        kept_table_targets = None
        if cell_selection and ex.answer_coords is not None:
            kept_table_targets = compact_seq.answer_mask(
                ex.answer_coords)[kept_table_slots].astype(np.float64)
        outputs.append(DotOutputs(
            pre_seq=pre_seqs[b], compact_seq=compact_seq, scores=all_scores[b],
            selection=selections[b], logits=T.take_rows(logits, rows[b]),
            kept_table_slots=kept_table_slots, kept_table_targets=kept_table_targets,
            answer_pruned=kept_table_targets is not None and not kept_table_targets.any(),
            bias_detached=detach))
    return outputs


def check_supervision(example: Example, task_type: str) -> None:
    """Refuse an example whose supervision ``task_type`` cannot score: cell
    selection needs answer coordinates, classification a label."""
    if task_type == "classification" and example.label is None:
        raise ContractError("classification needs a label, not answer coordinates")
    if task_type == "cell_selection" and example.answer_coords is None:
        raise ContractError("cell selection needs answer coordinates, not a label")


def _task_scalar_loss(outputs: DotOutputs, example: Example, task_type: str,
                      pos_weight: float = 1.0) -> T.Tensor:
    """Binary cross-entropy head loss, over kept table tokens or the CLS logit."""
    check_supervision(example, task_type)
    if task_type == "classification":
        return T.bce_with_logits(outputs.logits, np.array([float(example.label)]))
    if not outputs.kept_table_slots:
        return T.Tensor(np.asarray(0.0, dtype=outputs.scores.log_probs.dtype))
    kept_logits = T.take_rows(outputs.logits, outputs.kept_table_slots)
    return T.bce_with_logits(kept_logits, outputs.kept_table_targets,
                             pos_weight=pos_weight)


def _pruning_scalar_loss(outputs: DotOutputs, example: Example,
                         pos_weight: float = 1.0) -> T.Tensor:
    """Per-token relevance BCE over all preselected tokens.

    Targets are answer-cell membership; without answer coordinates there is
    no per-token supervision and the term is zero. The positive-class
    weight applies here too: answer tokens are as rare for the scorer as
    they are for the task head.
    """
    if example.answer_coords is None:
        return T.Tensor(np.asarray(0.0, dtype=outputs.scores.logits.dtype))
    targets = outputs.pre_seq.answer_mask(example.answer_coords).astype(np.float64)
    return T.bce_with_logits(outputs.scores.logits, targets, pos_weight=pos_weight)


def compute_loss(model: DoTModel, outputs: DotOutputs, example: Example) -> T.Tensor:
    """beta times the sum of the task loss and, in P and PJ modes, the
    relevance loss.

    J and PJ keep the bias path live; P requires the detached bias of a
    P-mode forward, so the scorer learns from the relevance loss alone.
    """
    cfg = model.config
    if cfg.loss_mode == "P" and not outputs.bias_detached:
        raise ContractError("P loss needs outputs of a P-mode forward, whose bias "
                            "is detached; the loss mode changed after the forward")
    loss = _task_scalar_loss(outputs, example, cfg.task_type, cfg.positive_weight)
    if cfg.loss_mode != "J":
        loss = T.add(loss, _pruning_scalar_loss(outputs, example, cfg.positive_weight))
    return T.mul(loss, float(cfg.beta))


def answer_score_gap(scores: pr.PruningScores, selection: pr.Selection,
                     example: Example) -> float | None:
    """Mean score of answer-cell tokens minus mean score of kept tokens.

    None when no answer token survived preselection (or the example has no
    answer cells at all).
    """
    if example.answer_coords is None:
        return None
    answers = scores.seq.answer_mask(example.answer_coords)
    if not answers.any():
        return None
    s = scores.values
    return float(s[answers].mean() - s[list(selection.kept_indices)].mean())


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def lr_at(step: int, config: TrainConfig) -> float:
    """Linear warmup over warmup_ratio * num_steps, then linear decay to 0."""
    warmup = config.warmup_ratio * config.num_steps
    if warmup > 0 and step <= warmup:
        return config.learning_rate * step / warmup
    remaining = config.num_steps - warmup
    if remaining <= 0:
        return config.learning_rate
    return config.learning_rate * max(0.0, (config.num_steps - step) / remaining)


def explore(sigma: float, rng: np.random.Generator, config: DoTConfig) -> SelectHook:
    """The trainer's exploration hook: ``pruning.select`` on the scores plus
    noise of stddev ``sigma`` from ``rng``, correlated within a row so the kept
    set holds coherent islands (a cell is only useful alongside its row)."""
    def select(values: np.ndarray, seq: TokenizedSequence) -> pr.Selection:
        row_ids = np.asarray(seq.row_ids)
        row_noise = rng.normal(0.0, sigma, int(row_ids.max()) + 1)
        token_noise = rng.normal(0.0, 0.25 * sigma, len(seq))
        return pr.select(values + row_noise[row_ids] + token_noise, seq, config.k,
                         config.selection_mode)
    return select


@dataclass
class TrainResult:
    model: DoTModel
    metrics: list[dict]


def train(dot_config: DoTConfig, train_config: TrainConfig, dataset: list[Example],
          model: DoTModel | None = None,
          step_callback: Callable[[int, DoTModel], None] | None = None,
          stop_condition: Callable[[int, DoTModel], bool] | None = None,
          scores_override=None) -> TrainResult:
    """Run the optimization loop; deterministic given configs and seed.

    Each step runs both towers once on the padded batch, then backward,
    which returns the gradients, and AdamW per optimizer group, which
    applies the clip factor. Per-step metrics records carry no timing
    (``grad_norm`` is the global gradient norm before clipping).
    ``stop_condition`` may end the run early (checked after
    ``step_callback``, every step). A non-finite loss or gradient norm
    raises ``TrainingDivergedError`` before AdamW touches a parameter.
    ``scores_override(seq)`` bypasses the scoring tower entirely
    (single-tower baselines); only the task tower trains, and only in loss
    mode J: the P relevance term would read the override's scores as
    logits. A passed ``model`` must have been built for ``dot_config`` in
    the precision of ``train_config``. An example without the supervision
    the task type scores is refused before step 1 (``check_supervision``).
    """
    if not dataset:
        raise ContractError("dataset is empty")
    for ex in dataset:
        check_supervision(ex, dot_config.task_type)
    if scores_override is not None and dot_config.loss_mode != "J":
        raise ContractError(f"loss mode {dot_config.loss_mode} trains the scorer's relevance "
                            "term, which a scores_override bypasses; only J trains under one")
    if model is None:
        vocab = Vocabulary.from_examples(dataset)
        model = build_model(dot_config, vocab, dtype=train_config.dtype,
                            seed=train_config.seed)
    if model.config != dot_config:
        raise ContractError(f"model was built for {model.config}, not {dot_config}")
    if any(p.dtype != train_config.dtype for p in model.parameters()):
        raise ContractError(f"precision {train_config.precision!r} needs a "
                            f"{np.dtype(train_config.dtype)} model")
    groups = [(model.task.parameters(), 1.0, {})]
    if scores_override is None:
        groups.insert(0, (model.pruning.parameters(), train_config.pruning_lr_scale, {}))
        override = None
    else:
        override = lambda seq, _example: scores_override(seq)
    params = [p for g, _, _ in groups for p in g]
    data_rng = stream(train_config.seed, *DATA_ORDER)
    explore_rng = stream(train_config.seed, *EXPLORATION)
    anneal_until = max(1.0, 0.6 * train_config.num_steps)

    order: list[int] = []
    metrics: list[dict] = []
    for step in range(1, train_config.num_steps + 1):
        while len(order) < train_config.batch_size:
            epoch = list(data_rng.permutation(len(dataset)))
            order.extend(epoch)
        batch = [dataset[i] for i in order[:train_config.batch_size]]
        order = order[train_config.batch_size:]

        sigma = train_config.exploration_noise * max(0.0, 1.0 - step / anneal_until)
        select = explore(sigma, explore_rng, dot_config) if sigma > 0 else None

        outs = dot_forward_batch(model, batch, scores_override=override, select=select)
        losses = [compute_loss(model, out, ex) for out, ex in zip(outs, batch)]
        gaps = [g for g in (answer_score_gap(out.scores, out.selection, ex)
                            for out, ex in zip(outs, batch)) if g is not None]
        pruned = sum(out.answer_pruned for out in outs)
        total = T.mul(functools.reduce(T.add, losses), 1.0 / len(batch))
        loss_val = float(total.data)
        if not np.isfinite(loss_val):
            raise TrainingDivergedError(
                f"loss became {loss_val} at step {step} (lr={lr_at(step, train_config)})")
        # the last step's gradients are freed only now, just before backward
        # allocates arrays of the same sizes; freed right after AdamW, they
        # left the heap's top free, the allocator returned it to the system,
        # and each train_dot step faulted ~32k pages back in
        grads = None
        grads = T.backward(total, params)
        grad_norm, grad_scale = clip_grad_norm(
            grads, math.inf if train_config.grad_clip is None else train_config.grad_clip)
        lr = lr_at(step, train_config)
        if not math.isfinite(grad_norm):
            raise TrainingDivergedError(
                f"gradient norm became {grad_norm} at step {step} (lr={lr})")
        start = 0
        for group, scale, opt_state in groups:
            T.adamw_step(group, grads[start:start + len(group)], opt_state, lr * scale,
                         train_config.weight_decay, grad_scale=grad_scale)
            start += len(group)

        metrics.append({
            "step": step,
            "loss": loss_val,
            "lr": lr,
            "answer_score_gap": float(np.mean(gaps)) if gaps else None,
            "answer_pruned": pruned,
            "grad_norm": grad_norm,
        })
        if step_callback is not None:
            step_callback(step, model)
        if stop_condition is not None and stop_condition(step, model):
            break
    return TrainResult(model=model, metrics=metrics)


def clip_grad_norm(grads, max_norm: float) -> tuple[float, float]:
    """(norm, scale): the joint L2 norm of ``grads`` and the factor that
    brings it down to ``max_norm``, 1.0 when the norm is within
    ``max_norm`` or is not finite. No gradient is written: ``adamw_step``
    applies the factor as its ``grad_scale``.

    Each gradient's squared norm is one BLAS dot in its own dtype, summed
    in a fixed order: deterministic for a fixed thread count.
    """
    total = 0.0
    for g in grads:
        g = g.reshape(-1)
        total += float(np.dot(g, g))
    norm = float(np.sqrt(total))
    if norm > max_norm and 0 < norm < math.inf:
        return norm, max_norm / norm
    return norm, 1.0


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def predict_cells(outputs: DotOutputs) -> frozenset[tuple[int, int]]:
    """Predicted answer cells: the kept cell with the highest mean token logit."""
    logits = outputs.logits.data
    by_cell: dict[tuple[int, int], list[float]] = {}
    for j in outputs.kept_table_slots:
        cell = outputs.compact_seq.cell(j)
        if cell is not None:
            by_cell.setdefault(cell, []).append(float(logits[j]))
    if not by_cell:
        return frozenset()
    best = max(by_cell, key=lambda cell: (np.mean(by_cell[cell]), (-cell[0], -cell[1])))
    return frozenset({best})


# padded tokens per evaluation chunk: a chunk's attention scores hold at
# most EVAL_CHUNK_TOKENS * heads * pre_limit values, however long the inputs
EVAL_CHUNK_TOKENS = 2048


@dataclass
class EvalReport:
    accuracy: float
    n_examples: int
    mean_answer_score_gap: float | None
    answer_pruned_rate: float
    gaps: list[float]
    correct_flags: list[bool]
    predictions: list


def evaluate(model: DoTModel, examples: list[Example],
             scores_override=None) -> EvalReport:
    """Denotation accuracy plus score-gap statistics.

    Both towers run once per chunk of ``EVAL_CHUNK_TOKENS // pre_limit``
    examples (at least one). ``scores_override(seq, example)`` replaces the
    learned scorer with a float array per example (oracle injection). An
    example without the supervision the task type scores is refused before
    any forward (``check_supervision``).
    """
    if not examples:
        raise ContractError("dataset is empty")
    for ex in examples:
        check_supervision(ex, model.config.task_type)
    chunk = max(1, EVAL_CHUNK_TOKENS // model.config.pre_limit)
    correct = []
    predictions = []
    gaps = []
    pruned = 0
    with T.no_grad():
        for start in range(0, len(examples), chunk):
            batch = examples[start:start + chunk]
            outs = dot_forward_batch(model, batch, scores_override=scores_override)
            for ex, out in zip(batch, outs):
                if model.config.task_type == "cell_selection":
                    pred = predict_cells(out)
                    correct.append(pred == ex.answer_coords)
                else:
                    pred = int(out.logits.data[0] > 0)
                    correct.append(pred == ex.label)
                predictions.append(pred)
                gap = answer_score_gap(out.scores, out.selection, ex)
                if gap is not None:
                    gaps.append(gap)
                pruned += int(out.answer_pruned)
    return EvalReport(
        accuracy=float(np.mean(correct)),
        n_examples=len(examples),
        mean_answer_score_gap=float(np.mean(gaps)) if gaps else None,
        answer_pruned_rate=pruned / len(examples),
        gaps=gaps,
        correct_flags=[bool(c) for c in correct],
        predictions=predictions,
    )


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(path, model: DoTModel) -> None:
    named: dict[str, np.ndarray] = {}
    for prefix, tower in (("pruning", model.pruning), ("task", model.task)):
        for k, t in tower.encoder.named_tensors().items():
            named[f"{prefix}.{k}"] = t.data
        named[f"{prefix}.head_w"] = tower.head_w.data
        named[f"{prefix}.head_b"] = tower.head_b.data
    header = {
        "kind": "dot_model",
        "config": vars(model.config),
        "vocab": model.vocab.tokens(),
        "pruning_config": vars(model.pruning.encoder.config),
        "task_config": vars(model.task.encoder.config),
    }
    save_tensors(path, named, header)


def load_checkpoint(path) -> DoTModel:
    """Rebuild a model from ``save_checkpoint`` output, strictly.

    Every tensor of both towers must be present with its expected shape and
    one shared dtype, and nothing else may be stored.
    """
    header, tensors = load_tensors(path)
    if header.get("kind") != "dot_model":
        raise ContractError(f"{path} is not a model checkpoint")
    try:
        config = DoTConfig(**header["config"])
        vocab = Vocabulary(header["vocab"][len(RESERVED_TOKENS):])  # re-added by ctor
        tokens = vocab.tokens()
        if tokens != header["vocab"] or not all(isinstance(t, str) for t in tokens):
            # a repeated token would shift every later token's id, and a token
            # that is not a string would leave its word to [UNK]
            raise ContractError(f"{path}: the stored vocabulary is not the reserved "
                                f"entries followed by distinct strings")
        configs = {prefix: enc.EncoderConfig(**header[f"{prefix}_config"])
                   for prefix in ("pruning", "task")}
    except (AttributeError, KeyError, TypeError, ConfigError) as e:
        raise ContractError(f"{path}: malformed checkpoint header ({e!r})") from None
    # every layer stores tensors: refuse a layer count the file cannot hold
    # before building shape tables that grow with it
    for prefix, cfg in configs.items():
        if cfg.num_layers > len(tensors):
            raise ContractError(f"{path}: {prefix} config has {cfg.num_layers} layers, "
                                f"but the file holds {len(tensors)} tensors")
        if len(vocab) > cfg.vocab_size:
            raise ContractError(f"{path}: the vocabulary holds {len(vocab)} tokens, but the "
                                f"{prefix} config's vocab_size is {cfg.vocab_size}")
    towers = {}
    for prefix, cfg in configs.items():
        arrays = {}
        for name, shape in enc.Tower.tensor_shapes(cfg).items():
            arr = tensors.pop(f"{prefix}.{name}", None)
            if arr is None or arr.shape != shape:
                found = "missing" if arr is None else f"of shape {arr.shape}"
                raise ContractError(f"{path}: tensor {prefix}.{name} is {found}, "
                                    f"expected shape {shape}")
            arrays[name] = arr
        towers[prefix] = enc.Tower.from_arrays(cfg, arrays)
    if tensors:
        raise ContractError(f"{path}: unexpected tensors {sorted(tensors)}")
    dtypes = {p.dtype for tower in towers.values() for p in tower.parameters()}
    if len(dtypes) != 1:
        raise ContractError(f"{path}: mixed tensor dtypes {sorted(map(str, dtypes))}")
    return DoTModel(config=config, vocab=vocab, **towers)
