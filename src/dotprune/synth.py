"""Deterministic synthetic table-QA data.

Lookup examples name a key that occurs in exactly one cell of the key
column; the answer is the same row's cell in the value column. Entailment
examples assert a (key, value) pairing that is either taken from the table
(label 1) or corrupted to another row's value (label 0). Distractor rows
pad the tables so the linearized length comfortably exceeds the selection
budget, which is what makes pruning matter.

Every example derives its own RNG from (seed, index), so generation is
order-independent and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tables
from .errors import ConfigError, check_field_types
from .tables import Example, Table

KEY_COLUMN = 0
VALUE_COLUMN = 1

DESK_BUCKET_EDGES = (64, 128, 256)


@dataclass(frozen=True)
class GeneratorSpec:
    seed: int = 0
    n_examples: int = 100
    min_rows: int = 3
    max_rows: int = 6
    min_cols: int = 3
    max_cols: int = 4
    min_cell_tokens: int = 1
    max_cell_tokens: int = 2
    vocab_size: int = 60
    distractor_ratio: float = 0.0
    task_type: str = "lookup"

    def __post_init__(self):
        check_field_types(self)
        if self.min_rows < 1 or self.max_rows < self.min_rows:
            raise ConfigError("invalid row range")
        if self.min_cols < 2 or self.max_cols < self.min_cols:
            raise ConfigError("need a key and a value column")
        if self.min_cell_tokens < 1 or self.max_cell_tokens < self.min_cell_tokens:
            raise ConfigError("invalid cell token range")
        if self.vocab_size < 20:
            raise ConfigError("vocab_size must be >= 20")
        if self.distractor_ratio < 0:
            raise ConfigError("distractor_ratio must be >= 0")
        if self.task_type not in ("lookup", "entailment"):
            raise ConfigError(f"unknown task_type {self.task_type!r}")


def _example_rng(spec: GeneratorSpec, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(index,))))


def _make_table(spec: GeneratorSpec, rng: np.random.Generator):
    words = [f"w{i}" for i in range(spec.vocab_size)]
    base_rows = int(rng.integers(spec.min_rows, spec.max_rows + 1))
    n_rows = base_rows + int(np.ceil(spec.distractor_ratio * base_rows))
    n_cols = int(rng.integers(spec.min_cols, spec.max_cols + 1))

    # row-marker keys: unique within the table, and the key vocabulary is
    # shared across tables so key embeddings see enough updates to train
    # from scratch at desk scale
    keys = [f"k{r}" for r in range(n_rows)]

    def cell() -> str:
        n = int(rng.integers(spec.min_cell_tokens, spec.max_cell_tokens + 1))
        return " ".join(words[j] for j in rng.integers(0, spec.vocab_size, size=n))

    header = ["key", "value"] + [f"col{c}" for c in range(2, n_cols)]
    rows = []
    for r in range(n_rows):
        row = [cell() for _ in range(n_cols)]
        row[KEY_COLUMN] = keys[r]
        rows.append(row)
    return Table.make(header, rows), keys


def _lookup_example(spec: GeneratorSpec, rng: np.random.Generator) -> Example:
    table, keys = _make_table(spec, rng)
    row = int(rng.integers(table.n_rows))
    question = f"value of {keys[row]}"
    return Example(question, table,
                   answer_coords=frozenset({(row, VALUE_COLUMN)}))


def _entailment_example(spec: GeneratorSpec, rng: np.random.Generator) -> Example:
    table, keys = _make_table(spec, rng)
    row = int(rng.integers(table.n_rows))
    label = int(rng.integers(2))
    value = table.rows[row][VALUE_COLUMN]
    if label == 0 and table.n_rows > 1:
        other = int(rng.integers(table.n_rows - 1))
        other = other + 1 if other >= row else other
        wrong = table.rows[other][VALUE_COLUMN]
        if wrong == value:
            label = 1  # corrupt value happens to match; statement is true
        else:
            value = wrong
    statement = f"{keys[row]} has value {value}"
    return Example(statement, table, label=label)


def generate(spec: GeneratorSpec) -> list[Example]:
    """Materialize ``spec.n_examples`` examples; same spec, same dataset."""
    make = _lookup_example if spec.task_type == "lookup" else _entailment_example
    return [make(spec, _example_rng(spec, i)) for i in range(spec.n_examples)]


@dataclass(frozen=True)
class DataConfig:
    """A dataset: the JSONL file at ``path`` or the generator run on
    ``spec``, not both. It names a dataset when it has either; with
    neither, ``examples`` runs the default generator."""

    path: str | None = None
    spec: GeneratorSpec | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.path is not None and self.spec is not None:
            raise ConfigError("path and spec both given: a dataset is the JSONL file "
                              "at path or the generator run on spec")

    @property
    def names_dataset(self) -> bool:
        return self.path is not None or self.spec is not None

    def examples(self) -> list[Example]:
        if self.path is not None:
            # through the module, so perfbench's tracer, which wraps
            # tables.read_jsonl, sees the call
            return tables.read_jsonl(self.path)
        return generate(self.spec or GeneratorSpec())


@dataclass(frozen=True)
class EvalConfig(DataConfig):
    """An eval dataset, named as in ``DataConfig``, and the edges of the
    eval report's linearized-length buckets (see ``bucket_label``)."""

    bucket_edges: list = field(default_factory=lambda: list(DESK_BUCKET_EDGES))

    def __post_init__(self):
        super().__post_init__()
        edges = self.bucket_edges
        if not (edges and all(type(e) is int for e in edges) and 0 < edges[0]
                and all(a < b for a, b in zip(edges, edges[1:]))):
            raise ConfigError("bucket_edges must be a non-empty list of strictly "
                              f"increasing positive integers, got {edges!r}")


def bucket_label(length: int, edges) -> str:
    """Left-closed, right-open buckets: <e0, [e0,e1), ..., >=elast."""
    edges = tuple(edges)
    if length < edges[0]:
        return f"<{edges[0]}"
    for lo, hi in zip(edges, edges[1:]):
        if lo <= length < hi:
            return f"[{lo},{hi})"
    return f">={edges[-1]}"
