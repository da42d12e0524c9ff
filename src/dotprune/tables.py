"""Tables, question/table examples, and their token-sequence encoding.

Linearization follows the [CLS] question [SEP] table layout with structural
id channels (segment, column, row, within-cell rank). Two heuristic
selectors shorten long sequences: round-robin cell concatenation and
question/column overlap ranking. Both keep the question span untouched and
never reorder surviving tokens.

The tokenizer is deliberately simple (lowercase, whitespace split,
punctuation stripped) so vocabularies are built from the corpus itself.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, InputTooLongError, open_input

PAD_TOKEN = "[PAD]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
UNK_TOKEN = "[UNK]"
# every vocabulary starts with these, in id order
RESERVED_TOKENS = (PAD_TOKEN, CLS_TOKEN, SEP_TOKEN, UNK_TOKEN)
PAD_ID, CLS_ID, SEP_ID, UNK_ID = range(len(RESERVED_TOKENS))

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip punctuation, drop empties."""
    out = []
    for raw in text.lower().split():
        tok = raw.translate(_PUNCT_TABLE)
        if tok:
            out.append(tok)
    return out


@dataclass(frozen=True)
class Table:
    """A header row plus a rectangular grid of cell strings."""

    header: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.header) < 1:
            raise ContractError("table needs at least one column")
        for r in self.rows:
            if len(r) != len(self.header):
                raise ContractError(
                    f"row has {len(r)} cells, expected {len(self.header)}")

    @property
    def n_cols(self) -> int:
        return len(self.header)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @staticmethod
    def make(header, rows) -> "Table":
        return Table(tuple(header), tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class Example:
    """One supervised instance: a question (or statement) about a table.

    Exactly one of ``answer_coords`` (cell-selection supervision, 0-based
    (row, col) into the body grid) and ``label`` (binary entailment) is set.
    """

    question: str
    table: Table
    answer_coords: frozenset[tuple[int, int]] | None = None
    label: int | None = None

    def __post_init__(self):
        if (self.answer_coords is None) == (self.label is None):
            raise ContractError("exactly one of answer_coords / label must be set")
        if self.answer_coords is not None:
            for r, c in self.answer_coords:
                if not (0 <= r < self.table.n_rows and 0 <= c < self.table.n_cols):
                    raise ContractError(f"answer cell {(r, c)} outside table extent")
        if self.label is not None and self.label not in (0, 1):
            raise ContractError("label must be 0 or 1")


class Vocabulary:
    """Injective string-to-id map with ``RESERVED_TOKENS`` at fixed ids 0..3."""

    def __init__(self, tokens=()):
        self._index: dict[str, int] = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
        for tok in tokens:
            self.add(tok)

    def add(self, token: str) -> int:
        if token not in self._index:
            self._index[token] = len(self._index)
        return self._index[token]

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def __len__(self) -> int:
        return len(self._index)

    def tokens(self) -> list[str]:
        """All tokens in id order (reserved entries first)."""
        return [t for t, _ in sorted(self._index.items(), key=lambda kv: kv[1])]

    @classmethod
    def from_examples(cls, examples) -> "Vocabulary":
        vocab = cls()
        for ex in examples:
            for tok in tokenize(ex.question):
                vocab.add(tok)
            for name in ex.table.header:
                for tok in tokenize(name):
                    vocab.add(tok)
            for row in ex.table.rows:
                for cell in row:
                    for tok in tokenize(cell):
                        vocab.add(tok)
        return vocab


@dataclass(frozen=True)
class TokenizedSequence:
    """A linearized example with per-token structural ids.

    ``segment_ids``: 0 for CLS/question/SEP, 1 for table tokens.
    ``column_ids``/``row_ids``: 1-based for table content, 0 elsewhere
    (header tokens carry row 0 and their column id).
    ``rank_ids``: 1-based position of a token within its cell, 0 for
    non-table tokens. These ids are never capped; only the encoder clamps
    them to its embedding tables. The row and column ids alone say which
    cell a token came from: ``cell``, ``answer_mask`` and
    ``tokens_by_column`` are the one reading of them.
    ``positions``: original position ids; None means 0..len-1. Selections
    that compact a sequence for the task model keep original positions so
    masked and compacted forwards are interchangeable.
    """

    token_ids: tuple[int, ...]
    segment_ids: tuple[int, ...]
    column_ids: tuple[int, ...]
    row_ids: tuple[int, ...]
    rank_ids: tuple[int, ...]
    positions: tuple[int, ...] | None = None

    def __post_init__(self):
        n = len(self.token_ids)
        for name in ("segment_ids", "column_ids", "row_ids", "rank_ids"):
            if len(getattr(self, name)) != n:
                raise ContractError(f"{name} length != token count")
        if self.positions is not None and len(self.positions) != n:
            raise ContractError("positions length != token count")

    def __len__(self) -> int:
        return len(self.token_ids)

    def effective_positions(self) -> tuple[int, ...]:
        return self.positions if self.positions is not None else tuple(range(len(self)))

    def question_span(self) -> tuple[int, ...]:
        """Indices of CLS, question tokens, and SEP."""
        return tuple(i for i, s in enumerate(self.segment_ids) if s == 0)

    def table_indices(self) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.segment_ids) if s == 1)

    def cell(self, i: int) -> tuple[int, int] | None:
        """0-based (row, col) of the body cell token ``i`` came from; None for
        header, question and special tokens, whose row id is 0."""
        row_id = self.row_ids[i]
        return (row_id - 1, self.column_ids[i] - 1) if row_id > 0 else None

    def answer_mask(self, answer_coords) -> np.ndarray:
        """Boolean mask of the tokens whose cell is in ``answer_coords``."""
        return np.array([self.cell(i) in answer_coords for i in range(len(self))],
                        dtype=bool)

    def tokens_by_column(self) -> dict[int, list[int]]:
        """Table-token indices by column id, ascending; columns by first token."""
        by_column: dict[int, list[int]] = {}
        for i in self.table_indices():
            by_column.setdefault(self.column_ids[i], []).append(i)
        return by_column

    def subsequence(self, kept: list[int] | tuple[int, ...],
                    keep_positions: bool) -> "TokenizedSequence":
        """Restrict to ``kept`` indices (must be ascending).

        ``keep_positions=True`` carries original position ids through, which
        is what top-k compaction uses; ``False`` renumbers from zero, which
        is what the preprocessing selectors use.
        """
        kept = tuple(kept)
        if any(b <= a for a, b in zip(kept, kept[1:])):
            raise ContractError("kept indices must be strictly ascending")
        base = self.effective_positions()
        channels = (self.token_ids, self.segment_ids, self.column_ids, self.row_ids,
                    self.rank_ids)
        return TokenizedSequence(
            *(tuple(ids[i] for i in kept) for ids in channels),
            positions=tuple(base[i] for i in kept) if keep_positions else None)


def _table_cells_reading_order(table: Table):
    """Yield (row_id, col_id, tokens) with header first, 1-based ids."""
    for c, name in enumerate(table.header):
        yield 0, c + 1, tokenize(name)
    for r, row in enumerate(table.rows):
        for c, cell in enumerate(row):
            yield r + 1, c + 1, tokenize(cell)


def linearized_length(example: Example) -> int:
    """Token count of the full linearization, computable without a vocabulary."""
    n = 2 + len(tokenize(example.question))
    for _, _, toks in _table_cells_reading_order(example.table):
        n += len(toks)
    return n


def linearize(example: Example, vocab: Vocabulary) -> TokenizedSequence:
    """Encode an example as [CLS] question [SEP] header cells.

    Never truncates: budgets are enforced afterwards by ``cc_select`` or
    ``hem_select``.
    """
    # one (token, segment, column, row, rank) id tuple per token
    tokens = ([(CLS_ID, 0, 0, 0, 0)]
              + [(vocab.id_of(t), 0, 0, 0, 0) for t in tokenize(example.question)]
              + [(SEP_ID, 0, 0, 0, 0)]
              + [(vocab.id_of(t), 1, col_id, row_id, rank)
                 for row_id, col_id, toks in _table_cells_reading_order(example.table)
                 for rank, t in enumerate(toks, 1)])
    return TokenizedSequence(*map(tuple, zip(*tokens)))


def _cells_of(seq: TokenizedSequence, indices) -> list[list[int]]:
    """Group the table-token ``indices`` by cell, in reading order.

    Reading order is header row left-to-right, then body rows top-to-bottom,
    left-to-right; linearize emits tokens in exactly that order, so cells
    appear in order of their first token.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i in indices:
        groups.setdefault((seq.row_ids[i], seq.column_ids[i]), []).append(i)
    return [groups[k] for k in sorted(groups, key=lambda k: groups[k][0])]


def _round_robin(cells: list[list[int]], budget: int) -> list[int]:
    """First token of each cell, then second, until the budget is spent."""
    picked: list[int] = []
    depth = 0
    while len(picked) < budget:
        advanced = False
        for cell in cells:
            if depth < len(cell):
                picked.append(cell[depth])
                advanced = True
                if len(picked) == budget:
                    break
        if not advanced:
            break
        depth += 1
    return picked


def cc_select(seq: TokenizedSequence, limit: int) -> TokenizedSequence:
    """Cell-concatenation selection: keep an equal share of each cell.

    Question/CLS/SEP tokens always survive; table tokens are chosen
    round-robin over cells in reading order. Output preserves original
    token order and positions restart from zero.
    """
    qspan = seq.question_span()
    if limit < len(qspan):
        raise InputTooLongError(
            f"limit {limit} below question span {len(qspan)}")
    if len(seq) <= limit:
        return seq
    picked = _round_robin(_cells_of(seq, seq.table_indices()), limit - len(qspan))
    kept = sorted(set(qspan) | set(picked))
    return seq.subsequence(kept, keep_positions=False)


def hem_rank_columns(question: str, table: Table) -> list[tuple[int, int]]:
    """Rank columns by distinct-question-token overlap, descending.

    Header and cell tokens both count. Ties break toward the lower column
    index. Returns (column index, score) pairs, columns 0-based.
    """
    q_tokens = set(tokenize(question))
    scores = []
    for c in range(table.n_cols):
        col_tokens = set(tokenize(table.header[c]))
        for row in table.rows:
            col_tokens.update(tokenize(row[c]))
        scores.append((c, len(q_tokens & col_tokens)))
    return sorted(scores, key=lambda cs: (-cs[1], cs[0]))


def hem_select(seq: TokenizedSequence, question: str, table: Table,
               limit: int) -> TokenizedSequence:
    """Overlap-ranked column selection.

    Whole columns are admitted in rank order while they fit; the first
    column that does not fit becomes the last admitted one and is cut by
    the round-robin rule restricted to its own cells. Question tokens
    always survive and original token order is preserved.
    """
    qspan = seq.question_span()
    if limit < len(qspan):
        raise InputTooLongError(f"limit {limit} below question span {len(qspan)}")
    if len(seq) <= limit:
        return seq

    budget = limit - len(qspan)
    by_column = seq.tokens_by_column()

    picked: list[int] = []
    for col0, _score in hem_rank_columns(question, table):
        members = by_column.get(col0 + 1, [])
        if len(members) <= budget:
            picked.extend(members)
            budget -= len(members)
            if budget == 0:
                break
        else:
            picked.extend(_round_robin(_cells_of(seq, members), budget))
            break
    kept = sorted(set(qspan) | set(picked))
    return seq.subsequence(kept, keep_positions=False)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def example_to_dict(ex: Example) -> dict:
    rec: dict = {"question": ex.question, "header": list(ex.table.header),
                 "rows": [list(r) for r in ex.table.rows]}
    if ex.answer_coords is not None:
        rec["answers"] = sorted([list(rc) for rc in ex.answer_coords])
    else:
        rec["label"] = ex.label
    return rec


def _list_of(value, kind) -> bool:
    return type(value) is list and all(type(v) is kind for v in value)


def example_from_dict(rec) -> Example:
    """Inverse of ``example_to_dict``; a malformed record raises ``ContractError``."""
    if type(rec) is not dict or not {"question", "header", "rows"} <= set(rec):
        raise ContractError("example record is not an object with question, header, rows")
    question, header, rows = rec["question"], rec["header"], rec["rows"]
    if not (type(question) is str and _list_of(header, str)
            and _list_of(rows, list) and all(_list_of(r, str) for r in rows)):
        raise ContractError("example question, header and cells must be strings")
    table = Table.make(header, rows)
    if "answers" not in rec:
        if type(rec.get("label")) is not int:
            raise ContractError("example label must be an integer")
        return Example(question, table, label=rec["label"])
    answers = rec["answers"]
    if not (_list_of(answers, list) and all(len(a) == 2 and _list_of(a, int) for a in answers)):
        raise ContractError("example answers must be [row, col] integer pairs")
    return Example(question, table, answer_coords=frozenset(map(tuple, answers)))


def write_jsonl(path, examples) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            fh.write(json.dumps(example_to_dict(ex), sort_keys=True) + "\n")


def read_jsonl(path) -> list[Example]:
    """One example per non-blank line (ending in \\n, \\r or \\r\\n); a file that
    cannot be opened raises ``ContractError`` naming it, a bad or non-UTF-8
    line one naming the file and line."""
    out = []
    with open_input(path, ContractError, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), 1):
            try:
                line = raw.decode("utf-8").strip()
                if line:
                    out.append(example_from_dict(json.loads(line)))
            except ValueError as e:  # ContractError, JSONDecodeError, UnicodeDecodeError
                raise ContractError(f"{path}, line {lineno}: {e}") from None
    return out
