import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotprune import encoder as enc
from dotprune import pruning as pr
from dotprune import tables as tb
from dotprune.errors import ContractError, InputTooLongError


def make_example(header, rows, question="a b"):
    return tb.Example(question, tb.Table.make(header, rows),
                      answer_coords=frozenset() or None, label=0)


def vocab_for(ex):
    return tb.Vocabulary.from_examples([ex])


def test_tokenize_lowercases_and_strips_punctuation():
    assert tb.tokenize("Who, me?  YES!") == ["who", "me", "yes"]


def test_linearize_question_only():
    ex = tb.Example("a b", tb.Table.make([""], []), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    assert list(seq.token_ids[:1]) == [tb.CLS_ID]
    assert seq.token_ids[-1] == tb.SEP_ID
    assert len(seq) == 4
    assert list(seq.segment_ids) == [0, 0, 0, 0]


def test_linearize_single_cell_layout():
    ex = tb.Example("q", tb.Table.make(["h"], [["x"]]), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    # [CLS, q, SEP, h, x]
    assert len(seq) == 5
    assert seq.segment_ids[3] == 1 and seq.segment_ids[4] == 1
    assert (seq.row_ids[3], seq.column_ids[3]) == (0, 1)
    assert (seq.row_ids[4], seq.column_ids[4], seq.rank_ids[4]) == (1, 1, 1)
    assert seq.cell(3) is None and seq.cell(4) == (0, 0)


def test_linearize_rank_ids_count_within_cell():
    ex = tb.Example("q", tb.Table.make(["h"], [["x y"]]), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    assert list(seq.rank_ids[-2:]) == [1, 2]


def test_linearize_never_truncates_silently():
    ex = tb.Example("a b c", tb.Table.make(["h", "g"], [["x y z w"] * 2] * 40), label=0)
    assert len(tb.linearize(ex, vocab_for(ex))) == tb.linearized_length(ex) == 327


def test_linearize_is_stable():
    ex = tb.Example("what is x", tb.Table.make(["k", "v"], [["x", "y"]]), label=0)
    v = vocab_for(ex)
    assert tb.linearize(ex, v) == tb.linearize(ex, v)


def test_vocabulary_reserved_ids():
    v = tb.Vocabulary()
    assert v.id_of(tb.PAD_TOKEN) == 0
    assert v.id_of(tb.CLS_TOKEN) == 1
    assert v.id_of(tb.SEP_TOKEN) == 2
    assert v.id_of("never seen") == tb.UNK_ID == 3
    v.add("tok")
    assert v.id_of("tok") == 4
    ids = [v.id_of(t) for t in v.tokens()]
    assert len(ids) == len(set(ids))  # injective


def test_cc_select_identity_when_fits():
    ex = tb.Example("q", tb.Table.make(["h"], [["x"]]), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    assert tb.cc_select(seq, len(seq)) == seq


def test_cc_select_round_robin_order():
    # Two cells with 3 and 1 tokens; table budget 3 keeps
    # cell1.tok1, cell2.tok1, cell1.tok2.
    ex = tb.Example("q", tb.Table.make(["", ""], [["p q r", "s"]]), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    qspan = len(seq.question_span())
    out = tb.cc_select(seq, qspan + 3)
    v = vocab_for(ex)
    kept_table = [out.token_ids[i] for i in out.table_indices()]
    # selected set is {p, q, s} (r loses), emitted in original order p q s
    assert kept_table == [v.id_of("p"), v.id_of("q"), v.id_of("s")]


def test_cc_select_zero_table_budget():
    ex = tb.Example("a b", tb.Table.make(["h"], [["x y"]]), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    out = tb.cc_select(seq, len(seq.question_span()))
    assert len(out) == len(seq.question_span())
    assert all(s == 0 for s in out.segment_ids)


def test_cc_select_budget_below_question_raises():
    ex = tb.Example("a b c", tb.Table.make(["h"], []), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    with pytest.raises(InputTooLongError):
        tb.cc_select(seq, 2)


def test_hem_rank_single_matching_column():
    table = tb.Table.make(["alpha", "beta", "target"],
                          [["u", "v", "needle"], ["w", "x", "thread"]])
    ranked = tb.hem_rank_columns("needle and thread", table)
    assert ranked[0][0] == 2 and ranked[0][1] == 2


def test_hem_rank_disjoint_question_gives_index_order():
    table = tb.Table.make(["c0", "c1"], [["p", "q"]])
    ranked = tb.hem_rank_columns("zz yy", table)
    assert ranked == [(0, 0), (1, 0)]


def test_hem_rank_matches_set_intersection_oracle():
    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(12)]
    for _ in range(25):
        n_cols = int(rng.integers(1, 4))
        n_rows = int(rng.integers(1, 4))
        header = [words[rng.integers(len(words))] for _ in range(n_cols)]
        rows = [[" ".join(rng.choice(words, size=rng.integers(1, 3)))
                 for _ in range(n_cols)] for _ in range(n_rows)]
        question = " ".join(rng.choice(words, size=4))
        table = tb.Table.make(header, rows)
        expect = []
        for c in range(n_cols):
            col = set(tb.tokenize(header[c]))
            for r in rows:
                col |= set(tb.tokenize(r[c]))
            expect.append((c, len(set(tb.tokenize(question)) & col)))
        expect.sort(key=lambda cs: (-cs[1], cs[0]))
        assert tb.hem_rank_columns(question, table) == expect


def test_hem_select_identity_when_fits():
    ex = tb.Example("p", tb.Table.make(["h1", "h2"], [["a", "b"]]), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    assert tb.hem_select(seq, ex.question, ex.table, len(seq)) == seq


def test_hem_select_best_column_only():
    table = tb.Table.make(["k", "v"], [["needle", "x1 x2"], ["other", "y1 y2"]])
    ex = tb.Example("needle other", table, label=0)
    v = vocab_for(ex)
    seq = tb.linearize(ex, v)
    qspan = len(seq.question_span())
    # column 1 (k) holds 3 tokens incl header; budget exactly fits it
    out = tb.hem_select(seq, ex.question, table, qspan + 3)
    kept_cols = {out.column_ids[i] for i in out.table_indices()}
    assert kept_cols == {1}
    assert len(out) == qspan + 3


def test_hem_select_partial_last_column_round_robin():
    table = tb.Table.make(["k", "v"], [["needle", "x1 x2 x3"], ["other", "y1"]])
    ex = tb.Example("needle other", table, label=0)
    v = vocab_for(ex)
    seq = tb.linearize(ex, v)
    qspan = len(seq.question_span())
    # column k (3 tokens) fits; 2 slots remain for column v (5 tokens):
    # round-robin inside v picks header token then x1
    out = tb.hem_select(seq, ex.question, table, qspan + 5)
    kept = [v.tokens()[out.token_ids[i]] for i in out.table_indices()]
    assert kept == ["k", "v", "needle", "x1", "other"]


def test_hem_select_all_zero_scores_degrades_to_index_order():
    table = tb.Table.make(["h1", "h2"], [["a1", "b1"]])
    ex = tb.Example("zz", table, label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    qspan = len(seq.question_span())
    out = tb.hem_select(seq, ex.question, table, qspan + 2)
    kept_cols = {out.column_ids[i] for i in out.table_indices()}
    assert kept_cols == {1}


tables_strategy = st.integers(1, 3).flatmap(
    lambda n_cols: st.tuples(
        st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=n_cols,
                 max_size=n_cols),
        st.lists(st.lists(st.sampled_from(["a", "b e", "c f g", ""]),
                          min_size=n_cols, max_size=n_cols),
                 min_size=0, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(tables_strategy, st.integers(0, 30))
def test_selector_properties(table_parts, extra_budget):
    header, rows = table_parts
    ex = tb.Example("a b", tb.Table.make(header, rows), label=0)
    seq = tb.linearize(ex, vocab_for(ex))
    limit = len(seq.question_span()) + extra_budget
    for select in (lambda s: tb.cc_select(s, limit),
                   lambda s: tb.hem_select(s, ex.question, ex.table, limit)):
        out = select(seq)
        # idempotent
        assert select(out) == out
        # never reorders: kept token ids appear as a subsequence
        it = iter(seq.token_ids)
        assert all(t in it for t in out.token_ids)
        # question span survives
        assert len(out.question_span()) == len(seq.question_span())
        assert len(out) <= limit


def test_jsonl_round_trip(tmp_path):
    exs = [
        tb.Example("find x", tb.Table.make(["k", "v"], [["x", "y"]]),
                   answer_coords=frozenset({(0, 1)})),
        tb.Example("x is y", tb.Table.make(["k"], [["z"]]), label=1),
    ]
    path = tmp_path / "data.jsonl"
    tb.write_jsonl(path, exs)
    back = tb.read_jsonl(path)
    assert back == exs


def test_example_requires_exactly_one_supervision():
    t = tb.Table.make(["h"], [["x"]])
    with pytest.raises(ContractError):
        tb.Example("q", t)
    with pytest.raises(ContractError):
        tb.Example("q", t, answer_coords=frozenset({(0, 0)}), label=1)
    with pytest.raises(ContractError):
        tb.Example("q", t, answer_coords=frozenset({(5, 0)}))


@pytest.mark.parametrize("line", [
    '{"question": "q"}',
    'not json',
    '{"question": "q", "header": ["h"], "rows": [["x"]], "answers": [[0]]}',
    '{"question": "q", "header": ["h"], "rows": [["x"]], "label": "x"}',
    '[1, 2]',
], ids=["missing_keys", "not_json", "short_answer", "string_label", "array"])
def test_read_jsonl_names_file_and_line_of_bad_record(tmp_path, line):
    path = tmp_path / "data.jsonl"
    good = '{"question": "q", "header": ["h"], "rows": [["x"]], "label": 1}'
    path.write_text(good + "\n\n" + line + "\n")
    with pytest.raises(ContractError, match=r"data\.jsonl, line 3"):
        tb.read_jsonl(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["question", "header", "rows", "answers", "label"])
                      | st.text(max_size=3), inner, max_size=5),
    max_leaves=12)

# records with the right keys and mostly the right shapes reach the checks
# past the JSON level: ragged rows, out-of-range answers, bad labels
record_like = st.fixed_dictionaries(
    {"question": st.text(max_size=8) | json_values,
     "header": st.lists(st.text(max_size=4), max_size=3) | json_values,
     "rows": st.lists(st.lists(st.text(max_size=4), max_size=3), max_size=3) | json_values},
    optional={"answers": st.lists(st.lists(st.integers(-1, 3), max_size=3), max_size=2)
              | json_values,
              "label": st.integers(-1, 2) | json_values})


def test_read_jsonl_names_a_file_it_cannot_open(tmp_path):
    for path in (tmp_path / "missing.jsonl", tmp_path):
        with pytest.raises(ContractError, match=f"cannot open {path}"):
            tb.read_jsonl(path)


def test_read_jsonl_names_file_and_line_of_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "data.jsonl"
    good = b'{"question": "q", "header": ["h"], "rows": [["x"]], "label": 1}'
    path.write_bytes(good + b"\n\xff\xfe{\"a\":1}\n")
    with pytest.raises(ContractError, match=r"data\.jsonl, line 2: 'utf-8' codec"):
        tb.read_jsonl(path)


def test_read_jsonl_ends_lines_as_text_mode_does(tmp_path):
    path = tmp_path / "data.jsonl"
    good = b'{"question": "q", "header": ["h"], "rows": [["x"]], "label": 1}'
    path.write_bytes(good + b"\r" + good + b"\r\n" + good + b"\n")
    assert len(tb.read_jsonl(path)) == 3


def assert_examples_or_contract_error(path):
    try:
        examples = tb.read_jsonl(path)
    except ContractError:
        return
    assert all(isinstance(ex, tb.Example) for ex in examples)


@settings(max_examples=100, deadline=None)
@given(st.text())
def test_read_jsonl_any_text_line_gives_examples_or_contract_error(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
    path.write_text(text + "\n", encoding="utf-8")
    assert_examples_or_contract_error(path)


@settings(max_examples=200, deadline=None)
@given(json_values | record_like)
def test_read_jsonl_any_json_value_gives_examples_or_contract_error(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("jsonl") / "data.jsonl"
    path.write_text(json.dumps(value) + "\n", encoding="utf-8")
    assert_examples_or_contract_error(path)


def test_structural_ids_past_the_embedding_tables_stay_distinct():
    # 300 rows: ids past 255 are stored as they are, and only the encoder's
    # embedding lookup clamps them
    rows = [[f"r{i}", "x"] for i in range(300)]
    ex = tb.Example("r279 a", tb.Table.make(["a", "b"], rows),
                    answer_coords=frozenset({(279, 0)}))
    vocab = vocab_for(ex)
    seq = tb.linearize(ex, vocab)
    assert max(seq.row_ids) == 300
    groups = tb._cells_of(seq, seq.table_indices())
    assert len(groups) == 2 + 300 * 2 and all(len(g) == 1 for g in groups)

    scores = pr.oracle_scores(seq, ex.answer_coords)
    answer = [seq.cell(i) for i in range(len(seq))].index((279, 0))
    assert scores[answer] == 0.0
    at_zero = [i for i in seq.table_indices() if scores[i] == 0.0]
    assert [seq.cell(i) for i in at_zero] == [(279, 0), (279, 1)]

    cfg = enc.EncoderConfig(num_layers=1, hidden=8, num_heads=2, intermediate=16,
                            vocab_size=len(vocab), max_input=len(seq))
    x = enc.embed(enc.init_weights(cfg, np.random.default_rng(0), np.float64), [seq], len(seq))
    assert x.shape == (len(seq), 8) and np.isfinite(x.data).all()


def test_hem_select_admits_a_column_past_the_embedding_tables():
    header = [f"h{c}" for c in range(300)]
    ex = make_example(header, [["x"] * 300], question="h279")
    seq = tb.linearize(ex, vocab_for(ex))
    qspan = len(seq.question_span())
    out = tb.hem_select(seq, ex.question, ex.table, qspan + 2)
    assert [out.column_ids[i] for i in out.table_indices()] == [280, 280]


@st.composite
def unique_token_examples(draw):
    """A question about a table whose header and cell tokens are all distinct
    ("t0", "t1", ...), so a token's text alone names the cell it came from;
    the question repeats some of them so HEM has overlaps to rank."""
    n_cols, n_rows = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    counter = iter(range(10**6))

    def cell():
        return " ".join(f"t{next(counter)}" for _ in range(draw(st.integers(0, 3))))

    header = [cell() for _ in range(n_cols)]
    rows = [[cell() for _ in range(n_cols)] for _ in range(n_rows)]
    words = " ".join(header + [text for row in rows for text in row]).split()
    question = " ".join(draw(st.lists(st.sampled_from(words), max_size=3))) if words else ""
    answers = draw(st.frozensets(st.tuples(st.integers(0, n_rows - 1),
                                           st.integers(0, n_cols - 1)), max_size=3)
                   ) if n_rows else frozenset()
    return tb.Example(question, tb.Table.make(header, rows), answer_coords=answers)


def walk_table(ex, vocab):
    """Oracle from the Table alone: the cells of the full linearization in
    reading order (None off the body), and each table token's (cell, column)."""
    n_question = 2 + len(tb.tokenize(ex.question))
    cells, owner = [None] * n_question, {}
    for c, name in enumerate(ex.table.header):
        for tok in tb.tokenize(name):
            cells.append(None)
            owner[vocab.id_of(tok)] = (None, c + 1)
    for r, row in enumerate(ex.table.rows):
        for c, text in enumerate(row):
            for tok in tb.tokenize(text):
                cells.append((r, c))
                owner[vocab.id_of(tok)] = ((r, c), c + 1)
    return n_question, cells, owner


@settings(max_examples=80, deadline=None)
@given(unique_token_examples(), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_cells_answers_and_columns_follow_the_table(ex, extra_budget, seed):
    vocab = vocab_for(ex)
    seq = tb.linearize(ex, vocab)
    n_question, walked, owner = walk_table(ex, vocab)
    assert [seq.cell(i) for i in range(len(seq))] == walked
    limit = n_question + extra_budget
    rng = np.random.default_rng(seed)
    derived = [seq]
    for pre in (tb.cc_select(seq, limit), tb.hem_select(seq, ex.question, ex.table, limit)):
        k = n_question + int(rng.integers(0, len(pre) - n_question + 1))
        selection = pr.select_top_k_tokens(rng.normal(size=len(pre)), pre, k)
        derived += [pre, pr.compact(pre, selection)]
    for s in derived:
        # the question span leads every derived sequence; past it, a token's
        # text names its cell and column
        expect = [None] * n_question + [owner[t][0] for t in s.token_ids[n_question:]]
        assert [s.cell(i) for i in range(len(s))] == expect
        assert s.answer_mask(ex.answer_coords).tolist() == [
            cell in ex.answer_coords for cell in expect]
        by_column = {}
        for i in range(n_question, len(s)):
            by_column.setdefault(owner[s.token_ids[i]][1], []).append(i)
        assert list(s.tokens_by_column().items()) == list(by_column.items())
