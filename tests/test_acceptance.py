"""Acceptance battery. One test per criterion, one printed line per verdict.

Run with ``pytest tests/test_acceptance.py -v -s``. The battery holds
criteria 1-6 and 10; there are no criteria 7-9. It takes about a minute on
a small machine.
"""

import itertools
import json
import time

import numpy as np
import pytest

import helpers
from dotprune import cli
from dotprune import encoder as enc
from dotprune import pruning as pr
from dotprune import synth
from dotprune import tables as tb
from dotprune import training as tr
from dotprune.tables import Vocabulary, linearized_length


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


# -- 1 ----------------------------------------------------------------------


def test_criterion_1_hard_drop_equivalence():
    """A -inf key bias equals the compacted forward on >=100 random cases."""
    t0 = time.perf_counter()
    result = cli.run_equivalence_suite(cases=100, seed=0)
    elapsed = time.perf_counter() - t0
    ok = result["max_abs_diff"] < 1e-9 and elapsed < 60
    verdict("criterion 1 (hard-drop equivalence)", ok,
            f"{result['cases']} cases, max |diff| {result['max_abs_diff']:.2e}, "
            f"{elapsed:.1f}s")
    assert result["max_abs_diff"] < 1e-9
    assert elapsed < 60


# -- 2 ----------------------------------------------------------------------


def test_criterion_2_one_sided_masking_counterexample():
    """A one-sided -inf bias is not equivalent to dropping the token.

    The additive-bias equation applied literally along its single token
    index masks the token's query rows; survivors still read the token, so
    the forward differs from the compacted run (> 1e-6). The per-key
    column mask applied in every layer, by contrast, is exact, and the
    symmetric mask realizes both drop conditions. This documents why the
    encoder applies its bias to the keys. The masked forwards run on the
    composed reference (``helpers.composed_forward``), whose key mode is the
    engine bit for bit; the engine holds the key mode only.
    """
    rng = np.random.default_rng(42)
    seq = helpers.random_sequence(rng, max_len=16)
    cfg = enc.preset("mini", vocab_size=40, max_input=32)
    weights = helpers.init_encoder(cfg, np.random.default_rng(9), dtype=np.float64)
    table_idx = seq.table_indices()
    drop = list(table_idx[-3:])

    query_diff = helpers.reference_drop_diff(weights, seq, drop, "query")
    key_diff = helpers.reference_drop_diff(weights, seq, drop, "key")
    sym_diff = helpers.reference_drop_diff(weights, seq, drop, "symmetric")

    ok = query_diff > 1e-6 and sym_diff < 1e-9 and key_diff < 1e-9
    verdict("criterion 2 (one-sided masking counterexample)", ok,
            f"query-side diff {query_diff:.2e} > 1e-6; "
            f"key-side {key_diff:.2e} and symmetric {sym_diff:.2e} exact")
    assert query_diff > 1e-6
    assert sym_diff < 1e-9
    assert key_diff < 1e-9


# -- 3 ----------------------------------------------------------------------


def test_criterion_3_gradient_fidelity():
    """Full joint loss on 2-layer/H=32 towers passes central differences."""
    t0 = time.perf_counter()
    result = cli.run_gradient_suite(entries_per_param=8, hidden=32, layers=2)
    elapsed = time.perf_counter() - t0
    ok = result["dot_loss_max_err"] < 1e-4 and elapsed < 600
    verdict("criterion 3 (gradient fidelity)", ok,
            f"max rel err {result['dot_loss_max_err']:.2e} "
            f"(selection margin {result['selection_margin']:.2e}), {elapsed:.0f}s")
    assert result["dot_loss_max_err"] < 1e-4
    assert result["selection_margin"] > 1e-4
    assert elapsed < 600


# -- 4 ----------------------------------------------------------------------


def test_criterion_4_parameter_count_regression():
    """Formula == shape walk exactly; published values within 0.1M."""
    mismatch = []
    for name in ("mini", "small", "medium", "large"):
        for input_len in (256, 512, 1024):
            cfg = enc.preset(name)
            if enc.count_parameters(cfg, input_len) != enc.shape_walk_count(cfg, input_len):
                mismatch.append((name, input_len))
    exact = {
        ("mini", 256): 11_105_280,
        ("small", 512): 28_239_872,
        ("medium", 1024): 46_608_896,
    }
    for (name, i), expect in exact.items():
        assert enc.count_parameters(enc.preset(name), i) == expect
    published = {
        ("mini", 256): 11.1, ("small", 512): 28.2, ("medium", 1024): 46.6,
        ("large", 512): 272.6,
    }
    misses = []
    for (name, i), millions in published.items():
        got = enc.count_parameters(enc.preset(name), i) / 1e6
        if abs(got - millions) > 0.1:
            misses.append((name, i, got))
    dot_total = (enc.count_parameters(enc.preset("medium"), 1024)
                 + enc.count_parameters(enc.preset("large"), 256))
    if abs(dot_total / 1e6 - 299.8) > 0.1:
        misses.append(("dot-medium-large", 1024, dot_total / 1e6))
    ok = not mismatch and not misses
    verdict("criterion 4 (parameter counts)", ok,
            f"12 formula-vs-walk checks exact; published 11.1/28.2/46.6/272.6/299.8M "
            f"all within 0.1M")
    assert not mismatch
    assert not misses


# -- 5 ----------------------------------------------------------------------


def _enumerate_length_patterns(n_cells: int, cap: int = 800):
    """All base-3 length patterns for small tables, a strided slice for big ones."""
    total = 3 ** n_cells
    if total <= cap:
        indices = range(total)
    else:
        stride = total // cap + 1
        indices = range(0, total, stride)
    for code in indices:
        pattern = []
        c = code
        for _ in range(n_cells):
            pattern.append(c % 3 + 1)
            c //= 3
        yield pattern


_SWEEP_WORDS = ["a", "b", "c", "d"]


def _build_sweep_table(n_rows, n_cols, lengths):
    """Cell tokens drawn cyclically from a tiny alphabet; lengths per cell."""
    cells = []
    idx = 0
    for _ in range((n_rows + 1) * n_cols):
        toks = [_SWEEP_WORDS[(idx * 3 + t) % len(_SWEEP_WORDS)]
                for t in range(lengths[idx])]
        cells.append(" ".join(toks))
        idx += 1
    header = cells[:n_cols]
    rows = [cells[n_cols + r * n_cols:n_cols + (r + 1) * n_cols]
            for r in range(n_rows)]
    return tb.Table.make(header, rows)


def _oracle_cc(question, table, limit):
    """String-level simulation of round-robin cell selection."""
    q = [ "[CLS]" ] + tb.tokenize(question) + ["[SEP]"]
    cells = [tb.tokenize(name) for name in table.header]
    for row in table.rows:
        cells.extend(tb.tokenize(c) for c in row)
    budget = limit - len(q)
    picked = []  # (cell_idx, depth)
    depth = 0
    while len(picked) < budget:
        advanced = False
        for ci, cell in enumerate(cells):
            if depth < len(cell):
                picked.append((ci, depth))
                advanced = True
                if len(picked) == budget:
                    break
        if not advanced:
            break
        depth += 1
    picked.sort()
    return q + [cells[ci][d] for ci, d in sorted(picked)]


def _oracle_hem(question, table, limit):
    """String-level column-overlap ranking with round-robin last column."""
    q = ["[CLS]"] + tb.tokenize(question) + ["[SEP]"]
    q_set = set(tb.tokenize(question))
    col_tokens = []
    for c in range(table.n_cols):
        cells = [tb.tokenize(table.header[c])] + [tb.tokenize(r[c]) for r in table.rows]
        col_tokens.append(cells)
    scores = sorted(range(table.n_cols),
                    key=lambda c: (-len(q_set & {t for cell in col_tokens[c]
                                                 for t in cell}), c))
    budget = limit - len(q)
    admitted: list[tuple[int, int, int]] = []  # (cell reading index, depth, col)
    for c in scores:
        size = sum(len(cell) for cell in col_tokens[c])
        cell_reading_idx = [c] + [table.n_cols + r * table.n_cols + c
                                  for r in range(table.n_rows)]
        if size <= budget:
            for pos, cell in zip(cell_reading_idx, col_tokens[c]):
                admitted.extend((pos, d, c) for d in range(len(cell)))
            budget -= size
            if budget == 0:
                break
        else:
            depth = 0
            picked = []
            while len(picked) < budget:
                advanced = False
                for pos, cell in zip(cell_reading_idx, col_tokens[c]):
                    if depth < len(cell):
                        picked.append((pos, depth, c))
                        advanced = True
                        if len(picked) == budget:
                            break
                if not advanced:
                    break
                depth += 1
            admitted.extend(picked)
            break
    flat_cells = [tb.tokenize(n) for n in table.header]
    for row in table.rows:
        flat_cells.extend(tb.tokenize(x) for x in row)
    return q + [flat_cells[pos][d] for pos, d, _ in sorted(admitted)]


def _tokens_of(seq, vocab):
    names = vocab.tokens()
    return [names[t] for t in seq.token_ids]


def test_criterion_5_heuristic_selection_oracles():
    """cc_select and hem_select match string-level simulations exactly.

    Sweep: all table shapes up to 3x3; exhaustive per-cell length patterns
    (lengths 1..3) for tables with at most six cells, a deterministic
    strided slice of the pattern space for larger ones; every limit from
    the question span to beyond full length.
    """
    question = "a b"
    checks = 0
    for n_rows, n_cols in itertools.product((1, 2, 3), repeat=2):
        n_cells = (n_rows + 1) * n_cols
        for lengths in _enumerate_length_patterns(n_cells):
            table = _build_sweep_table(n_rows, n_cols, lengths)
            ex = tb.Example(question, table, label=0)
            vocab = Vocabulary.from_examples([ex])
            seq = tb.linearize(ex, vocab)
            qlen = len(seq.question_span())
            for limit in range(qlen, len(seq) + 2):
                got_cc = _tokens_of(tb.cc_select(seq, limit), vocab)
                assert got_cc == _oracle_cc(question, table, limit), (
                    n_rows, n_cols, lengths, limit)
                got_hem = _tokens_of(
                    tb.hem_select(seq, question, table, limit), vocab)
                assert got_hem == _oracle_hem(question, table, limit), (
                    n_rows, n_cols, lengths, limit)
                checks += 2
    verdict("criterion 5 (heuristic selection oracles)", True,
            f"{checks} selector calls matched the simulations exactly")


# -- 6 ----------------------------------------------------------------------


def test_criterion_6_selection_oracles():
    """Top-k and column selection match sort / grouped-mean oracles, 1000 draws."""
    rng = np.random.default_rng(6)
    seqs = [helpers.random_sequence(rng) for _ in range(10)]
    for i in range(1000):
        seq = seqs[i % len(seqs)]
        values = -rng.random(len(seq)) * 5.0
        qspan = seq.question_span()
        k = int(rng.integers(len(qspan), len(seq) + 2))

        sel = pr.select_top_k_tokens(values, seq, k)
        table = list(seq.table_indices())
        order = sorted(table, key=lambda j: (-values[j], j))
        expect = sorted(set(qspan) | set(order[:k - len(qspan)]))
        assert list(sel.kept_indices) == expect

        col_sel = pr.select_columns(pr.column_scores(values, seq), seq, k)
        members: dict[int, list[int]] = {}
        sums: dict[int, list[float]] = {}
        for j in table:
            members.setdefault(seq.column_ids[j], []).append(j)
            sums.setdefault(seq.column_ids[j], []).append(values[j])
        means = {c: np.mean(v) for c, v in sums.items()}
        budget = k - len(qspan)
        kept = set(qspan)
        for c in sorted(means, key=lambda c: (-means[c], c)):
            if len(members[c]) <= budget:
                kept |= set(members[c])
                budget -= len(members[c])
        assert set(col_sel.kept_indices) == kept
    verdict("criterion 6 (selection oracles)", True,
            "1000 random score vectors, kept sets exact for both modes")


# -- 10 ---------------------------------------------------------------------


def test_criterion_10_determinism(tmp_path):
    """Identical config+seed+threads give byte-identical metrics.jsonl."""
    cfg = {
        "schema_version": 2,
        "task": {"pruning_preset": "mini", "task_preset": "mini",
                 "pre_limit": 32, "k": 8, "loss_mode": "J"},
        "train": {"num_steps": 12, "batch_size": 2, "learning_rate": 1e-3,
                  "seed": 7, "precision": "f32"},
        "data": {"spec": {"seed": 3, "n_examples": 16, "min_rows": 2,
                          "max_rows": 3, "min_cols": 2, "max_cols": 3,
                          "max_cell_tokens": 1, "vocab_size": 24}},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r1")])
    cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "r2")])
    b1 = (tmp_path / "r1" / "metrics.jsonl").read_bytes()
    b2 = (tmp_path / "r2" / "metrics.jsonl").read_bytes()
    ok = b1 == b2
    verdict("criterion 10 (determinism)", ok,
            f"two runs, {len(b1)} bytes of metrics, byte-identical: {ok}")
    assert ok
