import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotprune import synth
from dotprune import tables as tb
from dotprune.errors import ConfigError
from dotprune.tables import linearized_length
from helpers import PAPER_BUCKET_EDGES, bucketize, scan_answer


def test_single_row_table_answer_is_the_value_cell():
    spec = synth.GeneratorSpec(seed=1, n_examples=5, min_rows=1, max_rows=1,
                               min_cols=2, max_cols=2)
    for ex in synth.generate(spec):
        assert ex.answer_coords == frozenset({(0, synth.VALUE_COLUMN)})


def test_same_seed_gives_identical_dataset():
    spec = synth.GeneratorSpec(seed=9, n_examples=20)
    assert synth.generate(spec) == synth.generate(spec)


def test_different_seed_gives_different_dataset():
    a = synth.generate(synth.GeneratorSpec(seed=1, n_examples=10))
    b = synth.generate(synth.GeneratorSpec(seed=2, n_examples=10))
    assert a != b


def test_answers_verified_by_table_scan():
    spec = synth.GeneratorSpec(seed=3, n_examples=50)
    for ex in synth.generate(spec):
        assert scan_answer(ex) == ex.answer_coords


def test_keys_unique_per_table():
    spec = synth.GeneratorSpec(seed=4, n_examples=30)
    for ex in synth.generate(spec):
        keys = [r[synth.KEY_COLUMN] for r in ex.table.rows]
        assert len(keys) == len(set(keys))


def test_lookup_solvable_from_answer_row_alone():
    spec = synth.GeneratorSpec(seed=5, n_examples=30)
    for ex in synth.generate(spec):
        ((row, col),) = ex.answer_coords
        reduced = tb.Table.make(ex.table.header, [ex.table.rows[row]])
        pruned = tb.Example(ex.question, reduced,
                            answer_coords=frozenset({(0, col)}))
        assert scan_answer(pruned) == frozenset({(0, col)})


def test_entailment_labels_match_table_content():
    spec = synth.GeneratorSpec(seed=7, n_examples=60, task_type="entailment")
    labels = set()
    for ex in synth.generate(spec):
        parts = ex.question.split(" has value ")
        key, value = parts[0], parts[1]
        present = any(r[synth.KEY_COLUMN] == key and r[synth.VALUE_COLUMN] == value
                      for r in ex.table.rows)
        assert ex.label == int(present)
        labels.add(ex.label)
    assert labels == {0, 1}


def test_generator_spec_validation():
    for n_examples in (0, -3):
        with pytest.raises(ConfigError, match="n_examples must be >= 1"):
            synth.GeneratorSpec(n_examples=n_examples)
    with pytest.raises(ConfigError):
        synth.GeneratorSpec(min_rows=0)
    with pytest.raises(ConfigError):
        synth.GeneratorSpec(vocab_size=5)
    with pytest.raises(ConfigError):
        synth.GeneratorSpec(task_type="aggregation")


def test_bucketize_single_bucket_for_short_examples():
    spec = synth.GeneratorSpec(seed=8, n_examples=10, min_rows=1, max_rows=1,
                               min_cols=2, max_cols=2, max_cell_tokens=1)
    buckets = bucketize(synth.generate(spec))
    assert set(buckets) == {"<64"}


def test_bucket_boundary_is_left_closed():
    assert synth.bucket_label(63, (64, 128, 256)) == "<64"
    assert synth.bucket_label(64, (64, 128, 256)) == "[64,128)"
    assert synth.bucket_label(127, (64, 128, 256)) == "[64,128)"
    assert synth.bucket_label(128, (64, 128, 256)) == "[128,256)"
    assert synth.bucket_label(256, (64, 128, 256)) == ">=256"


def test_bucketize_counts_sum_to_total():
    spec = synth.GeneratorSpec(seed=9, n_examples=40, min_rows=5, max_rows=12)
    examples = synth.generate(spec)
    buckets = bucketize(examples, edges=(32, 48, 64))
    assert sum(len(v) for v in buckets.values()) == len(examples)
    assert all(buckets.values())  # absent, never empty


def test_paper_bucket_edges_preset():
    assert synth.bucket_label(2000, PAPER_BUCKET_EDGES) == ">=1024"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_generation_is_index_local(seed):
    # example i is the same whether or not other examples are generated
    long = synth.generate(synth.GeneratorSpec(seed=seed, n_examples=5))
    short = synth.generate(synth.GeneratorSpec(seed=seed, n_examples=3))
    assert long[:3] == short


@pytest.mark.parametrize("spec,sha256", [
    (synth.GeneratorSpec(seed=11, n_examples=40, min_rows=2, max_rows=9),
     "7a415f5dd5df0f9bb88b7f727bf9cbbf772e3a3d7643d63de787ce9db722a964"),
    (synth.GeneratorSpec(seed=12, n_examples=20, task_type="entailment"),
     "4a0206d0fc8cf76ef2b509294de535580170f0f0a3ac445cfa290080aeda5804"),
], ids=["lookup", "entailment"])
def test_generated_jsonl_keeps_its_bytes(tmp_path, spec, sha256):
    # pinned when every random stream moved to synth.stream: example i is
    # the stream (seed, (i,)), as before, so every dataset kept its bytes
    path = tmp_path / "data.jsonl"
    tb.write_jsonl(path, synth.generate(spec))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_linearized_length_exceeds_budget_under_padding():
    spec = synth.GeneratorSpec(seed=10, n_examples=10, min_rows=8, max_rows=12,
                               min_cols=4, max_cols=4, min_cell_tokens=2,
                               max_cell_tokens=3)
    for ex in synth.generate(spec):
        assert linearized_length(ex) >= 64
