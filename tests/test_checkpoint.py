"""Strict checkpoint files: exact names, shapes and dtypes, no stray errors."""

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dotprune import container
from dotprune import encoder as enc
from dotprune import synth
from dotprune import training as tr
from dotprune.errors import ContractError
from helpers import tiny_model


def tiny_data():
    return synth.generate(synth.GeneratorSpec(seed=3, n_examples=2, min_rows=1, max_rows=2,
                                              min_cols=2, max_cols=2, max_cell_tokens=1,
                                              vocab_size=20))


@pytest.fixture
def checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, tiny_model(tiny_data(), dtype=np.float32, hidden=4, layers=1))
    return path


def rewrite(path, edit):
    """Load the raw container, apply ``edit`` to its tensor dict, save it back."""
    header, tensors = container.load_tensors(path)
    edit(tensors)
    container.save_tensors(path, tensors, header)


def test_load_makes_no_random_draws(checkpoint, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random values")

    monkeypatch.setattr(enc, "truncated_normal", no_draws)
    model = tr.load_checkpoint(checkpoint)
    assert model.task.head_w.shape == (4, 1)


def test_resaving_a_loaded_checkpoint_is_byte_identical(checkpoint, tmp_path):
    again = tmp_path / "again.ckpt"
    tr.save_checkpoint(again, tr.load_checkpoint(checkpoint))
    assert again.read_bytes() == checkpoint.read_bytes()


def test_loaded_tensors_are_trainable_and_keep_dtype(checkpoint):
    model = tr.load_checkpoint(checkpoint)
    params = model.parameters()
    assert all(p.requires_grad and p.data.dtype == np.float32 for p in params)
    assert all(p.data.flags.writeable for p in params)


# the row-0-only type tables a checkpoint stored before they were folded into
# the segment table; a layout nothing writes is refused like any stray tensor
OLD_TYPE_TABLES = {"type_binary": np.zeros((2, 4), np.float32),
                   "type_relation": np.zeros((10, 4), np.float32),
                   "type_inv_rank": np.zeros((256, 4), np.float32)}


@pytest.mark.parametrize("edit, match", [
    (lambda t: t.pop("task.layer0.wq"), "missing"),
    (lambda t: t.update({"task.extra": np.zeros(2, np.float32)}), "unexpected"),
    (lambda t: t.update({"task.renamed_wq": t.pop("task.layer0.wq")}), "missing"),
    (lambda t: t.update({"pruning.head_w": np.zeros((5, 1), np.float32)}), "shape"),
    (lambda t: t.update({"task.head_b": t["task.head_b"].astype(np.float64)}), "mixed"),
    (lambda t: t.update({f"{prefix}.{name}": table for prefix in ("pruning", "task")
                         for name, table in OLD_TYPE_TABLES.items()}), "unexpected"),
    (lambda t: t.update({"pruning.type_binary": OLD_TYPE_TABLES["type_binary"]}),
     "unexpected"),
    (lambda t: t.update({"task.type_relation": np.zeros((9, 4), np.float32)}), "unexpected"),
], ids=["missing", "extra", "renamed", "reshaped", "mixed_dtype",
        "type_tables_all", "type_tables_one", "type_tables_reshaped"])
def test_load_checkpoint_is_strict(checkpoint, edit, match):
    rewrite(checkpoint, edit)
    with pytest.raises(ContractError, match=match) as info:
        tr.load_checkpoint(checkpoint)
    assert str(checkpoint) in str(info.value)


def test_load_tensors_rejects_every_truncation(tmp_path):
    path = tmp_path / "t.ckpt"
    container.save_tensors(path, {"a": np.arange(3, dtype=np.float32),
                                  "b": np.ones((2, 2))}, {"kind": "test"})
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(ContractError):
            container.load_tensors(cut)


def test_load_tensors_reads_every_shape_into_its_own_writable_array(tmp_path):
    path = tmp_path / "t.ckpt"
    named = {"empty": np.zeros((0, 3), np.float32),
             "matrix": np.arange(6, dtype=np.float32).reshape(2, 3),
             "vector": np.linspace(-1.0, 1.0, 5),
             "scalar": np.array(2.5)}
    container.save_tensors(path, named, {})
    _, loaded = container.load_tensors(path)
    assert sorted(loaded) == sorted(named)
    for name, arr in named.items():
        got = loaded[name]
        assert got.dtype == arr.dtype and got.shape == arr.shape
        np.testing.assert_array_equal(got, arr)
        assert got.flags.writeable and got.flags.owndata and got.flags.c_contiguous


@pytest.mark.parametrize("length", [2 ** 40, 2 ** 63])
@pytest.mark.parametrize("field", ["header", "descriptor", "data"])
def test_load_tensors_refuses_a_length_beyond_the_end_of_the_file(tmp_path, field, length):
    header = b'{"kind":"test"}'
    # a data length is read only once it matches the descriptor's shape
    elems = length // 8 if field == "data" else 2
    desc = json.dumps({"dtype": "<f8", "name": "a", "shape": [elems]}).encode()
    lengths = {"header": len(header), "descriptor": len(desc), "data": 16, field: length}
    blob = (container.MAGIC + struct.pack("<I", container.VERSION)
            + struct.pack("<Q", lengths["header"]) + header + struct.pack("<I", 1)
            + struct.pack("<Q", lengths["descriptor"]) + desc
            + struct.pack("<Q", lengths["data"]) + bytes(16))
    path = tmp_path / "t.ckpt"
    path.write_bytes(blob)
    with pytest.raises(ContractError, match="is truncated"):
        container.load_tensors(path)


def test_load_tensors_rejects_unknown_descriptor_dtype(tmp_path):
    path = tmp_path / "t.ckpt"
    container.save_tensors(path, {"a": np.arange(3, dtype=np.float32)}, {})
    blob = path.read_bytes()
    assert blob.count(b'"<f4"') == 1
    path.write_bytes(blob.replace(b'"<f4"', b'"<i4"'))
    with pytest.raises(ContractError, match="descriptor"):
        container.load_tensors(path)


def test_load_tensors_refuses_a_repeated_name(tmp_path):
    # a later descriptor of the same name would silently replace the first
    path = tmp_path / "t.ckpt"
    container.save_tensors(path, {"x": np.zeros(3, np.float32), "y": np.ones(3, np.float32)},
                           {})
    blob = path.read_bytes()
    assert blob.count(b'"name":"y"') == 1
    path.write_bytes(blob.replace(b'"name":"y"', b'"name":"x"'))
    with pytest.raises(ContractError, match=f"{path}: tensor 'x' is stored twice"):
        container.load_tensors(path)


def test_load_tensors_rejects_corrupt_header(tmp_path):
    path = tmp_path / "t.ckpt"
    container.save_tensors(path, {}, {"kind": "test"})
    blob = path.read_bytes()
    path.write_bytes(blob.replace(b'{"kind"', b'\xff"kind"'))
    with pytest.raises(ContractError):
        container.load_tensors(path)


def set_stored_task_config(path, **values):
    header, tensors = container.load_tensors(path)
    header["task_config"].update(values)
    container.save_tensors(path, tensors, header)


@pytest.mark.parametrize("values", [{"num_heads": 0}, {"num_layers": 1.5},
                                    {"num_layers": True}])
def test_a_bad_header_config_is_refused_naming_the_file(checkpoint, values):
    set_stored_task_config(checkpoint, **values)
    with pytest.raises(ContractError, match="malformed checkpoint header") as info:
        tr.load_checkpoint(checkpoint)
    assert str(checkpoint) in str(info.value)


def test_a_checkpoint_whose_encoder_configs_hold_a_seed_is_refused(checkpoint):
    # encoder configs held a seed before every init drew from synth.stream;
    # a checkpoint of that format stores one in both sections
    header, tensors = container.load_tensors(checkpoint)
    assert "seed" not in header["pruning_config"] and "seed" not in header["task_config"]
    header["pruning_config"]["seed"], header["task_config"]["seed"] = 0, 1
    container.save_tensors(checkpoint, tensors, header)
    with pytest.raises(ContractError, match="malformed checkpoint header.*seed") as info:
        tr.load_checkpoint(checkpoint)
    assert str(checkpoint) in str(info.value)


LOAD_UNDER_1GB = """
import resource, sys
from dotprune import training
from dotprune.errors import ContractError
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))
try:
    training.load_checkpoint(sys.argv[1])
except ContractError as e:
    print(e)
"""


def test_a_layer_count_the_file_cannot_hold_is_refused_before_any_shape_table(checkpoint):
    # in a child under a 1 GB address-space limit: a shape table for a million
    # layers raises MemoryError there instead of exhausting this process
    set_stored_task_config(checkpoint, num_layers=1_000_000)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", LOAD_UNDER_1GB, str(checkpoint)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "task config has 1000000 layers" in proc.stdout


def set_stored_dropout(path, rates):
    """Give both stored encoder configs the dropout keys checkpoints carried
    before dropout was removed."""
    header, tensors = container.load_tensors(path)
    for prefix in ("pruning", "task"):
        header[f"{prefix}_config"].update(rates)
    container.save_tensors(path, tensors, header)


@pytest.mark.parametrize("rates", [{"hidden_dropout": 0.1, "attention_dropout": 0.0},
                                   {"hidden_dropout": 0.0, "attention_dropout": 0.1},
                                   {"hidden_dropout": 0.0, "attention_dropout": 0.0}])
def test_checkpoint_with_nonzero_dropout_rate_is_rejected(checkpoint, rates):
    # a rate of 0.0 is refused too: the encoder config has no dropout field
    set_stored_dropout(checkpoint, rates)
    with pytest.raises(ContractError, match="malformed checkpoint header.*dropout") as info:
        tr.load_checkpoint(checkpoint)
    assert str(checkpoint) in str(info.value)


def test_load_tensors_names_a_file_it_cannot_open(tmp_path):
    for path in (tmp_path / "missing.ckpt", tmp_path):
        with pytest.raises(ContractError, match=f"cannot open {path}"):
            container.load_tensors(path)
