"""Every config dataclass refuses a value of the wrong type, by every path
a config reaches it: a Python call, a checkpoint header and a config file."""

import dataclasses
import json
import math
import typing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dotprune import cli, container, synth
from dotprune import encoder as enc
from dotprune import training as tr
from dotprune.errors import ConfigError, ContractError, DotpruneError
from helpers import tiny_model

WRONG_KINDS = [True, "x", [1], {"a": 1}, None, 1.5]

# a valid instance's arguments per class; the one field under test is replaced
VALID = {
    tr.DoTConfig: {},
    tr.TrainConfig: {},
    synth.GeneratorSpec: {},
    synth.DataConfig: {},
    synth.EvalConfig: {},
    enc.EncoderConfig: dict(num_layers=1, hidden=4, num_heads=2, intermediate=8),
}


def accepts(cls, field, value) -> bool:
    """Whether the field's declared type takes ``value`` (int is a float)."""
    hint = typing.get_type_hints(cls)[field]
    kinds = typing.get_args(hint) or (hint,)
    if value is None:
        return type(None) in kinds
    return type(value) in kinds or (type(value) is int and float in kinds)


def wrong_kind_cases(classes):
    return [pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}={value!r}")
            for cls in classes for f in dataclasses.fields(cls)
            for value in WRONG_KINDS if not accepts(cls, f.name, value)]


@pytest.mark.parametrize("cls,field,value", wrong_kind_cases(VALID))
def test_a_config_dataclass_refuses_a_value_of_the_wrong_kind(cls, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be ") as info:
        cls(**dict(VALID[cls], **{field: value}))
    assert str(info.value).endswith(f", got {value!r}")


def test_every_field_is_tried_and_each_class_takes_its_valid_values():
    assert len(wrong_kind_cases(VALID)) == 212
    for cls, kwargs in VALID.items():
        cls(**kwargs)
    assert tr.TrainConfig(grad_clip=None, learning_rate=1).learning_rate == 1


@pytest.mark.parametrize("value", [np.int64(8), np.float64(1.0), np.str_("token")])
def test_numpy_scalars_are_refused(value):
    field = {np.int64: "k", np.float64: "beta", np.str_: "selection_mode"}[type(value)]
    with pytest.raises(ConfigError, match=f"{field} must be"):
        tr.DoTConfig(**{field: value})


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
FLOAT_FIELDS = [(cls, f.name) for cls in VALID for f in dataclasses.fields(cls)
                if accepts(cls, f.name, 0.5)]


def test_every_config_class_with_a_float_field_is_tried():
    assert {cls for cls, _ in FLOAT_FIELDS} == {tr.DoTConfig, tr.TrainConfig}
    assert len(FLOAT_FIELDS) == 6


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("cls,field", FLOAT_FIELDS,
                         ids=[f"{c.__name__}.{f}" for c, f in FLOAT_FIELDS])
def test_a_float_field_refuses_nan_and_infinity(cls, field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite, got {value!r}$"):
        cls(**dict(VALID[cls], **{field: value}))


def refused_values(cls):
    """Each (field, value) that ``cls`` refuses by the type rule: the wrong
    kinds, and NaN and ±inf in a float field."""
    return ([tuple(param.values[1:]) for param in wrong_kind_cases([cls])]
            + [(f, value) for c, f in FLOAT_FIELDS if c is cls for value in NON_FINITE])


@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(FLOAT_FIELDS), value=st.floats())
def test_a_float_field_holds_a_finite_value_or_raises_config_error(case, value):
    cls, field = case
    try:
        config = cls(**dict(VALID[cls], **{field: value}))
    except ConfigError:
        return
    assert math.isfinite(getattr(config, field))


# ---------------------------------------------------------------------------
# checkpoint headers
# ---------------------------------------------------------------------------


def tiny_data():
    """Two lookups of 27 and 37 tokens: the preselector truncates one to the
    stored pre_limit of 32, and selection keeps k = 8 of each."""
    return synth.generate(synth.GeneratorSpec(seed=4, n_examples=2, min_rows=4, max_rows=8,
                                              min_cols=3, max_cols=3, max_cell_tokens=2,
                                              vocab_size=20))


@pytest.fixture(scope="module")
def stored(tmp_path_factory):
    """The header and tensors of a tiny f32 checkpoint."""
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    model = tiny_model(tiny_data(), dot_config=tr.DoTConfig(pre_limit=32, k=8),
                       dtype=np.float32, hidden=4, layers=1)
    tr.save_checkpoint(path, model)
    return container.load_tensors(path)


def write_header(path, stored, edit):
    header, tensors = stored
    header = json.loads(json.dumps(header))
    edit(header)
    container.save_tensors(path, tensors, header)
    return path


HEADER_SECTIONS = {"config": tr.DoTConfig, "pruning_config": enc.EncoderConfig,
                   "task_config": enc.EncoderConfig}


@pytest.mark.parametrize("section", HEADER_SECTIONS)
def test_a_header_value_of_the_wrong_kind_is_refused_naming_file_and_field(
        tmp_path, stored, section):
    for field, value in refused_values(HEADER_SECTIONS[section]):
        path = write_header(tmp_path / "bad.ckpt", stored,
                            lambda h: h[section].update({field: value}))
        with pytest.raises(ContractError, match="malformed checkpoint header") as info:
            tr.load_checkpoint(path)
        assert str(path) in str(info.value) and f"{field} must be" in str(info.value)


@pytest.mark.parametrize("edit,message", [
    ({"k": 10.5}, r"k must be an int, got 10\.5"),
    # evaluation would divide by pre_limit
    ({"pre_limit": 0, "k": 0}, "k must be >= 1"),
], ids=["fractional_k", "zero_k_and_pre_limit"])
def test_a_header_k_the_config_refuses_is_refused_naming_the_file(
        tmp_path, stored, edit, message):
    path = write_header(tmp_path / "bad.ckpt", stored, lambda h: h["config"].update(edit))
    with pytest.raises(ContractError, match=message) as info:
        tr.load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("edit", [
    lambda vocab: vocab.insert(4, vocab[5]),
    lambda vocab: vocab.append(vocab[-1]),
    lambda vocab: vocab.append("[PAD]"),
    lambda vocab: vocab.pop(1),
    lambda vocab: vocab.insert(0, vocab.pop(2)),
    lambda vocab: vocab.__setitem__(5, 5),
], ids=["repeat_first_token", "repeat_last_token", "repeat_reserved", "drop_reserved",
        "reorder_reserved", "non_string_token"])
def test_a_vocabulary_whose_ids_would_shift_is_refused(tmp_path, stored, edit):
    path = write_header(tmp_path / "vocab.ckpt", stored, lambda h: edit(h["vocab"]))
    with pytest.raises(ContractError, match="followed by distinct strings") as info:
        tr.load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("extra", [1, 50])
def test_a_vocabulary_larger_than_the_embedding_tables_is_refused(tmp_path, stored, extra):
    path = write_header(tmp_path / "big.ckpt", stored, lambda h: h["vocab"].extend(
        f"extra{i}" for i in range(h["task_config"]["vocab_size"] - len(h["vocab"]) + extra)))
    with pytest.raises(ContractError, match="vocab_size") as info:
        tr.load_checkpoint(path)
    assert str(path) in str(info.value)


def test_a_vocabulary_that_fills_the_embedding_tables_loads(tmp_path, stored):
    path = write_header(tmp_path / "full.ckpt", stored, lambda h: h["vocab"].extend(
        f"extra{i}" for i in range(h["task_config"]["vocab_size"] - len(h["vocab"]))))
    model = tr.load_checkpoint(path)
    assert len(model.vocab) == model.task.encoder.config.vocab_size
    tr.evaluate(model, tiny_data())


# a number of the wrong kind passes the range checks and fails only later,
# where a string, list or None fails at once; so numbers are drawn most often
OTHER_VALUES = (st.none() | st.just(...) | st.lists(st.integers(0, 3), max_size=2)
                | st.sampled_from(["", "x", "hem", "column", "PJ", "entailment"])
                | st.sampled_from(NON_FINITE))


def near(value):
    """Neighbours of a stored value: a number as a float, shifted by a half,
    negated or scaled; a string wrapped in a list, upper-cased or emptied."""
    if type(value) in (int, float):
        return st.sampled_from([value + 0.5, float(value), -value, 4 * value])
    return st.sampled_from([[value], str(value).upper(), ""])


@pytest.mark.parametrize("section", [*HEADER_SECTIONS, "vocab"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_edited_header_loads_and_evaluates_or_raises_a_package_error(
        tmp_path, stored, section, data):
    def edit(header):
        for _ in range(data.draw(st.integers(1, 2))):
            if section == "vocab":
                # new tokens go before the stored ones, which then take ids
                # beyond the stored vocabulary
                target, key, vocab = header, "vocab", stored[0]["vocab"]
                values = (st.lists(st.text(max_size=2), max_size=40).map(
                    lambda new: vocab[:4] + new + vocab[4:])
                    | st.integers(0, 40) | OTHER_VALUES)
            else:
                target = header[section]
                key = data.draw(st.sampled_from([*target, "unknown"]))
                values = data.draw(st.sampled_from([
                    near(target.get(key, 0)), st.floats(-1, 40), st.integers(-1, 40),
                    st.booleans(), OTHER_VALUES]))
            target[key] = data.draw(values)
            if target[key] is ...:
                del target[key]

    path = write_header(tmp_path / "fuzz.ckpt", stored, edit)
    try:
        tr.evaluate(tr.load_checkpoint(path), tiny_data())
    except DotpruneError:
        pass


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


CONFIG_SECTIONS = {"task": tr.DoTConfig, "train": tr.TrainConfig,
                   "data.spec": synth.GeneratorSpec, "eval.spec": synth.GeneratorSpec}


@pytest.mark.parametrize("section", CONFIG_SECTIONS)
def test_a_config_file_value_of_the_wrong_kind_is_refused_naming_section_and_field(
        tmp_path, section):
    for field, value in refused_values(CONFIG_SECTIONS[section]):
        cfg = {"schema_version": 2}
        target = cfg
        for part in section.split("."):
            target = target.setdefault(part, {})
        target[field] = value
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))  # a non-finite float as NaN or Infinity
        with pytest.raises(ConfigError, match=rf"^config {section}: {field} must be"):
            cli.load_config(path)


RANGE_ERRORS = [
    ("task", {"pre_limit": 16, "k": 32}, "k=32 exceeds pre_limit=16"),
    ("task", {"k": 0}, "k must be >= 1"),
    ("task", {"pre_limit": 0, "k": 0}, "k must be >= 1"),
    ("train", {"learning_rate": -1e-4}, "learning_rate must be >= 0"),
    ("train", {"weight_decay": -0.01}, "weight_decay must be >= 0"),
    # a negative clip flips every gradient, and a zero one zeroes it
    ("train", {"grad_clip": -1.0}, "grad_clip must be > 0 or None"),
    ("train", {"grad_clip": 0}, "grad_clip must be > 0 or None"),
]


@pytest.mark.parametrize("section,values,message", RANGE_ERRORS,
                         ids=[f"{s}:" + ",".join(f"{k}={v}" for k, v in values.items())
                              for s, values, _ in RANGE_ERRORS])
def test_a_range_error_surfaces_when_the_config_is_loaded(tmp_path, section, values,
                                                          message):
    cls = CONFIG_SECTIONS[section]
    with pytest.raises(ConfigError, match=f"^{message}$"):
        cls(**values)
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema_version": 2, section: values}))
    with pytest.raises(ConfigError, match=f"^config {section}: {message}$"):
        cli.load_config(path)


BASE_CONFIG = {"schema_version": 2,
               "task": {"pre_limit": 32, "k": 8, "beta": 1.0, "loss_mode": "PJ"},
               "train": {"learning_rate": 1e-3, "num_steps": 4, "grad_clip": None},
               "data": {"spec": {"n_examples": 8, "vocab_size": 24}},
               "eval": {"path": "e.jsonl", "bucket_edges": [16, 32]}}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_an_edited_config_file_loads_or_raises_config_error(tmp_path, data):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    target = data.draw(st.sampled_from([cfg, cfg["task"], cfg["train"], cfg["data"],
                                        cfg["data"]["spec"], cfg["eval"]]))
    key = data.draw(st.sampled_from([*target, "unknown"]))
    values = data.draw(st.sampled_from([
        near(target.get(key, 0)), st.floats(-1, 40), st.integers(-1, 40),
        st.booleans(), OTHER_VALUES]))
    target[key] = data.draw(values)
    if target[key] is ...:
        del target[key]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    try:
        cli.load_config(path)
    except ConfigError:
        pass
