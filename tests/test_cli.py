import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dotprune import cli, container
from dotprune.errors import ConfigError, ContractError
from dotprune.tables import read_jsonl
from helpers import bucketize


def write_config(path, **sections):
    cfg = {"schema_version": 2}
    cfg.update(sections)
    path.write_text(json.dumps(cfg))
    return path


TINY_TASK = {"pruning_preset": "mini", "task_preset": "mini", "pre_limit": 32,
             "k": 8, "loss_mode": "J"}
TINY_TRAIN = {"num_steps": 4, "batch_size": 2, "learning_rate": 1e-3, "seed": 0,
              "precision": "f32"}
TINY_DATA = {"spec": {"seed": 1, "n_examples": 8, "min_rows": 2, "max_rows": 2,
                     "min_cols": 2, "max_cols": 2, "max_cell_tokens": 1,
                     "vocab_size": 24}}


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path / "c.json", task=dict(TINY_TASK, typo_key=1))
    with pytest.raises(ConfigError, match="typo_key"):
        cli.load_config(path)


def test_load_config_names_a_file_it_cannot_open(tmp_path):
    for path in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(ConfigError, match=f"cannot open {path}"):
            cli.load_config(path)


def test_load_config_requires_schema_version(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"task": {}}))
    with pytest.raises(ConfigError, match="schema_version"):
        cli.load_config(path)


def test_load_config_refuses_a_version_1_file_naming_version_2(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"schema_version": 1,
                                "data": dict(TINY_DATA, source="synthetic")}))
    with pytest.raises(ConfigError, match="schema_version 2 .*drop each source key"):
        cli.load_config(path)


def test_config_hash_is_stable_and_key_order_independent():
    a = {"x": 1, "y": {"z": 2}}
    b = {"y": {"z": 2}, "x": 1}
    assert cli.config_hash(a) == cli.config_hash(b)


def test_cmd_params_reference_values(capsys):
    rc = cli.main(["params", "TAPAS(mini)@256", "DoT(m->256->l)@1024", "TAPAS(l)@512"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "11,105,280" in out and "11.1M" in out
    assert "299,880,192" in out and "299.9M" in out
    assert "272,670,208" in out and "272.7M" in out


@pytest.mark.parametrize("spec", [
    "TAPAS(huge)@256", "DoT(m->256->xl)@1024", "TAPAS(mini)@abc", "DoT(m->x->l)@1024",
    "TAPAS(mini)@1.5", "TAPAS(mini)@-5", "TAPAS(mini)@0", "DoT(m->0->l)@1024",
])
def test_cmd_params_refuses_a_bad_spec(spec, capsys):
    # an unknown size, a length or k that is not an integer, or one below 1
    with pytest.raises(ConfigError, match="unknown preset|is not an integer >= 1"):
        cli.main(["params", spec])
    assert capsys.readouterr().out == ""


def test_cmd_params_refuses_a_dot_k_beyond_the_input_length(capsys):
    with pytest.raises(ConfigError, match="k=500 exceeds the input length 256"):
        cli.main(["params", "DoT(m->500->l)@256"])
    assert capsys.readouterr().out == ""
    assert cli.main(["params", "DoT(m->256->l)@256"]) == 0
    assert "289,655,808" in capsys.readouterr().out


def test_parse_model_spec_accepts_unicode_arrow():
    assert cli.parse_model_spec("DoT(s→256→l)@1024") == \
        ("dot", "s", 256, "l", 1024)


def test_parse_model_spec_errors():
    with pytest.raises(ConfigError):
        cli.parse_model_spec("TAPAS(mini)")
    with pytest.raises(ConfigError):
        cli.parse_model_spec("DoT(s->l)@512")


def test_parameter_suite_passes_and_detects_injected_error():
    assert cli.run_parameter_suite()["ok"]

    def wrong_formula(cfg, input_len):
        v, h, l, hi, i = (cfg.vocab_size, cfg.hidden, cfg.num_layers,
                          cfg.intermediate, input_len)
        # constant 17 corrupted to 18
        return v * h + (2 + 3 * l) * i * h + i + (256 * 4 + 18 + 9 * l) * h \
            + (1 + 2 * l * h) * hi

    result = cli.run_parameter_suite(count_fn=wrong_formula)
    assert not result["ok"]
    assert result["formula_vs_walk_mismatches"]


def test_equivalence_suite_small_run():
    result = cli.run_equivalence_suite(cases=4, seed=3)
    assert result["ok"]
    assert result["symmetric_max_abs_diff"] < 1e-9
    assert result["one_sided_query_diff"] > 1e-6
    assert result["key_mask_diff"] < 1e-9


def test_gradient_suite():
    result = cli.run_gradient_suite(entries_per_param=2)
    assert result["ok"], result


def test_cmd_gen_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "data.jsonl"
    rc = cli.main(["gen", "--output", str(out),
                   "--spec", json.dumps(TINY_DATA["spec"])])
    assert rc == 0
    examples = read_jsonl(out)
    assert len(examples) == 8


def test_cmd_gen_rejects_unknown_spec_keys(tmp_path):
    with pytest.raises(ConfigError):
        cli.main(["gen", "--output", str(tmp_path / "x.jsonl"),
                  "--spec", json.dumps({"n_examples": 3, "bogus": 1})])


def test_cmd_train_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path / "train.json", task=TINY_TASK, train=TINY_TRAIN,
                       data=TINY_DATA)
    out_dir = tmp_path / "run"
    rc = cli.main(["train", "--config", str(cfg), "--out", str(out_dir)])
    assert rc == 0
    assert (out_dir / "metrics.jsonl").exists()
    assert (out_dir / "checkpoint.ckpt").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["steps"] == 4 and "npe_s" not in report
    timings = [json.loads(line)
               for line in (out_dir / "timings.jsonl").read_text().splitlines()]
    assert [t["step"] for t in timings] == [2, 3, 4]
    assert all(t["seconds"] > 0 for t in timings)
    assert "NPE/s" in capsys.readouterr().out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert {"config_hash", "seed", "precision", "threads", "commit"} <= set(manifest)
    lines = (out_dir / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert {"step", "loss", "lr", "answer_score_gap", "answer_pruned"} <= set(rec)


def test_cmd_train_of_one_step_times_no_step(tmp_path, capsys):
    cfg = write_config(tmp_path / "train.json", task=TINY_TASK,
                       train=dict(TINY_TRAIN, num_steps=1), data=TINY_DATA)
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "timings.jsonl").read_text() == ""
    assert "NPE/s" not in capsys.readouterr().out


@pytest.mark.parametrize("field", ["batch_size", "num_steps"])
def test_cmd_train_rejects_a_count_of_zero(tmp_path, field):
    cfg = write_config(tmp_path / "train.json", task=TINY_TASK,
                       train=dict(TINY_TRAIN, **{field: 0}), data=TINY_DATA)
    with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
        cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert not (tmp_path / "run").exists()


def test_cmd_train_metrics_deterministic(tmp_path):
    cfg = write_config(tmp_path / "train.json", task=TINY_TASK, train=TINY_TRAIN,
                       data=TINY_DATA)
    cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "a")])
    cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")])
    for name in ("metrics.jsonl", "report.json", "checkpoint.ckpt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cmd_eval_reports_and_histogram(tmp_path, capsys):
    cfg = write_config(tmp_path / "train.json", task=TINY_TASK, train=TINY_TRAIN,
                       data=TINY_DATA, eval=TINY_DATA | {"bucket_edges": [16, 32, 64]})
    run_dir = tmp_path / "run"
    cli.main(["train", "--config", str(cfg), "--out", str(run_dir)])
    eval_dir = tmp_path / "eval"
    rc = cli.main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--config", str(cfg), "--out", str(eval_dir)])
    assert rc == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert report["accuracy"] == report["accuracy_recheck"]
    assert 0.0 <= report["accuracy"] <= 1.0
    # histogram bins sum to examples with surviving answers
    rows = (eval_dir / "histogram.csv").read_text().splitlines()[1:]
    total = sum(int(r.split(",")[2]) for r in rows)
    n_with_answers = round(
        report["n_examples"] * (1 if report["mean_answer_score_gap"] is not None else 0))
    assert total <= report["n_examples"]
    if report["mean_answer_score_gap"] is not None:
        assert total > 0
    # buckets: only labels that actually hold examples appear
    assert report["bucket_accuracy"]
    assert all(0.0 <= v <= 1.0 for v in report["bucket_accuracy"].values())


def test_cmd_eval_oracle_mode(tmp_path, capsys):
    task = dict(TINY_TASK, k=16)
    cfg = write_config(tmp_path / "train.json", task=task, train=TINY_TRAIN,
                       data=TINY_DATA, eval=TINY_DATA)
    run_dir = tmp_path / "run"
    cli.main(["train", "--config", str(cfg), "--out", str(run_dir)])
    eval_dir = tmp_path / "eval"
    rc = cli.main(["eval", "--checkpoint", str(run_dir / "checkpoint.ckpt"),
                   "--config", str(cfg), "--oracle", "--out", str(eval_dir)])
    assert rc == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert report["oracle_scores"] is True
    assert report["answer_pruned_rate"] == 0.0


def test_cmd_verify_small(tmp_path, capsys):
    rc = cli.main(["verify", "--cases", "3", "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == 3
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert set(report["suites"]) == {"gradients", "hard_drop_equivalence",
                                     "parameter_count"}


def test_config_reaches_every_dataclass_field(tmp_path, monkeypatch):
    from dotprune import training as tr

    task = dict(TINY_TASK, positive_weight=3.0)
    train = dict(TINY_TRAIN, pruning_lr_scale=0.5, exploration_noise=0.2, grad_clip=None)
    cfg = write_config(tmp_path / "train.json", task=task, train=train, data=TINY_DATA)
    seen = {}

    class Captured(Exception):
        pass

    def capture(dot_config, train_config, dataset, step_callback):
        seen["dot"], seen["train"] = dot_config, train_config
        raise Captured

    monkeypatch.setattr(tr, "train", capture)
    with pytest.raises(Captured):
        cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert seen["dot"].positive_weight == 3.0
    assert seen["train"].pruning_lr_scale == 0.5
    assert seen["train"].exploration_noise == 0.2
    assert seen["train"].grad_clip is None


@pytest.mark.parametrize("section", ["train", "data.spec", "eval.spec"])
def test_load_config_rejects_unknown_keys_in_every_section(tmp_path, section):
    sections = {"task": TINY_TASK, "train": dict(TINY_TRAIN),
                "data": json.loads(json.dumps(TINY_DATA)),
                "eval": json.loads(json.dumps(TINY_DATA))}
    target = sections
    for part in section.split("."):
        target = target[part]
    target["bogus"] = 1
    path = write_config(tmp_path / "c.json", **sections)
    with pytest.raises(ConfigError, match="bogus"):
        cli.load_config(path)


def test_load_config_rejects_an_eval_oracle_key(tmp_path):
    # oracle scoring is the --oracle flag; the config has no such key
    path = write_config(tmp_path / "c.json", eval=dict(TINY_DATA, oracle=True))
    with pytest.raises(ConfigError, match="unknown config keys in eval.*oracle"):
        cli.load_config(path)


def test_readme_train_config_builds_the_configs(tmp_path):
    from dotprune import training as tr

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"A train config looks like:\n\n```json\n(.*?)```", readme, re.S)
    path = tmp_path / "readme.json"
    path.write_text(block.group(1))
    cfg = cli.load_config(path)
    assert isinstance(cfg.task, tr.DoTConfig) and cfg.data.names_dataset
    assert cfg.train.learning_rate == tr.TrainConfig.learning_rate


@pytest.fixture
def eval_inputs(tmp_path):
    """A tiny saved model, a JSONL set spanning several length buckets, and a
    config whose bucket edges split that set."""
    import numpy as np

    import helpers
    from dotprune import synth, tables
    from dotprune import training as tr

    examples = synth.generate(synth.GeneratorSpec(
        seed=5, n_examples=10, min_rows=1, max_rows=4, min_cols=2, max_cols=3,
        max_cell_tokens=1, vocab_size=24))
    lengths = sorted(tables.linearized_length(ex) for ex in examples)
    edges = [lengths[3], lengths[6]]
    model = helpers.tiny_model(examples, tr.DoTConfig(pre_limit=48, k=12),
                               dtype=np.float32, hidden=8, layers=1)
    ckpt = tmp_path / "model.ckpt"
    tr.save_checkpoint(ckpt, model)
    data = tmp_path / "data.jsonl"
    tables.write_jsonl(data, examples)
    cfg = write_config(tmp_path / "eval.json", eval={"bucket_edges": edges})
    return ckpt, data, cfg, edges


def run_eval(tmp_path, ckpt, data, cfg):
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
                   "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return json.loads((out / "report.json").read_text())


def test_eval_scores_every_example_once_in_chunks(tmp_path, monkeypatch, capsys):
    import math

    import numpy as np

    import helpers
    from dotprune import pruning, synth, tables
    from dotprune import training as tr

    examples = synth.generate(synth.GeneratorSpec(
        seed=5, n_examples=11, min_rows=1, max_rows=4, min_cols=2, max_cols=3,
        max_cell_tokens=1, vocab_size=24))
    model = helpers.tiny_model(examples, tr.DoTConfig(pre_limit=256, k=12),
                               dtype=np.float32, hidden=8, layers=1)
    ckpt, data = tmp_path / "model.ckpt", tmp_path / "data.jsonl"
    tr.save_checkpoint(ckpt, model)
    tables.write_jsonl(data, examples)
    batches = []
    original = pruning.score_tokens

    def counting(weights, seqs):
        batches.append([tuple(seq.token_ids) for seq in seqs])
        return original(weights, seqs)

    monkeypatch.setattr(pruning, "score_tokens", counting)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
                     "--out", str(tmp_path / "eval")]) == 0
    chunk = max(1, tr.EVAL_CHUNK_TOKENS // model.config.pre_limit)
    assert len(batches) == math.ceil(len(examples) / chunk) == 2
    assert [ids for batch in batches for ids in batch] == [
        tuple(tr.preselect(tables.linearize(ex, model.vocab), ex, model.config).token_ids)
        for ex in examples]


def test_eval_bucket_accuracy_matches_per_bucket_evaluate(tmp_path, eval_inputs, capsys):
    from dotprune import tables
    from dotprune import training as tr

    ckpt, data, cfg, edges = eval_inputs
    report = run_eval(tmp_path, ckpt, data, cfg)
    model = tr.load_checkpoint(ckpt)
    buckets = bucketize(tables.read_jsonl(data), edges=edges)
    assert len(buckets) >= 2
    expected = {label: tr.evaluate(model, members).accuracy
                for label, members in buckets.items()}
    assert report["bucket_accuracy"] == expected


def test_load_config_rejects_non_json_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("schema_version = 1\n")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cli.load_config(path)


def test_load_config_rejects_non_object_top_level(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("[]")
    with pytest.raises(ConfigError, match="top level"):
        cli.load_config(path)


def test_load_config_rejects_non_object_section(tmp_path):
    path = write_config(tmp_path / "c.json", task=5)
    with pytest.raises(ConfigError, match="task"):
        cli.load_config(path)


def test_a_data_path_trains_on_the_jsonl_at_that_path(tmp_path):
    data = tmp_path / "data.jsonl"
    assert cli.main(["gen", "--output", str(data),
                     "--spec", json.dumps(TINY_DATA["spec"])]) == 0
    for name, dataset in (("spec", TINY_DATA), ("path", {"path": str(data)})):
        cfg = write_config(tmp_path / f"{name}.json", task=TINY_TASK, train=TINY_TRAIN,
                           data=dataset)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
    # the JSONL holds the generator's examples, so both runs train alike
    assert ((tmp_path / "path" / "metrics.jsonl").read_bytes()
            == (tmp_path / "spec" / "metrics.jsonl").read_bytes())


@pytest.mark.parametrize("section", ["data", "eval"])
@pytest.mark.parametrize("dataset,message", [
    ({"path": "d.jsonl", "spec": {}}, "^config {}: path and spec both given"),
    ({"source": "jsonl", "path": "d.jsonl"}, r"^unknown config keys in {}: \['source'\]$"),
])
def test_load_config_refuses_a_dataset_named_twice_or_by_source(tmp_path, section, dataset,
                                                                message):
    path = write_config(tmp_path / "c.json", **{section: dataset})
    with pytest.raises(ConfigError, match=message.format(section)):
        cli.load_config(path)


def test_eval_without_dataset_or_data_section_is_an_error(tmp_path, eval_inputs):
    ckpt = eval_inputs[0]
    no_data = write_config(tmp_path / "no_data.json", task=TINY_TASK)
    for config in ([], ["--config", str(no_data)]):
        with pytest.raises(ConfigError, match="--dataset"):
            cli.main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "eval")]
                     + config)
    assert not (tmp_path / "eval").exists()


def test_cmd_gen_rejects_a_spec_that_is_not_json(tmp_path):
    with pytest.raises(ConfigError, match="generator spec is not valid JSON"):
        cli.main(["gen", "--output", str(tmp_path / "x.jsonl"), "--spec", "not json"])
    assert not (tmp_path / "x.jsonl").exists()


@pytest.mark.parametrize("section,key,value", [
    ("task", "k", "x"),
    ("task", "beta", True),
    ("train", "batch_size", 2.5),
    ("train", "grad_clip", "1"),
    ("data.spec", "n_examples", None),
    ("eval.spec", "vocab_size", [24]),
])
def test_load_config_rejects_a_value_of_the_wrong_type(tmp_path, section, key, value):
    sections = {"task": dict(TINY_TASK), "train": dict(TINY_TRAIN),
                "data": json.loads(json.dumps(TINY_DATA)),
                "eval": json.loads(json.dumps(TINY_DATA))}
    target = sections
    for part in section.split("."):
        target = target[part]
    target[key] = value
    path = write_config(tmp_path / "c.json", **sections)
    with pytest.raises(ConfigError, match=rf"config {section}: {key} must be"):
        cli.load_config(path)


@pytest.mark.parametrize("section,value", [("data", 0), ("data", True), ("eval", 1.5)])
def test_load_config_requires_a_string_path(tmp_path, section, value):
    path = write_config(tmp_path / "c.json", **{section: {"path": value}})
    with pytest.raises(ConfigError, match=rf"config {section}: path must be a str or None"):
        cli.load_config(path)


@pytest.mark.parametrize("path", [0, 1, True, 1.5])
def test_loaders_refuse_a_path_that_is_not_a_string(path):
    # ``open`` would read an integer as a file descriptor, and close it
    for load, error in ((cli.load_config, ConfigError), (read_jsonl, ContractError),
                        (container.load_tensors, ContractError)):
        with pytest.raises(error, match="input path must be a string"):
            load(path)
    os.fstat(0)
    os.fstat(1)


def test_cmd_gen_rejects_a_spec_value_of_the_wrong_type(tmp_path):
    with pytest.raises(ConfigError, match="generator spec: n_examples must be"):
        cli.main(["gen", "--output", str(tmp_path / "x.jsonl"),
                  "--spec", json.dumps({"n_examples": "3"})])


def test_config_takes_an_integer_for_a_float_field(tmp_path):
    path = write_config(tmp_path / "c.json", task=dict(TINY_TASK, beta=1),
                        train=dict(TINY_TRAIN, grad_clip=None))
    assert cli.load_config(path).task.beta == 1


def test_the_readme_commands_read_the_config_the_readme_tells_to_save():
    # the config block itself is loaded by test_readme_train_config_builds_the_configs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert set(re.findall(r"--config (\S+)", readme)) == {"lookup.json"}
    intro = readme[:readme.index("A train config looks like:")].rsplit("\n\n", 1)[-1]
    assert "save" in intro and "`lookup.json`" in intro


def test_eval_section_without_a_dataset_is_not_a_dataset(tmp_path, eval_inputs, capsys):
    ckpt, _, settings_only, _ = eval_inputs
    out = tmp_path / "eval"
    with pytest.raises(ConfigError, match="--dataset"):
        cli.main(["eval", "--checkpoint", str(ckpt), "--config", str(settings_only),
                  "--out", str(out)])
    assert not out.exists()
    # with a data section as well, eval scores that section
    with_data = json.loads(settings_only.read_text())
    with_data["data"] = {"spec": dict(TINY_DATA["spec"], n_examples=3)}
    path = tmp_path / "with_data.json"
    path.write_text(json.dumps(with_data))
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--config", str(path),
                     "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["n_examples"] == 3


@pytest.mark.parametrize("edges", [[], "ab", 5, [128, 64], [64, True]],
                         ids=["empty", "string", "number", "decreasing", "bool"])
def test_eval_rejects_bad_bucket_edges_before_writing(tmp_path, eval_inputs, edges):
    ckpt, data, _, _ = eval_inputs
    cfg = write_config(tmp_path / "bad.json", eval={"bucket_edges": edges})
    out = tmp_path / "eval"
    with pytest.raises(ConfigError, match="bucket_edges"):
        cli.main(["eval", "--checkpoint", str(ckpt), "--dataset", str(data),
                  "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


def test_eval_of_missing_inputs_fails_before_writing(tmp_path, eval_inputs, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for ckpt, missing in (("nope.ckpt", "nope.ckpt"), (str(eval_inputs[0]), "nope.jsonl")):
        with pytest.raises(ContractError, match=f"cannot open {missing}"):
            cli.main(["eval", "--checkpoint", ckpt, "--dataset", "nope.jsonl",
                      "--out", "X"])
        assert not (tmp_path / "X").exists()


@pytest.mark.parametrize("cases", [0, -1])
def test_verify_refuses_a_case_count_below_one_before_any_suite(tmp_path, monkeypatch, cases):
    ran = []
    for suite in ("run_gradient_suite", "run_equivalence_suite", "run_parameter_suite"):
        monkeypatch.setattr(cli, suite, lambda *a, _name=suite, **kw: ran.append(_name))
    with pytest.raises(ConfigError, match=f"--cases must be >= 1, got {cases}"):
        cli.main(["verify", "--cases", str(cases), "--out", str(tmp_path / "v")])
    assert ran == [] and not (tmp_path / "v").exists()


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` in a new interpreter that imports the package from ``src``,
    with no BLAS thread variable set."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k not in cli._THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_the_cli_loads_no_numpy():
    # --threads takes effect only while numpy is not loaded
    code = "import sys\nfrom dotprune import cli\nprint('numpy' in sys.modules)"
    assert run_fresh(code).stdout == "False\n"


def test_threads_below_one_is_refused_before_any_variable_is_set():
    code = """
import os
from dotprune import cli
from dotprune.errors import ConfigError
try:
    cli.main(["--threads", "0", "params", "TAPAS(mini)@256"])
except ConfigError as e:
    print(e)
print(sorted(set(cli._THREAD_ENV) & set(os.environ)))
"""
    assert run_fresh(code).stdout == "--threads must be >= 1, got 0\n[]\n"


def test_eval_oracle_refuses_examples_without_answer_cells_before_writing(tmp_path):
    import numpy as np

    import helpers
    from dotprune import synth, tables
    from dotprune import training as tr

    examples = synth.generate(synth.GeneratorSpec(
        seed=2, n_examples=4, min_rows=2, max_rows=3, max_cell_tokens=1, vocab_size=24,
        task_type="entailment"))
    model = helpers.tiny_model(examples, tr.DoTConfig(pre_limit=48, k=12,
                                                      task_type="classification"),
                               dtype=np.float32, hidden=8, layers=1)
    ckpt, data, out = tmp_path / "model.ckpt", tmp_path / "data.jsonl", tmp_path / "eval"
    tr.save_checkpoint(ckpt, model)
    tables.write_jsonl(data, examples)
    argv = ["eval", "--checkpoint", str(ckpt), "--dataset", str(data), "--out", str(out)]
    with pytest.raises(ContractError, match="--oracle"):
        cli.main(argv + ["--oracle"])
    assert not out.exists()
    assert cli.main(argv) == 0
