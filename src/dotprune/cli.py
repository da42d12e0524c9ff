"""Command-line harness: verify | train | eval | params | gen.

Every run writes a manifest.json (config hash, seed, precision, thread
count, commit) so outputs can be reproduced bit-exactly. Config files are
strict JSON: a schema_version field is required, and unknown keys or values
of the wrong type anywhere are hard errors. Flags override file values.

--threads is applied by exporting the BLAS thread-count environment
variables before numpy loads, so it only takes effect when this module is
the process entry point; the manifest records whether it was applied.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time

from .errors import ConfigError, ContractError, field_kinds, open_input

SCHEMA_VERSION = 2

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A config's sections, each built into its dataclass, and the JSON they
    were built from, which the manifest hashes."""

    raw: dict
    task: object
    train: object
    data: object
    eval: object


def _build(cls, section, where: str):
    """The dataclass ``cls`` built from the config object ``section``, whose
    keys must be fields of ``cls``; a field typed by a dataclass takes an
    object built the same way, named ``where.key`` in errors."""
    if not isinstance(section, dict):
        raise ConfigError(f"config {where} must be a JSON object, got {section!r}")
    kinds = dict(field_kinds(cls))
    unknown = set(section) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {sorted(unknown)}")
    values = {key: _build(kinds[key][0], value, f"{where}.{key}")
              if value is not None and dataclasses.is_dataclass(kinds[key][0]) else value
              for key, value in section.items()}
    try:
        return cls(**values)
    except ConfigError as e:
        raise ConfigError(f"config {where}: {e}") from None


def load_config(path=None, **train) -> RunConfig:
    """Read the strict-JSON config at ``path`` (with none, every section
    takes its defaults) and build each section into its dataclass. ``train``
    holds a command's overrides of train fields; the hashed JSON holds them
    too. Any failure, opening the file included, raises ``ConfigError``."""
    from .synth import DataConfig, EvalConfig
    from .training import DoTConfig, TrainConfig

    sections = {"task": DoTConfig, "train": TrainConfig, "data": DataConfig,
                "eval": EvalConfig}
    cfg = {"schema_version": SCHEMA_VERSION}
    if path is not None:
        with open_input(path, ConfigError, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except ValueError as e:
                raise ConfigError(f"{path} is not valid JSON ({e})") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config top level must be a JSON object")
    unknown = set(cfg) - {"schema_version", *sections}
    if unknown:
        raise ConfigError(f"unknown config keys in top level: {sorted(unknown)}")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(f"config must declare schema_version {SCHEMA_VERSION} (from "
                          "version 1, drop each source key: a dataset is named by its "
                          f"path or its spec), got {cfg.get('schema_version')!r}")
    built = {name: _build(cls, cfg.get(name, {}), name) for name, cls in sections.items()}
    if train:
        cfg["train"] = {**cfg.get("train", {}), **train}
        built["train"] = dataclasses.replace(built["train"], **train)
    return RunConfig(cfg, **built)


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def write_manifest(out_dir, cfg: dict, args, threads_applied: bool) -> None:
    manifest = {
        "config_hash": config_hash(cfg),
        "seed": cfg.get("train", {}).get("seed"),
        "precision": cfg.get("train", {}).get("precision"),
        "threads": args.threads,
        "threads_applied": threads_applied,
        "commit": _git_commit(),
        "command": sys.argv[1:],
        "schema_version": SCHEMA_VERSION,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_gradient_suite(entries_per_param: int = 4, hidden: int = 16,
                       layers: int = 2, seed: int = 0) -> dict:
    """Gradient checks: composed ops and a hand-sized end-to-end loss.

    The end-to-end check runs at an interior point of the hard top-k
    selection (the score margin at the budget boundary is asserted first,
    since the selection itself is a step function) and uses a difference
    step sized for the loss scale: smaller steps sit below the cancellation
    noise floor of 64-bit central differences, larger ones cross the
    selection boundary.
    """
    import numpy as np

    from . import encoder as enc
    from . import synth
    from . import tensor as T
    from . import training as tr
    from .tables import Vocabulary

    rng = np.random.default_rng(0)
    a = T.Tensor(rng.normal(size=(5, 5)))
    w = T.Tensor(rng.normal(size=(5, 1)), requires_grad=True)

    def quad(params):
        (p,) = params
        return T.tensor_sum(T.matmul(T.permute(p, (1, 0)), T.matmul(a, p)))

    quad_err = T.gradient_check(quad, [w], eps=1e-6)

    data = synth.generate(synth.GeneratorSpec(seed=1, n_examples=2, min_rows=2,
                                              max_rows=2, max_cell_tokens=1,
                                              vocab_size=24))
    vocab = Vocabulary.from_examples(data)
    dot_cfg = tr.DoTConfig(pre_limit=32, k=8)
    enc_kw = dict(num_heads=2, intermediate=2 * hidden, vocab_size=len(vocab),
                  max_input=32)
    model = tr.build_model(
        dot_cfg, vocab, dtype=np.float64, seed=seed,
        pruning_config=enc.EncoderConfig(num_layers=layers, hidden=hidden,
                                         seed=seed, **enc_kw),
        task_config=enc.EncoderConfig(num_layers=layers, hidden=hidden,
                                      seed=seed + 1, **enc_kw))
    # spread the scores so the base point is interior to the hard selection
    model.pruning.head_w.data *= 30.0
    ex = data[0]
    margin = selection_margin(model, ex)
    # freeze the kept set: the loss is a step function of the scores at the
    # selection boundary, and the frozen-selection gradient equals the true
    # gradient at any interior point
    frozen = tr.dot_forward(model, ex).selection

    def dot_loss(params):
        out = tr.dot_forward(model, ex, selection_override=frozen)
        return tr.compute_loss(model, out, ex)

    dot_err = T.gradient_check(dot_loss, model.parameters(), eps=3e-4,
                               max_entries_per_param=entries_per_param)
    ok = quad_err < 1e-7 and dot_err < 1e-4 and margin > 1e-4
    return {"ok": bool(ok), "quadratic_max_err": quad_err,
            "dot_loss_max_err": dot_err, "selection_margin": margin}


def selection_margin(model, example) -> float:
    """Score gap between the last kept and first dropped table token."""
    import numpy as np

    from . import training as tr

    out = tr.dot_forward(model, example)
    table = list(out.pre_seq.table_indices())
    budget = model.config.k - len(out.pre_seq.question_span())
    if budget <= 0 or budget >= len(table):
        return float("inf")
    ranked = np.sort(out.scores.values[table])[::-1]
    return float(ranked[budget - 1] - ranked[budget])


def run_equivalence_suite(cases: int = 100, seed: int = 0) -> dict:
    """Randomized masked-vs-compacted forwards in 64-bit.

    Symmetric masking must match to 1e-9. One constructed case demonstrates
    that the one-sided (query-row) application is not equivalent while the
    per-key mask still is.
    """
    import numpy as np

    from . import encoder as enc
    from . import pruning as pr
    from . import tables as tb
    from . import synth

    rng = np.random.default_rng(seed)
    worst = 0.0
    weights_cache: dict = {}
    for case in range(cases):
        preset_name = ("mini", "small")[case % 2]
        ex = synth.generate(synth.GeneratorSpec(
            seed=seed + case, n_examples=1, min_rows=1, max_rows=3,
            min_cols=2, max_cols=3, max_cell_tokens=2, vocab_size=30))[0]
        seq = tb.linearize(ex, tb.Vocabulary.from_examples([ex]))
        if len(seq) > 32:
            seq = tb.cc_select(seq, 32)
        key = (preset_name, case % 4)
        if key not in weights_cache:
            cfg = enc.preset(preset_name, vocab_size=64, max_input=32,
                             seed=seed + case)
            weights_cache[key] = enc.init_weights(cfg, dtype=np.float64)
        w = weights_cache[key]
        table_idx = list(seq.table_indices())
        max_drop = min(len(table_idx), len(seq) - 4)
        n_drop = int(rng.integers(1, max_drop + 1)) if max_drop >= 1 else 0
        drop = list(rng.choice(table_idx, size=n_drop, replace=False)) if n_drop else []
        worst = max(worst, pr.hard_drop_equivalence(w, seq, drop, mode="symmetric"))

    # constructed one-sided counterexample on the last case
    counter_seq = seq if seq.table_indices() else None
    one_sided = 0.0
    key_mode = 0.0
    if counter_seq is not None:
        drop = [counter_seq.table_indices()[-1]]
        one_sided = pr.hard_drop_equivalence(w, counter_seq, drop, mode="query")
        key_mode = pr.hard_drop_equivalence(w, counter_seq, drop, mode="key")
    ok = worst < 1e-9 and one_sided > 1e-6 and key_mode < 1e-9
    return {"ok": bool(ok), "cases": cases, "symmetric_max_abs_diff": worst,
            "one_sided_query_diff": one_sided, "key_mask_diff": key_mode}


def run_parameter_suite(count_fn=None) -> dict:
    """Formula vs shape-walk cross-check plus published reference values."""
    from . import encoder as enc

    count = count_fn or enc.count_parameters
    mismatches = []
    for name in ("mini", "small", "medium", "large"):
        for input_len in (256, 512, 1024):
            cfg = enc.preset(name)
            formula = count(cfg, input_len)
            walk = enc.shape_walk_count(cfg, input_len)
            if formula != walk:
                mismatches.append((name, input_len, formula, walk))
    published = [
        ("mini", 256, 11.1), ("small", 512, 28.2), ("medium", 1024, 46.6),
        ("large", 512, 272.6),
    ]
    off = []
    for name, input_len, millions in published:
        got = count(enc.preset(name), input_len) / 1e6
        if abs(got - millions) > 0.1:
            off.append((name, input_len, got, millions))
    dot = (count(enc.preset("medium"), 1024) + count(enc.preset("large"), 256)) / 1e6
    if abs(dot - 299.8) > 0.1:
        off.append(("medium->256->large", 1024, dot, 299.8))
    ok = not mismatches and not off
    return {"ok": bool(ok), "formula_vs_walk_mismatches": mismatches,
            "published_value_misses": off}


def cmd_verify(args) -> int:
    if args.cases < 1:
        raise ConfigError(f"--cases must be >= 1, got {args.cases}")
    t0 = time.perf_counter()
    suites = {
        "gradients": run_gradient_suite(),
        "hard_drop_equivalence": run_equivalence_suite(cases=args.cases,
                                                       seed=args.seed or 0),
        "parameter_count": run_parameter_suite(),
    }
    report = {"suites": suites, "elapsed_seconds": time.perf_counter() - t0}
    for name, result in suites.items():
        status = "PASS" if result["ok"] else "FAIL"
        detail = {k: v for k, v in result.items() if k != "ok"}
        print(f"[{status}] {name}: {detail}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, default=str)
        write_manifest(args.out, {"command": "verify", "cases": args.cases},
                       args, threads_applied=False)
    return 0 if all(s["ok"] for s in suites.values()) else 1


# ---------------------------------------------------------------------------
# train / eval
# ---------------------------------------------------------------------------


def write_metrics(path, records: list[dict]) -> None:
    """One JSON object per line, keys sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def cmd_train(args) -> int:
    from . import training as tr

    flags = {"seed": args.seed, "precision": args.precision}
    cfg = load_config(args.config, **{k: v for k, v in flags.items() if v is not None})
    dataset = cfg.data.examples()
    out_dir = args.out or "run"
    os.makedirs(out_dir, exist_ok=True)
    # perfbench's definition: a step's time is the gap between consecutive
    # callbacks, so step 1 is not timed
    stamps: list[float] = []
    result = tr.train(cfg.task, cfg.train, dataset,
                      step_callback=lambda _step, _model: stamps.append(time.perf_counter()))
    seconds = [b - a for a, b in zip(stamps, stamps[1:])]
    write_metrics(os.path.join(out_dir, "metrics.jsonl"), result.metrics)
    write_metrics(os.path.join(out_dir, "timings.jsonl"),
                  [{"step": s, "seconds": t} for s, t in enumerate(seconds, start=2)])
    tr.save_checkpoint(os.path.join(out_dir, "checkpoint.ckpt"), result.model)
    report = {"final_loss": result.metrics[-1]["loss"], "steps": len(result.metrics)}
    if cfg.eval.names_dataset:
        eval_report = tr.evaluate(result.model, cfg.eval.examples())
        report["eval_accuracy"] = eval_report.accuracy
        report["eval_answer_score_gap"] = eval_report.mean_answer_score_gap
        report["eval_answer_pruned_rate"] = eval_report.answer_pruned_rate
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    write_manifest(out_dir, cfg.raw, args, threads_applied=args._threads_applied)
    rate = (f", NPE/s {cfg.train.batch_size * len(seconds) / sum(seconds):.2f}"
            if seconds else "")
    print(f"trained {report['steps']} steps, final loss {report['final_loss']:.6f}{rate}")
    return 0


def _bucket_accuracy(examples, correct_flags, edges) -> dict[str, float]:
    """Accuracy per linearized-length bucket; empty buckets are absent."""
    import numpy as np

    from . import synth
    from .tables import linearized_length

    buckets: dict[str, list[bool]] = {}
    for ex, ok in zip(examples, correct_flags):
        buckets.setdefault(synth.bucket_label(linearized_length(ex), edges), []).append(ok)
    return {label: float(np.mean(flags)) for label, flags in sorted(buckets.items())}


def write_histogram(out_dir, gaps: list[float], bins: int = 20) -> str:
    import numpy as np

    path = os.path.join(out_dir, "histogram.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count\n")
        if gaps:
            counts, edges = np.histogram(np.asarray(gaps), bins=bins)
            for lo, hi, c in zip(edges[:-1], edges[1:], counts):
                fh.write(f"{lo:.6g},{hi:.6g},{int(c)}\n")
    return path


def cmd_eval(args) -> int:
    from . import pruning as pr
    from . import synth
    from . import training as tr

    cfg = load_config(args.config)
    # --dataset, else the eval section's dataset, else the data section's
    dataset = next((d for d in (synth.DataConfig(path=args.dataset), cfg.eval, cfg.data)
                    if d.names_dataset), None)
    if dataset is None:
        raise ConfigError("eval needs --dataset, or an eval or data section naming "
                          "a dataset by its path or its spec")
    model = tr.load_checkpoint(args.checkpoint)
    examples = dataset.examples()
    if args.oracle and any(ex.answer_coords is None for ex in examples):
        raise ContractError("--oracle keeps the answer rows, and an example with a "
                            "label instead of answer cells has none")
    out_dir = args.out or "eval"
    os.makedirs(out_dir, exist_ok=True)

    override = None
    if args.oracle:
        override = lambda s, ex: pr.oracle_scores(s, ex.answer_coords)
    report_obj = tr.evaluate(model, examples, scores_override=override)

    # independent re-tally of the accuracy from raw predictions
    golds = [ex.answer_coords if model.config.task_type == "cell_selection" else ex.label
             for ex in examples]
    recheck = (sum(p == g for p, g in zip(report_obj.predictions, golds))
               / len(examples)) if examples else 0.0

    report = {
        "accuracy": report_obj.accuracy,
        "accuracy_recheck": recheck,
        "n_examples": report_obj.n_examples,
        "mean_answer_score_gap": report_obj.mean_answer_score_gap,
        "answer_pruned_rate": report_obj.answer_pruned_rate,
        "bucket_accuracy": _bucket_accuracy(examples, report_obj.correct_flags,
                                            cfg.eval.bucket_edges),
        "oracle_scores": bool(args.oracle),
    }
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    write_histogram(out_dir, report_obj.gaps)
    write_manifest(out_dir, cfg.raw, args, threads_applied=args._threads_applied)
    print(f"accuracy {report['accuracy']:.4f} over {report['n_examples']} examples "
          f"(recheck {report['accuracy_recheck']:.4f})")
    return 0 if report["accuracy"] == recheck else 1


# ---------------------------------------------------------------------------
# params / gen
# ---------------------------------------------------------------------------


def parse_model_spec(spec: str):
    """Parse "TAPAS(size)@I" or "DoT(a->k->b)@I" (unicode arrows accepted);
    I and k must be integers >= 1, and k at most I."""

    def count(text: str) -> int:
        if not (text.isdecimal() and int(text) >= 1):
            raise ConfigError(f"model spec {spec!r}: {text!r} is not an integer >= 1")
        return int(text)

    text = spec.replace("→", "->").replace(" ", "")
    if "@" not in text:
        raise ConfigError(f"model spec {spec!r} needs an @input-length suffix")
    head, input_len = text.rsplit("@", 1)
    input_len = count(input_len)
    if head.upper().startswith("TAPAS(") and head.endswith(")"):
        size = head[6:-1]
        return ("tapas", size, None, None, input_len)
    if head.startswith("DoT(") and head.endswith(")"):
        inner = head[4:-1]
        parts = inner.split("->")
        if len(parts) != 3:
            raise ConfigError(f"model spec {spec!r}: expected DoT(size->k->size)")
        k = count(parts[1])
        if k > input_len:
            raise ConfigError(f"model spec {spec!r}: k={k} exceeds the input length {input_len}")
        return ("dot", parts[0], k, parts[2], input_len)
    raise ConfigError(f"cannot parse model spec {spec!r}")


# unknown sizes pass through to ``encoder.preset``, which refuses them
_SIZE_ALIASES = {"mini": "mini", "s": "small", "m": "medium", "l": "large",
                 "small": "small", "medium": "medium", "large": "large"}


def count_for_spec(spec: str) -> int:
    from . import encoder as enc

    kind, first, k, second, input_len = parse_model_spec(spec)
    first_cfg = enc.preset(_SIZE_ALIASES.get(first.lower(), first))
    if kind == "tapas":
        return enc.count_parameters(first_cfg, input_len)
    second_cfg = enc.preset(_SIZE_ALIASES.get(second.lower(), second))
    return (enc.count_parameters(first_cfg, input_len)
            + enc.count_parameters(second_cfg, k))


def cmd_params(args) -> int:
    rows = [(spec, count_for_spec(spec)) for spec in args.model_specs]
    width = max(len(s) for s, _ in rows)
    print(f"{'model':<{width}}  {'parameters':>14}  {'millions':>9}")
    for spec, count in rows:
        print(f"{spec:<{width}}  {count:>14,}  {count / 1e6:>8.1f}M")
    return 0


def cmd_gen(args) -> int:
    from . import synth, tables

    try:
        spec_kw = json.loads(args.spec) if args.spec else {}
    except ValueError as e:
        raise ConfigError(f"generator spec is not valid JSON ({e})") from None
    _build(synth.GeneratorSpec, spec_kw, "generator spec")
    if args.seed is not None:
        spec_kw["seed"] = args.seed
    spec = synth.GeneratorSpec(**spec_kw)
    examples = synth.generate(spec)
    tables.write_jsonl(args.output, examples)
    manifest = {"config_hash": config_hash(spec_kw), "spec": spec_kw,
                "commit": _git_commit(), "command": sys.argv[1:]}
    with open(str(args.output) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {len(examples)} examples to {args.output}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dotprune")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread count (recorded in the manifest)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="gradient, equivalence, and parameter suites")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("train", help="train from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--precision", choices=("f32", "f64"), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", default=None, help="JSONL examples")
    p.add_argument("--config", default=None)
    p.add_argument("--oracle", action="store_true",
                   help="inject oracle pruning scores (answer rows kept)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("params", help="parameter counts for model specs")
    p.add_argument("model_specs", nargs="+")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--output", required=True)
    p.add_argument("--spec", default=None, help="GeneratorSpec as JSON")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_gen)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(argv)
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    threads_applied = False
    if args.threads is not None and "numpy" not in sys.modules:
        for var in _THREAD_ENV:
            os.environ[var] = str(args.threads)
        threads_applied = True
    args._threads_applied = threads_applied
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
