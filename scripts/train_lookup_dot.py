"""End-to-end joint training on the synthetic lookup task.

A mini scoring tower prunes 64-token inputs down to k tokens for a small
task tower; both learn jointly from the task loss alone. Prints eval
accuracy and the answer-score gap as training progresses.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dotprune import synth, training as tr
from dotprune.tables import Vocabulary, linearized_length


def signed(value, digits):
    """``value`` with its sign; n/a for None, when no eval example kept an
    answer token after preselection."""
    return "n/a" if value is None else f"{value:+.{digits}f}"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--k", type=int, default=16)
    ap.add_argument("--pre-limit", type=int, default=64)
    ap.add_argument("--lr", type=float, default=tr.TrainConfig.learning_rate)
    ap.add_argument("--batch", type=int, default=2)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--loss-mode", choices=("J", "P", "PJ"), default="J")
    ap.add_argument("--n-train", type=int, default=4500)
    ap.add_argument("--n-eval", type=int, default=500)
    ap.add_argument("--eval-every", type=int, default=200)
    ap.add_argument("--target", type=float, default=None,
                    help="stop once eval accuracy reaches this")
    args = ap.parse_args()

    spec = synth.GeneratorSpec(seed=123, n_examples=args.n_train + args.n_eval,
                               min_rows=7, max_rows=9, min_cols=4, max_cols=4,
                               min_cell_tokens=2, max_cell_tokens=2, vocab_size=50)
    data = synth.generate(spec)
    train_set, eval_set = data[:args.n_train], data[args.n_train:]
    print(f"dataset: {len(train_set)} train / {len(eval_set)} eval, "
          f"min length {min(linearized_length(ex) for ex in data)}")

    dot_cfg = tr.DoTConfig(pruning_preset="mini", task_preset="small",
                           pre_limit=args.pre_limit, k=args.k,
                           loss_mode=args.loss_mode)
    train_cfg = tr.TrainConfig(learning_rate=args.lr, warmup_ratio=0.1,
                               num_steps=args.steps, batch_size=args.batch,
                               seed=args.seed, precision="f32")
    model = tr.build_model(dot_cfg, Vocabulary.from_examples(data),
                           dtype=np.float32, seed=args.seed)

    t0 = time.perf_counter()
    best = {"acc": 0.0}

    def callback(step, m):
        if step % args.eval_every == 0 or step == args.steps:
            rep = tr.evaluate(m, eval_set)
            best["acc"] = max(best["acc"], rep.accuracy)
            print(f"step {step:5d}  acc {rep.accuracy:.3f}  "
                  f"gap {signed(rep.mean_answer_score_gap, 3)}  "
                  f"answer-pruned {rep.answer_pruned_rate:.3f}  "
                  f"[{time.perf_counter() - t0:.0f}s]", flush=True)

    def stop(step, m):
        return args.target is not None and best["acc"] >= args.target

    result = tr.train(dot_cfg, train_cfg, train_set, model=model,
                      step_callback=callback, stop_condition=stop)
    final = tr.evaluate(result.model, eval_set)
    print(f"final: accuracy {final.accuracy:.3f}, "
          f"mean answer-score gap {signed(final.mean_answer_score_gap, 4)}, "
          f"wall {time.perf_counter() - t0:.0f}s")


if __name__ == "__main__":
    main()
