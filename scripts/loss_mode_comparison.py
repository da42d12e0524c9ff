"""Compare the three training-loss modes on the lookup task over seeds.

J learns the scorer through the attention bias alone, P detaches the bias
and adds an auxiliary relevance loss, PJ combines both. Reports median
final accuracy per mode.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dotprune import synth, training as tr
from dotprune.tables import Vocabulary


def run_mode(mode, seeds, data, eval_set, vocab, steps, lr, batch, dot_kw):
    accs = []
    for seed in seeds:
        cfg = tr.DoTConfig(loss_mode=mode, **dot_kw)
        model = tr.build_model(cfg, vocab, dtype=np.float32, seed=seed)
        tr.train(cfg, tr.TrainConfig(learning_rate=lr, warmup_ratio=0.1,
                                     num_steps=steps, batch_size=batch,
                                     seed=seed, precision="f32"),
                 data, model=model)
        acc = tr.evaluate(model, eval_set).accuracy
        accs.append(acc)
        print(f"  {mode} seed {seed}: accuracy {acc:.3f}", flush=True)
    return accs


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=600)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--lr", type=float, default=tr.TrainConfig.learning_rate)
    ap.add_argument("--batch", type=int, default=2)
    ap.add_argument("--modes", nargs="+", default=["J", "P", "PJ"])
    args = ap.parse_args()

    spec = synth.GeneratorSpec(seed=55, n_examples=1200, min_rows=4, max_rows=5,
                               min_cols=3, max_cols=3, min_cell_tokens=1,
                               max_cell_tokens=2, vocab_size=40)
    data = synth.generate(spec)
    train_set, eval_set = data[:1000], data[1000:]
    vocab = Vocabulary.from_examples(data)
    dot_kw = dict(pruning_preset="mini", task_preset="mini", pre_limit=48, k=12)

    medians = {}
    for mode in args.modes:
        accs = run_mode(mode, args.seeds, train_set, eval_set, vocab,
                        args.steps, args.lr, args.batch, dot_kw)
        medians[mode] = float(np.median(accs))
        print(f"{mode}: median {medians[mode]:.3f} over seeds {args.seeds}")
    if "J" in medians and "P" in medians:
        verdict = ("holds" if medians["J"] >= medians["P"] - 0.02
                   else "INVERTED (finding)")
        print(f"joint-vs-auxiliary ordering {verdict}: "
              f"J={medians['J']:.3f} P={medians['P']:.3f}")


if __name__ == "__main__":
    main()
