#!/usr/bin/env python3
"""Multi-seed biasing study: does keyword prompting beat the plain model?

Trains the full stack per seed on the default corpus and prints, per
seed, WER and keyword F1 for the no-prompt baseline, prompt tuning with
a real spotter, and both oracle-prompt variants, plus the three
directional checks the mechanism is supposed to deliver.  It also prints
its set-up time (corpus, vocabulary, evaluation context) and its total
time.
"""

import argparse
import time
from dataclasses import replace

from kwbias.config import RunConfig
from kwbias.harness import evaluate_conditions, make_eval_context, train_stack
from kwbias.synth import generate_corpus
from kwbias.text import build_vocab

CONDITIONS = ["baseline", "pt", "pt-oracle", "ft-oracle"]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--steps-scale", type=float, default=1.0)
    args = parser.parse_args()

    start = time.monotonic()
    cfg = RunConfig().scale_steps(args.steps_scale)
    splits, _ = generate_corpus(cfg.synth_spec())
    vocab = build_vocab([u.text for u in splits["train"]], cfg.vocab_target)
    ctx = make_eval_context(cfg, vocab, [u.text for u in splits["train"]])
    print(f"set-up (corpus, vocabulary, context): {time.monotonic() - start:.2f}s")

    print(f"{'seed':>4}  {'cond':<12} {'WER':>7} {'F1':>7}")
    wins = {"f1_gap": 0, "wer_order": 0, "sandwich": 0}
    for seed in args.seeds:
        t0 = time.monotonic()
        stack = train_stack(replace(cfg, seed=seed), splits["train"], vocab)
        reports = {r.condition: r for r in evaluate_conditions(
            CONDITIONS, stack, stack["kws"], splits["test"], ctx)}
        for name in CONDITIONS:
            r = reports[name]
            print(f"{seed:>4}  {name:<12} {r.wer.wer:>7.4f} {r.f1.f1:>7.4f}")
        base, pt, pto = reports["baseline"], reports["pt"], reports["pt-oracle"]
        wins["f1_gap"] += pto.f1.f1 >= base.f1.f1 + 0.10
        wins["wer_order"] += pto.wer.wer <= base.wer.wer
        wins["sandwich"] += base.f1.f1 <= pt.f1.f1 <= pto.f1.f1
        print(f"      ({time.monotonic() - t0:.0f}s)")
    n = len(args.seeds)
    print(f"\nF1(pt-oracle) >= F1(baseline)+0.10 : {wins['f1_gap']}/{n} seeds")
    print(f"WER(pt-oracle) <= WER(baseline)    : {wins['wer_order']}/{n} seeds")
    print(f"F1 baseline <= pt <= pt-oracle     : {wins['sandwich']}/{n} seeds")
    print(f"total: {time.monotonic() - start:.0f}s")


if __name__ == "__main__":
    main()
