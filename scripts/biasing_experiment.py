#!/usr/bin/env python3
"""Multi-seed biasing study: does keyword prompting beat the plain model?

Trains the full stack per seed on the default corpus and prints, per
seed, WER and keyword F1 for the no-prompt baseline, prompt tuning with
a real spotter, and both oracle-prompt variants, plus the three
directional checks the mechanism is supposed to deliver.  It also prints
each seed's time, of which its set-up (corpus, vocabulary, evaluation
context), and the total time.

Seeds run in a pool of one process per seed, at most one per core, and
every process runs BLAS on one thread.  Each worker builds the set-up
itself, which costs well under a second against a seed's training, and
rows print in seed order, so the output is that of running the seeds one
after another except for the timing lines.

    PYTHONPATH=src python scripts/biasing_experiment.py --seeds 0 1 --steps-scale 0.05
"""

import os

# One thread per process: pin BLAS/OpenMP before numpy is imported.  The
# spawned seed workers inherit the environment, so they do not
# oversubscribe the cores that the pool already fills.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import multiprocessing  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from functools import partial  # noqa: E402

from kwbias.config import ConfigError, RunConfig  # noqa: E402
from kwbias.harness import evaluate_conditions, make_eval_context, train_stack  # noqa: E402
from kwbias.synth import generate_corpus  # noqa: E402
from kwbias.text import build_vocab  # noqa: E402

CONDITIONS = ["baseline", "pt", "pt-oracle", "ft-oracle"]


def run_seed(cfg: RunConfig, seed: int) -> tuple[dict[str, tuple[float, float]], float, float]:
    """({condition: (WER, F1)}, set-up seconds, total seconds) of one seed."""
    t0 = time.monotonic()
    splits, _ = generate_corpus(cfg.synth_spec())
    vocab = build_vocab([u.text for u in splits["train"]], cfg.vocab_target)
    ctx = make_eval_context(cfg, vocab, [u.text for u in splits["train"]])
    set_up = time.monotonic() - t0
    stack = train_stack(replace(cfg, seed=seed), splits["train"], vocab)
    reports = evaluate_conditions(CONDITIONS, stack, stack["kws"], splits["test"], ctx)
    scores = {r.condition: (r.wer.wer, r.f1.f1) for r in reports}
    return scores, set_up, time.monotonic() - t0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--steps-scale", type=float, default=1.0)
    args = parser.parse_args()

    start = time.monotonic()
    try:
        cfg = RunConfig().scale_steps(args.steps_scale)
    except ConfigError as exc:
        parser.error(str(exc))
    workers = min(len(args.seeds), os.cpu_count() or 1)
    print(f"{'seed':>4}  {'cond':<12} {'WER':>7} {'F1':>7}")
    wins = {"f1_gap": 0, "wer_order": 0, "sandwich": 0}
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        # imap hands results back in seed order, each as soon as it and
        # every earlier seed are done
        for seed, (scores, set_up, seconds) in zip(args.seeds, pool.imap(partial(run_seed, cfg), args.seeds)):
            for name in CONDITIONS:
                wer, f1 = scores[name]
                print(f"{seed:>4}  {name:<12} {wer:>7.4f} {f1:>7.4f}", flush=True)
            (base_wer, base_f1), (_, pt_f1), (pto_wer, pto_f1) = (
                scores["baseline"], scores["pt"], scores["pt-oracle"])
            wins["f1_gap"] += pto_f1 >= base_f1 + 0.10
            wins["wer_order"] += pto_wer <= base_wer
            wins["sandwich"] += base_f1 <= pt_f1 <= pto_f1
            print(f"      ({seconds:.0f}s, of which set-up {set_up:.2f}s)", flush=True)
    n = len(args.seeds)
    print(f"\nF1(pt-oracle) >= F1(baseline)+0.10 : {wins['f1_gap']}/{n} seeds")
    print(f"WER(pt-oracle) <= WER(baseline)    : {wins['wer_order']}/{n} seeds")
    print(f"F1 baseline <= pt <= pt-oracle     : {wins['sandwich']}/{n} seeds")
    print(f"total: {time.monotonic() - start:.0f}s with {workers} worker process(es)")


if __name__ == "__main__":
    main()
