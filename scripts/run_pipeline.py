#!/usr/bin/env python3
"""End-to-end demo: data, all four training stages, evaluation, attention, one transcription.

Everything below shells through the package CLI so the run directory
layout matches what the commands document; use --steps-scale to shrink
the stage step counts for a quick smoke run.  The training stages run as
`kwbias.cli.TRAIN_COMMANDS` lists them, each in a directory named by its
stage role: e.g. `runs/pipeline/base`.
"""

import argparse
import sys
from pathlib import Path

from kwbias.cli import TRAIN_COMMANDS, main as kwbias_main
from kwbias.config import ConfigError, RunConfig
from kwbias.harness import CONDITIONS
from kwbias.synth import dataset_load
from kwbias.training import stage_for


def run(args: list[str]) -> None:
    print("+ kwbias " + " ".join(args), flush=True)
    rc = kwbias_main(args)
    if rc != 0:
        sys.exit(rc)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path("runs/pipeline"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--steps-scale", type=float, default=1.0,
                        help="multiply every stage's default step count")
    args = parser.parse_args()

    try:
        cfg = RunConfig().scale_steps(args.steps_scale)
    except ConfigError as exc:
        parser.error(str(exc))
    root = args.root
    data = root / "data"
    common = ["--seed", str(args.seed)]

    run(["gen-data", "--out", str(data), *common])
    ckpts: dict[str, Path] = {}  # checkpoint of each trained stage, by role
    for command, mode, source_flag, _ in TRAIN_COMMANDS:
        stage = stage_for(mode)
        source = [] if source_flag is None else [source_flag, str(ckpts[stage.source])]
        run([command, "--data", str(data), "--out", str(root / stage.role), *source,
             "--steps", str(cfg.train_config(mode).steps), *common])
        ckpts[stage.role] = root / stage.role / f"{mode}.ckpt"
    run(["evaluate", "--data", str(data), "--out", str(root / "eval"),
         "--conditions", ",".join(CONDITIONS),
         "--base-ckpt", str(ckpts["base"]), "--ft-ckpt", str(ckpts["ft"]),
         "--pt-ckpt", str(ckpts["pt"]), "--kws-ckpt", str(ckpts["kws"]), *common])
    run(["attn-export", "--data", str(data), "--out", str(root / "attn"),
         "--pt-ckpt", str(ckpts["pt"]), "--limit", "12", *common])
    # one request of the serving path: it reads only utterance 0 of test.ds, and
    # only the spotter tensors that differ from the prompt-tuned model's
    words = dataset_load(data / "test.ds", 0)[0].text.split()
    run(["transcribe", "--data", str(data), "--index", "0", "--out", str(root / "transcribe"),
         "--ckpt", str(ckpts["pt"]), "--kws-ckpt", str(ckpts["kws"]), "--keywords", ",".join(words), *common])
    print(f"\nartifacts under {root}/")


if __name__ == "__main__":
    main()
