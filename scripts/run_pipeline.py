#!/usr/bin/env python3
"""End-to-end demo: data, all four training stages, evaluation, attention.

Everything below shells through the package CLI so the run directory
layout matches what the commands document; use --steps-scale to shrink
the stage step counts for a quick smoke run.
"""

import argparse
import sys
from pathlib import Path

from kwbias.cli import main as kwbias_main
from kwbias.config import ConfigError, RunConfig


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
    run(["train-asr", "--data", str(data), "--out", str(root / "asr"),
         "--steps", str(cfg.steps_asr), *common])
    run(["train-kws", "--data", str(data), "--out", str(root / "kws"),
         "--asr-ckpt", str(root / "asr" / "base-asr.ckpt"),
         "--steps", str(cfg.steps_kws), *common])
    run(["finetune", "--data", str(data), "--out", str(root / "ft"),
         "--kws-ckpt", str(root / "kws" / "kws.ckpt"),
         "--steps", str(cfg.steps_ft), *common])
    run(["prompt-tune", "--data", str(data), "--out", str(root / "pt"),
         "--kws-ckpt", str(root / "kws" / "kws.ckpt"),
         "--steps", str(cfg.steps_pt), *common])
    run(["evaluate", "--data", str(data), "--out", str(root / "eval"),
         "--conditions", "baseline,baseline+prompt,ft,pt,ft-oracle,pt-oracle",
         "--base-ckpt", str(root / "asr" / "base-asr.ckpt"),
         "--ft-ckpt", str(root / "ft" / "ft.ckpt"),
         "--pt-ckpt", str(root / "pt" / "pt.ckpt"),
         "--kws-ckpt", str(root / "kws" / "kws.ckpt"), *common])
    run(["attn-export", "--data", str(data), "--out", str(root / "attn"),
         "--pt-ckpt", str(root / "pt" / "pt.ckpt"), "--limit", "12", *common])
    print(f"\nartifacts under {root}/")


if __name__ == "__main__":
    main()
