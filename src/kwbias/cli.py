"""Command-line interface.

Subcommands cover the whole pipeline: `gen-data`, the four training
stages (`train-asr`, `train-kws`, `finetune`, `prompt-tune`, declared
once in `TRAIN_COMMANDS` over `training.STAGES`), `evaluate`, `ablate`,
`attn-export`, and a single-utterance `transcribe` demo.  Every
subcommand resolves its configuration (file < flags), runs, and writes
`config.resolved` into the output directory, which is enough to rerun
it bit-identically.  Its provenance lines record each input
dataset and checkpoint with the container digest its loader verified,
so no input is read or hashed a second time; a dataset's digest covers
its transcripts, which its header holds.  `evaluate` and `attn-export`
use `train.ds` only for its transcripts (the tf-idf table behind every
keyword draw), so they record it by its verified header digest and never
read its frames.  A WAV or word-list input, which has no container, is
recorded with the sha256 of its bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import sys
from pathlib import Path

from .audio import SAMPLE_RATE_HZ, load_wav, log_mel, resample
from .config import ConfigError, RunConfig, parse_config, write_resolved
from .errors import KwbiasError
from .harness import (
    CONDITIONS,
    ablate_prefix_lengths,
    ablation_csv,
    ablation_table,
    evaluate_conditions,
    export_attention,
    make_eval_context,
    write_attention_record,
    write_reports,
)
from .model import encode, init_params, kws_detect, same_encoder, transcribe_greedy
from .prompts import Keyword, KeywordSet, assemble_prompt
from .synth import (
    DatasetIndexError,
    dataset_load,
    dataset_save,
    dataset_transcripts,
    generate_corpus,
    word_bank_load_words,
    word_bank_save,
)
from .text import Vocab, build_vocab, normalize
from .training import checkpoint_load, checkpoint_save, stage_for, train_run


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    merged: dict[str, str] = {}
    for item in args.set or []:
        key, eq, value = item.partition("=")
        if not eq:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        merged[key.strip()] = value.strip()
    if args.seed is not None:
        merged["seed"] = str(args.seed)
    return merged


def _config(args: argparse.Namespace, extra: dict[str, str] | None = None) -> RunConfig:
    overrides = _overrides(args)
    overrides.update(extra or {})
    return parse_config(args.config, overrides)


Source = tuple[Path, str]  # an input file and "digest=<verified container digest>" or "sha256=<of its bytes>"


def _provenance(command: str, inputs: dict[str, Source]) -> dict[str, str]:
    record = {"command": command}
    for role, (path, content) in sorted(inputs.items()):
        record[f"input.{role}"] = f"{path} {content}"
    return record


def _load_checkpoint(path: Path | str, vocab: Vocab, reuse=None):
    """(params, meta, source) of a checkpoint written for `vocab`; `reuse` as `checkpoint_load` takes it."""
    params, meta = checkpoint_load(path, vocab.content_hash, reuse)
    return params, meta, (Path(path), f"digest={meta['digest']}")


def _load_data(data_dir: Path | str, splits: tuple[str, ...], header_only: tuple[str, ...] = ()):
    """The vocabulary, then per split its utterances, or for a split named in
    `header_only` just its transcripts, read from the verified header
    without a frame, and, as `<split>-data`, its source."""
    data_dir = Path(data_dir)
    vocab = Vocab.load(data_dir / "vocab.tsv")
    sets, sources = {}, {}
    for name in splits:
        path = data_dir / f"{name}.ds"
        sets[name], digest = (dataset_transcripts if name in header_only else dataset_load)(path)
        sources[f"{name}-data"] = (path, f"digest={digest}")
    return vocab, sets, sources


def cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _config(args)
    out = _out_dir(args)
    spec = cfg.synth_spec()
    splits, bank = generate_corpus(spec)
    for name, utts in splits.items():
        dataset_save(out / f"{name}.ds", utts, spec)
    vocab = build_vocab([u.text for u in splits["train"]], cfg.vocab_target)
    vocab.save(out / "vocab.tsv")
    word_bank_save(out / "words.json", bank)
    write_resolved(out, cfg, _provenance("gen-data", {}))
    print(f"wrote {sum(len(u) for u in splits.values())} utterances and a "
          f"{len(vocab)}-unit vocabulary to {out}")
    return 0


# (subcommand, training mode, flag naming the source stage's checkpoint, help)
TRAIN_COMMANDS = (
    ("train-asr", "base-asr", None, "train the base recognizer (encoder+decoder)"),
    ("train-kws", "kws", "--asr-ckpt", "train the keyword spotting head on a frozen base"),
    ("finetune", "ft", "--kws-ckpt", "fine-tune the decoder on keyword-prompted data"),
    ("prompt-tune", "pt", "--kws-ckpt", "train the soft prompt prefix, everything else frozen"),
)


def cmd_train(args: argparse.Namespace) -> int:
    """Train `args.mode` from the `args.source_flag` checkpoint, or from a fresh model."""
    stage = stage_for(args.mode)
    extra: dict[str, str] = {}
    if args.steps is not None:
        extra[stage.steps_key] = str(args.steps)
    if args.learning_rate is not None:
        extra[stage.lr_key] = str(args.learning_rate)
    if getattr(args, "prefix_len", None) is not None:
        extra["prefix_len"] = str(args.prefix_len)
    cfg = _config(args, extra)
    tc = cfg.train_config(stage.mode)
    out = _out_dir(args)
    vocab, sets, inputs = _load_data(args.data, ("train",))
    if stage.source is None:
        params = init_params(cfg.model_config(len(vocab)), cfg.seed)
    else:
        params, _, inputs[args.source_flag.removeprefix("--")] = _load_checkpoint(args.source_ckpt, vocab)

    losses = train_run(tc, sets["train"], vocab, params)
    ckpt_out = out / f"{stage.mode}.ckpt"
    checkpoint_save(ckpt_out, params, vocab.content_hash, cfg.seed)
    (out / "metrics.log").write_text("".join(f"{i}\t{v!r}\n" for i, v in enumerate(losses)), encoding="utf-8")
    write_resolved(out, cfg, _provenance(stage.mode, inputs))
    print(f"{stage.mode}: {tc.steps} steps, final loss {losses[-1]:.4f}, checkpoint {ckpt_out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _config(args)
    conditions = [c.strip() for c in args.conditions.split(",") if c.strip()]
    if not conditions:
        raise ConfigError(f"--conditions names no condition: {args.conditions!r}")
    repeated = [c for c in dict.fromkeys(conditions) if conditions.count(c) > 1]
    if repeated:
        raise ConfigError(f"--conditions names {', '.join(repeated)} more than once: {args.conditions!r}")
    out = _out_dir(args)
    vocab, sets, sources = _load_data(args.data, ("train", "test"), header_only=("train",))

    inputs = sources  # train.ds fixes every keyword draw through its tf-idf table
    checkpoints = {}
    for role, flag in (("base", args.base_ckpt), ("ft", args.ft_ckpt), ("pt", args.pt_ckpt)):
        if flag is not None:
            checkpoints[role], _, inputs[f"{role}-ckpt"] = _load_checkpoint(flag, vocab)
    kws_params = None
    if args.kws_ckpt is not None:
        kws_params, _, inputs["kws-ckpt"] = _load_checkpoint(args.kws_ckpt, vocab)

    ctx = make_eval_context(cfg, vocab, sets["train"])
    reports = evaluate_conditions(conditions, checkpoints, kws_params, sets["test"], ctx)
    write_reports(out, reports)
    write_resolved(out, cfg, _provenance("evaluate", inputs))
    print((out / "report.txt").read_text(), end="")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    extra = {"ablate_lengths": args.lengths} if args.lengths else {}
    cfg = _config(args, extra)
    out = _out_dir(args)
    vocab, sets, sources = _load_data(args.data, ("train", "test"))
    stack, _, kws_source = _load_checkpoint(args.kws_ckpt, vocab)
    ctx = make_eval_context(cfg, vocab, [u.text for u in sets["train"]])
    rows = ablate_prefix_lengths(stack, cfg.ablation_lengths(), sets["train"], sets["test"], ctx)
    (out / "ablation.csv").write_text(ablation_csv(rows), encoding="utf-8")
    (out / "ablation.txt").write_text(ablation_table(rows), encoding="utf-8")
    write_resolved(out, cfg, _provenance("ablate", {"kws-ckpt": kws_source, **sources}))
    print((out / "ablation.txt").read_text(), end="")
    return 0


def cmd_attn_export(args: argparse.Namespace) -> int:
    if args.limit is not None and args.limit < 0:
        raise ConfigError(f"--limit must be >= 0, got {args.limit}")
    extra = {"attn_layer": str(args.layer)} if args.layer is not None else {}
    cfg = _config(args, extra)
    out = _out_dir(args)
    vocab, sets, sources = _load_data(args.data, ("train", "test"), header_only=("train",))
    params, _, pt_source = _load_checkpoint(args.pt_ckpt, vocab)
    words_path = Path(args.data) / "words.json"
    words, words_sha256 = word_bank_load_words(words_path)
    ctx = make_eval_context(cfg, vocab, sets["train"])
    records = export_attention(params, sets["test"], ctx, words["jargon"], cfg.attn_layer,
                               limit=args.limit)
    attn_dir = out / "attn"
    attn_dir.mkdir(exist_ok=True)
    for record in records:
        write_attention_record(attn_dir / f"utt_{record.index:04d}.mat", record)
    scored = [r for r in records if r.keyword_hit is not None]
    hits = sum(r.keyword_hit for r in scored)
    summary = (
        f"records: {len(records)}\n"
        f"keyword-peak hits: {hits}/{len(scored)}\n"
    )
    (out / "attn_summary.txt").write_text(summary, encoding="utf-8")
    inputs = {"pt-ckpt": pt_source, "words": (words_path, f"sha256={words_sha256}"), **sources}
    write_resolved(out, cfg, _provenance("attn-export", inputs))
    print(summary, end="")
    return 0


def cmd_transcribe(args: argparse.Namespace) -> int:
    """Transcribe one WAV or `--index` utterance of the test split, reading
    only that utterance.  A `--kws-ckpt` spotter is loaded against `--ckpt`:
    every tensor the two files record with equal digests (after `kws`
    training from a shared base, the encoder and decoder) is read once and
    shared by both models, which is sound because transcribe trains
    neither; the spotter re-encodes only if its encoder differs."""
    surfaces = [normalize(k) for k in (args.keywords or "").split(",") if normalize(k)]
    if args.kws_ckpt is not None and not surfaces:
        raise ConfigError("transcribe --kws-ckpt needs --keywords for the spotter to filter")
    cfg = _config(args)
    out = _out_dir(args)
    data_dir = Path(args.data) if args.data else None
    if args.wav is None and data_dir is None:
        raise ConfigError("transcribe needs either --wav or --data/--index")
    if not args.vocab and data_dir is None:
        raise ConfigError("transcribe --wav needs --vocab or --data to find the vocabulary")
    vocab = Vocab.load(Path(args.vocab) if args.vocab else data_dir / "vocab.tsv")
    params, meta, ckpt_source = _load_checkpoint(args.ckpt, vocab)
    inputs = {"ckpt": ckpt_source}

    if args.wav is not None:
        blob = Path(args.wav).read_bytes()
        inputs["wav"] = (Path(args.wav), f"sha256={hashlib.sha256(blob).hexdigest()}")
        wave = resample(load_wav(io.BytesIO(blob)), SAMPLE_RATE_HZ)
        frames = log_mel(wave, params.config.n_mels)
    else:
        try:
            utt, digest = dataset_load(data_dir / "test.ds", args.index)
        except DatasetIndexError as exc:
            raise ConfigError(f"--index {args.index} is outside the {exc.size}-utterance test split") from None
        inputs["test-data"] = (data_dir / "test.ds", f"digest={digest}")
        frames = utt.frames

    u = encode(params, [frames])
    prefix = params.prefix.get("q")
    lines = []
    keywords = KeywordSet(tuple(Keyword(surface=s, tokens=tuple(vocab.word_tokens(s)), positive=True)
                                for s in dict.fromkeys(surfaces)))
    if args.kws_ckpt is not None:
        kws_params, _, inputs["kws-ckpt"] = _load_checkpoint(args.kws_ckpt, vocab, reuse=(params, meta))
        kws_u = u if same_encoder(kws_params, params) else encode(kws_params, [frames])
        (pred,) = kws_detect(kws_params, kws_u, [[kw.tokens for kw in keywords]], threshold=cfg.kws_threshold)
        keywords = [kw for kw, hit in zip(keywords, pred.decisions, strict=True) if hit]
        lines.append("detected: " + (", ".join(kw.surface for kw in keywords) or "(none)"))
    prompt = assemble_prompt(vocab, keywords)

    # a chunk of one, through the path evaluation decodes with
    (ids,) = transcribe_greedy(params, u, [prompt], prefix, vocab.eot_id, params.config.max_tgt_len)
    lines.append("transcript: " + normalize(vocab.detokenize(ids, skip_reserved=True)))
    text = "\n".join(lines) + "\n"
    (out / "transcript.txt").write_text(text, encoding="utf-8")
    write_resolved(out, cfg, _provenance("transcribe", inputs))
    print(text, end="")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="key = value configuration file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--out", required=True, help="output directory for this run")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kwbias",
        description="Keyword-guided contextual biasing for a compact encoder-decoder ASR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic corpus and vocabulary")
    _add_common(p)
    p.set_defaults(fn=cmd_gen_data)

    for command, mode, source_flag, help_text in TRAIN_COMMANDS:
        stage = stage_for(mode)
        p = sub.add_parser(command, help=help_text)
        _add_common(p)
        p.add_argument("--data", required=True, help="directory produced by gen-data")
        p.add_argument("--steps", type=int, default=None, help="override this stage's step count")
        p.add_argument("--learning-rate", type=float, default=None, help="override this stage's learning rate")
        if source_flag is not None:
            p.add_argument(source_flag, dest="source_ckpt", metavar="CKPT", required=True,
                           help=f"checkpoint of the {stage.source} stage")
        if "prefix" in stage.trainable:
            p.add_argument("--prefix-len", type=int, default=None, help="number of soft prompt tokens")
        p.set_defaults(fn=cmd_train, mode=mode, source_flag=source_flag)

    p = sub.add_parser("evaluate", help="score prompting conditions on the test split")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--conditions", default="baseline,pt,pt-oracle",
                   help=f"comma list from {','.join(CONDITIONS)}")
    p.add_argument("--base-ckpt", default=None)
    p.add_argument("--ft-ckpt", default=None)
    p.add_argument("--pt-ckpt", default=None)
    p.add_argument("--kws-ckpt", default=None)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("ablate", help="prompt-tune and score a range of prefix lengths")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--kws-ckpt", required=True)
    p.add_argument("--lengths", default=None, help=f"comma list, default {RunConfig.ablate_lengths}")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("attn-export", help="export prompt-attention matrices for plotting")
    _add_common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--pt-ckpt", required=True)
    p.add_argument("--layer", type=int, default=None, help="decoder layer to export")
    p.add_argument("--limit", type=int, default=None, help="cap on exported utterances")
    p.set_defaults(fn=cmd_attn_export)

    p = sub.add_parser("transcribe", help="transcribe one WAV or dataset utterance")
    _add_common(p)
    p.add_argument("--ckpt", required=True, help="recognizer checkpoint")
    p.add_argument("--wav", default=None, help="16-bit PCM WAV file")
    p.add_argument("--data", default=None, help="dataset directory (with --index)")
    p.add_argument("--index", type=int, default=0, help="utterance index into the test split")
    p.add_argument("--vocab", default=None, help="vocabulary file (defaults to data dir)")
    p.add_argument("--keywords", default=None, help="comma-separated biasing keywords")
    p.add_argument("--kws-ckpt", default=None, help="filter --keywords through the spotter")
    p.set_defaults(fn=cmd_transcribe)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KwbiasError, OSError) as exc:  # OSError: a missing or unreadable input file
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
