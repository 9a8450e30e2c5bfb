"""End-to-end evaluation: condition reports, prefix-length ablation,
attention export, and the four-stage training stack.

Per-utterance evaluation keyword sets are derived from (seed, utterance
index) alone, so every condition scores against identical keywords and a
rerun with the same seed reproduces the report byte for byte.  A context
draws each set once and keeps it.

An evaluation pass works through the test set in chunks of `DECODE_CHUNK`
utterances, from encoder to decoder.  Each model reads its own encoder's
output, one packed `encode` call per chunk: the decoding model, and for
spotter conditions the keyword spotter too.  One `EncoderPasses` table per
evaluation call holds those outputs, and models that `same_encoder` finds
equal read one shared pass over the test set.  Per chunk, a spotter
condition makes one `kws_detect` call over every utterance's keywords, the
chunk's prompts follow, and one `transcribe_greedy` call decodes it; each
row decodes as it would alone, up to the last bits of its distributions,
and stops at its own `model.decode_budget`.

Every training run here takes its settings from `RunConfig.train_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import RunConfig
from .errors import KwbiasError
from .metrics import KeywordF1, WerBreakdown, compute_wer, keyword_f1
from .model import (
    ModelParams,
    Packed,
    decoder_layer,
    encode,
    init_params,
    kws_detect,
    param_count,
    prompt_attention_block,
    same_encoder,
    transcribe_greedy,
)
from .prompts import KeywordSet, assemble_prompt, kws_to_prompt, prompt_keyword_spans, select_eval_keywords
from .rng import stream
from .synth import Utterance
from .text import TfidfTable, Vocab, find_subsequence, normalize, tfidf_scores
from .training import STAGES, train_run


class EvalError(KwbiasError):
    pass


# (trained model, prompt source) of each condition: the prompt lists the
# keywords the spotter flags, the ground-truth positives, or none at all.
_CONDITIONS = {
    "baseline": ("base", "none"),
    "baseline+prompt": ("base", "spotter"),
    "ft": ("ft", "spotter"),
    "pt": ("pt", "spotter"),
    "ft-oracle": ("ft", "oracle"),
    "pt-oracle": ("pt", "oracle"),
}
CONDITIONS = tuple(_CONDITIONS)


def _condition(condition: str) -> tuple[str, str]:
    """(checkpoint role, prompt source) of a condition; an unknown name is an EvalError."""
    if condition not in _CONDITIONS:
        raise EvalError(f"unknown condition {condition!r}, expected one of {CONDITIONS}")
    return _CONDITIONS[condition]


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    wer: WerBreakdown
    f1: KeywordF1
    trainable_params: int


@dataclass(frozen=True)
class EvalContext:
    """Everything an evaluation pass needs besides the model parameters."""

    cfg: RunConfig
    vocab: Vocab
    tfidf: TfidfTable
    # draws made so far; `dataclasses.replace` starts an empty one
    _drawn: dict[tuple[int, str], KeywordSet] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def keywords_for(self, index: int, transcript: str) -> KeywordSet:
        key = (index, transcript)
        if key not in self._drawn:
            self._drawn[key] = select_eval_keywords(
                self.vocab,
                transcript,
                self.tfidf,
                stream(self.cfg.seed, "eval-kw", index),
                n_positives=self.cfg.eval_positives,
                n_negatives=self.cfg.eval_keywords - self.cfg.eval_positives,
            )
        return self._drawn[key]


def make_eval_context(cfg: RunConfig, vocab: Vocab, train_texts: Sequence[str]) -> EvalContext:
    return EvalContext(cfg, vocab, tfidf_scores(train_texts))


# Test utterances evaluated together, from encoder to decoder.  A decode
# step's cost is mostly per-call numpy overhead, which a chunk's rows share,
# while peak memory grows with a chunk's rows.  On the benchmark's `eval`
# workload 32 rows read 711 utterances/s against 657 for 16 and peak RSS
# 145-154 MB against 137.5, past its 5 % bound.  A chunk's first decode call
# holds three (rows, d_ff) feed-forward arrays (10.2 MiB at 32 rows, 5.2 at
# 16: 1,734 and 886 rows at the default d_ff of 256) and a self-attention
# cache of twice the slots (8 MiB against 4).
DECODE_CHUNK = 16


class EncoderPasses:
    """Encoder outputs by test set and encoder, one `Packed` per chunk: a
    model reads the passes of the first model before it that `same_encoder`
    finds equal on the same test set, and otherwise makes its own."""

    def __init__(self) -> None:
        self._passes: list[tuple[Sequence[Utterance], ModelParams, list[Packed]]] = []

    def __call__(self, params: ModelParams, test_set: Sequence[Utterance]) -> list[Packed]:
        for seen_set, seen, outputs in self._passes:
            if seen_set is test_set and same_encoder(seen, params):
                return outputs
        outputs = [encode(params, [utt.frames for utt in test_set[start : start + DECODE_CHUNK]])
                   for start in range(0, len(test_set), DECODE_CHUNK)]
        self._passes.append((test_set, params, outputs))
        return outputs


def _trainable_count(role: str, params: ModelParams) -> int:
    """Parameters the model of checkpoint `role` trained beyond the base."""
    stage = next(s for s in STAGES if s.role == role)
    if stage.source is None:
        return 0
    return sum(param_count(params.groups()[g]) for g in stage.trainable)


def _checked_condition(
    condition: str,
    params: ModelParams,
    kws_params: ModelParams | None,
    test_set: Sequence[Utterance],
) -> tuple[str, str]:
    """(checkpoint role, prompt source) of `condition`, once `params`,
    `kws_params` and `test_set` are found to be what it needs; EvalError
    otherwise."""
    role, source = _condition(condition)
    if not test_set:
        raise EvalError("empty test set: WER and F1 are undefined")
    if source == "spotter" and kws_params is None:
        raise EvalError(f"condition {condition!r} needs a keyword-spotter checkpoint")
    if role == "pt" and "q" not in params.prefix:
        raise EvalError(f"condition {condition!r} needs a prompt-tuned checkpoint, "
                        "but this one has no soft prefix")
    if role != "pt" and "q" in params.prefix:
        raise EvalError(f"condition {condition!r} decodes the {role!r} model, which has no soft prefix, "
                        f"but this checkpoint carries one of {params.prefix['q'].shape[0]} rows")
    return role, source


def evaluate_condition(
    condition: str,
    params: ModelParams,
    kws_params: ModelParams | None,
    test_set: Sequence[Utterance],
    ctx: EvalContext,
    *,
    passes: EncoderPasses | None = None,
) -> ConditionReport:
    """Greedy-transcribe the test set under one prompting condition.

    The model and, for spotter conditions, `kws_params` read their encoder
    outputs from `passes`, a table of their own when none is given.
    """
    role, source = _checked_condition(condition, params, kws_params, test_set)
    passes = EncoderPasses() if passes is None else passes
    encoded = passes(params, test_set)
    spotter_inputs = passes(kws_params, test_set) if source == "spotter" else encoded
    vocab = ctx.vocab
    prefix = params.prefix.get("q")
    keyword_sets = [ctx.keywords_for(index, utt.text) for index, utt in enumerate(test_set)]
    hyp_ids: list[list[int]] = []
    for start, u, kws_u in zip(range(0, len(test_set), DECODE_CHUNK), encoded, spotter_inputs):
        chunk = keyword_sets[start : start + DECODE_CHUNK]
        if source == "spotter":
            tokens = [[kw.tokens for kw in keywords] for keywords in chunk]
            preds = kws_detect(kws_params, kws_u, tokens, threshold=ctx.cfg.kws_threshold)
            prompts = [kws_to_prompt(vocab, list(p.decisions), keywords) for p, keywords in zip(preds, chunk)]
        else:
            prompts = [assemble_prompt(vocab, ks.positives() if source == "oracle" else ()) for ks in chunk]
        # every row stops at its own decode budget, which is below max_tgt_len
        hyp_ids += transcribe_greedy(params, u, prompts, prefix, vocab.eot_id, params.config.max_tgt_len)
    wer_total = WerBreakdown(0, 0, 0, 0)
    refs: list[str] = []
    hyps: list[str] = []
    for utt, ids in zip(test_set, hyp_ids):
        hypothesis = normalize(vocab.detokenize(ids, skip_reserved=True))
        reference = normalize(utt.text)
        wer_total = wer_total + compute_wer(reference, hypothesis)
        refs.append(reference)
        hyps.append(hypothesis)
    f1 = keyword_f1(refs, hyps, keyword_sets)
    return ConditionReport(condition, wer_total, f1, _trainable_count(role, params))


def evaluate_conditions(
    conditions: Sequence[str],
    checkpoints: dict[str, ModelParams],
    kws_params: ModelParams | None,
    test_set: Sequence[Utterance],
    ctx: EvalContext,
) -> list[ConditionReport]:
    """One report per condition, all reading one table of encoder passes.
    Every condition's name and inputs are checked before any is scored."""
    models = []
    for condition in conditions:
        role, _ = _condition(condition)
        if role not in checkpoints:
            raise EvalError(f"condition {condition!r} needs the {role!r} checkpoint")
        _checked_condition(condition, checkpoints[role], kws_params, test_set)
        models.append(checkpoints[role])
    passes = EncoderPasses()
    return [evaluate_condition(condition, params, kws_params, test_set, ctx, passes=passes)
            for condition, params in zip(conditions, models)]


# ---------------------------------------------------------------------------
# reports


def report_csv(reports: Sequence[ConditionReport]) -> str:
    lines = ["condition,wer,S,D,I,f1,tp,fp,fn,params"]
    for r in reports:
        lines.append(
            f"{r.condition},{r.wer.wer:.6f},{r.wer.substitutions},{r.wer.deletions},"
            f"{r.wer.insertions},{r.f1.f1:.6f},{r.f1.true_positives},{r.f1.false_positives},"
            f"{r.f1.false_negatives},{r.trainable_params}"
        )
    return "\n".join(lines) + "\n"


def report_table(reports: Sequence[ConditionReport]) -> str:
    header = f"{'condition':<16} {'WER':>8} {'F1':>8} {'S':>5} {'D':>5} {'I':>5} {'params':>8}"
    rows = [header, "-" * len(header)]
    for r in reports:
        rows.append(
            f"{r.condition:<16} {r.wer.wer:>8.4f} {r.f1.f1:>8.4f} "
            f"{r.wer.substitutions:>5} {r.wer.deletions:>5} {r.wer.insertions:>5} "
            f"{r.trainable_params:>8}"
        )
    by_name = {r.condition: r for r in reports}
    if "baseline" in by_name and "baseline+prompt" in by_name:
        base, prompted = by_name["baseline"], by_name["baseline+prompt"]
        delta = prompted.wer.insertions / prompted.wer.ref_words - base.wer.insertions / base.wer.ref_words
        rows.append("")
        rows.append(f"insertion-rate delta (baseline+prompt - baseline): {delta:+.4f}")
    return "\n".join(rows) + "\n"


def write_reports(out_dir: Path | str, reports: Sequence[ConditionReport]) -> tuple[Path, Path]:
    out = Path(out_dir)
    csv_path = out / "report.csv"
    txt_path = out / "report.txt"
    csv_path.write_text(report_csv(reports), encoding="utf-8")
    txt_path.write_text(report_table(reports), encoding="utf-8")
    return csv_path, txt_path


# ---------------------------------------------------------------------------
# ablation


def ablate_prefix_lengths(
    stack_params: ModelParams,
    lengths: Sequence[int],
    train_set: Sequence[Utterance],
    test_set: Sequence[Utterance],
    ctx: EvalContext,
) -> list[dict]:
    """One prompt-tuning run + evaluation per prefix length, ascending."""
    if not lengths:
        raise EvalError("ablation needs at least one prefix length")
    # prompt tuning leaves the encoder frozen (train_run checks it), so
    # every length and the spotter read one encoder pass
    passes = EncoderPasses()
    rows = []
    for n in sorted(lengths):
        params = stack_params.clone()
        params.prefix = {}
        train_run(replace(ctx.cfg, prefix_len=n).train_config("pt"), train_set, ctx.vocab, params)
        report = evaluate_condition("pt", params, stack_params, test_set, ctx, passes=passes)
        rows.append({"prefix_len": n, "wer": report.wer.wer, "f1": report.f1.f1})
    return rows


def ablation_csv(rows: Sequence[dict]) -> str:
    lines = ["prefix_len,wer,f1"]
    for r in rows:
        lines.append(f"{r['prefix_len']},{r['wer']:.6f},{r['f1']:.6f}")
    return "\n".join(lines) + "\n"


def ablation_table(rows: Sequence[dict]) -> str:
    lines = [f"{'tokens':>6} {'WER':>8} {'F1':>8}", "-" * 24]
    for r in rows:
        lines.append(f"{r['prefix_len']:>6} {r['wer']:>8.4f} {r['f1']:>8.4f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# attention export


@dataclass(frozen=True)
class AttentionRecord:
    index: int
    block: np.ndarray  # (n prompt tokens, n output tokens)
    row_sums: np.ndarray
    prompt_labels: tuple[str, ...]
    output_labels: tuple[str, ...]
    keyword_hit: bool | None  # peak lands in the keyword's emission columns


def export_attention(
    params: ModelParams,
    test_set: Sequence[Utterance],
    ctx: EvalContext,
    jargon_words: Sequence[str],
    layer: int,
    limit: int | None = None,
) -> list[AttentionRecord]:
    """Teacher-forced attention blocks for jargon-bearing oracle prompts.

    For each utterance whose oracle prompt carries a jargon keyword, the
    record notes whether the keyword's prompt rows reach their maximum in
    a column where that keyword's tokens are being emitted.
    """
    layer = decoder_layer(params.config, layer)
    vocab = ctx.vocab
    prefix = params.prefix.get("q")
    jargon = set(jargon_words)
    records: list[AttentionRecord] = []
    for index, utt in enumerate(test_set):
        if limit is not None and len(records) >= limit:
            break
        keywords = ctx.keywords_for(index, utt.text)
        positives = keywords.positives()
        jargon_kws = [kw for kw in positives if kw.surface in jargon]
        if not jargon_kws:
            continue
        prompt = assemble_prompt(vocab, positives)
        spans = prompt_keyword_spans(positives)
        t_ids = vocab.tokenize(utt.text)
        u = encode(params, [utt.frames])
        block, row_sums = prompt_attention_block(params, u, prompt, t_ids, prefix, layer)

        kw = jargon_kws[0]
        span = spans[positives.index(kw)]
        hit: bool | None = None
        emit_start = find_subsequence(t_ids, kw.tokens)
        if emit_start >= 0:
            profile = block[span[0] : span[1]].max(axis=0)
            peak = int(np.argmax(profile))
            hit = emit_start <= peak < emit_start + len(kw.tokens)

        prompt_labels = tuple(vocab.units[i] for i in prompt)
        output_labels = tuple(vocab.units[i] for i in t_ids)
        records.append(
            AttentionRecord(index, block, row_sums, prompt_labels, output_labels, hit)
        )
    return records


def write_attention_record(path: Path | str, record: AttentionRecord) -> None:
    """Plain-text matrix with row/column label headers for external plotting."""
    lines = [
        "# rows: " + "\t".join(record.prompt_labels),
        "# cols: " + "\t".join(record.output_labels),
    ]
    for row in record.block:
        lines.append("\t".join(f"{x:.6f}" for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# full training stack


def train_stack(cfg: RunConfig, train_set: Sequence[Utterance], vocab: Vocab) -> dict[str, ModelParams]:
    """Train `STAGES`, base -> kws -> {ft, pt}, and return each one's parameters by role.

    Every stage but the first starts from a copy of its source stage.
    """
    out: dict[str, ModelParams] = {}
    for stage in STAGES:
        if stage.source is None:
            params = init_params(cfg.model_config(len(vocab)), cfg.seed)
        else:
            params = out[stage.source].clone()
        train_run(cfg.train_config(stage.mode), train_set, vocab, params)
        out[stage.role] = params
    return out
