"""End-to-end evaluation: condition reports, prefix-length ablation,
attention export, and the four-stage training stack.

Per-utterance evaluation keyword sets are derived from (seed, utterance
index) alone, so every condition scores against identical keywords and a
rerun with the same seed reproduces the report byte for byte.  A context
draws each set once and keeps it; conditions whose models share an
encoder share one encoder pass per utterance.

Every training run here takes its settings from `RunConfig.train_config`
and every decode its length limit from `model.decode_budget`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .config import RunConfig
from .errors import KwbiasError
from .metrics import KeywordF1, WerBreakdown, compute_wer, keyword_f1
from .model import (
    ModelParams,
    decode_budget,
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
from .training import train_run


class EvalError(KwbiasError):
    pass


# Which trained model each condition runs; the prompt comes from the keyword
# spotter, the ground-truth positives (-oracle), or nowhere (baseline).
_CONDITION_MODEL = {
    "baseline": "base",
    "baseline+prompt": "base",
    "ft": "ft",
    "pt": "pt",
    "ft-oracle": "ft",
    "pt-oracle": "pt",
}
CONDITIONS = tuple(_CONDITION_MODEL)


def _condition_model(condition: str) -> str:
    """The checkpoint role a condition runs; an unknown name is an EvalError."""
    if condition not in _CONDITION_MODEL:
        raise EvalError(f"unknown condition {condition!r}, expected one of {CONDITIONS}")
    return _CONDITION_MODEL[condition]


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    wer: WerBreakdown
    f1: KeywordF1
    trainable_params: int


@dataclass(frozen=True)
class EvalContext:
    """Everything an evaluation pass needs besides the model parameters."""

    vocab: Vocab
    tfidf: TfidfTable
    seed: int
    n_keywords: int
    n_positives: int
    kws_threshold: float
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
                stream(self.seed, "eval-kw", index),
                n_positives=self.n_positives,
                n_negatives=self.n_keywords - self.n_positives,
            )
        return self._drawn[key]


def make_eval_context(cfg: RunConfig, vocab: Vocab, train_texts: Sequence[str]) -> EvalContext:
    return EvalContext(
        vocab=vocab,
        tfidf=tfidf_scores(train_texts),
        seed=cfg.seed,
        n_keywords=cfg.eval_keywords,
        n_positives=cfg.eval_positives,
        kws_threshold=cfg.kws_threshold,
    )


def _condition_prompt(
    condition: str,
    keywords: KeywordSet,
    u: Tensor,
    kws_params: ModelParams | None,
    vocab: Vocab,
    threshold: float,
) -> list[int]:
    if condition == "baseline":
        return assemble_prompt(vocab, ())
    if condition.endswith("-oracle"):
        return assemble_prompt(vocab, keywords.positives())
    if kws_params is None:
        raise EvalError(f"condition {condition!r} needs a keyword-spotter checkpoint")
    pred = kws_detect(kws_params, u, [kw.tokens for kw in keywords], threshold=threshold)
    return kws_to_prompt(vocab, list(pred.decisions), keywords)


def _trainable_count(role: str, params: ModelParams) -> int:
    """Parameters the model of checkpoint `role` trained beyond the base."""
    if role == "ft":
        return param_count(params.decoder)
    if role == "pt":
        return param_count(params.prefix)
    return 0


def evaluate_condition(
    condition: str,
    params: ModelParams,
    kws_params: ModelParams | None,
    test_set: Sequence[Utterance],
    ctx: EvalContext,
    *,
    encoded: Sequence[Tensor] | None = None,
) -> ConditionReport:
    """Greedy-transcribe the test set under one prompting condition.

    `encoded` holds the encoder outputs of `test_set` under `params`'s
    encoder; without it every utterance is encoded here.
    """
    role = _condition_model(condition)
    if not test_set:
        raise EvalError("empty test set: WER and F1 are undefined")
    if encoded is None:
        encoded = [encode(params, utt.frames) for utt in test_set]
    elif len(encoded) != len(test_set):
        raise EvalError(f"{len(encoded)} encoder outputs for {len(test_set)} test utterances")
    vocab = ctx.vocab
    prefix = params.prefix.get("q")
    wer_total = WerBreakdown(0, 0, 0, 0)
    refs: list[str] = []
    hyps: list[str] = []
    keyword_sets: list[KeywordSet] = []
    for index, (utt, u) in enumerate(zip(test_set, encoded)):
        keywords = ctx.keywords_for(index, utt.text)
        prompt = _condition_prompt(condition, keywords, u, kws_params, vocab, ctx.kws_threshold)
        hyp_ids = transcribe_greedy(params, u, prompt, prefix, vocab.eot_id, decode_budget(params, prompt, prefix))
        hypothesis = normalize(vocab.detokenize(hyp_ids, skip_reserved=True))
        reference = normalize(utt.text)
        wer_total = wer_total + compute_wer(reference, hypothesis)
        refs.append(reference)
        hyps.append(hypothesis)
        keyword_sets.append(keywords)
    f1 = keyword_f1(refs, hyps, keyword_sets)
    return ConditionReport(condition, wer_total, f1, _trainable_count(role, params))


def evaluate_conditions(
    conditions: Sequence[str],
    checkpoints: dict[str, ModelParams],
    kws_params: ModelParams | None,
    test_set: Sequence[Utterance],
    ctx: EvalContext,
) -> list[ConditionReport]:
    """One report per condition; each test utterance is encoded once per
    distinct encoder among the models the conditions run."""
    reports = []
    outputs: list[tuple[ModelParams, list[Tensor]]] = []  # (model, its encoder outputs)
    for condition in conditions:
        role = _condition_model(condition)
        if role not in checkpoints:
            raise EvalError(f"condition {condition!r} needs the {role!r} checkpoint")
        params = checkpoints[role]
        encoded = next((us for other, us in outputs if same_encoder(other, params)), None)
        if encoded is None:
            encoded = [encode(params, utt.frames) for utt in test_set]
            outputs.append((params, encoded))
        reports.append(evaluate_condition(condition, params, kws_params, test_set, ctx, encoded=encoded))
    return reports


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
    cfg: RunConfig,
) -> list[dict]:
    """One prompt-tuning run + evaluation per prefix length, ascending."""
    if not lengths:
        raise EvalError("ablation needs at least one prefix length")
    # prompt tuning leaves the encoder frozen (train_run checks it), so
    # every length decodes from the same encoder outputs
    encoded = [encode(stack_params, utt.frames) for utt in test_set]
    rows = []
    for n in sorted(lengths):
        params = stack_params.clone()
        params.prefix = {}
        train_run(replace(cfg, prefix_len=n).train_config("pt"), train_set, ctx.vocab, params)
        report = evaluate_condition("pt", params, stack_params, test_set, ctx, encoded=encoded)
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
        u = encode(params, utt.frames)
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

# (stage, training mode, stage whose parameters it starts from)
_STAGES = (("base", "base-asr", None), ("kws", "kws", "base"), ("ft", "ft", "kws"), ("pt", "pt", "kws"))


def train_stack(cfg: RunConfig, train_set: Sequence[Utterance], vocab: Vocab) -> dict[str, ModelParams]:
    """Train base -> kws -> {ft, pt} and return each stage's parameters.

    Every stage but the first starts from a copy of its source stage.
    """
    out: dict[str, ModelParams] = {}
    for stage, mode, source in _STAGES:
        if source is None:
            params = init_params(cfg.model_config(len(vocab)), cfg.seed)
        else:
            params = out[source].clone()
        train_run(cfg.train_config(mode), train_set, vocab, params)
        out[stage] = params
    return out
