"""Evaluation harness structure: conditions, reports, ablation, attention.

These tests run on a deliberately tiny corpus and very short training so
they exercise plumbing, not model quality; quality lives in the
acceptance suite.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from kwbias import harness
from kwbias.config import RunConfig
from kwbias.harness import (
    CONDITIONS,
    EvalError,
    ablate_prefix_lengths,
    ablation_csv,
    ablation_table,
    evaluate_condition,
    evaluate_conditions,
    export_attention,
    make_eval_context,
    report_csv,
    report_table,
    train_stack,
    write_attention_record,
    write_reports,
)
from kwbias.metrics import WerBreakdown, compute_wer, keyword_f1
from kwbias.model import decode_budget, encode, kws_detect, param_group_hash, transcribe_greedy
from kwbias.prompts import kws_to_prompt, select_eval_keywords
from kwbias.rng import stream
from kwbias.synth import generate_corpus
from kwbias.text import build_vocab, normalize
from kwbias.training import STAGES

TINY = RunConfig(
    train_size=50, dev_size=8, test_size=8,
    n_common=5, n_jargon=20, jargon_per_utterance=2,
    min_words=4, max_words=5, n_mels=12,
    d_model=32, n_heads=4, n_enc_layers=1, n_dec_layers=1, d_ff=64,
    steps_asr=40, steps_kws=30, steps_ft=25, steps_pt=25,
    vocab_target=140, seed=5,
)


@pytest.fixture(scope="module")
def tiny_world():
    splits, bank = generate_corpus(TINY.synth_spec())
    vocab = build_vocab([u.text for u in splits["train"]], TINY.vocab_target)
    stack = train_stack(TINY, splits["train"], vocab)
    ctx = make_eval_context(TINY, vocab, [u.text for u in splits["train"]])
    return splits, bank, vocab, stack, ctx


def test_train_stack_produces_all_stages(tiny_world):
    _, _, _, stack, _ = tiny_world
    assert set(stack) == {"base", "kws", "ft", "pt"}
    assert "q" in stack["pt"].prefix
    assert stack["ft"].prefix == {}
    # base encoder carried through frozen stages
    enc_hash = param_group_hash(stack["base"].encoder)
    for role in ("kws", "ft", "pt"):
        assert param_group_hash(stack[role].encoder) == enc_hash


def test_eval_keyword_sets_are_stable_per_index(tiny_world):
    splits, _, _, _, ctx = tiny_world
    u = splits["test"][0]
    a = ctx.keywords_for(0, u.text)
    b = ctx.keywords_for(0, u.text)
    assert a.keywords == b.keywords
    assert len(a) == TINY.eval_keywords
    assert len(a.positives()) == TINY.eval_positives


def _counting(monkeypatch, name):
    """Replace harness.<name> with a wrapper that counts its calls."""
    calls = []
    original = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_a_context_draws_each_keyword_set_once(tiny_world, monkeypatch):
    splits, _, _, stack, ctx = tiny_world
    ctx = replace(ctx)  # a fresh context: nothing drawn yet
    draws = _counting(monkeypatch, "select_eval_keywords")
    evaluate_condition("pt-oracle", stack["pt"], None, splits["test"], ctx)
    evaluate_condition("ft-oracle", stack["ft"], None, splits["test"], ctx)
    assert len(draws) == len(splits["test"])


def test_replacing_the_seed_draws_afresh(tiny_world, monkeypatch):
    splits, _, _, _, ctx = tiny_world
    text = splits["test"][0].text
    before = ctx.keywords_for(0, text)
    draws = _counting(monkeypatch, "select_eval_keywords")
    assert ctx.keywords_for(0, text) is before
    assert draws == []
    reseeded = replace(ctx, cfg=replace(ctx.cfg, seed=ctx.cfg.seed + 1))
    raw = select_eval_keywords(ctx.vocab, text, ctx.tfidf, stream(ctx.cfg.seed + 1, "eval-kw", 0),
                               n_positives=ctx.cfg.eval_positives,
                               n_negatives=ctx.cfg.eval_keywords - ctx.cfg.eval_positives)
    assert reseeded.keywords_for(0, text) == raw
    assert len(draws) == 1
    assert replace(ctx).keywords_for(0, text) == before
    assert len(draws) == 2


def _chunks(test_set):
    return -(-len(test_set) // harness.DECODE_CHUNK)


def test_conditions_share_one_encoder_pass_per_chunk(tiny_world, monkeypatch):
    splits, _, _, stack, ctx = tiny_world
    test = splits["test"]
    separate = [evaluate_conditions([c], stack, stack["kws"], test, ctx)[0] for c in CONDITIONS]
    encodes = _counting(monkeypatch, "encode")
    spotted = _counting(monkeypatch, "kws_detect")
    together = evaluate_conditions(list(CONDITIONS), stack, stack["kws"], test, ctx)
    assert len(encodes) == _chunks(test) == 1
    assert len(spotted) == 3 * _chunks(test)  # baseline+prompt, ft and pt read the spotter
    assert together == separate

    # chunks of 3, 3 and 2 utterances score as the single chunk of 8 does
    monkeypatch.setattr(harness, "DECODE_CHUNK", 3)
    encodes.clear()
    spotted.clear()
    assert evaluate_conditions(list(CONDITIONS), stack, stack["kws"], test, ctx) == separate
    assert [len(args[1]) for args in encodes] == [3, 3, 2]
    assert [len(args[1].lengths) for args in spotted] == [3, 3, 2] * 3


def test_a_perturbed_encoder_gets_its_own_encoder_pass(tiny_world, monkeypatch):
    splits, _, _, stack, ctx = tiny_world
    test = splits["test"]
    ft = stack["ft"].clone()
    ft.encoder["in_b"].data[0] += 1e-3
    perturbed = {**stack, "ft": ft}
    encodes = _counting(monkeypatch, "encode")
    reports = evaluate_conditions(list(CONDITIONS), perturbed, stack["kws"], test, ctx)
    assert len(encodes) == 2 * _chunks(test)
    assert sum(args[0] is ft for args in encodes) == _chunks(test)
    by_name = {r.condition: r for r in reports}
    for c in ("ft", "ft-oracle"):
        assert by_name[c] == evaluate_condition(c, ft, stack["kws"], test, ctx)


def test_the_spotter_reads_its_own_encoder_pass(tiny_world, monkeypatch):
    splits, _, vocab, stack, ctx = tiny_world
    test = splits["test"]
    kws = stack["kws"].clone()
    kws.encoder["in_b"].data[0] += 1e-3
    encodes = _counting(monkeypatch, "encode")
    spotted = _counting(monkeypatch, "kws_detect")
    report = evaluate_condition("pt", stack["pt"], kws, test, ctx)
    assert len(encodes) == 2 * _chunks(test)
    assert sum(args[0] is kws for args in encodes) == _chunks(test)
    assert len(spotted) == _chunks(test)
    (spotter_inputs,) = [args[1] for args in spotted]

    pt = stack["pt"]
    prefix = pt.prefix["q"]
    wer = WerBreakdown(0, 0, 0, 0)
    refs, hyps, keyword_sets = [], [], []
    for i, utt in enumerate(test):
        keywords = ctx.keywords_for(i, utt.text)
        kws_u = encode(kws, [utt.frames])
        assert np.array_equal(spotter_inputs.keep([i]).rows.data, kws_u.rows.data)
        (pred,) = kws_detect(kws, kws_u, [[kw.tokens for kw in keywords]], threshold=TINY.kws_threshold)
        prompt = kws_to_prompt(vocab, list(pred.decisions), keywords)
        (ids,) = transcribe_greedy(pt, encode(pt, [utt.frames]), [prompt], prefix, vocab.eot_id,
                                   decode_budget(pt, prompt, prefix))
        refs.append(normalize(utt.text))
        hyps.append(normalize(vocab.detokenize(ids, skip_reserved=True)))
        keyword_sets.append(keywords)
        wer = wer + compute_wer(refs[-1], hyps[-1])
    assert report.wer == wer
    assert report.f1 == keyword_f1(refs, hyps, keyword_sets)


def test_empty_test_set_is_an_eval_error(tiny_world):
    _, _, _, stack, ctx = tiny_world
    with pytest.raises(EvalError, match="empty test set"):
        evaluate_condition("baseline", stack["base"], None, [], ctx)
    with pytest.raises(EvalError, match="empty test set"):
        evaluate_conditions(["baseline", "pt"], stack, None, [], ctx)


def test_oracle_condition_bypasses_the_spotter(tiny_world):
    splits, _, vocab, stack, ctx = tiny_world
    report = evaluate_condition("pt-oracle", stack["pt"], None, splits["test"], ctx)
    assert report.condition == "pt-oracle"
    assert report.trainable_params == TINY.prefix_len * TINY.d_model


def test_kws_conditions_require_spotter(tiny_world):
    splits, _, _, stack, ctx = tiny_world
    with pytest.raises(EvalError, match="keyword-spotter"):
        evaluate_condition("baseline+prompt", stack["base"], None, splits["test"], ctx)


def test_pt_conditions_require_a_soft_prefix(tiny_world):
    splits, _, _, stack, ctx = tiny_world
    for condition in ("pt", "pt-oracle"):
        with pytest.raises(EvalError, match=f"^condition '{condition}' needs a prompt-tuned checkpoint, "
                                            "but this one has no soft prefix$"):
            evaluate_condition(condition, stack["base"], stack["kws"], splits["test"], ctx)


def test_every_condition_reads_the_model_of_a_training_stage():
    assert {role for role, _ in harness._CONDITIONS.values()} <= {stage.role for stage in STAGES}


def test_unknown_condition_rejected(tiny_world):
    splits, _, _, stack, ctx = tiny_world
    with pytest.raises(EvalError, match="unknown condition"):
        evaluate_condition("zero-shot", stack["base"], None, splits["test"], ctx)
    with pytest.raises(EvalError, match="unknown condition"):
        evaluate_conditions(["zero-shot"], stack, None, splits["test"], ctx)


def test_missing_checkpoint_for_condition(tiny_world):
    splits, _, _, stack, ctx = tiny_world
    partial = {"base": stack["base"]}
    with pytest.raises(EvalError, match="'pt' checkpoint"):
        evaluate_conditions(["pt"], partial, stack["kws"], splits["test"], ctx)


def test_every_condition_is_checked_before_any_is_scored(tiny_world, monkeypatch):
    splits, _, _, stack, ctx = tiny_world
    scored = []
    monkeypatch.setattr(harness, "evaluate_condition", lambda condition, *args, **kwargs: scored.append(condition))
    cases = [
        (["baseline", "pt"], {"base": stack["base"]}, stack["kws"], "^condition 'pt' needs the 'pt' checkpoint$"),
        (["baseline", "pt"], stack, None, "^condition 'pt' needs a keyword-spotter checkpoint$"),
        (["baseline", "pt-oracle"], {**stack, "pt": stack["base"]}, None, "'pt-oracle' needs a prompt-tuned"),
        # a prefixed model scored as ft would report pt's decoding under ft's name
        (["baseline", "ft"], {**stack, "ft": stack["pt"]}, stack["kws"],
         f"^condition 'ft' decodes the 'ft' model, which has no soft prefix, "
         f"but this checkpoint carries one of {TINY.prefix_len} rows$"),
        (["baseline", "zero-shot"], stack, stack["kws"], "unknown condition 'zero-shot'"),
    ]
    for conditions, checkpoints, kws_params, message in cases:
        with pytest.raises(EvalError, match=message):
            evaluate_conditions(conditions, checkpoints, kws_params, splits["test"], ctx)
    assert scored == []
    evaluate_conditions(["baseline", "pt"], stack, stack["kws"], splits["test"], ctx)
    assert scored == ["baseline", "pt"]


def test_reports_are_deterministic_and_well_formed(tiny_world, tmp_path):
    splits, _, _, stack, ctx = tiny_world
    reports = evaluate_conditions(
        ["baseline", "baseline+prompt", "pt-oracle"], stack, stack["kws"], splits["test"], ctx
    )
    again = evaluate_conditions(
        ["baseline", "baseline+prompt", "pt-oracle"], stack, stack["kws"], splits["test"], ctx
    )
    assert report_csv(reports) == report_csv(again)

    csv = report_csv(reports)
    header, *rows = csv.strip().split("\n")
    assert header == "condition,wer,S,D,I,f1,tp,fp,fn,params"
    assert len(rows) == 3
    assert rows[0].startswith("baseline,")

    table = report_table(reports)
    assert "insertion-rate delta" in table  # both baseline conditions present

    csv_path, txt_path = write_reports(tmp_path, reports)
    assert csv_path.read_text() == csv
    assert txt_path.read_text() == table


def test_every_condition_name_is_reportable(tiny_world):
    splits, _, _, stack, ctx = tiny_world
    reports = evaluate_conditions(list(CONDITIONS), stack, stack["kws"], splits["test"][:3], ctx)
    assert [r.condition for r in reports] == list(CONDITIONS)
    for r in reports:
        assert np.isfinite(r.wer.wer)
        assert 0.0 <= r.f1.f1 <= 1.0


def test_ablation_rows_ascending_and_rerunnable(tiny_world):
    splits, _, _, stack, ctx = tiny_world
    lengths = [6, 2]
    rows = ablate_prefix_lengths(stack["kws"], lengths, splits["train"], splits["test"], ctx)
    assert [r["prefix_len"] for r in rows] == [2, 6]
    rows2 = ablate_prefix_lengths(stack["kws"], lengths, splits["train"], splits["test"], ctx)
    assert rows == rows2
    csv = ablation_csv(rows)
    assert csv.splitlines()[0] == "prefix_len,wer,f1"
    assert len(csv.strip().splitlines()) == 3
    assert "tokens" in ablation_table(rows)
    with pytest.raises(EvalError, match="at least one"):
        ablate_prefix_lengths(stack["kws"], [], splits["train"], splits["test"], ctx)


def test_attention_export_records(tiny_world, tmp_path):
    splits, bank, vocab, stack, ctx = tiny_world
    records = export_attention(stack["pt"], splits["test"], ctx, bank.jargon, layer=0)
    jargon_present = [
        u for i, u in enumerate(splits["test"])
        if any(kw.surface in set(bank.jargon) for kw in ctx.keywords_for(i, u.text).positives())
    ]
    assert len(records) == len(jargon_present)
    for rec in records:
        n_prompt = len(rec.prompt_labels)
        n_out = len(rec.output_labels)
        assert rec.block.shape == (n_prompt, n_out)
        assert np.allclose(rec.row_sums, 1.0, atol=1e-9)
        path = tmp_path / f"r{rec.index}.mat"
        write_attention_record(path, rec)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# rows: <sop>")
        assert lines[1].startswith("# cols: ")
        assert len(lines) == 2 + n_prompt


def test_default_set_up_is_pinned():
    """Every split, the vocabulary and the 100 evaluation keyword sets of the
    default config hash to the value computed before set-up was optimized."""
    cfg = RunConfig()
    splits, _ = generate_corpus(cfg.synth_spec())
    train_texts = [u.text for u in splits["train"]]
    vocab = build_vocab(train_texts, cfg.vocab_target)
    ctx = make_eval_context(cfg, vocab, train_texts)
    h = hashlib.sha256()
    for name in ("train", "dev", "test"):
        for u in splits[name]:
            h.update(f"{name}\t{u.text}\t{int(u.contains_jargon)}\t{u.frames.shape}\n".encode())
            h.update(np.ascontiguousarray(u.frames, dtype="<f8").tobytes())
    h.update("\n".join(vocab.units).encode())
    for i, u in enumerate(splits["test"]):
        for kw in ctx.keywords_for(i, u.text):
            h.update(f"{i}\t{kw.surface}\t{kw.tokens}\t{int(kw.positive)}\n".encode())
    assert h.hexdigest() == "69d674fd7a5ce50db040fb7c3c7d13b912f4144b48798ed5ecceb5aaf75d2728"
