"""Curriculum statistics, prompt assembly, and evaluation keyword selection."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbias.prompts import (
    Keyword,
    KeywordSet,
    PromptError,
    assemble_prompt,
    prompt_keyword_spans,
    sample_training_keywords,
    sample_word_keywords,
    select_eval_keywords,
)
from kwbias.rng import stream
from kwbias.text import build_vocab, normalize, tfidf_scores

CORPUS = [
    "bako demo rila sotu kipo vanu",
    "demo vanu kipo bako lemo tuva",
    "rila sotu bako mivo demo kipo nalu",
    "kipo vanu lemo sotu rila bemo",
    "mivo lemo bako demo tuva sani rila",
    "sani nalu bemo tuva kipo demo",
]


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(CORPUS, 90)


@pytest.fixture(scope="module")
def batch_tokens(vocab):
    return [vocab.tokenize(t) for t in CORPUS]


def test_curriculum_statistics(vocab, batch_tokens):
    rng = stream(77, "curriculum")
    counts = np.zeros(6, dtype=int)
    lengths = np.zeros(5, dtype=int)
    n_pos = n_total = 0
    for i in range(2000):
        ks = sample_training_keywords(vocab, batch_tokens, i % len(batch_tokens), rng)
        counts[len(ks)] += 1
        for kw in ks:
            lengths[len(kw.tokens)] += 1
            n_pos += kw.positive
            n_total += 1
    assert counts[0] == 0
    # uniform on {1..5} within sampling noise
    assert counts[1:].min() > 300
    assert 0.87 <= n_pos / n_total <= 0.93
    assert lengths[0] == 0 and lengths[1:].min() > 0


def test_curriculum_positives_are_contiguous_spans(vocab, batch_tokens):
    rng = stream(78, "spans")
    for i in range(300):
        idx = i % len(batch_tokens)
        ks = sample_training_keywords(vocab, batch_tokens, idx, rng)
        own = batch_tokens[idx]
        for kw in ks:
            if kw.positive:
                hits = [
                    j
                    for j in range(len(own) - len(kw.tokens) + 1)
                    if tuple(own[j : j + len(kw.tokens)]) == kw.tokens
                ]
                assert hits, f"positive {kw.surface!r} is not a span of its transcript"


def test_curriculum_negatives_absent_from_transcript(vocab, batch_tokens):
    rng = stream(79, "negs")
    for i in range(300):
        idx = i % len(batch_tokens)
        ks = sample_training_keywords(vocab, batch_tokens, idx, rng)
        own = batch_tokens[idx]
        for kw in ks:
            if not kw.positive:
                for j in range(len(own) - len(kw.tokens) + 1):
                    assert tuple(own[j : j + len(kw.tokens)]) != kw.tokens


def test_curriculum_single_token_transcript_clamps():
    # a single-character word is always exactly one token
    docs = ["a demo", "demo vanu kipo demo vanu kipo"]
    vocab = build_vocab(docs, 40)
    one = vocab.tokenize("a")
    assert len(one) == 1
    other = vocab.tokenize("demo vanu kipo")
    rng = stream(80, "clamp")
    for _ in range(50):
        ks = sample_training_keywords(vocab, [one, other], 0, rng)
        for kw in ks:
            if kw.positive:
                assert kw.tokens == tuple(one)


def test_curriculum_needs_two_transcripts(vocab, batch_tokens):
    with pytest.raises(PromptError, match=">= 2"):
        sample_training_keywords(vocab, batch_tokens[:1], 0, stream(0, "x"))


def test_curriculum_reproducible(vocab, batch_tokens):
    a = sample_training_keywords(vocab, batch_tokens, 1, stream(5, "r"))
    b = sample_training_keywords(vocab, batch_tokens, 1, stream(5, "r"))
    assert a.keywords == b.keywords


def test_word_keyword_draws_are_pinned(vocab):
    """300 whole-word training draws under tf-idf weights and under all-zero
    (uniform) weights hash to a fixed value, so no change to the weighted
    pick moves a training draw unnoticed."""
    batch_words = [normalize(t).split() for t in CORPUS]
    h = hashlib.sha256()
    for name, weights in (("tfidf", tfidf_scores(CORPUS)), ("zero", {})):
        rng = stream(31, "word-draw", name)
        for i in range(300):
            for kw in sample_word_keywords(vocab, batch_words, i % len(batch_words), weights, rng):
                h.update(f"{name}\t{i}\t{kw.surface}\t{kw.tokens}\t{int(kw.positive)}\n".encode())
    assert h.hexdigest() == "c220dd772224057ba48c0f6c3217460ae1d233c9f967ec0ae8420d4f7b244a09"


def test_assemble_prompt_empty(vocab):
    assert assemble_prompt(vocab, ()) == [vocab.sop_id, vocab.sot_id]


def test_assemble_prompt_single_keyword_no_delim(vocab):
    kw = Keyword(surface="bako", tokens=tuple(vocab.tokenize("bako")), positive=True)
    prompt = assemble_prompt(vocab, (kw,))
    assert prompt[0] == vocab.sop_id and prompt[-1] == vocab.sot_id
    assert vocab.delim_id not in prompt


def test_assemble_prompt_two_keywords_delim_between(vocab):
    k1 = Keyword(surface="bako", tokens=tuple(vocab.tokenize("bako")), positive=True)
    k2 = Keyword(surface="demo", tokens=tuple(vocab.tokenize("demo")), positive=True)
    prompt = assemble_prompt(vocab, (k1, k2))
    assert prompt == [vocab.sop_id, *k1.tokens, vocab.delim_id, *k2.tokens, vocab.sot_id]
    assert prompt.count(vocab.delim_id) == 1


def test_prompt_spans_locate_keywords(vocab):
    k1 = Keyword(surface="bako", tokens=tuple(vocab.tokenize("bako")), positive=True)
    k2 = Keyword(surface="demo", tokens=tuple(vocab.tokenize(" demo")), positive=True)
    prompt = assemble_prompt(vocab, (k1, k2))
    spans = prompt_keyword_spans((k1, k2))
    assert tuple(prompt[spans[0][0] : spans[0][1]]) == k1.tokens
    assert tuple(prompt[spans[1][0] : spans[1][1]]) == k2.tokens


def test_keyword_set_rejects_duplicate_surfaces():
    with pytest.raises(PromptError, match="duplicate"):
        KeywordSet(
            (
                Keyword(surface="x", tokens=(9,), positive=True),
                Keyword(surface="x", tokens=(10,), positive=False),
            ),
        )


BIG_CORPUS = CORPUS + [
    "pila goru neta fitu kema dovi",
    "ruto bavi selo timu woka pemu",
    "ganu hiko jelo kuva lepo mira",
    "nofu peti qola rime sabe tiko",
    "vato weni zamu bilo cedo falo",
]


def test_select_eval_keywords_mix():
    vocab = build_vocab(BIG_CORPUS, 140)
    tfidf = tfidf_scores(BIG_CORPUS)
    rng = stream(83, "eval")
    transcript = BIG_CORPUS[0]
    ks = select_eval_keywords(vocab, transcript, tfidf, rng, n_positives=3, n_negatives=17)
    positives = [kw for kw in ks if kw.positive]
    negatives = [kw for kw in ks if not kw.positive]
    assert len(positives) == 3 and len(negatives) == 17
    words = set(transcript.split())
    assert all(kw.surface in words for kw in positives)
    assert all(kw.surface not in words for kw in negatives)
    assert len({kw.surface for kw in ks}) == 20


def test_select_eval_keywords_zero_score_words_wait_their_turn(vocab):
    # 'bako' appears in every document -> idf 0 -> never drawn while any
    # positive-score candidate remains.
    docs = ["bako demo rila", "bako demo sotu", "bako rila sotu", "bako sotu kipo"]
    vocab2 = build_vocab(docs, 80)
    tfidf = tfidf_scores(docs)
    assert tfidf.get("bako") == 0.0
    rng = stream(84, "zero")
    for _ in range(50):
        ks = select_eval_keywords(vocab2, docs[0], tfidf, rng, n_positives=2, n_negatives=1)
        assert "bako" not in [kw.surface for kw in ks.positives()]


def test_select_eval_keywords_draw_frequencies_follow_scores(vocab):
    tfidf = tfidf_scores(CORPUS)
    transcript = CORPUS[2]  # rila sotu bako mivo demo kipo nalu
    words = sorted(set(transcript.split()))
    scores = np.array([tfidf.get(w) for w in words])
    rng = stream(85, "freq")
    counts = {w: 0 for w in words}
    trials = 4000
    for _ in range(trials):
        ks = select_eval_keywords(vocab, transcript, tfidf, rng, n_positives=1, n_negatives=1)
        counts[ks.positives()[0].surface] += 1
    expected = scores / scores.sum() * trials
    for w, exp in zip(words, expected):
        sigma = np.sqrt(max(exp * (1 - exp / trials), 1.0))
        assert abs(counts[w] - exp) <= 3.5 * sigma, (w, counts[w], exp)


def test_select_eval_keywords_shortfall_errors(vocab):
    tfidf = tfidf_scores(CORPUS)
    rng = stream(86, "short")
    with pytest.raises(PromptError, match="need 3"):
        select_eval_keywords(vocab, "bako demo", tfidf, rng, n_positives=3, n_negatives=17)
    with pytest.raises(PromptError, match="negatives pool"):
        select_eval_keywords(vocab, CORPUS[0], tfidf_scores(["bako demo rila"]), rng,
                             n_positives=3, n_negatives=17)
