"""Keyword sampling and prompt assembly.

The ``kws``, ``ft`` and ``pt`` stages train on `sample_training_keywords`
token spans: the set size is uniform on {1..5}, each keyword is positive
with probability 0.9, its token length is uniform on {1..4}, positives
are contiguous token spans of the example's own transcript, and negatives
are spans taken from another batch member.  A negative whose tokens also
occur in the current transcript is redrawn (the span, not its length, so
the length histogram stays exact) up to 10 times and then dropped.  That
test uses `text.find_subsequence`, the matcher keyword F1 scores hits
with.  ``base-asr`` prompt exposure (`sample_word_keywords`) and
evaluation (`select_eval_keywords`) draw whole words instead, so the
spotter and both prompted decoders train on spans but are scored on
whole words.

Prompts wrap the keyword token runs in [SOP ... SOT] with a `|` delimiter
between keywords.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import KwbiasError
from .text import TfidfTable, Vocab, find_subsequence, normalize


class PromptError(KwbiasError):
    pass


MAX_KEYWORD_TOKENS = 4
_REDRAW_ATTEMPTS = 10


@dataclass(frozen=True)
class Keyword:
    surface: str
    tokens: tuple[int, ...]
    positive: bool

    def __post_init__(self) -> None:
        if not self.surface:
            raise PromptError("keyword surface must be non-empty")
        if not 1 <= len(self.tokens) <= MAX_KEYWORD_TOKENS:
            raise PromptError(
                f"keyword {self.surface!r} has {len(self.tokens)} tokens, need 1..{MAX_KEYWORD_TOKENS}"
            )


@dataclass(frozen=True)
class KeywordSet:
    keywords: tuple[Keyword, ...]

    def __post_init__(self) -> None:
        surfaces = [k.surface for k in self.keywords]
        if len(set(surfaces)) != len(surfaces):
            raise PromptError("duplicate keyword surfaces in one set")

    def __iter__(self):
        return iter(self.keywords)

    def __len__(self) -> int:
        return len(self.keywords)

    def positives(self) -> tuple[Keyword, ...]:
        return tuple(k for k in self.keywords if k.positive)


def _usable(vocab: Vocab, word: str) -> bool:
    """Whether a whole word fits a keyword in its spoken (space-led) token form."""
    return 1 <= len(vocab.word_tokens(word)) <= MAX_KEYWORD_TOKENS


def sample_training_keywords(
    vocab: Vocab,
    batch_tokens: Sequence[Sequence[int]],
    index: int,
    rng: np.random.Generator,
) -> KeywordSet:
    """Draw the per-example training keyword set from a batch of transcripts."""
    if len(batch_tokens) < 2:
        raise PromptError(f"keyword sampling needs a batch of >= 2 transcripts, got {len(batch_tokens)}")
    own = list(batch_tokens[index])
    if not own:
        raise PromptError("cannot sample keywords from an empty transcript")
    keywords: list[Keyword] = []
    n_keywords = int(rng.integers(1, 6))
    for _ in range(n_keywords):
        positive = bool(rng.random() < 0.9)
        length = int(rng.integers(1, MAX_KEYWORD_TOKENS + 1))
        for _attempt in range(_REDRAW_ATTEMPTS):
            if positive:
                span_len = min(length, len(own))
                start = int(rng.integers(0, len(own) - span_len + 1))
                tokens = tuple(own[start : start + span_len])
            else:
                other = int(rng.integers(0, len(batch_tokens) - 1))
                if other >= index:
                    other += 1
                src = list(batch_tokens[other])
                span_len = min(length, len(src))
                start = int(rng.integers(0, len(src) - span_len + 1))
                tokens = tuple(src[start : start + span_len])
                if find_subsequence(own, tokens) >= 0:
                    continue
            surface = vocab.detokenize(tokens).strip()
            if not surface or any(k.surface == surface for k in keywords):
                continue
            keywords.append(Keyword(surface=surface, tokens=tokens, positive=positive))
            break
    return KeywordSet(tuple(keywords))


def sample_word_keywords(
    vocab: Vocab,
    batch_words: Sequence[Sequence[str]],
    index: int,
    weights: TfidfTable,
    rng: np.random.Generator,
) -> KeywordSet:
    """Whole-word keyword draw for recognizer pretraining exposure.

    Same shape as the span curriculum (count ~ U{1..5}, positives with
    probability 0.9, negatives from other batch members) but keywords are
    whole words in spoken-context token form, and positives are drawn
    proportionally to the supplied word weights, which matches the
    token layout of spotter-generated prompts at evaluation time.
    """
    if len(batch_words) < 2:
        raise PromptError(f"keyword sampling needs a batch of >= 2 transcripts, got {len(batch_words)}")
    own = list(batch_words[index])
    own_set = set(own)
    keywords: list[Keyword] = []
    n_keywords = int(rng.integers(1, 6))
    for _ in range(n_keywords):
        positive = bool(rng.random() < 0.9)
        for _attempt in range(_REDRAW_ATTEMPTS):
            if positive:
                taken = {k.surface for k in keywords}
                cands = sorted(w for w in own_set - taken if _usable(vocab, w))
                if not cands:
                    break
                word = cands[_weighted_pick(np.array([weights.get(c) for c in cands]), rng)]
            else:
                other = int(rng.integers(0, len(batch_words) - 1))
                if other >= index:
                    other += 1
                src = list(batch_words[other])
                word = src[int(rng.integers(0, len(src)))]
                if word in own_set or not _usable(vocab, word):
                    continue
            if any(k.surface == word for k in keywords):
                continue
            keywords.append(Keyword(surface=word, tokens=tuple(vocab.word_tokens(word)), positive=positive))
            break
    return KeywordSet(tuple(keywords))


def assemble_prompt(vocab: Vocab, keyword_set: KeywordSet | Sequence[Keyword]) -> list[int]:
    """[SOP, k1..., |, k2..., ..., SOT]; zero keywords give [SOP, SOT]."""
    ids = [vocab.sop_id]
    for i, kw in enumerate(keyword_set):
        if i:
            ids.append(vocab.delim_id)
        ids.extend(kw.tokens)
    ids.append(vocab.sot_id)
    return ids


def prompt_keyword_spans(keyword_set: KeywordSet | Sequence[Keyword]) -> list[tuple[int, int]]:
    """Half-open [start, end) position of each keyword inside its prompt."""
    spans = []
    pos = 1  # after SOP
    for i, kw in enumerate(keyword_set):
        if i:
            pos += 1  # delimiter
        spans.append((pos, pos + len(kw.tokens)))
        pos += len(kw.tokens)
    return spans


def kws_to_prompt(vocab: Vocab, decisions: Sequence[bool], keyword_set: KeywordSet) -> list[int]:
    """Prompt over exactly the keywords flagged present, original order."""
    if len(decisions) != len(keyword_set):
        raise PromptError(
            f"got {len(decisions)} decisions for {len(keyword_set)} keywords"
        )
    kept = [kw for kw, flag in zip(keyword_set, decisions) if flag]
    return assemble_prompt(vocab, kept)


def _weighted_pick(weights: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn in proportion to `weights`, uniformly if they sum to 0."""
    total = weights.sum()
    p = weights / total if total > 0 else np.full(len(weights), 1.0 / len(weights))
    return int(rng.choice(len(weights), p=p))


def _weighted_draw_without_replacement(
    candidates: list[str],
    weights: np.ndarray,
    count: int,
    rng: np.random.Generator,
) -> list[str]:
    # Zero-weight candidates are drawn only once every positive weight is used up.
    avail = list(range(len(candidates)))
    w = weights.astype(np.float64)
    chosen: list[str] = []
    for _ in range(count):
        chosen.append(candidates[avail.pop(_weighted_pick(w[avail], rng))])
    return chosen


def select_eval_keywords(
    vocab: Vocab,
    transcript: str,
    tfidf: TfidfTable,
    rng: np.random.Generator,
    n_positives: int,
    n_negatives: int,
) -> KeywordSet:
    """Evaluation mix: tf-idf-weighted positives from the transcript plus
    tf-idf-weighted negatives, drawn from the words `tfidf` scored that
    the transcript lacks.

    Keywords are whole words in `Vocab.word_tokens` form.
    """
    words = normalize(transcript).split()
    present = set(words)
    pos_candidates = sorted(w for w in present if _usable(vocab, w))
    if len(pos_candidates) < n_positives:
        raise PromptError(
            f"transcript has {len(pos_candidates)} usable distinct words, need {n_positives}"
        )
    neg_candidates = [w for w in sorted(tfidf.scores) if w not in present and _usable(vocab, w)]
    if len(neg_candidates) < n_negatives:
        raise PromptError(
            f"negatives pool has {len(neg_candidates)} usable words outside the transcript, "
            f"need {n_negatives}"
        )

    positives = _weighted_draw_without_replacement(
        pos_candidates, np.array([tfidf.get(w) for w in pos_candidates]), n_positives, rng
    )
    negatives = _weighted_draw_without_replacement(
        neg_candidates, np.array([tfidf.get(w) for w in neg_candidates]), n_negatives, rng
    )
    return KeywordSet(tuple(
        Keyword(surface=w, tokens=tuple(vocab.word_tokens(w)), positive=w in positives)
        for w in positives + negatives
    ))
