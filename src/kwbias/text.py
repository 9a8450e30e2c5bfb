"""Text normalization, sub-word vocabulary, tokenization, and tf-idf.

One normalization is shared by the tokenizer, the WER scorer, and
keyword matching so the metrics cannot drift apart: lowercase, then every
character outside `[a-z0-9 ]` becomes a space (one compiled-regex
substitution), then runs of spaces collapse to one and the ends are
trimmed.  The vocabulary is a frequency-merged unit inventory
(byte-pair-encoding style, Sennrich et al., arXiv 1508.07909),
learned from a table of distinct word forms weighted by their counts
rather than from every transcript's characters; tokenization is greedy
longest-match, which makes detokenize(tokenize(s)) == normalize(s) hold
by construction.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import KwbiasError


class VocabError(KwbiasError):
    pass


_NOT_KEPT = re.compile("[^a-z0-9 ]")  # every character normalization turns into a space

# Reserved units, listed first in every vocabulary.  Their surfaces use
# characters normalization removes, so text can never tokenize to them.
RESERVED = ("<pad>", "<sop>", "<sot>", "<eot>", "|")
N_RESERVED = len(RESERVED)


def normalize(text: str) -> str:
    """Lowercase, map every character outside [a-z0-9 ] to a space, collapse
    runs of spaces and trim the ends."""
    return " ".join(_NOT_KEPT.sub(" ", text.lower()).split())


def find_subsequence(haystack: Sequence, needle: Sequence) -> int:
    """Start of the first contiguous run of `needle` in `haystack`; -1 if
    there is none or `needle` is empty."""
    needle = list(needle)
    k = len(needle)
    if not k:
        return -1
    haystack = list(haystack)
    for i in range(len(haystack) - k + 1):
        if haystack[i : i + k] == needle:
            return i
    return -1


class Vocab:
    """Bijective id<->unit table with reserved control tokens up front."""

    def __init__(self, units: list[str]) -> None:
        if tuple(units[:N_RESERVED]) != RESERVED:
            raise VocabError("vocabulary must start with the reserved units")
        if len(set(units)) != len(units):
            raise VocabError("duplicate units break the id<->unit bijection")
        self.units: tuple[str, ...] = tuple(units)
        self._ids: dict[str, int] = {u: i for i, u in enumerate(units)}
        self._max_unit_len = max(len(u) for u in units[N_RESERVED:]) if len(units) > N_RESERVED else 0
        self.pad_id, self.sop_id, self.sot_id, self.eot_id, self.delim_id = range(N_RESERVED)
        self._word_tokens: dict[str, tuple[int, ...]] = {}  # units are fixed, so never stale

    def __len__(self) -> int:
        return len(self.units)

    def tokenize(self, text: str) -> list[int]:
        """Greedy longest-match segmentation of the normalized text."""
        s = normalize(text)
        ids: list[int] = []
        i = 0
        while i < len(s):
            for length in range(min(self._max_unit_len, len(s) - i), 0, -1):
                unit_id = self._ids.get(s[i : i + length])
                if unit_id is not None:
                    ids.append(unit_id)
                    i += length
                    break
            else:
                raise VocabError(f"character {s[i]!r} is not in the vocabulary alphabet")
        return ids

    def word_tokens(self, word: str) -> list[int]:
        """Token ids of `word` as every keyword draw, prompt and spotter
        query spells it.  Meant as the space-led form a word takes after
        another in a transcript, but `tokenize` normalizes first, which
        strips the space: these are the bare word's ids.  Memoized per
        vocabulary; every call returns a fresh list."""
        tokens = self._word_tokens.get(word)
        if tokens is None:
            tokens = self._word_tokens[word] = tuple(self.tokenize(" " + word))
        return list(tokens)

    def detokenize(self, ids: Iterable[int], skip_reserved: bool = False) -> str:
        parts: list[str] = []
        for i in ids:
            if not 0 <= i < len(self.units):
                raise VocabError(f"token id {i} out of range for vocabulary of {len(self.units)}")
            if i < N_RESERVED:
                if skip_reserved:
                    continue
                raise VocabError(f"reserved token {self.units[i]!r} has no text form")
            parts.append(self.units[i])
        return "".join(parts)

    def serialize(self) -> str:
        return "".join(f"{i}\t{u}\n" for i, u in enumerate(self.units))

    def save(self, path: Path | str) -> None:
        Path(path).write_text(self.serialize(), encoding="utf-8")

    @classmethod
    def load(cls, path: Path | str) -> "Vocab":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise VocabError(f"{path}: vocabulary file is not UTF-8 text: {exc}") from exc
        units: list[str] = []
        for lineno, line in enumerate(text.splitlines()):
            idx, tab, unit = line.partition("\t")
            if not tab or idx != str(lineno):
                raise VocabError(f"malformed vocabulary line {lineno}: {line!r}")
            units.append(unit)
        return cls(units)

    @functools.cached_property  # the units are a tuple, fixed at construction
    def content_hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()


def _merge_pair(seq: list[str], a: str, b: str, ab: str) -> list[str]:
    out: list[str] = []
    i = 0
    while i < len(seq):
        if i + 1 < len(seq) and seq[i] == a and seq[i + 1] == b:
            out.append(ab)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out


def build_vocab(corpus: Iterable[str], target_size: int) -> Vocab:
    """Frequency-merge character units until the inventory reaches target_size.

    Deterministic: ties in pair frequency break toward the lexicographically
    smallest pair, and merging stops early when no pair repeats.

    Merges run over the distinct word forms of the normalized corpus, each
    weighted by its count: a transcript's first word bare, every later word
    with its leading space.  This equals merging over the character stream
    of every transcript, where a pair whose second unit starts with a space
    is never merged: that rule keeps each merge inside one form, so a
    stream's pairs are its forms' pairs, and only a form's first unit can
    start with a space.
    """
    forms: Counter[str] = Counter()
    for text in corpus:
        first, *rest = normalize(text).split(" ")
        if first:
            forms[first] += 1
            forms.update(" " + w for w in rest)
    if not forms:
        raise VocabError("cannot build a vocabulary from an empty corpus")
    alphabet = sorted({ch for form in forms for ch in form})
    units = list(RESERVED) + alphabet
    if target_size < len(units):
        raise VocabError(
            f"target_size {target_size} is below reserved+alphabet size {len(units)}"
        )
    seqs = [(list(form), n) for form, n in forms.items()]
    while len(units) < target_size:
        pairs: Counter[tuple[str, str]] = Counter()
        for seq, n in seqs:
            for pair in zip(seq, seq[1:]):
                pairs[pair] += n
        if not pairs:
            break
        top = max(pairs.values())
        if top < 2:
            break
        a, b = min(p for p, c in pairs.items() if c == top)
        merged = a + b
        units.append(merged)
        seqs = [(_merge_pair(seq, a, b, merged), n) for seq, n in seqs]
    return Vocab(units)


@dataclass(frozen=True)
class TfidfTable:
    """Per-word tf-idf over a document collection (document = one transcript)."""

    scores: Mapping[str, float]

    def get(self, word: str) -> float:
        return self.scores.get(word, 0.0)


def tfidf_scores(corpus: Iterable[str]) -> TfidfTable:
    """score(w) = raw count of w across the corpus * ln(n_docs / doc_freq(w))."""
    docs = [normalize(t).split() for t in corpus]
    if not docs:
        raise VocabError("tf-idf needs at least one transcript")
    n = len(docs)
    tf: Counter[str] = Counter()
    df: Counter[str] = Counter()
    for words in docs:
        tf.update(words)
        df.update(set(words))
    return TfidfTable({w: tf[w] * math.log(n / df[w]) for w in tf})
