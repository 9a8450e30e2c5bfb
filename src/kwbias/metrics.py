"""Word error rate and keyword F1 scoring.

Both metrics operate on text already passed through `text.normalize`, so
tokenizer quirks cannot skew them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import KwbiasError
from .text import find_subsequence, normalize


class MetricsError(KwbiasError):
    pass


@dataclass(frozen=True)
class WerBreakdown:
    substitutions: int
    deletions: int
    insertions: int
    ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        return self.errors / self.ref_words

    def __add__(self, other: "WerBreakdown") -> "WerBreakdown":
        return WerBreakdown(
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
            self.ref_words + other.ref_words,
        )


def compute_wer(reference: str, hypothesis: str) -> WerBreakdown:
    """Minimal whole-word edit alignment with unit costs.

    Among equal-cost alignments the backtrace prefers a substitution over
    an insertion+deletion pair, so the reported split is deterministic.
    """
    ref = reference.split()
    hyp = hypothesis.split()
    if not ref:
        raise MetricsError("empty reference: WER is undefined")
    m, n = len(ref), len(hyp)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        row = dist[i]
        prev = dist[i - 1]
        r = ref[i - 1]
        for j in range(1, n + 1):
            sub = prev[j - 1] + (r != hyp[j - 1])
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            row[j] = sub if sub <= dele and sub <= ins else (dele if dele <= ins else ins)

    subs = dels = inss = 0
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dist[i][j] == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            subs += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            dels += 1
            i -= 1
        else:
            inss += 1
            j -= 1
    return WerBreakdown(subs, dels, inss, m)


@dataclass(frozen=True)
class KeywordF1:
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def f1(self) -> float:
        denom = 2 * self.true_positives + self.false_positives + self.false_negatives
        return 2 * self.true_positives / denom if denom else 0.0

    def __add__(self, other: "KeywordF1") -> "KeywordF1":
        return KeywordF1(
            self.true_positives + other.true_positives,
            self.false_positives + other.false_positives,
            self.false_negatives + other.false_negatives,
        )


def keyword_f1(
    references: Sequence[str],
    hypotheses: Sequence[str],
    keyword_sets: Sequence[Sequence],
) -> KeywordF1:
    """Count keyword hits as whole-word phrase matches on normalized text.

    A positive keyword found in the hypothesis is a TP, otherwise a FN.
    A negative keyword found in the hypothesis counts as a FP only when
    it is also absent from the reference, so a correct transcription is
    never penalized.
    """
    if not (len(references) == len(hypotheses) == len(keyword_sets)):
        raise MetricsError(
            f"length mismatch: {len(references)} references, "
            f"{len(hypotheses)} hypotheses, {len(keyword_sets)} keyword sets"
        )
    total = KeywordF1(0, 0, 0)
    # keyword surface -> its normalized words; surfaces repeat across utterances
    phrases: dict[str, list[str]] = {}
    for ref, hyp, keywords in zip(references, hypotheses, keyword_sets):
        ref_words = normalize(ref).split()
        hyp_words = normalize(hyp).split()
        tp = fp = fn = 0
        for kw in keywords:
            phrase = phrases.get(kw.surface)
            if phrase is None:
                phrase = phrases[kw.surface] = normalize(kw.surface).split()
            in_hyp = find_subsequence(hyp_words, phrase) >= 0
            if kw.positive:
                if in_hyp:
                    tp += 1
                else:
                    fn += 1
            elif in_hyp and find_subsequence(ref_words, phrase) < 0:
                fp += 1
        total = total + KeywordF1(tp, fp, fn)
    return total
