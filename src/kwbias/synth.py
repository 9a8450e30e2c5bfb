"""Synthetic ASR corpus with controllable jargon confusability.

Each word owns a short sequence of feature-frame prototypes; an utterance
is the concatenation of its words' prototypes plus Gaussian noise.  Every
jargon word is acoustically confusable with one common word (its
prototypes sit a small offset away from the common word's), so a decoder
can only resolve it reliably from context, which is exactly the failure
mode keyword prompting is meant to fix.

A generated utterance keeps no frames array.  It keeps its words'
prototypes (the word bank's own arrays), the noise scale and the PCG64
state its split's stream had just before its noise draw, and each read of
`Utterance.frames` builds concatenate(prototypes) + normal(0, sigma) from
that state: the array generation drew, bit for bit, in a fresh array.  A
read of a 33-frame utterance takes about 40 us, and the default corpus
retains 2.9 MB where its 2,200 frame arrays took 46 MB.  Reading `text`
or `contains_jargon` builds nothing.

A split is saved as one container file: the frames are its arrays, and
the header holds each utterance's transcript and jargon flag, so the
header digest verifies the transcripts along with everything else.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .audio import N_MELS
from .container import read_container, write_container
from .errors import KwbiasError, require_finite
from .rng import stream


class SynthError(KwbiasError):
    pass


_MAGIC = b"KWBDS001"

_CONSONANTS = "bdfgklmnprst"
_VOWELS = "aeiou"

# Jargon = common counterpart + a silent spelling suffix (homophone-style):
# the suffix letters never occur in common words, so sub-word units for
# suffixes stay disjoint from the common inventory.
_JARGON_SUFFIXES = ("zy", "xe", "qi", "wo", "ju", "vy")


@dataclass(frozen=True)
class SynthSpec:
    """Corpus shape.

    Common words form a small, high-document-frequency pool (so their
    tf-idf stays low); jargon words are many and individually rare, which
    makes them the distinctive terms an evaluation keyword draw favors.
    `min_words`/`max_words` bound the common words per utterance; a
    jargon-bearing utterance additionally carries `jargon_per_utterance`
    distinct jargon words at random positions.
    """

    n_common: int = 5
    n_jargon: int = 24
    n_mels: int = N_MELS
    min_word_frames: int = 5
    max_word_frames: int = 6
    min_words: int = 4
    max_words: int = 5
    jargon_per_utterance: int = 2
    noise_sigma: float = 0.2
    confusable_offset: float = 0.035
    jargon_fraction: float = 0.6
    train_size: int = 2000
    dev_size: int = 100
    test_size: int = 100
    seed: int = 42

    def __post_init__(self) -> None:
        require_finite(self, SynthError)
        if self.n_common < 1 or self.n_jargon < 0:
            raise SynthError("need at least one common word and a nonnegative jargon count")
        if self.noise_sigma < 0:
            raise SynthError(f"noise_sigma must be nonnegative, got {self.noise_sigma}")
        if not 0 <= self.jargon_fraction <= 1:
            raise SynthError(f"jargon_fraction must be in [0,1], got {self.jargon_fraction}")
        if not 1 <= self.min_word_frames <= self.max_word_frames:
            raise SynthError("invalid word frame range")
        if not 1 <= self.min_words <= self.max_words:
            raise SynthError("invalid utterance length range")
        if self.max_words > self.n_common:
            raise SynthError("max_words exceeds the common vocabulary; words are drawn distinct")
        if self.n_jargon and not 1 <= self.jargon_per_utterance <= self.n_jargon:
            raise SynthError("jargon_per_utterance must be in [1, n_jargon]")
        if min(self.train_size, self.dev_size, self.test_size) < 1:
            raise SynthError("all split sizes must be positive")
        wanted = self.train_size + self.dev_size + self.test_size
        if self.noise_sigma == 0 and (distinct := self.distinct_utterances()) < wanted:
            raise SynthError(
                f"a noiseless corpus has only {distinct} distinct utterances, but its splits ask for {wanted}"
            )

    def distinct_utterances(self) -> int:
        """How many word sequences `_make_utterance` can produce: an ordered
        pick of k distinct common words, plus, in a jargon-bearing utterance,
        an ordered pick of `jargon_per_utterance` distinct jargon words
        placed among them."""
        plain = self.jargon_fraction < 1 or not self.n_jargon
        jargon = self.jargon_fraction > 0 and self.n_jargon > 0
        j = self.jargon_per_utterance
        return sum(
            math.perm(self.n_common, k) * (plain + jargon * math.perm(self.n_jargon, j) * math.comb(k + j, j))
            for k in range(self.min_words, self.max_words + 1)
        )


def spec_hash(spec: SynthSpec) -> str:
    blob = json.dumps(asdict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class WordBank:
    common: tuple[str, ...]
    jargon: tuple[str, ...]
    confusable: dict[str, str]  # jargon word -> common counterpart
    prototypes: dict[str, np.ndarray]  # word -> (frames, n_mels)


@dataclass(frozen=True)
class FrameRecipe:
    """A generated utterance's frames as the draws that made them: its words'
    prototypes and, when `sigma > 0`, the `bit_generator.state` of its
    split's stream just before its noise draw."""

    prototypes: tuple[np.ndarray, ...]
    sigma: float
    state: dict | None

    def build(self) -> np.ndarray:
        frames = np.concatenate(self.prototypes, axis=0)
        if self.sigma > 0:
            # the seed is overwritten at once; a fixed one skips an entropy draw
            rng = np.random.Generator(np.random.PCG64(0))
            rng.bit_generator.state = self.state
            frames += rng.normal(0.0, self.sigma, size=frames.shape)
        return frames


@dataclass(frozen=True)
class Utterance:
    """A transcript, its jargon flag and its (T, n_mels) frames.

    `source` is the frames array itself (loaded, or given by a caller) or
    a generated utterance's `FrameRecipe`, which every read of `frames`
    builds anew: the same bits each time, in an array of its own, about
    40 us for 33 frames of 80 mels.  No built array is cached."""

    source: np.ndarray | FrameRecipe
    text: str
    contains_jargon: bool

    @property
    def frames(self) -> np.ndarray:
        return self.source.build() if isinstance(self.source, FrameRecipe) else self.source

    def content_hash(self) -> str:
        h = hashlib.sha256(self.text.encode("utf-8"))
        h.update(self.frames.tobytes())
        return h.hexdigest()


def _random_word(rng: np.random.Generator, n_syllables: int) -> str:
    return "".join(
        _CONSONANTS[rng.integers(len(_CONSONANTS))] + _VOWELS[rng.integers(len(_VOWELS))]
        for _ in range(n_syllables)
    )


def make_word_bank(spec: SynthSpec) -> WordBank:
    """Common words plus near-homophone jargon.

    A jargon word's spelling is its counterpart plus a suffix syllable,
    while its prototypes sit `confusable_offset` away from the
    counterpart's, so only context (a prompt) can reliably pick between
    them.  Pairing cycles common words and suffixes with coprime periods
    to keep all surfaces distinct.
    """
    rng = stream(spec.seed, "words")
    common: list[str] = []
    seen: set[str] = set()
    while len(common) < spec.n_common:
        w = _random_word(rng, int(rng.integers(2, 4)))
        if w not in seen:
            seen.add(w)
            common.append(w)
    if spec.n_jargon > spec.n_common * len(_JARGON_SUFFIXES):
        raise SynthError(
            f"n_jargon {spec.n_jargon} exceeds distinct counterpart/suffix pairs "
            f"{spec.n_common * len(_JARGON_SUFFIXES)}"
        )
    jargon: list[str] = []
    confusable: dict[str, str] = {}
    for i in range(spec.n_common * len(_JARGON_SUFFIXES)):
        if len(jargon) == spec.n_jargon:
            break
        counterpart = common[i % spec.n_common]
        surface = counterpart + _JARGON_SUFFIXES[i // spec.n_common]
        seen.add(surface)
        jargon.append(surface)
        confusable[surface] = counterpart

    prototypes: dict[str, np.ndarray] = {}
    proto_rng = stream(spec.seed, "prototypes")
    for w in common:
        n_frames = int(proto_rng.integers(spec.min_word_frames, spec.max_word_frames + 1))
        prototypes[w] = proto_rng.normal(0.0, 1.0, size=(n_frames, spec.n_mels))
    for w in jargon:
        base = prototypes[confusable[w]]
        prototypes[w] = base + spec.confusable_offset * proto_rng.normal(0.0, 1.0, size=base.shape)
    return WordBank(common=tuple(common), jargon=tuple(jargon), confusable=confusable, prototypes=prototypes)


def _make_utterance(spec: SynthSpec, bank: WordBank, rng: np.random.Generator) -> Utterance:
    k = int(rng.integers(spec.min_words, spec.max_words + 1))
    words = [bank.common[i] for i in rng.choice(len(bank.common), size=k, replace=False)]
    with_jargon = bool(bank.jargon) and rng.random() < spec.jargon_fraction
    if with_jargon:
        picks = rng.choice(len(bank.jargon), size=spec.jargon_per_utterance, replace=False)
        for j in picks:
            words.insert(int(rng.integers(len(words) + 1)), bank.jargon[int(j)])
    prototypes = tuple(bank.prototypes[w] for w in words)
    state = None
    if spec.noise_sigma > 0:
        # the draw advances the split's stream as the frames' noise; `frames` redraws it from `state`
        state = rng.bit_generator.state
        rng.normal(0.0, spec.noise_sigma, size=(sum(len(p) for p in prototypes), spec.n_mels))
    return Utterance(FrameRecipe(prototypes, spec.noise_sigma, state), " ".join(words), with_jargon)


def generate_corpus(spec: SynthSpec) -> tuple[dict[str, list[Utterance]], WordBank]:
    """Seeded train/dev/test splits with no utterance in common.

    Under noise (`noise_sigma > 0`) the splits are disjoint by
    construction: every utterance carries its own continuous noise draw,
    so no two repeat.  At `noise_sigma == 0` an utterance is just its word
    sequence, so repeats are dropped by content hash before they reach
    any split.
    """
    bank = make_word_bank(spec)
    sizes = {"train": spec.train_size, "dev": spec.dev_size, "test": spec.test_size}
    splits: dict[str, list[Utterance]] = {}
    seen_hashes: set[str] | None = set() if spec.noise_sigma == 0 else None
    for name, size in sizes.items():
        rng = stream(spec.seed, "corpus", name)
        utts: list[Utterance] = []
        while len(utts) < size:
            utt = _make_utterance(spec, bank, rng)
            if seen_hashes is not None:
                digest = utt.content_hash()
                if digest in seen_hashes:
                    continue
                seen_hashes.add(digest)
            utts.append(utt)
        splits[name] = utts
    return splits, bank


# ---------------------------------------------------------------------------
# serialization


def dataset_save(path: Path | str, utterances: list[Utterance], spec: SynthSpec) -> None:
    """Frames in a container with header fields `n_mels`, `spec_hash`, and
    per utterance, in payload order, a `contains_jargon` flag and its
    `transcripts` entry, so the container's digest covers the transcripts."""
    header = {
        "n_mels": spec.n_mels,
        "spec_hash": spec_hash(spec),
        "contains_jargon": [int(u.contains_jargon) for u in utterances],
        "transcripts": [u.text for u in utterances],
    }
    write_container(path, _MAGIC, header, [u.frames for u in utterances])


_DATASET_FIELDS = {"n_mels": int, "spec_hash": str, "contains_jargon": list, "transcripts": list}


class DatasetIndexError(SynthError):
    """An utterance index outside a dataset of `size` utterances."""

    def __init__(self, path: Path, index: int, size: int) -> None:
        super().__init__(f"{path}: utterance {index} is outside the {size}-utterance dataset")
        self.size = size


def _check_header(path: Path, header: dict) -> int:
    """The utterance count of a verified dataset header, after checking that
    every shape is (T, n_mels), that `transcripts` and `contains_jargon`
    hold one entry per shape, every transcript a string and every flag the
    int 0 or 1."""
    n_mels, shapes, texts = header["n_mels"], header["shapes"], header["transcripts"]
    if n_mels < 1 or any(len(s) != 2 or s[1] != n_mels for s in shapes):
        raise SynthError(f"{path}: corrupt dataset header: every utterance must be (T, n_mels), n_mels >= 1")
    if not len(texts) == len(header["contains_jargon"]) == len(shapes):
        raise SynthError(f"{path}: manifest count mismatch")
    if not set(map(type, texts)) <= {str}:
        raise SynthError(f"{path}: corrupt dataset header: every transcript must be a string")
    flags = header["contains_jargon"]
    if not (set(map(type, flags)) <= {int} and set(flags) <= {0, 1}):
        raise SynthError(f"{path}: corrupt dataset header: every contains_jargon entry must be 0 or 1")
    return len(shapes)


def dataset_load(path: Path | str, index: int | None = None) -> tuple[list[Utterance] | Utterance, str]:
    """(utterances, digest), or with `index` (that utterance, digest).

    Texts and flags come from the header, which the reader verified; its
    digest identifies the whole dataset, transcripts included.  The header
    passes `_check_header` before any frame is read, and an `index`
    outside the dataset is a `DatasetIndexError`.  With `index` only that
    utterance's frames are read and checked against their digest."""
    path = Path(path)

    def select(header: dict) -> range:
        size = _check_header(path, header)
        if index is None:
            return range(size)
        if not 0 <= index < size:
            raise DatasetIndexError(path, index, size)
        return range(index, index + 1)

    header, frames = read_container(path, _MAGIC, "dataset", SynthError, _DATASET_FIELDS, select)
    utterances = [Utterance(f, text, bool(flag))
                  for f, flag, text in zip(frames, header["contains_jargon"], header["transcripts"])
                  if f is not None]
    return (utterances if index is None else utterances[0]), header["digest"]


def dataset_transcripts(path: Path | str) -> tuple[list[str], str]:
    """(transcripts, digest) of a dataset, from its header alone.

    The header is verified against its digest and passes `dataset_load`'s
    checks, and the payload length is checked against the file size, but
    no frame is read or hashed: the digest is the one `dataset_load`
    returns, since it covers the frames through their recorded digests."""
    path = Path(path)

    def select(header: dict) -> tuple[int, ...]:
        _check_header(path, header)
        return ()

    header, _ = read_container(path, _MAGIC, "dataset", SynthError, _DATASET_FIELDS, select)
    return header["transcripts"], header["digest"]


def word_bank_save(path: Path | str, bank: WordBank) -> None:
    payload = {
        "common": list(bank.common),
        "jargon": list(bank.jargon),
        "confusable": dict(sorted(bank.confusable.items())),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def word_bank_load_words(path: Path | str) -> tuple[dict, str]:
    """(word lists, the sha256 hex of the file's bytes); prototypes are
    reproducible from the spec.  A file that is not UTF-8 JSON, not an
    object, or whose `jargon` is not a list of strings is a SynthError."""
    path = Path(path)
    blob = path.read_bytes()
    try:
        words = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SynthError(f"{path}: corrupt word bank: {exc}") from exc
    if not isinstance(words, dict):
        raise SynthError(f"{path}: corrupt word bank: expected a JSON object, got {type(words).__name__}")
    jargon = words.get("jargon")
    if not isinstance(jargon, list) or not all(isinstance(w, str) for w in jargon):
        raise SynthError(f"{path}: corrupt word bank: 'jargon' must be a list of strings")
    return words, hashlib.sha256(blob).hexdigest()
