"""Synthetic corpus generation and its serialization."""

import hashlib
import struct
from dataclasses import replace

import numpy as np
import pytest

from kwbias.container import read_container, write_container
from kwbias.synth import (
    SynthError,
    SynthSpec,
    dataset_load,
    dataset_save,
    generate_corpus,
    make_word_bank,
    spec_hash,
    word_bank_load_words,
    word_bank_save,
)

SMALL = SynthSpec(train_size=40, dev_size=10, test_size=10, seed=7)


def test_generation_is_deterministic():
    a, _ = generate_corpus(SMALL)
    b, _ = generate_corpus(SMALL)
    for split in ("train", "dev", "test"):
        assert len(a[split]) == len(b[split])
        for ua, ub in zip(a[split], b[split]):
            assert ua.text == ub.text
            assert np.array_equal(ua.frames, ub.frames)


def test_splits_are_disjoint_by_content_hash():
    splits, _ = generate_corpus(SMALL)
    hashes = [u.content_hash() for s in splits.values() for u in s]
    assert len(set(hashes)) == len(hashes)


def test_noiseless_splits_drop_repeated_utterances():
    # 3 common words, 2 or 3 per utterance: 12 distinct utterances, of which
    # the splits take 11, so the raw draws of each split repeat
    spec = SynthSpec(n_common=3, n_jargon=0, min_words=2, max_words=3, noise_sigma=0.0,
                     jargon_fraction=0.0, train_size=6, dev_size=3, test_size=2, seed=11)
    splits, _ = generate_corpus(spec)
    texts = [u.text for s in splits.values() for u in s]
    hashes = [u.content_hash() for s in splits.values() for u in s]
    assert [len(s) for s in splits.values()] == [6, 3, 2]
    assert len(set(texts)) == len(texts) == 11
    assert len(set(hashes)) == 11


def test_noiseless_spec_with_too_few_distinct_utterances_is_rejected_at_once():
    # 2 common words, 1 or 2 per utterance, no jargon: 2 + 2 = 4 distinct
    # utterances, and the splits ask for 5, so generation could never finish
    with pytest.raises(SynthError, match="only 4 distinct utterances, but its splits ask for 5"):
        SynthSpec(n_common=2, n_jargon=0, jargon_fraction=0.0, min_words=1, max_words=2,
                  noise_sigma=0.0, train_size=3, dev_size=1, test_size=1)
    # with noise every utterance is distinct, so the same shape is fine
    SynthSpec(n_common=2, n_jargon=0, jargon_fraction=0.0, min_words=1, max_words=2,
              noise_sigma=0.1, train_size=3, dev_size=1, test_size=1)


@pytest.mark.parametrize("n_jargon, fraction, expected", [
    (0, 0.0, 9), (0, 1.0, 9), (2, 0.0, 9), (2, 0.5, 57), (2, 1.0, 48),
])
def test_distinct_utterances_counts_every_reachable_word_sequence(n_jargon, fraction, expected):
    # 3 common words, 1 or 2 per utterance, one jargon word when drawn
    spec = SynthSpec(n_common=3, n_jargon=n_jargon, jargon_per_utterance=1, jargon_fraction=fraction,
                     min_words=1, max_words=2, noise_sigma=0.0, train_size=2, dev_size=1, test_size=1)
    assert spec.distinct_utterances() == expected
    # every distinct utterance is drawn: the corpus takes all of them
    full = replace(spec, train_size=expected - 2)
    splits, _ = generate_corpus(full)
    assert len({u.text for s in splits.values() for u in s}) == expected
    with pytest.raises(SynthError, match=f"only {expected} distinct"):
        replace(spec, train_size=expected - 1)


def test_every_jargon_word_has_a_confusable_counterpart():
    bank = make_word_bank(SMALL)
    assert set(bank.confusable) == set(bank.jargon)
    assert all(c in bank.common for c in bank.confusable.values())
    for j, c in bank.confusable.items():
        assert bank.prototypes[j].shape == bank.prototypes[c].shape
        gap = np.abs(bank.prototypes[j] - bank.prototypes[c]).max()
        assert 0 < gap < 5 * SMALL.confusable_offset


def test_frame_count_is_sum_of_word_prototypes():
    splits, bank = generate_corpus(SMALL)
    for u in splits["dev"]:
        expected = sum(bank.prototypes[w].shape[0] for w in u.text.split())
        assert u.frames.shape == (expected, SMALL.n_mels)


def test_jargon_flag_matches_transcript():
    splits, bank = generate_corpus(SMALL)
    jargon = set(bank.jargon)
    for split in splits.values():
        for u in split:
            has = any(w in jargon for w in u.text.split())
            assert u.contains_jargon == has
            if has:
                n = sum(w in jargon for w in u.text.split())
                assert n == SMALL.jargon_per_utterance


def test_noiseless_corpus_supports_table_lookup_decoding():
    spec = SynthSpec(train_size=30, dev_size=5, test_size=5, noise_sigma=0.0,
                     n_jargon=0, jargon_fraction=0.0, seed=3)
    splits, bank = generate_corpus(spec)
    protos = sorted(bank.prototypes.items())
    for u in splits["train"]:
        # greedy exact prototype matching from the left
        pos, words = 0, []
        while pos < u.frames.shape[0]:
            for word, proto in protos:
                n = proto.shape[0]
                if np.array_equal(u.frames[pos : pos + n], proto):
                    words.append(word)
                    pos += n
                    break
            else:
                raise AssertionError("frames do not match any prototype")
        assert " ".join(words) == u.text


def test_invalid_specs_are_rejected():
    with pytest.raises(SynthError, match="noise_sigma"):
        SynthSpec(noise_sigma=-0.1)
    # NaN passes `< 0` and would skip both the noise and the dedupe branch
    for name in ("noise_sigma", "confusable_offset", "jargon_fraction"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(SynthError, match=f"^{name} must be finite, got {value}$"):
                SynthSpec(**{name: value})
    with pytest.raises(SynthError, match="max_words"):
        SynthSpec(n_common=3, min_words=3, max_words=4)
    with pytest.raises(SynthError, match="jargon_per_utterance"):
        SynthSpec(n_jargon=2, jargon_per_utterance=3)


def test_dataset_round_trip(tmp_path):
    splits, _ = generate_corpus(SMALL)
    path = tmp_path / "dev.ds"
    dataset_save(path, splits["dev"], SMALL)
    loaded, _ = dataset_load(path)
    assert len(loaded) == len(splits["dev"])
    for a, b in zip(splits["dev"], loaded):
        assert a.text == b.text
        assert a.contains_jargon == b.contains_jargon
        assert np.array_equal(a.frames, b.frames)


def test_dataset_save_is_byte_deterministic(tmp_path):
    splits, _ = generate_corpus(SMALL)
    p1, p2 = tmp_path / "a.ds", tmp_path / "b.ds"
    dataset_save(p1, splits["dev"], SMALL)
    dataset_save(p2, splits["dev"], SMALL)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_dataset_is_a_structured_error(tmp_path):
    splits, _ = generate_corpus(SMALL)
    path = tmp_path / "dev.ds"
    dataset_save(path, splits["dev"], SMALL)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 17])
    with pytest.raises(SynthError, match=r"\.ds: truncated dataset: "):
        dataset_load(path)


@pytest.mark.parametrize("blob, message", [
    (b"KWBDS001\x00", "truncated"),
    (b"KWBDS001" + struct.pack("<Q", 2) + b"{}", "field 'n_mels'"),
    (b"KWBDS001" + struct.pack("<Q", 5) + b"[1,2]", "JSON object"),
], ids=["nine-bytes", "empty-object", "array"])
def test_malformed_dataset_header_is_a_structured_error(tmp_path, blob, message):
    path = tmp_path / "bad.ds"
    path.write_bytes(blob)
    with pytest.raises(SynthError, match=message):
        dataset_load(path)


def _rewrite_dataset(path, edit) -> None:
    """Rewrite dataset `path` after `edit(header)` has changed its own header
    fields; the copy carries a valid digest."""
    header, frames = read_container(path, b"KWBDS001", "dataset", SynthError, {})
    header = {k: v for k, v in header.items() if k not in ("digest", "shapes")}
    edit(header)
    write_container(path, b"KWBDS001", header, frames)


def test_transcript_count_mismatch_is_detected(tmp_path):
    """The header holds one transcript fewer than it has utterances, digest and all."""
    splits, _ = generate_corpus(SMALL)
    path = tmp_path / "dev.ds"
    dataset_save(path, splits["dev"], SMALL)
    _rewrite_dataset(path, lambda h: h["transcripts"].pop())
    for index in (None, 0):
        with pytest.raises(SynthError, match=r"dev\.ds: manifest count mismatch$"):
            dataset_load(path, index)


def test_non_string_transcript_is_a_one_line_synth_error(tmp_path):
    """Utterance 3's transcript is a number, digest and all; a load of
    utterance 0, whose own transcript is sound, fails too."""
    splits, _ = generate_corpus(SMALL)
    path = tmp_path / "dev.ds"
    dataset_save(path, splits["dev"], SMALL)
    _rewrite_dataset(path, lambda h: h["transcripts"].__setitem__(3, 7))
    for index in (None, 0):
        with pytest.raises(SynthError) as info:
            dataset_load(path, index)
        assert str(info.value) == f"{path}: corrupt dataset header: every transcript must be a string"


@pytest.mark.parametrize("flags", [["no", None], [2, 0], [True, False]], ids=["string-and-null", "two", "bools"])
def test_a_jargon_flag_other_than_int_0_or_1_is_a_one_line_synth_error(tmp_path, flags):
    """The first two flags are rewritten, digest and all, and the payload's
    last byte is flipped: only a check made before any frame is read can
    name the flags."""
    splits, _ = generate_corpus(SMALL)
    path = tmp_path / "dev.ds"
    dataset_save(path, splits["dev"], SMALL)
    _rewrite_dataset(path, lambda h: h["contains_jargon"].__setitem__(slice(0, 2), flags))
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1
    path.write_bytes(bytes(blob))
    for index in (None, 0):
        with pytest.raises(SynthError) as info:
            dataset_load(path, index)
        assert str(info.value) == f"{path}: corrupt dataset header: every contains_jargon entry must be 0 or 1"


def test_word_bank_round_trip(tmp_path):
    _, bank = generate_corpus(SMALL)
    path = tmp_path / "words.json"
    word_bank_save(path, bank)
    words, sha256 = word_bank_load_words(path)
    assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert words["common"] == list(bank.common)
    assert words["jargon"] == list(bank.jargon)
    assert words["confusable"] == bank.confusable


@pytest.mark.parametrize("blob, message", [
    (b'{"jargon": [', r"corrupt word bank: Expecting value"),
    (b'{"jargon": ["\xff"]}', r"corrupt word bank: 'utf-8' codec can't decode"),
    (b'["kiso"]', r"corrupt word bank: expected a JSON object, got list$"),
    (b'{"common": ["kiso"]}', r"corrupt word bank: 'jargon' must be a list of strings$"),
    (b'{"jargon": "kisozy"}', r"corrupt word bank: 'jargon' must be a list of strings$"),
    (b'{"jargon": ["kisozy", 7]}', r"corrupt word bank: 'jargon' must be a list of strings$"),
], ids=["truncated", "not-utf8", "array", "no-jargon", "jargon-string", "jargon-number"])
def test_malformed_word_bank_is_a_synth_error(tmp_path, blob, message):
    path = tmp_path / "words.json"
    path.write_bytes(blob)
    with pytest.raises(SynthError, match=message) as info:
        word_bank_load_words(path)
    assert str(info.value).startswith(f"{path}: ") and "\n" not in str(info.value)


def test_spec_hash_changes_with_fields():
    assert spec_hash(SMALL) != spec_hash(SynthSpec(train_size=41, dev_size=10, test_size=10, seed=7))
    assert spec_hash(SMALL) == spec_hash(SynthSpec(train_size=40, dev_size=10, test_size=10, seed=7))
