"""Vocabulary, tokenization round-trips, and tf-idf."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_build_vocab
from kwbias.config import RunConfig
from kwbias.synth import generate_corpus
from kwbias.text import (
    N_RESERVED,
    RESERVED,
    Vocab,
    VocabError,
    build_vocab,
    find_subsequence,
    normalize,
    tfidf_scores,
)

CORPUS = [
    "bako demo rila sotu",
    "demo vanu kipo bako",
    "rila sotu bako mivo demo",
    "kipo vanu lemo sotu rila",
    "mivo lemo bako demo",
]


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(CORPUS, 60)


def test_normalize_lowercases_and_strips_punctuation():
    assert normalize("  Hello,   WORLD!x | y ") == "hello world x y"


_KEEP = frozenset("abcdefghijklmnopqrstuvwxyz0123456789 ")


# any text, plus text dense in kept characters, case changes, whitespace other
# than the space, and characters whose lower case is longer than they are
@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="abzAZ09 \t\n\u00a0\u2028.,|\u0130\u1e9e")))
def test_normalize_equals_the_per_character_reference(s):
    chars = [ch if ch in _KEEP else " " for ch in s.lower()]
    assert normalize(s) == " ".join("".join(chars).split())


def test_word_tokens_is_the_space_led_tokenization_and_each_call_owns_its_list(vocab):
    for word in ["bako", "demo", "vanu", "Kipo!", "mivo lemo"]:
        assert vocab.word_tokens(word) == vocab.tokenize(" " + word)
    first = vocab.word_tokens("bako")
    first.append(0)
    first[0] = -1
    assert vocab.word_tokens("bako") == vocab.tokenize(" bako")
    assert vocab.word_tokens("bako") is not vocab.word_tokens("bako")


def test_tokenize_empty_text(vocab):
    assert vocab.tokenize("") == []


def test_tokenize_round_trip_on_corpus(vocab):
    for text in CORPUS:
        assert vocab.detokenize(vocab.tokenize(text)) == normalize(text)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abdeiklmnoprstuv ", max_size=40))
def test_tokenize_round_trip_property(s):
    vocab = build_vocab(CORPUS, 60)
    assert vocab.detokenize(vocab.tokenize(s)) == normalize(s)


def test_whole_unit_word_tokenizes_to_one_id():
    vocab = build_vocab(["ab ab ab ab"] * 3, N_RESERVED + 3 + 1)
    ids = vocab.tokenize("ab")
    assert len(ids) == 1
    assert vocab.units[ids[0]] == "ab"


def test_unknown_character_names_the_character(vocab):
    with pytest.raises(VocabError, match="'z'"):
        vocab.tokenize("zzz")


def test_build_vocab_creates_most_frequent_merge():
    vocab = build_vocab(["ab ab ab"], N_RESERVED + 3 + 1)  # alphabet: a, b, space
    assert vocab.units[-1] == "ab"


def test_build_vocab_is_deterministic():
    v1 = build_vocab(CORPUS, 80)
    v2 = build_vocab(CORPUS, 80)
    assert v1.units == v2.units
    assert v1.content_hash == v2.content_hash


@pytest.fixture(scope="module")
def default_train_texts():
    splits, _ = generate_corpus(RunConfig().synth_spec())
    return [u.text for u in splits["train"]]


def _vocab_or_error(build, corpus, target_size):
    try:
        return build(corpus, target_size).units
    except VocabError as exc:
        return str(exc)


# letters, upper case, digits, spaces and punctuation, plus transcripts
# that normalize to nothing
_TRANSCRIPTS = st.one_of(
    st.text(alphabet="abcde AB09 .,!-|", max_size=30),
    st.sampled_from(["", " ", ".,!", "- | -"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TRANSCRIPTS, max_size=8), st.data())
def test_build_vocab_equals_the_character_stream_merge(corpus, data):
    alphabet = {ch for t in corpus for ch in normalize(t)}
    target = data.draw(st.integers(N_RESERVED + len(alphabet), N_RESERVED + len(alphabet) + 40))
    assert _vocab_or_error(build_vocab, corpus, target) == _vocab_or_error(reference_build_vocab, corpus, target)


@pytest.mark.parametrize("target", [40, 61, 80, 120])
def test_build_vocab_equals_the_character_stream_merge_on_the_default_corpus(default_train_texts, target):
    assert build_vocab(default_train_texts, target).units == reference_build_vocab(default_train_texts, target).units


def test_default_vocabulary_is_pinned(default_train_texts):
    vocab = build_vocab(default_train_texts, RunConfig().vocab_target)
    assert len(vocab) == 61
    assert vocab.content_hash == "d1ea84d01682d2f1ebacc04edffb40cd07cf5beeff27f297677e7a56709cf233"


def test_reserved_ids_distinct_and_never_tokenized(vocab):
    assert vocab.units[:N_RESERVED] == RESERVED
    ids = vocab.tokenize("pad sop sot eot " + "".join(RESERVED))
    assert all(i >= N_RESERVED for i in ids)


def test_build_vocab_rejects_too_small_target():
    with pytest.raises(VocabError, match="below"):
        build_vocab(CORPUS, 5)


def test_build_vocab_rejects_empty_corpus():
    with pytest.raises(VocabError, match="empty"):
        build_vocab(["", "   "], 50)


def test_detokenize_rejects_reserved_by_default(vocab):
    with pytest.raises(VocabError, match="reserved"):
        vocab.detokenize([vocab.sop_id])
    assert vocab.detokenize([vocab.sop_id], skip_reserved=True) == ""


def test_vocab_save_load_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    loaded = Vocab.load(path)
    assert loaded.units == vocab.units
    assert loaded.content_hash == vocab.content_hash


def test_vocab_load_rejects_non_integer_index(tmp_path, vocab):
    path = tmp_path / "vocab.tsv"
    path.write_text(vocab.serialize() + "x\ta\n", encoding="utf-8")
    with pytest.raises(VocabError, match=f"malformed vocabulary line {len(vocab)}: "):
        Vocab.load(path)


def _naive_find(haystack, needle):
    k = len(needle)
    starts = [i for i in range(len(haystack) - k + 1) if tuple(haystack[i : i + k]) == tuple(needle)]
    return starts[0] if k and starts else -1


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.lists(st.integers(0, 3), max_size=12), st.lists(st.integers(0, 3), max_size=4)),
        st.tuples(st.lists(st.sampled_from("abc"), max_size=12), st.lists(st.sampled_from("abc"), max_size=4)),
    )
)
def test_find_subsequence_equals_naive_scan(pair):
    haystack, needle = pair
    assert find_subsequence(haystack, needle) == _naive_find(haystack, needle)
    assert find_subsequence(tuple(haystack), tuple(needle)) == _naive_find(haystack, needle)
    assert find_subsequence(haystack, []) == -1


def test_tfidf_word_in_every_document_scores_zero():
    table = tfidf_scores(["bako demo", "bako rila", "bako sotu"])
    assert table.get("bako") == 0.0
    assert table.get("demo") > 0.0


def test_tfidf_single_document_all_zero():
    table = tfidf_scores(["x y"])
    assert table.get("x") == 0.0
    assert table.get("y") == 0.0


def test_tfidf_three_document_hand_computation():
    table = tfidf_scores(["a a b", "a c", "b c d"])
    # tf(a)=3, df(a)=2; tf(b)=2, df(b)=2; tf(d)=1, df(d)=1
    assert math.isclose(table.get("a"), 3 * math.log(3 / 2))
    assert math.isclose(table.get("b"), 2 * math.log(3 / 2))
    assert math.isclose(table.get("d"), 1 * math.log(3 / 1))
    assert "missing" not in table


def test_tfidf_scores_nonnegative():
    table = tfidf_scores(CORPUS)
    assert all(v >= 0 for v in table.values())
