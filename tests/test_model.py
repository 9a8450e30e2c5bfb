"""Model forward-pass contracts: shapes, determinism, prompt handling."""

from dataclasses import replace

import numpy as np
import pytest

from kwbias.autodiff import Tensor
from kwbias.model import (
    ModelConfig,
    ModelError,
    _decoder_hidden,
    _readout,
    encode,
    decode_budget,
    decode_next,
    decoder_cache,
    init_params,
    init_prefix,
    kws_detect,
    kws_logits,
    param_count,
    param_group_hash,
    param_layout,
    prompt_attention_block,
    same_encoder,
    teacher_forced_logits,
    transcribe_greedy,
)
from kwbias.rng import stream
from kwbias.text import N_RESERVED, build_vocab

CFG = ModelConfig(d_model=32, n_heads=4, n_enc_layers=2, n_dec_layers=2, d_ff=64,
                  vocab_size=60, n_mels=8, max_src_frames=64, max_tgt_len=48)


@pytest.fixture(scope="module")
def params():
    return init_params(CFG, seed=11)


@pytest.fixture(scope="module")
def vocab():
    return build_vocab(["bako demo rila sotu", "demo vanu kipo", "rila bako sotu"], 60)


def test_config_validation():
    with pytest.raises(ModelError, match="divisible"):
        ModelConfig(d_model=30, n_heads=4)
    for d_model, n_heads in ((65, 5), (15, 3)):
        with pytest.raises(ModelError, match=f"^d_model must be even for sinusoidal positions, got {d_model}$"):
            ModelConfig(d_model=d_model, n_heads=n_heads)
    with pytest.raises(ModelError, match=">= 1"):
        ModelConfig(n_enc_layers=0)


@pytest.mark.parametrize("value", [16.0, True, "16", None])
def test_config_fields_must_be_ints(value):
    with pytest.raises(ModelError, match=f"d_model must be an int >= 1, got {value!r}"):
        ModelConfig(d_model=value)


def test_default_init_is_pinned():
    params = init_params(ModelConfig(), seed=0)
    assert {g: param_group_hash(group) for g, group in params.groups().items() if group} == {
        "encoder": "3a9fa542e2cede9c1d6210e5fbb7a053ec1758adde6606d73093b06ff04180a9",
        "decoder": "502c2ea381bac2877d2a8195956bd49449176bb20d7819379c2a9da6ec1f8005",
        "kws": "94a93ba218f6dd6a65e259033f8dae015f8fe0689d835e3519f1c6658615da91",
    }


def test_init_params_builds_exactly_the_layout(params):
    layout = param_layout(CFG)
    assert params.prefix == {} and set(layout) == {"encoder", "decoder", "kws"}
    for gname, specs in layout.items():
        group = params.groups()[gname]
        assert group.keys() == specs.keys()
        for name, (shape, init) in specs.items():
            assert group[name].shape == shape
            if init == "zeros":
                assert not group[name].data.any()
            elif init == "ones":
                assert (group[name].data == 1.0).all()
            else:
                assert group[name].data.std() > 0


def test_encode_halves_the_frame_count(params):
    rng = stream(0, "enc")
    assert encode(params, [rng.normal(size=(10, 8))]).rows.shape == (5, CFG.d_model)
    assert encode(params, [rng.normal(size=(11, 8))]).rows.shape == (5, CFG.d_model)


def test_encode_is_position_sensitive(params):
    rng = stream(1, "perm")
    frames = rng.normal(size=(10, 8))
    swapped = frames.copy()
    swapped[[0, 3]] = swapped[[3, 0]]
    assert not np.allclose(encode(params, [frames]).rows.data, encode(params, [swapped]).rows.data)


def test_encode_finite_on_zero_input(params):
    assert np.isfinite(encode(params, [np.zeros((12, 8))]).rows.data).all()


def test_encode_rejects_bad_inputs(params):
    with pytest.raises(ModelError, match="max_src_frames"):
        encode(params, [np.zeros((65, 8))])
    with pytest.raises(ModelError, match="features"):
        encode(params, [np.zeros((10, 9))])


def test_decode_next_distribution_sums_to_one(params, vocab):
    u = encode(params, [stream(2, "u").normal(size=(10, 8))])
    probs = decode_next(params, u, [vocab.sop_id, vocab.sot_id], [7, 8], None)
    assert probs.shape == (CFG.vocab_size,)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert (probs >= 0).all()


def test_decode_next_plain_mode_equals_sot_only_conditioning(params, vocab):
    u = encode(params, [stream(3, "u").normal(size=(10, 8))])
    t_prev = [9, 12]
    plain = decode_next(params, u, [vocab.sot_id], t_prev, None)
    again = decode_next(params, u, [vocab.sot_id], t_prev, None)
    assert np.array_equal(plain, again)  # deterministic forward


def test_decode_next_attends_to_prompt_content(params, vocab):
    # an untrained model already reads the prompt: changing one keyword
    # token must move the distribution
    u = encode(params, [stream(4, "u").normal(size=(10, 8))])
    p1 = [vocab.sop_id, 10, 11, vocab.sot_id]
    p2 = [vocab.sop_id, 10, 12, vocab.sot_id]
    d1 = decode_next(params, u, p1, [7], None)
    d2 = decode_next(params, u, p2, [7], None)
    assert not np.allclose(d1, d2)


def test_decode_next_overlength_conditioning_rejected(params, vocab):
    u = encode(params, [stream(5, "u").normal(size=(10, 8))])
    with pytest.raises(ModelError, match="max_tgt_len"):
        decode_next(params, u, [vocab.sot_id], list(range(10, 10 + CFG.max_tgt_len)), None)


def test_transcribe_stops_at_eot_and_respects_max_len(params, vocab):
    u = encode(params, [stream(6, "u").normal(size=(10, 8))])
    out = transcribe_greedy(params, u, [vocab.sop_id, vocab.sot_id], None, vocab.eot_id, 12)
    assert len(out) <= 12
    assert vocab.eot_id not in out


def test_transcribe_eot_forced_gives_empty_transcript(params, vocab):
    forced = init_params(CFG, seed=11)
    forced.decoder["out_b"].data[vocab.eot_id] = 50.0
    u = encode(forced, [stream(7, "u").normal(size=(10, 8))])
    out = transcribe_greedy(forced, u, [vocab.sop_id, vocab.sot_id], None, vocab.eot_id, 12)
    assert out == []


def test_transcribe_breaks_ties_to_lowest_id(params, vocab):
    flat = init_params(CFG, seed=11)
    # zero embeddings and bias give identical logits: argmax picks id 0
    flat.decoder["embed"] = Tensor(np.zeros_like(flat.decoder["embed"].data))
    flat.decoder["out_b"] = Tensor(np.zeros(CFG.vocab_size))
    u = encode(flat, [stream(8, "u").normal(size=(10, 8))])
    out = transcribe_greedy(flat, u, [vocab.sop_id, vocab.sot_id], None, vocab.eot_id, 3)
    assert out == [0, 0, 0]


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


def _naive_greedy(params, u, cond_ids, prefix, eot_id, max_len):
    """Reference decode: recompute the whole decoder for every token."""
    out: list[int] = []
    for _ in range(max_len):
        logits = teacher_forced_logits(params, u, [cond_ids], [out], prefix).data[-1]
        nxt = int(np.argmax(_softmax_rows(logits)))
        if nxt == eot_id:
            break
        out.append(nxt)
    return out


@pytest.mark.parametrize("n_prefix", [0, 3])
@pytest.mark.parametrize("keyworded", [False, True])
def test_cached_steps_match_teacher_forced_rows(vocab, n_prefix, keyworded):
    fresh = init_params(CFG, seed=11)
    q = init_prefix(fresh, n_prefix, seed=5) if n_prefix else None
    u = encode(fresh, [stream(14, "u").normal(size=(10, 8))])
    cond = ([vocab.sop_id, 10, 11, vocab.delim_id, 12, vocab.sot_id] if keyworded
            else [vocab.sop_id, vocab.sot_id])
    t_ids = [7, 8, 9, 7, 20, 33, 41]
    ref = _softmax_rows(teacher_forced_logits(fresh, u, [cond], [t_ids], q).data)
    cache = decoder_cache(fresh, u)
    for step in range(len(t_ids) + 1):
        probs = decode_next(fresh, u, cond, t_ids[:step], q, cache)
        np.testing.assert_allclose(probs, ref[step], rtol=0, atol=1e-12)
    assert cache.length == n_prefix + len(cond) + len(t_ids)
    # a cache extends by several rows at once as well
    cache = decoder_cache(fresh, u)
    decode_next(fresh, u, cond, t_ids[:2], q, cache)
    np.testing.assert_allclose(decode_next(fresh, u, cond, t_ids, q, cache), ref[-1], rtol=0, atol=1e-12)
    with pytest.raises(ModelError, match="already cached"):
        decode_next(fresh, u, cond, t_ids, q, cache)


@pytest.mark.parametrize("n_prefix", [0, 3])
def test_empty_conditioning_is_an_error(vocab, n_prefix):
    fresh = init_params(CFG, seed=11)
    q = init_prefix(fresh, n_prefix, seed=5) if n_prefix else None
    u = encode(fresh, [stream(14, "u").normal(size=(n, 8)) for n in (10, 12)])
    start = "conditioning must contain at least the transcript-start token"
    with pytest.raises(ModelError, match=start):
        teacher_forced_logits(fresh, u, [[vocab.sot_id], []], [[7, 8], [9]], q)
    u = encode(fresh, [stream(14, "u").normal(size=(10, 8))])
    for t_prev in ([], [7, 8]):
        with pytest.raises(ModelError, match=start):
            decode_next(fresh, u, [], t_prev, q, decoder_cache(fresh, u))


@pytest.mark.parametrize("n_prefix", [0, 3])
def test_teacher_forcing_reads_only_the_predicting_rows(vocab, n_prefix):
    # the last layer runs the read rows alone; reading every row and
    # gathering the predicting ones gives the same logits
    fresh = init_params(CFG, seed=11)
    q = init_prefix(fresh, n_prefix, seed=5) if n_prefix else None
    rng = stream(16, "u")
    u = encode(fresh, [rng.normal(size=(n, 8)) for n in (10, 14, 7)])
    conds = [[vocab.sot_id], [vocab.sop_id, 10, 11, vocab.sot_id], [vocab.sop_id, 12, vocab.sot_id]]
    t_ids = [[7, 8, 9], [], [20, 33, 41, 7, 9]]
    lengths = [n_prefix + len(c) + len(t) for c, t in zip(conds, t_ids)]
    rows = [r for end, t in zip(np.cumsum(lengths), t_ids) for r in range(end - len(t) - 1, end)]
    every_row = _decoder_hidden(fresh, u, conds, t_ids, q, None)
    assert every_row.shape == (sum(lengths), CFG.d_model)
    expected = _readout(fresh, Tensor(every_row.data[rows])).data
    got = teacher_forced_logits(fresh, u, conds, t_ids, q).data
    assert got.shape == (sum(len(t) + 1 for t in t_ids), CFG.vocab_size)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_prefix", [0, 3])
def test_transcribe_greedy_equals_naive_argmax_loop(vocab, n_prefix):
    fresh = init_params(CFG, seed=11)
    q = init_prefix(fresh, n_prefix, seed=5) if n_prefix else None
    u = encode(fresh, [stream(15, "u").normal(size=(10, 8))])
    prompt = [vocab.sop_id, 10, 11, vocab.sot_id]
    # an untrained model stops early; with end-of-text suppressed every
    # decode runs to max_len, and small token embeddings let the positions
    # steer the argmax, so the tokens vary
    assert transcribe_greedy(fresh, u, prompt, q, vocab.eot_id, 20) == _naive_greedy(
        fresh, u, prompt, q, vocab.eot_id, 20)
    fresh.decoder["out_b"].data[vocab.eot_id] = -50.0
    fresh.decoder["embed"].data *= 0.1
    max_len = CFG.max_tgt_len - n_prefix - len(prompt)
    out = transcribe_greedy(fresh, u, prompt, q, vocab.eot_id, max_len)
    assert len(out) == max_len and len(set(out)) > 2
    assert out == _naive_greedy(fresh, u, prompt, q, vocab.eot_id, max_len)
    with pytest.raises(ModelError, match="max_tgt_len"):
        transcribe_greedy(fresh, u, prompt, q, vocab.eot_id, max_len + 2)


@pytest.mark.parametrize("n_prefix", [0, 3])
def test_conditioning_without_room_for_end_of_text_is_an_error(vocab, n_prefix):
    fresh = init_params(replace(CFG, max_tgt_len=8), seed=11)
    q = init_prefix(fresh, n_prefix, seed=5) if n_prefix else None
    # 7 rows with the prefix: room for end-of-text and nothing else
    fits = [vocab.sop_id, *[10] * (5 - n_prefix), vocab.sot_id]
    assert decode_budget(fresh, fits, q) == 0
    for cond in ([vocab.sop_id, 10, *fits[1:]], [vocab.sop_id, *[10] * 10, vocab.sot_id]):
        with pytest.raises(ModelError) as info:
            decode_budget(fresh, cond, q)
        assert str(info.value) == (f"conditioning of {n_prefix + len(cond)} rows leaves no room for "
                                   "end-of-text within max_tgt_len 8")


def test_init_prefix_rows_copy_token_embeddings(params):
    fresh = init_params(CFG, seed=11)
    q = init_prefix(fresh, 12, seed=5)
    assert q.shape == (12, CFG.d_model)
    table = fresh.decoder["embed"].data
    for row in q.data:
        matches = np.where((table == row).all(axis=1))[0]
        assert len(matches) >= 1
        assert (matches >= N_RESERVED).all()
    again = init_params(CFG, seed=11)
    q2 = init_prefix(again, 12, seed=5)
    assert np.array_equal(q.data, q2.data)


def test_prefix_changes_the_distribution(params, vocab):
    fresh = init_params(CFG, seed=11)
    u = encode(fresh, [stream(9, "u").normal(size=(10, 8))])
    without = decode_next(fresh, u, [vocab.sop_id, vocab.sot_id], [7], None)
    q = init_prefix(fresh, 4, seed=5)
    with_q = decode_next(fresh, u, [vocab.sop_id, vocab.sot_id], [7], q)
    assert not np.allclose(without, with_q)


def test_kws_empty_keyword_set(params):
    u = encode(params, [stream(10, "u").normal(size=(10, 8))])
    pred = kws_detect(params, u, [], threshold=0.5)
    assert len(pred) == 0
    assert kws_logits(params, u, [[]]).shape == (0,)


def _kws_logit_reference(params, u, tokens):
    """One keyword's logit in plain numpy, one keyword at a time."""
    p = {name: t.data for name, t in params.kws.items()}
    pooled = params.decoder["embed"].data[list(tokens)].mean(axis=0, keepdims=True)
    query = pooled @ p["wq"] + p["bq"]
    scores = query @ (u.rows.data @ p["wk"]).T / np.sqrt(CFG.d_model)
    att = np.exp(scores - scores.max())
    att /= att.sum()
    x = np.concatenate([att @ (u.rows.data @ p["wv"]), query], axis=1) @ p["w1"] + p["b1"]
    hidden = 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
    return float((hidden @ p["w2"] + p["b2"])[0, 0])


def test_kws_logits_of_a_batch_match_one_keyword_at_a_time(params):
    u = encode(params, [stream(13, "u").normal(size=(10, 8))])
    keywords = [[7, 8, 9], [10], [11, 12, 13, 14], [15, 16], [7], [20, 21, 22, 23], [9, 9, 9]]
    logits = kws_logits(params, u, [keywords]).data
    assert logits.shape == (len(keywords),)
    for got, tokens in zip(logits, keywords):
        expected = _kws_logit_reference(params, u, tokens)
        assert abs(got - expected) <= 1e-12 * max(abs(expected), 1e-8), tokens


def test_kws_probabilities_in_unit_interval(params):
    u = encode(params, [stream(11, "u").normal(size=(10, 8))])
    pred = kws_detect(params, u, [[7], [8, 9], [10, 11, 12, 13]], threshold=0.5)
    assert len(pred) == 3
    assert ((pred.probabilities >= 0) & (pred.probabilities <= 1)).all()
    assert pred.decisions.dtype == bool


def test_kws_rejects_overlong_keyword(params):
    u = encode(params, [stream(12, "u").normal(size=(10, 8))])
    with pytest.raises(ModelError, match="1..4"):
        kws_detect(params, u, [[7, 8, 9, 10, 11]], threshold=0.5)


def test_kws_logits_need_one_keyword_list_per_sequence(params):
    u = encode(params, [stream(12, "u").normal(size=(n, 8)) for n in (10, 12)])
    for keyword_tokens in ([[[7]]], [[[7]], [[8]], [[9]]]):
        with pytest.raises(ModelError, match=f"got {len(keyword_tokens)} keyword lists for 2 encoder outputs"):
            kws_logits(params, u, keyword_tokens)
    with pytest.raises(ModelError, match="got 1 keyword lists for 2 encoder outputs"):
        kws_detect(params, u, [[7]], threshold=0.5)


def test_attention_block_shape_and_row_sums(params, vocab):
    fresh = init_params(CFG, seed=11)
    q = init_prefix(fresh, 3, seed=5)
    u = encode(fresh, [stream(13, "u").normal(size=(10, 8))])
    prompt = [vocab.sop_id, 10, 11, vocab.delim_id, 12, vocab.sot_id]
    t_ids = [7, 8, 9]
    for layer in range(CFG.n_dec_layers):
        block, row_sums = prompt_attention_block(fresh, u, prompt, t_ids, q, layer)
        assert block.shape == (len(prompt), len(t_ids))
        assert np.allclose(row_sums, 1.0, atol=1e-9)
    with pytest.raises(ModelError, match="layer"):
        prompt_attention_block(fresh, u, prompt, t_ids, q, CFG.n_dec_layers)


def test_clone_is_deep(params):
    clone = params.clone()
    clone.encoder["in_w"].data[0, 0] += 1.0
    assert params.encoder["in_w"].data[0, 0] != clone.encoder["in_w"].data[0, 0]


def test_same_encoder_compares_config_and_every_encoder_tensor(params):
    clone = params.clone()
    clone.decoder["embed"].data[0, 0] += 1.0
    assert same_encoder(params, clone)
    clone.encoder["ln_out.b"].data[-1] += 1e-12
    assert not same_encoder(params, clone)
    assert not same_encoder(params, init_params(CFG, seed=12))
    other_heads = params.clone()
    other_heads.config = ModelConfig(**{**CFG.__dict__, "n_heads": 2})
    assert not same_encoder(params, other_heads)


def test_group_hash_tracks_content(params):
    h1 = param_group_hash(params.encoder)
    h2 = param_group_hash(params.encoder)
    assert h1 == h2
    other = init_params(CFG, seed=12)
    assert param_group_hash(other.encoder) != h1


def test_param_count(params):
    assert param_count({"q": Tensor(np.zeros((12, 64)))}) == 768
    assert param_count(params.prefix) == 0
