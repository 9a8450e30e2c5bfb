"""Model forward-pass contracts: shapes, determinism, prompt handling."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbias import autodiff as ad
from kwbias import model
from kwbias.autodiff import Tape, Tensor
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
    (probs,) = decode_next(params, u, [[vocab.sop_id, vocab.sot_id]], [[7, 8]], None)
    assert probs.shape == (CFG.vocab_size,)
    assert abs(probs.sum() - 1.0) < 1e-12
    assert (probs >= 0).all()


def test_decode_next_plain_mode_equals_sot_only_conditioning(params, vocab):
    u = encode(params, [stream(3, "u").normal(size=(10, 8))])
    t_prev = [9, 12]
    plain = decode_next(params, u, [[vocab.sot_id]], [t_prev], None)
    again = decode_next(params, u, [[vocab.sot_id]], [t_prev], None)
    assert np.array_equal(plain, again)  # deterministic forward


def test_decode_next_attends_to_prompt_content(params, vocab):
    # an untrained model already reads the prompt: changing one keyword
    # token must move the distribution
    u = encode(params, [stream(4, "u").normal(size=(10, 8))])
    p1 = [vocab.sop_id, 10, 11, vocab.sot_id]
    p2 = [vocab.sop_id, 10, 12, vocab.sot_id]
    d1 = decode_next(params, u, [p1], [[7]], None)
    d2 = decode_next(params, u, [p2], [[7]], None)
    assert not np.allclose(d1, d2)


def test_decode_next_overlength_conditioning_rejected(params, vocab):
    u = encode(params, [stream(5, "u").normal(size=(10, 8))])
    with pytest.raises(ModelError, match="max_tgt_len"):
        decode_next(params, u, [[vocab.sot_id]], [list(range(10, 10 + CFG.max_tgt_len))], None)


def test_transcribe_stops_at_eot_and_respects_max_len(params, vocab):
    u = encode(params, [stream(6, "u").normal(size=(10, 8))])
    (out,) = transcribe_greedy(params, u, [[vocab.sop_id, vocab.sot_id]], None, vocab.eot_id, 12)
    assert len(out) <= 12
    assert vocab.eot_id not in out


def test_transcribe_eot_forced_gives_empty_transcript(params, vocab):
    forced = init_params(CFG, seed=11)
    forced.decoder["out_b"].data[vocab.eot_id] = 50.0
    u = encode(forced, [stream(7, "u").normal(size=(10, 8))])
    assert transcribe_greedy(forced, u, [[vocab.sop_id, vocab.sot_id]], None, vocab.eot_id, 12) == [[]]


def test_transcribe_breaks_ties_to_lowest_id(params, vocab):
    flat = init_params(CFG, seed=11)
    # zero embeddings and bias give identical logits: argmax picks id 0
    flat.decoder["embed"] = Tensor(np.zeros_like(flat.decoder["embed"].data))
    flat.decoder["out_b"] = Tensor(np.zeros(CFG.vocab_size))
    u = encode(flat, [stream(8, "u").normal(size=(10, 8))])
    assert transcribe_greedy(flat, u, [[vocab.sop_id, vocab.sot_id]], None, vocab.eot_id, 3) == [[0, 0, 0]]


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
        (probs,) = decode_next(fresh, u, [cond], [t_ids[:step]], q, cache)
        np.testing.assert_allclose(probs, ref[step], rtol=0, atol=1e-12)
    assert cache.lengths == (n_prefix + len(cond) + len(t_ids),)
    # a cache extends by several rows at once as well
    cache = decoder_cache(fresh, u)
    decode_next(fresh, u, [cond], [t_ids[:2]], q, cache)
    np.testing.assert_allclose(decode_next(fresh, u, [cond], [t_ids], q, cache)[0], ref[-1], rtol=0, atol=1e-12)
    with pytest.raises(ModelError, match="already cached"):
        decode_next(fresh, u, [cond], [t_ids], q, cache)
    # a first call over sequences of different lengths reads each
    # sequence's last teacher-forced row
    rng = stream(17, "u")
    u = encode(fresh, [rng.normal(size=(n, 8)) for n in (10, 14, 7, 12)])
    conds = [cond, [vocab.sot_id], [vocab.sop_id, 13, 14, 15, vocab.delim_id, 16, vocab.sot_id],
             [vocab.sop_id, 17, vocab.sot_id]]
    t_prev = [t_ids[:3], [], t_ids, t_ids[:1]]
    ref = _softmax_rows(teacher_forced_logits(fresh, u, conds, t_prev, q).data)
    ends = np.cumsum([len(t) + 1 for t in t_prev]) - 1
    cache = decoder_cache(fresh, u)
    np.testing.assert_allclose(decode_next(fresh, u, conds, t_prev, q, cache), ref[ends], rtol=0, atol=1e-12)
    assert cache.lengths == tuple(n_prefix + len(c) + len(t) for c, t in zip(conds, t_prev))


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
            decode_next(fresh, u, [[]], [t_prev], q, decoder_cache(fresh, u))


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
    assert transcribe_greedy(fresh, u, [prompt], q, vocab.eot_id, 20) == [_naive_greedy(
        fresh, u, prompt, q, vocab.eot_id, 20)]
    fresh.decoder["out_b"].data[vocab.eot_id] = -50.0
    fresh.decoder["embed"].data *= 0.1
    budget = decode_budget(fresh, prompt, q)
    assert budget == CFG.max_tgt_len - n_prefix - len(prompt) - 1
    (out,) = transcribe_greedy(fresh, u, [prompt], q, vocab.eot_id, budget)
    assert len(out) == budget and len(set(out)) > 2
    assert out == _naive_greedy(fresh, u, prompt, q, vocab.eot_id, budget)
    # a longer max_len stops at the decode budget all the same
    assert transcribe_greedy(fresh, u, [prompt], q, vocab.eot_id, budget + 2) == [out]


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


# ---------------------------------------------------------------------------
# batch-first decoding: every row of a batch decodes as it would alone


def _decode_world(vocab, n_prefix: int, eot_bias: float):
    """Untrained weights with end-of-text biased by eot_bias; small token
    embeddings let positions steer the argmax, so decodes vary."""
    fresh = init_params(CFG, seed=11)
    q = init_prefix(fresh, n_prefix, seed=5) if n_prefix else None
    fresh.decoder["out_b"].data[vocab.eot_id] = eot_bias
    fresh.decoder["embed"].data *= 0.1
    return fresh, q


def _prompt(vocab, keyword_ids):
    return [vocab.sop_id, *keyword_ids, vocab.sot_id] if keyword_ids else [vocab.sot_id]


_rows = st.lists(
    st.tuples(st.integers(4, 24), st.lists(st.integers(N_RESERVED, CFG.vocab_size - 1), max_size=40)),
    min_size=1, max_size=4,
)


@settings(max_examples=25, deadline=None)
@given(rows=_rows, n_prefix=st.sampled_from([0, 3]), eot_bias=st.sampled_from([-50.0, 0.0, 0.3]),
       max_len=st.integers(0, CFG.max_tgt_len), seed=st.integers(0, 2**16))
def test_batched_greedy_equals_each_batch_of_one(vocab, rows, n_prefix, eot_bias, max_len, seed):
    fresh, q = _decode_world(vocab, n_prefix, eot_bias)
    # prompts of up to 42 conditioning rows: some rows have a budget of a
    # few tokens or none, so budgets bind at different steps
    conds = [_prompt(vocab, ids[: CFG.max_tgt_len - 6 - n_prefix]) for _, ids in rows]
    rng = stream(seed, "frames")
    u = encode(fresh, [rng.normal(size=(n, 8)) for n, _ in rows])
    batched = transcribe_greedy(fresh, u, conds, q, vocab.eot_id, max_len)
    alone = [transcribe_greedy(fresh, u.keep([b]), [cond], q, vocab.eot_id, max_len)[0]
             for b, cond in enumerate(conds)]
    assert batched == alone
    for out, cond in zip(batched, conds):
        assert len(out) <= min(max_len, decode_budget(fresh, cond, q)) and vocab.eot_id not in out


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(4, 24), st.lists(st.integers(N_RESERVED, CFG.vocab_size - 1), max_size=8),
                               st.lists(st.integers(N_RESERVED, CFG.vocab_size - 1), max_size=10),
                               st.integers(0, 10)), min_size=1, max_size=4),
       n_prefix=st.sampled_from([0, 3]), seed=st.integers(0, 2**16))
def test_batched_decode_next_rows_match_batches_of_one(vocab, rows, n_prefix, seed):
    # numpy's one-row and many-row matmuls differ in the last bits, so rows
    # match to 1e-12, not bit for bit
    fresh, q = _decode_world(vocab, n_prefix, 0.0)
    rng = stream(seed, "frames")
    u = encode(fresh, [rng.normal(size=(n, 8)) for n, *_ in rows])
    conds = [_prompt(vocab, ids) for _, ids, _, _ in rows]
    t_prev = [t for _, _, t, _ in rows]
    alone = np.stack([decode_next(fresh, u.keep([b]), [c], [t], q)[0]
                      for b, (c, t) in enumerate(zip(conds, t_prev))])
    np.testing.assert_allclose(decode_next(fresh, u, conds, t_prev, q), alone, rtol=0, atol=1e-12)
    # a cache that first took a different number of each sequence's tokens,
    # then one call that adds one or more rows to each sequence
    cache = decoder_cache(fresh, u)
    decode_next(fresh, u, conds, [t[:cut] for t, (*_, cut) in zip(t_prev, rows)], q, cache)
    grown = [[*t, N_RESERVED + b] for b, t in enumerate(t_prev)]
    expected = np.stack([decode_next(fresh, u.keep([b]), [c], [t], q)[0]
                         for b, (c, t) in enumerate(zip(conds, grown))])
    np.testing.assert_allclose(decode_next(fresh, u, conds, grown, q, cache), expected, rtol=0, atol=1e-12)
    assert cache.lengths == tuple(n_prefix + len(c) + len(t) for c, t in zip(conds, grown))


@pytest.mark.parametrize("n_prefix", [0, 3])
def test_budgets_bind_at_different_steps_and_a_row_ends_at_step_one(vocab, n_prefix):
    fresh, q = _decode_world(vocab, n_prefix, -50.0)
    rng = stream(21, "frames")
    u = encode(fresh, [rng.normal(size=(n, 8)) for n in (10, 14, 7, 12)])
    room = CFG.max_tgt_len - 1 - n_prefix
    # decode budgets of 1, 5, 20 and 46 - n_prefix tokens; end-of-text never wins
    conds = [_prompt(vocab, [10 + i % 7 for i in range(room - budget - 2)]) for budget in (1, 5, 20)]
    conds.append([vocab.sot_id])
    budgets = [decode_budget(fresh, c, q) for c in conds]
    assert budgets == [1, 5, 20, room - 1]
    batched = transcribe_greedy(fresh, u, conds, q, vocab.eot_id, 30)
    assert [len(out) for out in batched] == [1, 5, 20, 30]
    alone = [transcribe_greedy(fresh, u.keep([b]), [c], q, vocab.eot_id, 30)[0] for b, c in enumerate(conds)]
    assert batched == alone
    assert transcribe_greedy(fresh, u, conds, q, vocab.eot_id, 0) == [[], [], [], []]


def test_a_finished_row_leaves_the_other_rows_unchanged(vocab):
    fresh, q = _decode_world(vocab, 3, 0.0)
    eot = vocab.eot_id
    rng = stream(22, "frames")
    u = encode(fresh, [rng.normal(size=(n, 8)) for n in (10, 14, 7)])
    conds = [[vocab.sot_id], [vocab.sop_id, 10, 11, vocab.sot_id], [vocab.sop_id, 12, vocab.sot_id]]
    # bias end-of-text so that it wins the first step of exactly one row
    first = np.log(decode_next(fresh, u, conds, [[], [], []], q))
    margins = np.delete(first, eot, axis=1).max(axis=1) - first[:, eot]
    ends, *rest = np.argsort(margins).tolist()
    assert margins[rest[0]] - margins[ends] > 1e-3
    fresh.decoder["out_b"].data[eot] += (margins[ends] + margins[rest[0]]) / 2
    batched = transcribe_greedy(fresh, u, conds, q, eot, 12)
    assert batched[ends] == [] and all(batched[b] for b in rest)
    # it leaves the batch: the others decode as the batch without it
    assert [batched[b] for b in rest] == transcribe_greedy(fresh, u.keep(rest), [conds[b] for b in rest], q, eot, 12)
    # and on the cache level, retiring a sequence leaves the others' next distributions
    full_cache, cache = decoder_cache(fresh, u), decoder_cache(fresh, u)
    decode_next(fresh, u, conds, [[], [], []], q, full_cache)
    full = decode_next(fresh, u, conds, [[7], [8], [9]], q, full_cache)
    decode_next(fresh, u, conds, [[], [], []], q, cache)
    cache.retire(ends)
    live = [0, 1, 2]
    live[ends] = live[-1]
    live.pop()
    kept = decode_next(fresh, u.keep(live), [conds[b] for b in live], [[7 + b] for b in live], q, cache)
    np.testing.assert_allclose(kept, full[live], rtol=0, atol=1e-12)


def test_cached_steps_write_keys_and_values_in_place(vocab, monkeypatch):
    # every decode call, the first one included, writes its rows into the
    # cache's padded arrays: the arrays stay the same objects until
    # capacity grows, the rows cached before a call are left as they were,
    # and no call runs a taped primitive
    fresh, q = _decode_world(vocab, 3, -50.0)
    rng = stream(23, "frames")
    u = encode(fresh, [rng.normal(size=(n, 8)) for n in (10, 14, 7)])
    conds = [[vocab.sot_id], [vocab.sop_id, 10, 11, vocab.sot_id], [vocab.sop_id, 12, vocab.sot_id]]
    calls = {"attention": 0, "affine": 0, "embedding": 0, "concat": 0}
    for name in calls:
        def counted(*args, _real=getattr(ad, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(ad, name, counted)
    steps = []  # per call: first call or not, capacity, arrays, cached rows kept, no taped primitive
    real = model.decode_next

    def spy(params, u, cond_ids, t_prev, prefix, cache):
        first = not cache.self_kv
        cached = [(i, j, b, kv[j][b, :n].copy())
                  for i, kv in enumerate(cache.self_kv) for j in (0, 1) for b, n in enumerate(cache.lengths)]
        before = dict(calls)
        probs = real(params, u, cond_ids, t_prev, prefix, cache)
        kept = all(np.array_equal(cache.self_kv[i][j][b, : len(old)], old) for i, j, b, old in cached)
        steps.append((first, cache.capacity, [a for kv in cache.self_kv for a in kv], kept, calls == before))
        return probs

    monkeypatch.setattr(model, "decode_next", spy)
    out = transcribe_greedy(fresh, u, conds, q, vocab.eot_id, 30)
    assert [len(t) for t in out] == [30, 30, 30]
    assert [first for first, *_ in steps] == [True] + [False] * (len(steps) - 1)
    capacities = [capacity for _, capacity, *_ in steps]
    assert len(set(capacities)) > 1, "the decode should outgrow the first call's capacity"
    for (_, cap_a, arrays_a, *_), (_, cap_b, arrays_b, *_) in zip(steps, steps[1:]):
        assert all(a is b for a, b in zip(arrays_a, arrays_b)) == (cap_a == cap_b)
    assert all(kept and untaped for *_, kept, untaped in steps)


@pytest.mark.parametrize("eot_bias", [-50.0, 0.3])
def test_uninitialized_cache_rows_are_never_read(vocab, monkeypatch, eot_bias):
    # the cache leaves rows past the longest sequence uninitialized; filled
    # with NaN instead, they change no token
    fresh, q = _decode_world(vocab, 3, eot_bias)
    rng = stream(24, "frames")
    u = encode(fresh, [rng.normal(size=(n, 8)) for n in (10, 14, 7, 12)])
    conds = [[vocab.sot_id], [vocab.sop_id, 10, 11, vocab.sot_id], [vocab.sop_id, 12, vocab.sot_id], [vocab.sot_id]]
    expected = transcribe_greedy(fresh, u, conds, q, vocab.eot_id, 30)
    real_empty = np.empty

    def nan_empty(shape, *args, **kwargs):
        out = real_empty(shape, *args, **kwargs)
        out.fill(np.nan)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    assert transcribe_greedy(fresh, u, conds, q, vocab.eot_id, 30) == expected


def test_a_cached_step_under_a_tape_is_an_error(vocab):
    fresh = init_params(CFG, seed=11)
    u = encode(fresh, [stream(12, "u").normal(size=(10, 8))])
    cond = [vocab.sop_id, 10, vocab.sot_id]
    cache = decoder_cache(fresh, u)
    decode_next(fresh, u, [cond], [[]], None, cache)
    trainable = Tensor(np.zeros((2, CFG.d_model)), requires_grad=True)
    errors = []
    with Tape():
        # frozen parameters: nothing for the tape to record
        decode_next(fresh, u, [cond], [[7]], None, cache)
        # every decode call runs off the tape: a cached step, a first call
        # over an empty cache or none, and a trainable prefix alone
        fresh.decoder["l0.attn.wq"].requires_grad = True
        for prefix, c in ((None, cache), (None, decoder_cache(fresh, u)), (None, None)):
            with pytest.raises(ModelError) as info:
                decode_next(fresh, u, [cond], [[7, 8]], prefix, c)
            errors.append(str(info.value))
        fresh.decoder["l0.attn.wq"].requires_grad = False
        with pytest.raises(ModelError) as info:
            decode_next(fresh, u, [cond], [[7, 8]], trainable, None)
        errors.append(str(info.value))
    assert errors == ["a cached decode step is not recorded on the tape: decode outside the tape"] * 4
    assert cache.lengths == (len(cond) + 1,)
    decode_next(fresh, u, [cond], [[7, 8]], None, cache)


def test_decode_needs_one_conditioning_per_sequence(params, vocab):
    u = encode(params, [stream(12, "u").normal(size=(n, 8)) for n in (10, 12)])
    with pytest.raises(ModelError, match="^got 1 conditionings and 1 token lists for 2 encoder outputs$"):
        decode_next(params, u, [[vocab.sot_id]], [[]], None)
    with pytest.raises(ModelError, match="^got 3 conditionings for 2 encoder outputs$"):
        transcribe_greedy(params, u, [[vocab.sot_id]] * 3, None, vocab.eot_id, 5)
    with pytest.raises(ModelError, match=r"^the cache holds encoder outputs of \(5,\) rows, not u's \(5, 6\)$"):
        decode_next(params, u, [[vocab.sot_id]] * 2, [[], []], None, decoder_cache(params, u.keep([0])))


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
    without = decode_next(fresh, u, [[vocab.sop_id, vocab.sot_id]], [[7]], None)
    q = init_prefix(fresh, 4, seed=5)
    with_q = decode_next(fresh, u, [[vocab.sop_id, vocab.sot_id]], [[7]], q)
    assert not np.allclose(without, with_q)


def test_kws_empty_keyword_set(params):
    u = encode(params, [stream(10, "u").normal(size=(10, 8))])
    (pred,) = kws_detect(params, u, [[]], threshold=0.5)
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
    (pred,) = kws_detect(params, u, [[[7], [8, 9], [10, 11, 12, 13]]], threshold=0.5)
    assert len(pred) == 3
    assert ((pred.probabilities >= 0) & (pred.probabilities <= 1)).all()
    assert pred.decisions.dtype == bool


def test_kws_detect_gives_each_sequence_of_a_batch_its_own_prediction(params):
    frames = [stream(14, "u", n).normal(size=(n, 8)) for n in (10, 12, 8)]
    keyword_tokens = [[[7], [8, 9]], [], [[10, 11, 12, 13], [7], [15, 16]]]
    preds = kws_detect(params, encode(params, frames), keyword_tokens, threshold=0.5)
    assert [len(p) for p in preds] == [2, 0, 3]
    for f, tokens, pred in zip(frames, keyword_tokens, preds):
        (alone,) = kws_detect(params, encode(params, [f]), [tokens], threshold=0.5)
        assert np.allclose(pred.probabilities, alone.probabilities, rtol=1e-12, atol=0)
        assert np.array_equal(pred.decisions, alone.decisions)


def test_kws_rejects_overlong_keyword(params):
    u = encode(params, [stream(12, "u").normal(size=(10, 8))])
    with pytest.raises(ModelError, match="1..4"):
        kws_detect(params, u, [[[7, 8, 9, 10, 11]]], threshold=0.5)


def test_kws_logits_need_one_keyword_list_per_sequence(params):
    u = encode(params, [stream(12, "u").normal(size=(n, 8)) for n in (10, 12)])
    for keyword_tokens in ([[[7]]], [[[7]], [[8]], [[9]]]):
        with pytest.raises(ModelError, match=f"got {len(keyword_tokens)} keyword lists for 2 encoder outputs"):
            kws_logits(params, u, keyword_tokens)
    with pytest.raises(ModelError, match="got 1 keyword lists for 2 encoder outputs"):
        kws_detect(params, u, [[[7]]], threshold=0.5)


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


def test_attention_block_reads_one_encoder_output(vocab):
    fresh = init_params(CFG, seed=11)
    u = encode(fresh, [stream(13, "u").normal(size=(n, 8)) for n in (10, 12)])
    with pytest.raises(ModelError) as info:
        prompt_attention_block(fresh, u, [vocab.sot_id], [7, 8], None, 0)
    assert str(info.value) == "attention export reads one encoder output, got 2"


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
