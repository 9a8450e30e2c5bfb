"""Losses, freeze contracts, determinism, and checkpointing."""

import dataclasses
import hashlib
import struct

import numpy as np
import pytest

from kwbias import autodiff as ad
from kwbias.autodiff import AutodiffError, Tape, Tensor, backward
from kwbias.container import read_container, write_container
from kwbias.model import (ModelConfig, ModelError, encode, init_params, init_prefix, kws_logits,
                          param_group_hash, teacher_forced_logits)
from kwbias.prompts import Keyword, KeywordSet, sample_training_keywords, assemble_prompt
from kwbias.rng import stream
from kwbias.synth import SynthSpec, Utterance, generate_corpus
from kwbias.text import build_vocab
from kwbias.training import (
    Adam,
    CheckpointError,
    TrainConfig,
    TrainingError,
    checkpoint_load,
    checkpoint_save,
    loss_asr,
    loss_kws,
    set_trainable,
    train_run,
)

from helpers import MALFORMED_CHECKPOINTS, gradcheck_modes, rewrite_checkpoint

SPEC = SynthSpec(train_size=60, dev_size=8, test_size=8, n_mels=12, seed=21)
MODEL = ModelConfig(d_model=32, n_heads=4, n_enc_layers=1, n_dec_layers=1, d_ff=64,
                    vocab_size=120, n_mels=12, max_src_frames=128, max_tgt_len=96)


def _asr_loss(params, vocab, items, prompts):
    """`loss_asr` of (frames, target token ids) items, encoded in one pass
    under whatever tape is recording."""
    u = encode(params, [frames for frames, _ in items])
    return loss_asr(params, vocab, u, [t for _, t in items], prompts)


def _kws_loss(params, items):
    """`loss_kws` of (frames, keyword set) items, encoded in one pass under
    whatever tape is recording."""
    return loss_kws(params, encode(params, [frames for frames, _ in items]), [ks for _, ks in items])


@pytest.fixture(scope="module")
def corpus():
    splits, bank = generate_corpus(SPEC)
    vocab = build_vocab([u.text for u in splits["train"]], MODEL.vocab_size)
    return splits, bank, vocab


def test_train_config_validation():
    with pytest.raises(TrainingError, match="mode"):
        TrainConfig(mode="warp", steps=1, learning_rate=1e-3)
    with pytest.raises(TrainingError, match="learning_rate"):
        TrainConfig(mode="pt", steps=1, learning_rate=0.0)
    for mode in ("kws", "ft", "pt"):
        with pytest.raises(TrainingError, match=f"^mode {mode} needs batch_size >= 2 for negative keywords$"):
            TrainConfig(mode=mode, steps=1, learning_rate=1e-3, batch_size=1, prompt_exposure=0.0)
    # base-asr draws keywords across the batch only for its prompt-exposed examples
    with pytest.raises(TrainingError, match="^mode base-asr at prompt_exposure 0.1 needs batch_size >= 2 "
                                            "for negative keywords$"):
        TrainConfig(mode="base-asr", steps=1, learning_rate=1e-3, batch_size=1, prompt_exposure=0.1)
    assert TrainConfig(mode="base-asr", steps=1, learning_rate=1e-3, batch_size=1, prompt_exposure=0.0).batch_size == 1
    with pytest.raises(TrainingError, match="steps"):
        TrainConfig(mode="pt", steps=0, learning_rate=1e-3)
    for value in (float("nan"), float("inf")):
        with pytest.raises(TrainingError, match=f"^learning_rate must be finite, got {value}$"):
            TrainConfig(mode="pt", steps=1, learning_rate=value)


def test_initial_asr_loss_is_log_vocab(corpus):
    splits, _, vocab = corpus
    params = init_params(ModelConfig(vocab_size=len(vocab), n_mels=12, d_model=32,
                                     n_heads=4, n_enc_layers=1, n_dec_layers=1, d_ff=64), seed=0)
    items = [(u.frames, vocab.tokenize(u.text)) for u in splits["train"][:4]]
    prompts = [assemble_prompt(vocab, ())] * 4
    loss = float(_asr_loss(params, vocab, items, prompts).data)
    assert abs(loss - np.log(len(vocab))) < 0.3


def test_batch_of_identical_examples_equals_single_example_loss(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=1)
    u = splits["train"][0]
    item = (u.frames, vocab.tokenize(u.text))
    prompt = assemble_prompt(vocab, ())
    single = float(_asr_loss(params, vocab, [item], [prompt]).data)
    batch = float(_asr_loss(params, vocab, [item] * 3, [prompt] * 3).data)
    assert abs(single - batch) < 1e-12


def test_batch_loss_is_the_position_weighted_mean_of_single_losses(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=1)
    prompt = assemble_prompt(vocab, ())
    items = [(u.frames, vocab.tokenize(u.text)) for u in splits["train"]]
    by_length = {len(t_ids): (frames, t_ids) for frames, t_ids in items}
    batch = [by_length[n] for n in sorted(by_length)[:3]]
    assert len({len(t_ids) for _, t_ids in batch}) == 3
    singles = [float(_asr_loss(params, vocab, [item], [prompt]).data) for item in batch]
    positions = [len(t_ids) + 1 for _, t_ids in batch]
    expected = float(np.dot(singles, positions) / sum(positions))
    loss = float(_asr_loss(params, vocab, batch, [prompt] * len(batch)).data)
    assert abs(loss - expected) < 1e-12


def test_empty_batch_is_an_error():
    params = init_params(MODEL, seed=1)
    with pytest.raises(ModelError, match="^nothing to encode$"):
        encode(params, [])


def test_a_keyword_batch_without_keywords_is_an_error(corpus):
    splits, _, _ = corpus
    params = init_params(MODEL, seed=1)
    empty = KeywordSet(())
    with pytest.raises(AutodiffError, match="^empty loss: no labels$"):
        _kws_loss(params, [(u.frames, empty) for u in splits["train"][:2]])


def test_one_asr_batch_records_the_hand_counted_graph(corpus):
    # base-asr from raw frames records every op of one packed encoder pass
    # and one packed decoder pass, whatever the batch size
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=1)
    set_trainable(params, "base-asr")
    # input affine, gelu, + positions; per layer: layer norm, q/k/v affines,
    # attention, output affine, residual add, layer norm, affine, gelu,
    # affine, residual add; final layer norm
    encoder = 3 + 12 * MODEL.n_enc_layers + 1
    # cross-attention k/v affines per layer, embedding, + positions; per
    # layer: self-attention as in the encoder (7), cross-attention q affine,
    # attention, output affine and residual add after a layer norm (5),
    # feed-forward (5); in the last layer, the gathers of the predicting
    # rows of the normed input and of the residual (2); final layer norm,
    # and the tied readout's swap, matmul, scale and bias add
    decoder = 2 * MODEL.n_dec_layers + 2 + 17 * MODEL.n_dec_layers + 2 + 1 + 4
    counts = []
    for n in (1, 2, 4):
        batch = [(u.frames, vocab.tokenize(u.text)) for u in splits["train"][:n]]
        with Tape() as tape:
            _asr_loss(params, vocab, batch, [assemble_prompt(vocab, ())] * n)
        counts.append(len(tape))
    assert counts == [encoder + decoder + 1] * 3 and counts[0] == 45  # + cross-entropy


def _mixed_batch(splits, vocab):
    """Three examples with distinct frame counts, target lengths and prompt
    lengths, the first with the empty prompt."""
    by_frames = {len(u.frames): u for u in splits["train"]}
    utts = [by_frames[n] for n in sorted(by_frames)[::4][:3]]
    tokens = [vocab.tokenize(u.text) for u in utts]
    assert len({len(u.frames) for u in utts}) == len({len(t) for t in tokens}) == 3
    keyword_sets = [(), *(sample_training_keywords(vocab, tokens, j, stream(19, "mixed", j)) for j in (1, 2))]
    prompts = [assemble_prompt(vocab, ks) for ks in keyword_sets]
    assert len({len(p) for p in prompts}) == 3 and prompts[0] == assemble_prompt(vocab, ())
    return [(u.frames, t) for u, t in zip(utts, tokens)], prompts


def _close(got, want, what):
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), what


@pytest.mark.parametrize("mode, n_prefix", [
    ("base-asr", 0), ("base-asr", 3), ("ft", 0), ("ft", 3), ("pt", 3),
])
def test_packed_batch_equals_batches_of_one(corpus, mode, n_prefix):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=17)
    if n_prefix:
        init_prefix(params, n_prefix, seed=17)
    set_trainable(params, mode)
    prefix = params.prefix.get("q")
    trainable = [(f"{g}.{name}", t) for g, group in params.groups().items()
                 for name, t in group.items() if t.requires_grad]
    batch, prompts = _mixed_batch(splits, vocab)

    def logits(items, conds):
        u = encode(params, [frames for frames, _ in items])
        return teacher_forced_logits(params, u, conds, [t for _, t in items], prefix).data

    _close(logits(batch, prompts),
           np.concatenate([logits([item], [p]) for item, p in zip(batch, prompts)]), "logits")

    def loss_and_grads(items, conds):
        with Tape():
            loss = _asr_loss(params, vocab, items, conds)
            backward(loss)
        grads = {name: t.grad for name, t in trainable}
        for _, t in trainable:
            t.grad = None
        return float(loss.data), grads

    packed_loss, packed = loss_and_grads(batch, prompts)
    # the batch loss is the mean over all predicted positions
    weights = np.array([len(t) + 1 for _, t in batch]) / sum(len(t) + 1 for _, t in batch)
    singles = [loss_and_grads([item], [p]) for item, p in zip(batch, prompts)]
    _close(packed_loss, sum(w * loss for w, (loss, _) in zip(weights, singles)), "loss")
    for name, _ in trainable:
        _close(packed[name], sum(w * grads[name] for w, (_, grads) in zip(weights, singles)), name)


@pytest.mark.parametrize("mode", ["base-asr", "ft", "pt"])
def test_a_frozen_encoder_records_no_node(corpus, mode):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=18)
    init_prefix(params, 3, seed=18)
    set_trainable(params, mode)
    batch, prompts = _mixed_batch(splits, vocab)
    t_ids = [t for _, t in batch]
    u = encode(params, [frames for frames, _ in batch])  # outside any tape
    with Tape() as decoder_only:
        logits = teacher_forced_logits(params, u, prompts, t_ids, params.prefix["q"])
        ad.cross_entropy(logits, [tok for t in t_ids for tok in (*t, vocab.eot_id)])
    with Tape() as step:
        _asr_loss(params, vocab, batch, prompts)
    encoder = 3 + 12 * MODEL.n_enc_layers + 1
    assert len(decoder_only) > 0
    assert len(step) - len(decoder_only) == (encoder if mode == "base-asr" else 0)


def _keyword_batch(splits, vocab):
    """Three utterances with distinct frame counts and 3, 0 and 5 keywords:
    even ones are spans of the utterance's own tokens, odd ones spans of
    the next utterance's."""
    by_frames = {len(u.frames): u for u in splits["train"]}
    utts = [by_frames[n] for n in sorted(by_frames)[::4][:3]]
    tokens = [vocab.tokenize(u.text) for u in utts]
    assert len({len(u.frames) for u in utts}) == 3 and min(map(len, tokens)) >= 3
    batch = []
    for b, n in enumerate((3, 0, 5)):
        sources = [tokens[(b + k % 2) % 3] for k in range(n)]
        spans = [t[k % (len(t) - 2) :][: 1 + k % 3] for k, t in enumerate(sources)]
        ks = KeywordSet(tuple(Keyword(f"kw{k}", tuple(t), k % 2 == 0) for k, t in enumerate(spans)))
        batch.append((utts[b].frames, ks))
    return batch


def test_packed_keyword_batch_equals_batches_of_one(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=23)
    set_trainable(params, "kws")
    trainable = list(params.kws.items())
    batch = _keyword_batch(splits, vocab)

    def logits(items):
        u = encode(params, [frames for frames, _ in items])
        return kws_logits(params, u, [[kw.tokens for kw in ks] for _, ks in items])

    _close(logits(batch).data, np.concatenate([logits([item]).data for item in batch]), "logits")

    def loss_and_grads(loss_fn):
        with Tape():
            loss = loss_fn()
            backward(loss)
        grads = {name: t.grad for name, t in trainable}
        for _, t in trainable:
            t.grad = None
        return float(loss.data), grads

    def single(item):
        return ad.bce_with_logits(logits([item]), [float(kw.positive) for kw in item[1]])

    packed_loss, packed = loss_and_grads(lambda: _kws_loss(params, batch))
    # the batch loss is the mean over every keyword, so a keywordless
    # utterance weighs nothing
    kept = [item for item in batch if len(item[1])]
    singles = [loss_and_grads(lambda item=item: single(item)) for item in kept]
    weights = np.array([len(ks) for _, ks in kept]) / sum(len(ks) for _, ks in batch)
    _close(packed_loss, sum(w * loss for w, (loss, _) in zip(weights, singles)), "loss")
    for name, _ in trainable:
        _close(packed[name], sum(w * grads[name] for w, (_, grads) in zip(weights, singles)), name)


def test_one_kws_batch_records_the_hand_counted_graph(corpus):
    # one keyword-head graph per batch, whatever its size, and no node of
    # the frozen encoder: the query, key and value affines, attention, the
    # concat of context and query, the hidden affine and gelu, the output
    # affine and reshape (the gather from the frozen embedding table and
    # the pooling matmul record nothing)
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=2)
    set_trainable(params, "kws")
    head = 9
    counts = []
    for n in (2, 4):
        utts = splits["train"][:n]
        toks = [vocab.tokenize(u.text) for u in utts]
        rng = stream(3, "kws-graph", n)
        batch = [(u.frames, sample_training_keywords(vocab, toks, j, rng)) for j, u in enumerate(utts)]
        with Tape() as tape:
            _kws_loss(params, batch)
        counts.append(len(tape))
    assert counts == [head + 1] * 2  # + binary cross-entropy


def test_initial_kws_loss_is_chance_level(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=2)
    toks = [vocab.tokenize(u.text) for u in splits["train"][:4]]
    rng = stream(3, "kws-loss")
    batch = []
    for j in range(4):
        ks = sample_training_keywords(vocab, toks, j, rng)
        batch.append((splits["train"][j].frames, ks))
    loss = float(_kws_loss(params, batch).data)
    assert abs(loss - np.log(2)) < 0.1


def test_gradcheck_all_modes_and_frozen_groups_zero(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=4)
    init_prefix(params, 4, seed=4)
    toks = [vocab.tokenize(u.text) for u in splits["train"][:2]]
    rng = stream(5, "gc")
    keyword_sets = [sample_training_keywords(vocab, toks, j, rng) for j in range(2)]
    prompts = [assemble_prompt(vocab, ks) for ks in keyword_sets]
    items = [(splits["train"][j].frames, toks[j]) for j in range(2)]

    def asr_loss():
        return _asr_loss(params, vocab, items, prompts)

    def kws_loss():
        return _kws_loss(params, [(splits["train"][j].frames, keyword_sets[j]) for j in range(2)])

    worst = gradcheck_modes(
        params,
        {"base-asr": asr_loss, "kws": kws_loss, "ft": asr_loss, "pt": asr_loss},
        n_coords=8,
    )
    assert max(worst.values()) < 1e-4, worst


def test_loss_decreases_over_200_steps_in_every_mode(corpus):
    splits, _, vocab = corpus
    train = splits["train"]
    params = init_params(MODEL, seed=6)

    def ema_ends(losses):
        ema = losses[0]
        for v in losses:
            ema = 0.95 * ema + 0.05 * v
        return losses[0], ema

    for mode, lr in (("base-asr", 1e-3), ("kws", 1e-3), ("ft", 3e-4), ("pt", 5e-4)):
        losses = train_run(TrainConfig(mode=mode, steps=200, learning_rate=lr, batch_size=4, seed=6),
                           train, vocab, params)
        first, last_ema = ema_ends(losses)
        assert last_ema < first, f"{mode}: EMA {last_ema} !< first {first}"


def test_every_adjoint_hands_each_input_a_gradient_of_that_inputs_shape(corpus, monkeypatch):
    """`_accum` keeps or copies a gradient as it comes and never broadcasts
    it: in one taped batch of each training mode, `pt` with a soft prefix,
    every gradient an adjoint accumulates has its input's shape."""
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=8)
    accum, pairs = ad._accum, []

    def recording(t, g, own=False):
        pairs.append((t.data.shape, np.shape(g)))
        accum(t, g, own)

    monkeypatch.setattr(ad, "_accum", recording)
    for mode in ("base-asr", "kws", "ft", "pt"):
        pairs.clear()
        train_run(TrainConfig(mode=mode, steps=1, learning_rate=1e-3, batch_size=4, seed=8),
                  splits["train"], vocab, params)
        assert pairs and all(shape == g_shape for shape, g_shape in pairs), mode
    assert "q" in params.prefix


@pytest.mark.parametrize("seed", [6, 7])
def test_prefix_gradients_descend_on_a_fixed_batch(corpus, seed):
    # prompt tuning alone, on an untrained model: Adam on the prefix rows
    # must lower the loss of one fixed batch at every step
    splits, _, vocab = corpus
    params = init_params(MODEL, seed)
    init_prefix(params, 4, seed)
    set_trainable(params, "pt")
    utts = splits["train"][:4]
    u = encode(params, [x.frames for x in utts])  # frozen: the same rows every step
    targets = [vocab.tokenize(x.text) for x in utts]
    prompts = [assemble_prompt(vocab, ())] * len(utts)
    opt = Adam([("prefix.q", params.prefix["q"])], lr=5e-3)
    losses = []
    for _ in range(30):
        with Tape():
            loss = loss_asr(params, vocab, u, targets, prompts)
            backward(loss)
        opt.step()
        opt.zero_grad()
        losses.append(float(loss.data))
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


def test_prompt_tuning_continues_only_a_prefix_of_prefix_len_rows(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=7)
    init_prefix(params, 4, seed=7)
    before = {g: param_group_hash(grp) for g, grp in params.groups().items()}
    config = TrainConfig(mode="pt", steps=2, learning_rate=5e-4, batch_size=4, seed=7, prefix_len=8)
    with pytest.raises(TrainingError, match="^the soft prefix has 4 rows, but prefix_len is 8$"):
        train_run(config, splits["train"], vocab, params)
    assert {g: param_group_hash(grp) for g, grp in params.groups().items()} == before
    train_run(dataclasses.replace(config, prefix_len=4), splits["train"], vocab, params)
    assert params.prefix["q"].shape == (4, MODEL.d_model)


def test_freeze_contract_pt_and_ft(corpus):
    splits, _, vocab = corpus
    train = splits["train"]
    params = init_params(MODEL, seed=7)

    hashes = {g: param_group_hash(grp) for g, grp in params.groups().items()}
    train_run(TrainConfig(mode="pt", steps=30, learning_rate=5e-4, batch_size=4, seed=7, prefix_len=5),
              train, vocab, params)
    assert param_group_hash(params.encoder) == hashes["encoder"]
    assert param_group_hash(params.decoder) == hashes["decoder"]
    assert param_group_hash(params.kws) == hashes["kws"]
    assert params.prefix["q"].shape == (5, MODEL.d_model)

    # ft starts from a model without a soft prefix (see the refusal test)
    params.prefix = {}
    before_ft = {g: param_group_hash(grp) for g, grp in params.groups().items()}
    train_run(TrainConfig(mode="ft", steps=30, learning_rate=1e-4, batch_size=4, seed=7),
              train, vocab, params)
    assert param_group_hash(params.decoder) != before_ft["decoder"]
    assert param_group_hash(params.encoder) == before_ft["encoder"]
    assert param_group_hash(params.kws) == before_ft["kws"]
    assert params.prefix == {}


def test_ft_refuses_a_model_that_carries_a_soft_prefix(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=7)
    init_prefix(params, 3, seed=7)
    before = {g: param_group_hash(grp) for g, grp in params.groups().items()}
    with pytest.raises(TrainingError) as info:
        train_run(TrainConfig(mode="ft", steps=2, learning_rate=1e-4, batch_size=4, seed=7),
                  splits["train"], vocab, params)
    assert str(info.value) == ("ft fine-tunes the decoder alone, but this model carries a soft prefix of 3 rows; "
                               "start ft from a checkpoint without one")
    assert {g: param_group_hash(grp) for g, grp in params.groups().items()} == before


def test_training_is_bitwise_deterministic(corpus):
    splits, _, vocab = corpus
    train = splits["train"]

    def run():
        params = init_params(MODEL, seed=8)
        train_run(TrainConfig(mode="base-asr", steps=25, learning_rate=1e-3, batch_size=4, seed=8),
                  train, vocab, params)
        return {g: param_group_hash(grp) for g, grp in params.groups().items()}

    assert run() == run()


def test_base_asr_without_prompt_exposure_trains_at_batch_size_one(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=8)
    losses = train_run(TrainConfig(mode="base-asr", steps=3, learning_rate=1e-3, batch_size=1, seed=8,
                                   prompt_exposure=0.0), splits["train"], vocab, params)
    assert len(losses) == 3 and all(np.isfinite(losses))


def test_non_finite_loss_aborts_with_step_index(corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=9)
    params.decoder["embed"].data[0, 0] = np.nan
    with pytest.raises(TrainingError, match="non-finite loss at step 0"):
        train_run(TrainConfig(mode="base-asr", steps=5, learning_rate=1e-3, batch_size=4, seed=9),
                  splits["train"], vocab, params)


def test_adam_moves_only_tensors_with_gradients():
    t1 = Tensor(np.ones(3), requires_grad=True)
    t2 = Tensor(np.ones(3), requires_grad=True)
    opt = Adam([("a", t1), ("b", t2)], lr=0.1)
    t1.grad = np.ones(3)
    opt.step()
    assert not np.array_equal(t1.data, np.ones(3))
    assert np.array_equal(t2.data, np.ones(3))


def test_three_adam_steps_equal_the_textbook_update_bit_for_bit():
    rng = stream(20, "adam")
    start = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(3)]
    t = Tensor(start.copy(), requires_grad=True)
    opt = Adam([("w", t)], lr=0.01)
    p, m, v = start.copy(), np.zeros((3, 4)), np.zeros((3, 4))
    b1, b2, eps = 0.9, 0.999, 1e-8
    for step, g in enumerate(grads, 1):
        t.grad = g.copy()
        opt.step()
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**step)
        vhat = v / (1 - b2**step)
        p = p - 0.01 * mhat / (np.sqrt(vhat) + eps)
        assert np.array_equal(t.data, p) and np.array_equal(opt.m["w"], m) and np.array_equal(opt.v["w"], v)
        assert np.array_equal(t.grad, g)  # the step reads the gradient only


def test_checkpoint_round_trip_and_hash_validation(tmp_path, corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=10)
    from kwbias.model import init_prefix

    init_prefix(params, 3, seed=10)
    path = tmp_path / "m.ckpt"
    checkpoint_save(path, params, vocab.content_hash, seed=10)

    loaded, meta = checkpoint_load(path, vocab.content_hash)
    assert meta["seed"] == 10
    assert loaded.config == params.config
    for g, grp in params.groups().items():
        assert param_group_hash(grp) == param_group_hash(loaded.groups()[g])

    # save -> load -> save produces identical bytes
    path2 = tmp_path / "m2.ckpt"
    checkpoint_save(path2, loaded, vocab.content_hash, seed=10)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_tampering(tmp_path, corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=11)
    path = tmp_path / "m.ckpt"
    checkpoint_save(path, params, vocab.content_hash, seed=11)
    blob = bytearray(path.read_bytes())
    blob[-5] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="corrupt|hash mismatch"):
        checkpoint_load(path)


def test_checkpoint_rejects_wrong_vocab(tmp_path, corpus):
    splits, _, vocab = corpus
    params = init_params(MODEL, seed=12)
    path = tmp_path / "m.ckpt"
    checkpoint_save(path, params, vocab.content_hash, seed=12)
    with pytest.raises(CheckpointError, match="vocabulary hash mismatch"):
        checkpoint_load(path, "0" * 64)


def _container(magic: bytes, header: bytes) -> bytes:
    return magic + struct.pack("<Q", len(header)) + header


@pytest.mark.parametrize("blob, message", [
    (b"KWBCKPT1\x00", "truncated"),
    (_container(b"KWBCKPT1", b"{}"), "field 'config'"),
    (_container(b"KWBCKPT1", b"[1,2]"), "JSON object"),
    (_container(b"KWBCKPT1", b'{"a": 1}'[:5]), "truncated|corrupt"),
], ids=["nine-bytes", "empty-object", "array", "short-header"])
def test_malformed_checkpoint_is_a_structured_error(tmp_path, blob, message):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match=message):
        checkpoint_load(path)


def test_checkpoint_manifest_must_cover_the_payload(tmp_path, corpus):
    _, _, vocab = corpus
    path = tmp_path / "m.ckpt"
    checkpoint_save(path, init_params(MODEL, seed=14), vocab.content_hash, seed=14)
    header, arrays = read_container(path, b"KWBCKPT1", "checkpoint", CheckpointError, {})
    del header["digest"]
    header["groups"]["kws"].pop()
    write_container(path, b"KWBCKPT1", header, arrays)  # a valid digest, so the manifest check fires
    with pytest.raises(CheckpointError, match=r"\.ckpt: corrupt checkpoint header: manifest"):
        checkpoint_load(path)


def test_a_checkpoint_whose_rng_seed_is_a_json_flag_fails_at_load(tmp_path, corpus):
    _, _, vocab = corpus
    path = tmp_path / "s.ckpt"
    checkpoint_save(path, init_params(MODEL, seed=14), vocab.content_hash, seed=1)
    header, arrays = read_container(path, b"KWBCKPT1", "checkpoint", CheckpointError, {})
    del header["digest"]
    header["rng"]["seed"] = True
    write_container(path, b"KWBCKPT1", header, arrays)  # a valid digest, so the seed check fires
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 1  # read last, so only a check made before the payload names the seed
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError) as info:
        checkpoint_load(path)
    assert str(info.value) == f"{path}: corrupt checkpoint header: rng seed must be int"


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_checkpoint_off_the_model_layout_fails_at_load(tmp_path, corpus, case):
    _, _, vocab = corpus
    edit, message = MALFORMED_CHECKPOINTS[case]
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    checkpoint_save(good, init_params(MODEL, seed=15), vocab.content_hash, seed=15)
    rewrite_checkpoint(good, good, lambda config, groups: None)
    checkpoint_load(good, vocab.content_hash)  # the rewrite alone keeps a loadable file
    rewrite_checkpoint(good, bad, edit)
    with pytest.raises(CheckpointError, match=message) as info:
        checkpoint_load(bad, vocab.content_hash)
    assert str(info.value).startswith(f"{bad}: ") and "\n" not in str(info.value)


def test_checkpoint_bytes_are_pinned(tmp_path):
    from kwbias.model import init_prefix

    params = init_params(MODEL, seed=16)
    init_prefix(params, 3, seed=16)
    path = tmp_path / "m.ckpt"
    checkpoint_save(path, params, "v" * 64, seed=16)
    # the file format is fixed: any change to a written byte shows here
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9c2b84bfc60d6bc04a19b73be1c614c079dc53d06c959e95ac2422b97bb9cdd6"
    )
    loaded, _ = checkpoint_load(path, "v" * 64)
    assert loaded.prefix["q"].shape == (3, MODEL.d_model)


def test_set_trainable_matches_mode_contract():
    params = init_params(MODEL, seed=13)
    from kwbias.model import init_prefix

    init_prefix(params, 2, seed=13)
    set_trainable(params, "pt")
    assert params.prefix["q"].requires_grad
    assert not any(t.requires_grad for t in params.encoder.values())
    assert not any(t.requires_grad for t in params.decoder.values())
    assert not any(t.requires_grad for t in params.kws.values())
    set_trainable(params, "base-asr")
    assert all(t.requires_grad for t in params.encoder.values())
    assert all(t.requires_grad for t in params.decoder.values())
    assert not params.prefix["q"].requires_grad
