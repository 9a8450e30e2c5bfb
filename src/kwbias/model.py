"""Compact encoder-decoder transformer with a keyword scoring head.

Encoder: stride-2 frame downsampling (a kernel-2 convolution realized as
reshape + matmul), sinusoidal positions, pre-norm self-attention blocks.
Decoder: token embeddings plus optional learned soft-prefix rows, causal
self-attention over [prefix, prompt, text], cross-attention to the
encoder output, and an output projection.  The keyword head scores a
batch's keywords in one pass: a (K, total token count) pooling matrix
averages each keyword's token embeddings into one query row, sequence
b's queries attend over its own encoder rows only (keys and values
projected once per call), and a small MLP scores presence.  A sequence
with no keywords runs through the same graph.

One fused primitive, `autodiff.attention`, serves the encoder, the
decoder's self- and cross-attention and the keyword head (as a single
head); every linear layer is one `autodiff.affine`.  Both take and give
unsplit (rows, d_model) tensors, so head splitting never shows up here.

Decoding is incremental and batch-first.  A `DecoderCache` holds each
layer's cross-attention K/V over the encoder output, projected once per
utterance, and each layer's self-attention K/V of the rows decoded so
far, all unsplit, with one cached length per sequence.  `_decoder_extend`
is the one place that turns token ids into decoder rows: a sequence is
[soft prefix, prompt, text], the prefix rows going in front when the
cache is empty; positions count from 0 across all of them and
continue from that sequence's cached length; and no sequence holds more
than `max_tgt_len` rows.  Greedy decoding runs every sequence's [prefix,
prompt] in one causal pass, then one new row per unfinished sequence per
step against the cache; a sequence that ends leaves the batch, so every
step runs only rows still being decoded.

`encode` is the one encoder entry point and `Packed` (rows plus
per-sequence lengths) the one encoder-output type: utterances are
stacked, with no padding, into one pass; a single one is a batch of one.
Training packs the decoder side too: `teacher_forced_logits` stacks
every example's [prefix, prompt, text] rows into one pass over an empty
cache, and `kws_logits` scores every example's keywords in one.
Attention takes each sequence's lengths instead of a mask and runs block
by block: encoder self-attention stays within each utterance, decoder
self-attention is causal within each example, and example b's decoder
rows and keywords attend to utterance b's encoder rows only.  Every
sequence counts positions from 0.

The decoder computes only the rows its caller reads.  Its last layer
still projects keys and values for every row, which the cache needs, but
runs the query, self- and cross-attention, feed-forward and final norm
on the trailing rows each sequence reads: the len(t)+1 rows that predict
a target in teacher forcing, the newest row in a decode step, and every
row in attention export.

Parameters live in four plain name->Tensor dicts (encoder / decoder /
kws / prefix) so training regimes can freeze each group independently.
`param_layout` declares the shape and initialization of every encoder,
decoder and keyword-head tensor once: `init_params` builds from it, and
`training.checkpoint_load` accepts only a file that matches it.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .audio import N_MELS
from .autodiff import Tensor
from .errors import KwbiasError
from .prompts import MAX_KEYWORD_TOKENS
from .rng import stream
from .text import N_RESERVED


class ModelError(KwbiasError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 256
    vocab_size: int = 200
    n_mels: int = N_MELS
    max_src_frames: int = 1024
    max_tgt_len: int = 128

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ModelError(f"{name} must be an int >= 1, got {value!r}")
        if self.d_model % 2:
            raise ModelError(f"d_model must be even for sinusoidal positions, got {self.d_model}")
        if self.d_model % self.n_heads:
            raise ModelError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.vocab_size <= N_RESERVED:
            raise ModelError(f"vocab_size {self.vocab_size} leaves no room for text units")


# parameter groups, in the order `ModelParams.groups` gives them and
# checkpoints store them
GROUPS = ("encoder", "decoder", "kws", "prefix")


@dataclass
class ModelParams:
    config: ModelConfig
    encoder: dict[str, Tensor]
    decoder: dict[str, Tensor]
    kws: dict[str, Tensor]
    prefix: dict[str, Tensor] = field(default_factory=dict)

    def groups(self) -> dict[str, dict[str, Tensor]]:
        return {g: getattr(self, g) for g in GROUPS}

    def clone(self) -> "ModelParams":
        """Deep copy: every tensor gets its own data array."""
        groups = {
            gname: {name: Tensor(t.data.copy()) for name, t in group.items()}
            for gname, group in self.groups().items()
        }
        return ModelParams(config=self.config, **groups)


class ParamSpec(NamedTuple):
    shape: tuple[int, ...]
    # "zeros" or "ones" for a constant; a float is the standard deviation of
    # a zero-mean normal draw from the tensor's own named rng stream
    init: str | float


def param_layout(config: ModelConfig) -> dict[str, dict[str, ParamSpec]]:
    """Every encoder, decoder and keyword-head parameter: group -> name -> spec.

    The soft prefix is not here: it is optional, and its row count is the
    prompt-tuning run's own setting."""
    d, ff, v = config.d_model, config.d_ff, config.vocab_size

    def linear(w: str, b: str | None, fan_in: int, fan_out: int, std: float | None = None) -> dict:
        spec = {w: ParamSpec((fan_in, fan_out), 1.0 / math.sqrt(fan_in) if std is None else std)}
        if b is not None:
            spec[b] = ParamSpec((fan_out,), "zeros")
        return spec

    def attention(p: str) -> dict:
        # no key bias: it cancels inside the softmax
        return {**linear(f"{p}.wq", f"{p}.bq", d, d), **linear(f"{p}.wk", None, d, d),
                **linear(f"{p}.wv", f"{p}.bv", d, d), **linear(f"{p}.wo", f"{p}.bo", d, d)}

    def norm(p: str) -> dict:
        return {f"{p}.g": ParamSpec((d,), "ones"), f"{p}.b": ParamSpec((d,), "zeros")}

    def feed_forward(p: str) -> dict:
        return {**linear(f"{p}.w1", f"{p}.b1", d, ff), **linear(f"{p}.w2", f"{p}.b2", ff, d)}

    encoder = linear("in_w", "in_b", 2 * config.n_mels, d)
    for i in range(config.n_enc_layers):
        encoder |= {**attention(f"l{i}.attn"), **norm(f"l{i}.ln1"),
                    **feed_forward(f"l{i}.ff"), **norm(f"l{i}.ln2")}
    encoder |= norm("ln_out")

    decoder = {"embed": ParamSpec((v, d), 1.0)}
    for i in range(config.n_dec_layers):
        decoder |= {**attention(f"l{i}.attn"), **attention(f"l{i}.cross"), **norm(f"l{i}.ln1"),
                    **norm(f"l{i}.ln2"), **feed_forward(f"l{i}.ff"), **norm(f"l{i}.ln3")}
    # the readout ties to the embedding table; a zero bias starts the
    # output distribution near uniform
    decoder |= {**norm("ln_out"), "out_b": ParamSpec((v,), "zeros")}

    kws = {**linear("wq", "bq", d, d), **linear("wk", None, d, d), **linear("wv", None, d, d),
           **linear("w1", "b1", 2 * d, d), **linear("w2", "b2", d, 1, std=0.01)}
    return {"encoder": encoder, "decoder": decoder, "kws": kws}


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Fresh parameter groups as `param_layout` declares them; every drawn
    tensor gets its own named rng stream."""
    constants = {"zeros": np.zeros, "ones": np.ones}
    groups = {
        gname: {
            name: Tensor(
                constants[init](shape) if isinstance(init, str)
                else stream(seed, "init", gname, name).normal(0.0, init, size=shape)
            )
            for name, (shape, init) in specs.items()
        }
        for gname, specs in param_layout(config).items()
    }
    return ModelParams(config=config, **groups)


def init_prefix(params: ModelParams, n_tokens: int, seed: int) -> Tensor:
    """Soft prompt rows, each a copy of a random non-reserved token embedding."""
    if n_tokens < 1:
        raise ModelError(f"prefix length must be >= 1, got {n_tokens}")
    rng = stream(seed, "prefix-init")
    v = params.config.vocab_size
    ids = rng.integers(N_RESERVED, v, size=n_tokens)
    q = Tensor(params.decoder["embed"].data[ids].copy())
    params.prefix = {"q": q}
    return q


@lru_cache(maxsize=256)
def sinusoid_positions(n: int, d: int) -> np.ndarray:
    """Sinusoidal encodings of positions 0..n-1, read-only: every caller
    shares the cached array.  Row i does not depend on n."""
    pos = np.arange(n)[:, None]
    dim = np.arange(d // 2)[None, :]
    angle = pos / np.power(10000.0, 2.0 * dim / d)
    pe = np.zeros((n, d))
    pe[:, 0::2] = np.sin(angle)
    pe[:, 1::2] = np.cos(angle)
    pe.flags.writeable = False
    return pe


def _positions(lengths: tuple[int, ...], d: int, starts: Sequence[int] | None = None) -> Tensor:
    """Positional rows of sequences of the given lengths, stacked; sequence
    b counts from position starts[b] (from 0 when `starts` is None)."""
    if starts is None:
        starts = (0,) * len(lengths)
    table = sinusoid_positions(max(map(operator.add, starts, lengths)), d)
    if len(lengths) == 1:
        # one sequence: a view, no copy
        return Tensor(table[starts[0] :])
    # row r of sequence b sits at starts[b] + (r - first row of b)
    offsets = np.repeat(np.subtract(starts, np.cumsum(lengths) - lengths), lengths)
    return Tensor(table[np.arange(sum(lengths)) + offsets])


def _sequence_rows(lengths: Sequence[int], keep: Sequence[int]) -> list[int]:
    """Row indices, in a packing of sequences of the given lengths, of the
    sequences numbered in `keep`, in that order."""
    ends = np.cumsum(lengths).tolist()
    return [r for b in keep for r in range(ends[b] - lengths[b], ends[b])]


class Packed(NamedTuple):
    """Rows of several sequences stacked into one 2-D tensor, sequence b
    holding `lengths[b]` rows."""

    rows: Tensor
    lengths: tuple[int, ...]

    def keep(self, sequences: Sequence[int]) -> "Packed":
        """The numbered sequences alone, in that order."""
        rows = _sequence_rows(self.lengths, sequences)
        return Packed(Tensor(self.rows.data[rows]), tuple(self.lengths[b] for b in sequences))


def _project_kv(p: dict[str, Tensor], prefix: str, kv: Tensor) -> tuple[Tensor, Tensor]:
    """Keys and values of the rows of kv, each (len(kv), d_model).

    Self-attention projects its queries before these; that fixes the order
    (value, key, query) in which the shared input's gradient accumulates,
    and with it the last bits of trained weights."""
    return ad.affine(kv, p[f"{prefix}.wk"]), ad.affine(kv, p[f"{prefix}.wv"], p[f"{prefix}.bv"])


def _attend(
    p: dict[str, Tensor],
    prefix: str,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    lengths: tuple[Sequence[int], Sequence[int]] | None = None,
    causal: bool = False,
    collect: list | None = None,
) -> Tensor:
    """Multi-head attention of queries q over k/v, then the output projection."""
    ctx = ad.attention(q, k, v, n_heads, lengths, causal, collect)
    return ad.affine(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])


def _feed_forward(p: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    h = ad.gelu(ad.affine(x, p[f"{prefix}.w1"], p[f"{prefix}.b1"]))
    return ad.affine(h, p[f"{prefix}.w2"], p[f"{prefix}.b2"])


def _ln(p: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return ad.layer_norm(x, p[f"{prefix}.g"], p[f"{prefix}.b"])


def encode(params: ModelParams, frames: Sequence[np.ndarray]) -> Packed:
    """Encoder outputs of several utterances in one packed pass.

    Utterance b gives floor(T_b/2) rows, which attend only to each other
    and count positions from 0, so each equals its own batch of one up to
    rounding."""
    cfg = params.config
    inputs = []
    for f in frames:
        f = np.asarray(f, dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != cfg.n_mels:
            raise ModelError(f"expected (T, {cfg.n_mels}) features, got {f.shape}")
        n = f.shape[0]
        if n > cfg.max_src_frames:
            raise ModelError(f"input of {n} frames exceeds max_src_frames {cfg.max_src_frames}")
        if n < 2:
            raise ModelError("need at least 2 feature frames")
        inputs.append(f[: n // 2 * 2].reshape(n // 2, 2 * cfg.n_mels))
    if not inputs:
        raise ModelError("nothing to encode")
    lengths = tuple(len(x) for x in inputs)
    p = params.encoder
    x = Tensor(np.concatenate(inputs))
    h = ad.gelu(ad.affine(x, p["in_w"], p["in_b"]))
    h = ad.add(h, _positions(lengths, cfg.d_model))
    for i in range(cfg.n_enc_layers):
        normed = _ln(p, f"l{i}.ln1", h)
        q = ad.affine(normed, p[f"l{i}.attn.wq"], p[f"l{i}.attn.bq"])
        k, v = _project_kv(p, f"l{i}.attn", normed)
        h = ad.add(h, _attend(p, f"l{i}.attn", q, k, v, cfg.n_heads, (lengths, lengths)))
        h = ad.add(h, _feed_forward(p, f"l{i}.ff", _ln(p, f"l{i}.ln2", h)))
    return Packed(_ln(p, "ln_out", h), lengths)


@dataclass
class DecoderCache:
    """Per-layer attention keys and values of a decode or a packed batch.

    `cross` holds each layer's cross-attention K/V over the encoder output,
    whose sequences have `cross_lengths` rows each; `self_kv` each layer's
    self-attention K/V of the rows decoded so far, sequence b's
    `lengths[b]` rows after sequence b-1's.  All are unsplit, (rows,
    d_model): `ad.attention` splits the heads.
    """

    cross: list[tuple[Tensor, Tensor]]
    cross_lengths: tuple[int, ...]
    self_kv: list[tuple[Tensor, Tensor]]
    lengths: tuple[int, ...]

    def keep(self, sequences: Sequence[int]) -> "DecoderCache":
        """A cache of the numbered sequences alone, in that order."""
        cross = _sequence_rows(self.cross_lengths, sequences)
        own = _sequence_rows(self.lengths, sequences)
        return DecoderCache(
            [(Tensor(k.data[cross]), Tensor(v.data[cross])) for k, v in self.cross],
            tuple(self.cross_lengths[b] for b in sequences),
            [(Tensor(k.data[own]), Tensor(v.data[own])) for k, v in self.self_kv],
            tuple(self.lengths[b] for b in sequences),
        )


def decoder_cache(params: ModelParams, u: Packed) -> DecoderCache:
    """An empty cache holding the cross-attention K/V over encoder output u."""
    layers = range(params.config.n_dec_layers)
    cross = [_project_kv(params.decoder, f"l{i}.cross", u.rows) for i in layers]
    return DecoderCache(cross, u.lengths, [], (0,) * len(u.lengths))


def _decoder_extend(
    params: ModelParams,
    cache: DecoderCache,
    ids: Sequence[Sequence[int]],
    prefix: Tensor | None,
    read: tuple[int, ...] | None = None,
    collect: list | None = None,
) -> Tensor:
    """Run the decoder over the rows of token ids appended after the cached
    ones; the one place that lays out decoder rows.

    Sequence b gets the rows of ids[b], after the soft prefix's rows when
    the cache is empty and a prefix is given, at positions that continue
    from `cache.lengths[b]`, and at most `max_tgt_len` rows in all.  It
    attends causally to its cached and new rows and cross-attends to the
    cache's encoder sequence b.  Every layer merges the new rows' keys and
    values into its self-attention cache, each sequence's after its own
    cached rows.  The last layer runs its query, attention, feed-forward
    and the final norm on the last read[b] rows of each sequence only
    (every row when `read` is None), and those rows' hidden states,
    stacked, are returned.
    """
    cfg = params.config
    p = params.decoder
    # every sequence of a cache holds rows once one extension has run
    extending = bool(cache.self_kv)
    n_prefix = prefix.shape[0] if prefix is not None and not extending else 0
    # the prefix rows sit before the table, so token id i is row n_prefix + i
    table = ad.concat([prefix, p["embed"]], axis=0) if n_prefix else p["embed"]
    rows = [r for seq in ids for r in (*range(n_prefix), *(n_prefix + i for i in seq))]
    lengths = tuple(n_prefix + len(seq) for seq in ids)
    keys = tuple(map(operator.add, cache.lengths, lengths))
    if max(keys) > cfg.max_tgt_len:
        raise ModelError(f"conditioning length {max(keys)} exceeds max_tgt_len {cfg.max_tgt_len}")
    merge = None
    if extending and len(keys) > 1:
        # [past rows, new rows] reordered so that each sequence's new rows
        # follow its own past rows
        ends = np.cumsum(cache.lengths)
        merge = np.insert(np.arange(ends[-1]), np.repeat(ends, lengths), np.arange(ends[-1], ends[-1] + len(rows)))
    h = ad.add(ad.embedding(table, rows), _positions(lengths, cfg.d_model, cache.lengths))
    for i in range(cfg.n_dec_layers):
        normed = _ln(p, f"l{i}.ln1", h)
        queries = normed
        if i == cfg.n_dec_layers - 1 and read is not None and read != lengths:
            kept = [r for end, r_b in zip(np.cumsum(lengths), read) for r in range(end - r_b, end)]
            queries, h, lengths = ad.embedding(normed, kept), ad.embedding(h, kept), read
        q = ad.affine(queries, p[f"l{i}.attn.wq"], p[f"l{i}.attn.bq"])
        k, v = _project_kv(p, f"l{i}.attn", normed)
        if extending:
            past_k, past_v = cache.self_kv[i]
            k, v = ad.concat([past_k, k], axis=0), ad.concat([past_v, v], axis=0)
            if merge is not None:
                k, v = ad.embedding(k, merge), ad.embedding(v, merge)
            cache.self_kv[i] = (k, v)
        else:
            cache.self_kv.append((k, v))
        h = ad.add(h, _attend(p, f"l{i}.attn", q, k, v, cfg.n_heads, (lengths, keys), causal=True,
                              collect=collect))
        cross_q = ad.affine(_ln(p, f"l{i}.ln2", h), p[f"l{i}.cross.wq"], p[f"l{i}.cross.bq"])
        h = ad.add(h, _attend(p, f"l{i}.cross", cross_q, *cache.cross[i], cfg.n_heads,
                              (lengths, cache.cross_lengths)))
        h = ad.add(h, _feed_forward(p, f"l{i}.ff", _ln(p, f"l{i}.ln3", h)))
    cache.lengths = keys
    return _ln(p, "ln_out", h)


def _require_start(cond_ids: Sequence[Sequence[int]]) -> None:
    if not all(cond_ids):
        raise ModelError("conditioning must contain at least the transcript-start token")


def _decoder_hidden(
    params: ModelParams,
    u: Packed,
    cond_ids: Sequence[Sequence[int]],
    t_ids: Sequence[Sequence[int]],
    prefix: Tensor | None,
    read: tuple[int, ...] | None,
    collect: list | None = None,
) -> Tensor:
    """Hidden states of every example's [prefix, cond, t] rows in one pass,
    the last read[b] rows of example b (all when `read` is None), stacked.

    Example b reads sequence b of u.  Its rows attend causally among
    themselves and, soft prefix rows included, count positions from 0,
    like a decode of b alone."""
    if len(cond_ids) != len(u.lengths) or len(t_ids) != len(u.lengths):
        raise ModelError(f"got {len(cond_ids)} conditionings and {len(t_ids)} targets "
                         f"for {len(u.lengths)} encoder outputs")
    _require_start(cond_ids)
    return _decoder_extend(params, decoder_cache(params, u), [[*c, *t] for c, t in zip(cond_ids, t_ids)],
                           prefix, read, collect)


def _readout(params: ModelParams, rows: Tensor) -> Tensor:
    # tied to the embedding table, 1/d scaling keeps init logits small
    p = params.decoder
    scores = ad.scale(ad.matmul(rows, ad.swap_axes(p["embed"], 0, 1)), 1.0 / params.config.d_model)
    return ad.add(scores, p["out_b"])


def teacher_forced_logits(
    params: ModelParams,
    u: Packed,
    cond_ids: Sequence[Sequence[int]],
    t_ids: Sequence[Sequence[int]],
    prefix: Tensor | None,
) -> Tensor:
    """Logits of a packed batch: for each example b in turn, the
    len(t_ids[b])+1 positions that predict t_ids[b] plus end-of-text,
    conditioned on cond_ids[b] and sequence b of the encoder outputs u."""
    # an example's last len(t)+1 rows predict t and end-of-text
    return _readout(params, _decoder_hidden(params, u, cond_ids, t_ids, prefix, tuple(len(t) + 1 for t in t_ids)))


def decode_next(
    params: ModelParams,
    u: Packed,
    cond_ids: Sequence[Sequence[int]],
    t_prev: Sequence[Sequence[int]],
    prefix: Tensor | None,
    cache: DecoderCache | None = None,
) -> np.ndarray:
    """Distributions over the vocabulary for each sequence's next token,
    (sequences of u, vocab_size): row b conditions on cond_ids[b], the
    tokens t_prev[b] so far and sequence b of u.

    Without a cache every [prefix, cond, t_prev] row runs in one causal
    pass.  A cache from `decoder_cache(params, u)` that holds the leading
    rows of these same sequences runs only the rows after them, and is
    extended with their keys and values.
    """
    if len(cond_ids) != len(u.lengths) or len(t_prev) != len(u.lengths):
        raise ModelError(f"got {len(cond_ids)} conditionings and {len(t_prev)} token lists "
                         f"for {len(u.lengths)} encoder outputs")
    _require_start(cond_ids)
    if cache is None:
        cache = decoder_cache(params, u)
    elif cache.cross_lengths != u.lengths:
        raise ModelError(f"the cache holds encoder outputs of {cache.cross_lengths} rows, not u's {u.lengths}")
    n_prefix = prefix.shape[0] if prefix is not None else 0
    new_ids = []
    for cond, t, cached in zip(cond_ids, t_prev, cache.lengths):
        # a cache that holds rows of a sequence holds the prefix's rows first
        ids = [*cond, *t][cached - n_prefix if cached else 0 :]
        if not ids:
            raise ModelError("nothing to decode: every row is already cached")
        new_ids.append(ids)
    last = _decoder_extend(params, cache, new_ids, prefix, read=(1,) * len(new_ids))
    return ad.softmax(_readout(params, last), axis=-1).data


def decode_budget(params: ModelParams, cond_ids: Sequence[int], prefix: Tensor | None) -> int:
    """Greedy decoding's token limit: the decoder's `max_tgt_len` positions
    less the prefix rows, the conditioning tokens and one for end-of-text.
    A conditioning that leaves no room for end-of-text is an error."""
    n_prefix = prefix.shape[0] if prefix is not None else 0
    budget = params.config.max_tgt_len - n_prefix - len(cond_ids) - 1
    if budget < 0:
        raise ModelError(f"conditioning of {n_prefix + len(cond_ids)} rows leaves no room for "
                         f"end-of-text within max_tgt_len {params.config.max_tgt_len}")
    return budget


def transcribe_greedy(
    params: ModelParams,
    u: Packed,
    cond_ids: Sequence[Sequence[int]],
    prefix: Tensor | None,
    eot_id: int,
    max_len: int,
) -> list[list[int]]:
    """Greedy decode of every sequence of u, sequence b conditioned on
    cond_ids[b]; one token list per sequence.  Argmax ties break to the
    lowest token id.

    Sequence b stops at end-of-text or after min(max_len, its own
    `decode_budget`) tokens.  The first step runs every [prefix, cond] in
    one causal pass; every later step runs only the newest token of each
    sequence still decoding, against the cached keys and values.  A
    sequence that stops leaves the batch and the cache, so it adds no rows
    to later steps.  Each step calls this module's `decode_next`, so a
    wrapper set on the module sees every step.
    """
    if len(cond_ids) != len(u.lengths):
        raise ModelError(f"got {len(cond_ids)} conditionings for {len(u.lengths)} encoder outputs")
    limits = [min(max_len, decode_budget(params, cond, prefix)) for cond in cond_ids]
    out: list[list[int]] = [[] for _ in cond_ids]
    done = [limit <= 0 for limit in limits]
    live = list(range(len(cond_ids)))
    cache = decoder_cache(params, u)
    while True:
        kept = [j for j, b in enumerate(live) if not done[b]]
        if not kept:
            return out
        if len(kept) < len(live):
            live = [live[j] for j in kept]
            u, cache = u.keep(kept), cache.keep(kept)
        probs = decode_next(params, u, [cond_ids[b] for b in live], [out[b] for b in live], prefix, cache)
        for b, nxt in zip(live, np.argmax(probs, axis=1).tolist()):
            done[b] = nxt == eot_id
            if not done[b]:
                out[b].append(nxt)
                done[b] = len(out[b]) >= limits[b]


@dataclass(frozen=True)
class KwsPrediction:
    probabilities: np.ndarray
    decisions: np.ndarray

    def __len__(self) -> int:
        return len(self.probabilities)


def kws_logits(params: ModelParams, u: Packed, keyword_tokens: Sequence[Sequence[Sequence[int]]]) -> Tensor:
    """One presence logit per keyword, shape (total keyword count,); the
    keywords of keyword_tokens[b] read sequence b of u only."""
    if len(keyword_tokens) != len(u.lengths):
        raise ModelError(f"got {len(keyword_tokens)} keyword lists for {len(u.lengths)} encoder outputs")
    keywords = [tokens for seq in keyword_tokens for tokens in seq]
    lengths = [len(tokens) for tokens in keywords]
    for n in lengths:
        if not 1 <= n <= MAX_KEYWORD_TOKENS:
            raise ModelError(f"keyword must have 1..{MAX_KEYWORD_TOKENS} tokens, got {n}")
    # row k averages keyword k's token embeddings
    pool = np.zeros((len(lengths), sum(lengths)))
    for k, (end, n) in enumerate(zip(np.cumsum(lengths, dtype=int), lengths)):
        pool[k, end - n : end] = 1.0 / n
    p = params.kws
    emb = ad.embedding(params.decoder["embed"], [t for tokens in keywords for t in tokens])
    query = ad.affine(ad.matmul(Tensor(pool), emb), p["wq"], p["bq"])
    counts = tuple(len(seq) for seq in keyword_tokens)
    att = ad.attention(query, ad.affine(u.rows, p["wk"]), ad.affine(u.rows, p["wv"]), 1, (counts, u.lengths))
    hidden = ad.gelu(ad.affine(ad.concat([att, query], axis=1), p["w1"], p["b1"]))
    return ad.reshape(ad.affine(hidden, p["w2"], p["b2"]), (len(lengths),))


def kws_detect(
    params: ModelParams,
    u: Packed,
    keyword_tokens: Sequence[Sequence[Sequence[int]]],
    threshold: float,
) -> list[KwsPrediction]:
    """One prediction per sequence of u, for the keywords of keyword_tokens[b]."""
    probs = 1.0 / (1.0 + np.exp(-kws_logits(params, u, keyword_tokens).data))
    ends = np.cumsum([len(seq) for seq in keyword_tokens])
    return [KwsPrediction(p, p >= threshold) for p in np.split(probs, ends[:-1])]


def decoder_layer(config: ModelConfig, layer: int) -> int:
    """Index of decoder layer `layer`, negative counting from the last; ModelError if there is none."""
    if not -config.n_dec_layers <= layer < config.n_dec_layers:
        raise ModelError(f"layer {layer} out of range for {config.n_dec_layers} decoder layers")
    return layer % config.n_dec_layers


def prompt_attention_block(
    params: ModelParams,
    u: Packed,
    cond_ids: Sequence[int],
    t_ids: Sequence[int],
    prefix: Tensor | None,
    layer: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Head-averaged attention from generating positions onto prompt tokens.

    Returns (block, row_sums): block[r, c] is the attention that the
    position emitting t[c] pays to prompt token r; row_sums[c] is that
    position's attention total over all attended positions (1 up to
    rounding, since it comes from one softmax row).
    """
    if len(u.lengths) != 1:
        raise ModelError(f"attention export reads one encoder output, got {len(u.lengths)}")
    layer = decoder_layer(params.config, layer)
    collect: list[np.ndarray] = []
    _decoder_hidden(params, u, [cond_ids], [t_ids], prefix, None, collect)
    attn = collect[layer]
    n_prefix = prefix.shape[0] if prefix is not None else 0
    n_cond = len(cond_ids)
    emit_positions = [n_prefix + n_cond - 1 + i for i in range(len(t_ids))]
    prompt_positions = list(range(n_prefix, n_prefix + n_cond))
    block = attn[np.ix_(emit_positions, prompt_positions)].T.copy()
    row_sums = attn[emit_positions].sum(axis=1)
    return block, row_sums


def param_count(group: dict[str, Tensor]) -> int:
    return sum(t.data.size for t in group.values())


def same_encoder(a: ModelParams, b: ModelParams) -> bool:
    """Whether a and b encode every input identically: the same config and
    the same encoder tensor names, shapes and values."""
    if a.config != b.config or a.encoder.keys() != b.encoder.keys():
        return False
    return all(np.array_equal(t.data, b.encoder[name].data) for name, t in a.encoder.items())


def param_group_hash(group: dict[str, Tensor]) -> str:
    h = hashlib.sha256()
    for name in sorted(group):
        t = group[name]
        h.update(name.encode("utf-8"))
        h.update(str(t.data.shape).encode("utf-8"))
        h.update(np.ascontiguousarray(t.data).tobytes())
    return h.hexdigest()
