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

In every taped pass one fused primitive, `autodiff.attention`, serves
the encoder, the decoder's self- and cross-attention and the keyword
head (as a single head); every linear layer is one `autodiff.affine`.
`encode` is the one encoder entry point and `Packed` (rows plus
per-sequence lengths) the one encoder-output type: utterances are
stacked, with no padding, into one pass; a single one is a batch of one.
A packed pass's attention takes each sequence's lengths instead of a
mask and runs block by block, so utterance b's rows, and example b's
keywords or decoder rows, attend within utterance b only.

The decoder has two passes: `_decoder_hidden`, the one taped function,
over every example's [soft prefix, prompt, text] rows stacked, for
teacher forcing and attention export, and `_decoder_step` on plain
arrays, through the forward formulas `autodiff` shares with its
primitives, for every greedy decode call.  Both lay out their rows with
`_decoder_rows` (table rows, positions counting from 0 across prefix,
prompt and text, at most `max_tgt_len` rows a sequence), and both attend
several rows of a sequence, causally over its own rows and across to its
own encoder rows, with `autodiff.attention_blocks_forward`.  Each
computes only the rows its caller reads: the last layer still projects
keys and values for every row, but runs the query, attention,
feed-forward and final norm on the trailing rows each sequence reads
(the len(t)+1 rows that predict a target in teacher forcing, the newest
row in a decode call, every row in attention export).

Decoding is incremental and batch-first.  A `DecoderCache` holds each
layer's cross-attention K/V over the encoder output, projected once per
utterance, and the self-attention K/V of the rows decoded so far, in
arrays of `max_tgt_len` rows a sequence, allocated and zero-filled once
per decode and written in place at each sequence's cached length.  The
first call, over an empty cache, runs every sequence's [prefix, prompt];
every later call runs one new row per unfinished sequence, with one
batched masked attention (`_attend_slots`) per layer for each of self-
and cross-attention.  A sequence that ends is retired in place, the last
live sequence moving into its slot, so every step runs only rows still
being decoded.

Parameters live in four plain name->Tensor dicts (encoder / decoder /
kws / prefix) so training regimes can freeze each group independently.
`param_layout` declares the shape and initialization of every encoder,
decoder and keyword-head tensor once: `init_params` builds from it, and
`training.checkpoint_load` accepts only a file that matches it.
"""

from __future__ import annotations

import hashlib
import math
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


def _rows_within(lengths: Sequence[int]) -> np.ndarray:
    """Each row's index within its own sequence, in a packing of sequences
    of the given lengths."""
    return np.arange(sum(lengths)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _decoder_rows(
    cfg: ModelConfig, ids: Sequence[Sequence[int]], starts: Sequence[int], n_prefix: int,
) -> tuple[list[int], np.ndarray, np.ndarray, tuple[int, ...]]:
    """Lay out a decoder call's new rows: sequence b's are the rows of
    token ids[b] after its first starts[b] rows, and a sequence that starts
    at row 0 gets the soft prefix's n_prefix rows first.  Returns each new
    row's index in the [prefix; embedding] table (token id i is row
    n_prefix + i), its row within its sequence, its sinusoidal position
    row, and each sequence's row count after the call, at most
    `max_tgt_len`."""
    table_rows, rows, lengths = [], [], []
    for seq, start in zip(ids, starts):
        if not start:
            table_rows += range(n_prefix)
        table_rows += (n_prefix + i for i in seq) if n_prefix else seq
        # rows and table_rows grow together, so the difference is this sequence's new rows
        lengths.append(start + len(table_rows) - len(rows))
        rows += range(start, lengths[-1])
    longest = max(lengths)
    if longest > cfg.max_tgt_len:
        raise ModelError(f"conditioning length {longest} exceeds max_tgt_len {cfg.max_tgt_len}")
    rows = np.array(rows)
    return table_rows, rows, sinusoid_positions(longest, cfg.d_model)[rows], tuple(lengths)


class Packed(NamedTuple):
    """Rows of several sequences stacked into one 2-D tensor, sequence b
    holding `lengths[b]` rows."""

    rows: Tensor
    lengths: tuple[int, ...]

    def keep(self, sequences: Sequence[int]) -> "Packed":
        """The numbered sequences alone, in that order."""
        ends = np.cumsum(self.lengths).tolist()
        rows = [r for b in sequences for r in range(ends[b] - self.lengths[b], ends[b])]
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
    # each utterance counts positions from 0
    h = ad.add(h, Tensor(sinusoid_positions(max(lengths), cfg.d_model)[_rows_within(lengths)]))
    for i in range(cfg.n_enc_layers):
        normed = _ln(p, f"l{i}.ln1", h)
        q = ad.affine(normed, p[f"l{i}.attn.wq"], p[f"l{i}.attn.bq"])
        k, v = _project_kv(p, f"l{i}.attn", normed)
        h = ad.add(h, _attend(p, f"l{i}.attn", q, k, v, cfg.n_heads, (lengths, lengths)))
        h = ad.add(h, _feed_forward(p, f"l{i}.ff", _ln(p, f"l{i}.ln2", h)))
    return Packed(_ln(p, "ln_out", h), lengths)


@dataclass
class DecoderCache:
    """Per-layer attention keys and values of a decode, in padded arrays
    that every decode call reads and writes in place:

    - `cross_kv`: each layer's cross-attention K/V over the encoder output,
      (slots, longest encoder sequence, d_model) each, sequence b's
      `cross_lengths[b]` rows at the start of slot b, with `cross_mask`
      (slots, 1, 1, longest) hiding each slot's padding (None when there
      is none);
    - `self_kv`: each layer's self-attention K/V, (slots, `max_tgt_len`,
      d_model) each, allocated once and zero-filled, sequence b's
      `lengths[b]` rows at the start of slot b.

    The cache's sequences are its first len(lengths) slots; `retire` drops
    one in place.  Every row past a sequence's own holds zeros or rows of
    a retired sequence, finite values that a step's attention reads and
    masks.  All K/V are unsplit: the attention splits the heads.
    """

    cross_kv: list[tuple[np.ndarray, np.ndarray]]
    cross_lengths: tuple[int, ...]
    cross_mask: np.ndarray | None
    lengths: tuple[int, ...]
    self_kv: list[tuple[np.ndarray, np.ndarray]]

    def retire(self, b: int) -> None:
        """Drop sequence b in place: the last sequence moves into its slot."""
        last = len(self.lengths) - 1
        if b < last:
            n = self.lengths[last]
            for k, v in self.self_kv:
                k[b, :n], v[b, :n] = k[last, :n], v[last, :n]
            for k, v in self.cross_kv:
                k[b], v[b] = k[last], v[last]
            if self.cross_mask is not None:
                self.cross_mask[b] = self.cross_mask[last]
        lengths, cross_lengths = list(self.lengths), list(self.cross_lengths)
        lengths[b], cross_lengths[b] = lengths[last], cross_lengths[last]
        self.lengths, self.cross_lengths = tuple(lengths[:last]), tuple(cross_lengths[:last])


def decoder_cache(params: ModelParams, u: Packed) -> DecoderCache:
    """An empty cache holding the cross-attention K/V over encoder output
    u, sequence b's rows at the start of slot b and zeros after them, and
    zero-filled self-attention K/V for `max_tgt_len` rows a slot."""
    cfg, w, x = params.config, params.decoder, u.rows.data
    n, longest = len(u.lengths), max(u.lengths)
    # packed row -> (slot, row within it)
    place = (np.repeat(np.arange(n), u.lengths), _rows_within(u.lengths))
    cross_kv = []
    for i in range(cfg.n_dec_layers):
        pair = []
        for a in (ad.affine_forward(x, w[f"l{i}.cross.wk"].data),
                  ad.affine_forward(x, w[f"l{i}.cross.wv"].data, w[f"l{i}.cross.bv"].data)):
            pair.append(np.zeros((n, longest, a.shape[1])))
            pair[-1][place] = a
        cross_kv.append(tuple(pair))
    mask = None
    if min(u.lengths) < longest:
        mask = np.where(np.arange(longest) >= np.array(u.lengths)[:, None], ad.HIDDEN_KEY, 0.0)[:, None, None, :]
    # 1 MiB an array at 16 slots, under the 4 MiB from which numpy asks the
    # kernel for huge pages, whose untouched rows would count as resident
    shape = (n, cfg.max_tgt_len, cfg.d_model)
    self_kv = [(np.zeros(shape), np.zeros(shape)) for _ in range(cfg.n_dec_layers)]
    return DecoderCache(cross_kv, u.lengths, mask, (0,) * n, self_kv)


def _attend_slots(x: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, mask: np.ndarray | None) -> np.ndarray:
    """Multi-head attention of each slot's one query row, x (slots, d),
    over the keys and values of its slot, (slots, keys, d), in one batched
    call; `mask` is additive over (slots, 1, 1, keys).  Returns the
    (slots, d) context."""
    slots, nk, d = k.shape
    hd = d // n_heads
    split = lambda a, n: a.reshape(slots, n, n_heads, hd).transpose(0, 2, 1, 3)
    ctx, _ = ad.attention_forward(split(x, 1), split(k, nk), split(v, nk), float(1.0 / np.sqrt(hd)), mask)
    # one query per slot: (slots, heads, 1, hd) is already in row order
    return ctx.reshape(slots, d)


def _decoder_step(
    params: ModelParams, cache: DecoderCache, ids: Sequence[Sequence[int]], prefix: np.ndarray | None = None,
) -> np.ndarray:
    """Run the decoder over rows of token ids appended after a cache's
    rows, on plain arrays; the hidden states of each sequence's last new
    row, (sequences, d_model).  The one inference forward: a call on an
    empty cache is the first pass over every [prefix, cond, t] row, the
    rows of `prefix`, if given, first (`_decoder_rows`).

    Each layer writes the new rows' keys and values into slot b of the
    cache's fixed-capacity arrays in place, from row `cache.lengths[b]`
    on.  A call of one new row per sequence runs one batched masked
    attention over the first max(lengths) rows of every slot and one over
    the padded encoder rows; a call of several rows attends slot by slot.
    The last layer runs its query, attention, feed-forward and the final
    norm on each sequence's last row only.
    """
    cfg = params.config
    w = {name: t.data for name, t in params.decoder.items()}
    table = w["embed"] if prefix is None else np.concatenate([prefix, w["embed"]])
    slots, old = len(ids), cache.lengths
    tokens, rows, positions, new = _decoder_rows(cfg, ids, old, 0 if prefix is None else len(prefix))
    longest, counts = max(new), [n - start for n, start in zip(new, old)]
    one_row = max(counts) == 1
    write = (np.repeat(np.arange(slots), counts), rows)
    if one_row:
        # the rows are the slots, in order: slot b's row sits at rows[b] and sees the keys up to it
        mask = (None if (rows == longest - 1).all()
                else np.where(np.arange(longest) > rows[:, None], ad.HIDDEN_KEY, 0.0)[:, None, None])
        cross_mask = None if cache.cross_mask is None else cache.cross_mask[:slots]

    def attend_each(x: np.ndarray, k: np.ndarray, v: np.ndarray, keys: Sequence[int], causal: bool) -> np.ndarray:
        # slot b's counts[b] query rows (one in the last layer) over its first keys[b] rows of k and v
        blocks = ((n, k[b, :m], v[b, :m]) for b, (n, m) in enumerate(zip(counts, keys)))
        return np.concatenate([out[0] for out in ad.attention_blocks_forward(x, blocks, cfg.n_heads, causal)])

    h = table[tokens]
    h += positions
    for i in range(cfg.n_dec_layers):
        a, c = f"l{i}.attn", f"l{i}.cross"
        normed = ad.layer_norm_forward(h, w[f"l{i}.ln1.g"], w[f"l{i}.ln1.b"])[0]
        queries = normed
        if i == cfg.n_dec_layers - 1 and not one_row:
            last = np.cumsum(counts) - 1
            queries, h, counts = normed[last], h[last], [1] * slots
        q = ad.affine_forward(queries, w[f"{a}.wq"], w[f"{a}.bq"])
        k_all, v_all = cache.self_kv[i]
        k_all[write] = ad.affine_forward(normed, w[f"{a}.wk"])
        v_all[write] = ad.affine_forward(normed, w[f"{a}.wv"], w[f"{a}.bv"])
        k_enc, v_enc = cache.cross_kv[i]
        if one_row:
            ctx = _attend_slots(q, k_all[:slots, :longest], v_all[:slots, :longest], cfg.n_heads, mask)
        else:
            ctx = attend_each(q, k_all, v_all, new, causal=True)
        h += ad.affine_forward(ctx, w[f"{a}.wo"], w[f"{a}.bo"])
        cross_q = ad.affine_forward(ad.layer_norm_forward(h, w[f"l{i}.ln2.g"], w[f"l{i}.ln2.b"])[0],
                                    w[f"{c}.wq"], w[f"{c}.bq"])
        if one_row:
            ctx = _attend_slots(cross_q, k_enc[:slots], v_enc[:slots], cfg.n_heads, cross_mask)
        else:
            ctx = attend_each(cross_q, k_enc, v_enc, cache.cross_lengths, causal=False)
        h += ad.affine_forward(ctx, w[f"{c}.wo"], w[f"{c}.bo"])
        normed = ad.layer_norm_forward(h, w[f"l{i}.ln3.g"], w[f"l{i}.ln3.b"])[0]
        hidden = ad.gelu_forward(ad.affine_forward(normed, w[f"l{i}.ff.w1"], w[f"l{i}.ff.b1"]))[0]
        h += ad.affine_forward(hidden, w[f"l{i}.ff.w2"], w[f"l{i}.ff.b2"])
    cache.lengths = new
    return ad.layer_norm_forward(h, w["ln_out.g"], w["ln_out.b"])[0]


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
    """The decoder's one taped pass, for teacher forcing and attention
    export: hidden states of every example's [prefix, cond, t] rows in one
    packed pass, the last read[b] rows of example b (all when `read` is
    None), stacked.

    Example b is laid out by `_decoder_rows` from row 0, the soft prefix's
    rows first, so its rows count positions from 0 like a decode of b
    alone; they attend causally among themselves and cross-attend to
    sequence b of u.  The last layer projects keys and values for every
    row but runs its query, attention, feed-forward and the final norm on
    the rows read only."""
    if len(cond_ids) != len(u.lengths) or len(t_ids) != len(u.lengths):
        raise ModelError(f"got {len(cond_ids)} conditionings and {len(t_ids)} targets "
                         f"for {len(u.lengths)} encoder outputs")
    _require_start(cond_ids)
    cfg = params.config
    p = params.decoder
    # every layer's cross K/V first: the order in which u's gradient accumulates
    cross = [_project_kv(p, f"l{i}.cross", u.rows) for i in range(cfg.n_dec_layers)]
    n_prefix = prefix.shape[0] if prefix is not None else 0
    table = ad.concat([prefix, p["embed"]], axis=0) if n_prefix else p["embed"]
    ids = [[*c, *t] for c, t in zip(cond_ids, t_ids)]
    table_rows, _, positions, lengths = _decoder_rows(cfg, ids, (0,) * len(ids), n_prefix)
    keys = lengths
    h = ad.add(ad.embedding(table, table_rows), Tensor(positions))
    for i in range(cfg.n_dec_layers):
        normed = _ln(p, f"l{i}.ln1", h)
        queries = normed
        if i == cfg.n_dec_layers - 1 and read is not None and read != lengths:
            kept = [r for end, r_b in zip(np.cumsum(lengths), read) for r in range(end - r_b, end)]
            queries, h, lengths = ad.embedding(normed, kept), ad.embedding(h, kept), read
        q = ad.affine(queries, p[f"l{i}.attn.wq"], p[f"l{i}.attn.bq"])
        k, v = _project_kv(p, f"l{i}.attn", normed)
        h = ad.add(h, _attend(p, f"l{i}.attn", q, k, v, cfg.n_heads, (lengths, keys), causal=True,
                              collect=collect))
        cross_q = ad.affine(_ln(p, f"l{i}.ln2", h), p[f"l{i}.cross.wq"], p[f"l{i}.cross.bq"])
        h = ad.add(h, _attend(p, f"l{i}.cross", cross_q, *cross[i], cfg.n_heads, (lengths, u.lengths)))
        h = ad.add(h, _feed_forward(p, f"l{i}.ff", _ln(p, f"l{i}.ln3", h)))
    return _ln(p, "ln_out", h)


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
    (sequences, vocab_size): row b conditions on cond_ids[b], the tokens
    t_prev[b] so far and sequence b's encoder output.

    Every call runs `_decoder_step` on plain arrays and records nothing on
    a tape, so it is an error while a tape is active and a decoder
    parameter or the prefix requires gradients.  Without a cache, or with
    an empty one from `decoder_cache(params, u)` (every cached length 0),
    the call runs every [prefix, cond, t_prev] row of every sequence of u.
    A cache that holds rows decodes its own sequences, in its slots'
    order, and runs only the rows after the cached ones; it carries its
    encoder keys and values, so u is not read.  The call writes the keys
    and values of the rows it runs into the cache's arrays in place; they
    hold `max_tgt_len` rows a sequence, the most `_decoder_rows` allows.
    """
    if ad.active_tape() is not None and any(
            t.requires_grad for t in (*params.decoder.values(), *([prefix] if prefix is not None else ()))):
        raise ModelError("a cached decode step is not recorded on the tape: decode outside the tape")
    if cache is None:
        cache = decoder_cache(params, u)
    elif not any(cache.lengths) and cache.cross_lengths != u.lengths:
        raise ModelError(f"the cache holds encoder outputs of {cache.cross_lengths} rows, not u's {u.lengths}")
    n = len(cache.lengths)
    if len(cond_ids) != n or len(t_prev) != n:
        raise ModelError(f"got {len(cond_ids)} conditionings and {len(t_prev)} token lists "
                         f"for {n} encoder outputs")
    _require_start(cond_ids)
    n_prefix = prefix.shape[0] if prefix is not None else 0
    new_ids = []
    for cond, t, cached in zip(cond_ids, t_prev, cache.lengths):
        # the cache holds the prefix's rows first, then cond and t in turn;
        # a first call runs the prefix's rows too, which _decoder_rows adds
        start = cached - n_prefix - len(cond)
        ids = t[start:] if start >= 0 else [*cond[start:], *t]
        if not ids:
            raise ModelError("nothing to decode: every row is already cached")
        new_ids.append(ids)
    prefix_rows = prefix.data if prefix is not None and not any(cache.lengths) else None
    last = Tensor(_decoder_step(params, cache, new_ids, prefix_rows))
    return ad.softmax_forward(_readout(params, last).data)


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
    `decode_budget`) tokens; one with no room for a token never enters the
    cache.  The first step runs every [prefix, cond] in one causal pass;
    every later step runs only the newest token of each sequence still
    decoding, against the cached keys and values.  A sequence that stops
    is retired in place (`DecoderCache.retire`): the last live sequence
    moves into its slot, so every step runs only rows still being decoded,
    on the cache's first slots, and no step copies the cache.  Each step
    calls this module's `decode_next`, so a wrapper set on the module sees
    every step; after the first, `decode_next` reads the cache's slots,
    not u.
    """
    if len(cond_ids) != len(u.lengths):
        raise ModelError(f"got {len(cond_ids)} conditionings for {len(u.lengths)} encoder outputs")
    limits = [min(max_len, decode_budget(params, cond, prefix)) for cond in cond_ids]
    out: list[list[int]] = [[] for _ in cond_ids]
    # live[j]: the sequence in cache slot j
    live = [b for b, limit in enumerate(limits) if limit > 0]
    if not live:
        return out
    if len(live) < len(cond_ids):
        u = u.keep(live)
    cache = decoder_cache(params, u)
    while live:
        probs = decode_next(params, u, [cond_ids[b] for b in live], [out[b] for b in live], prefix, cache)
        # from the last slot down, so the sequence moved into a slot has been seen
        for j, nxt in reversed(list(enumerate(np.argmax(probs, axis=1).tolist()))):
            b = live[j]
            if nxt != eot_id:
                out[b].append(nxt)
                if len(out[b]) < limits[b]:
                    continue
            cache.retire(j)
            live[j] = live[-1]
            live.pop()
    return out


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
