"""Dense float64 tensors with tape-based reverse-mode differentiation.

The kernel is deliberately small: row-major numpy storage and just the
primitives an encoder-decoder transformer with a keyword scoring head
needs.  Broadcasting is restricted to suffix alignment (bias vectors);
everything else must match shapes exactly so errors surface early.

Ops executed while a `Tape` is active record an adjoint closure when any
input requires gradients.  Running the recorded entries in reverse order
visits every node after all of its consumers, so each adjoint fires
exactly once.  With no active tape, ops are plain numpy calls, which is
the fast path used for inference: a primitive returns its output before
it builds an adjoint closure.

Two fused primitives keep the graph small: `affine` is a linear layer
with its bias, and `attention` is the whole multi-head softmax attention
(head split, scores, causal mask, softmax, weighted sum, head merge) with
one hand-written adjoint.  Both run the numpy sequence of the chain of
elementary ops they replace, so their outputs and gradients are those of
that chain bit for bit.  `attention` takes per-sequence lengths instead
of a dense mask: packed sequences attend within their own block, so no
array spans two of them.

Forward formulas live in plain-array functions that the primitives call
and that return what the adjoints read (`affine_forward`, `gelu_forward`,
`layer_norm_forward`, and `attention_blocks_forward`, attention block by
block), so code that needs no tape, such as the decode step, computes the
same formula without a `Tensor` per op.  Softmax, needed only there and
inside attention, is `softmax_forward` alone.  They work in place where
they can, in an order that gives the textbook expressions' values bit
for bit.

Every adjoint hands each input a gradient of that input's shape.  One
that builds a new gradient array for one input hands it over to be kept
as that input's gradient; an array handed to several inputs is copied on
first accumulation.

Tensors hold no reference to their tape, so a graph lives as long as its
tape: reference counting frees it once the `with Tape()` block is left.
The active tape is one attribute of a thread-local object whose class
default is None, so an op finds out in a single attribute read whether
it must record.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import KwbiasError


class AutodiffError(KwbiasError):
    """Misuse of the tape machinery (non-scalar backward, stale tape, ...)."""


class ShapeError(AutodiffError):
    """Operand shapes are incompatible for the requested primitive."""


class _State(threading.local):
    tape: "Tape | None" = None


_STATE = _State()


def active_tape() -> "Tape | None":
    """The tape recording on this thread, or None."""
    return _STATE.tape


class Tape:
    """Ordered record of primitive applications for one backward pass."""

    def __init__(self) -> None:
        self._nodes: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise AutodiffError("a tape is already active on this thread")
        _STATE.tape = self
        return self

    def __exit__(self, *exc: object) -> None:
        _STATE.tape = None

    def __len__(self) -> int:
        return len(self._nodes)


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    Tensors are immutable by convention once created; only `grad`
    accumulation and explicit optimizer updates write to them.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data: object, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={tuple(self.data.shape)}{flag})"


def _track(data: np.ndarray, inputs: Sequence[Tensor]) -> Tensor:
    tracked = _STATE.tape is not None and any(t.requires_grad for t in inputs)
    return Tensor(data, requires_grad=tracked)


def _record(out: Tensor, adjoint: Callable[[np.ndarray], None]) -> None:
    _STATE.tape._nodes.append((out, adjoint))


def _accum(t: Tensor, g: np.ndarray, own: bool = False) -> None:
    """Add g, which has t's shape, to t's gradient.  With `own`, g is a new
    array its adjoint made for t alone, so t may keep it; otherwise the
    adjoint may hand g, or a view of it, to several inputs, and the first
    accumulation copies it."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if own else np.array(g, dtype=np.float64)
    else:
        t.grad += g


def backward(loss: Tensor) -> None:
    """Populate `grad` for every tracked tensor reachable from a scalar loss."""
    if loss.data.shape != ():
        raise AutodiffError(f"backward requires a scalar, got shape {loss.data.shape}")
    tape = active_tape()
    if tape is None or not loss.requires_grad:
        raise AutodiffError("loss was not recorded on an active tape")
    if tape.consumed:
        raise AutodiffError("stale tape: backward was already run on it")
    # the loss is normally the last node recorded, so this scan stops at once
    if not any(out is loss for out, _ in reversed(tape._nodes)):
        raise AutodiffError("loss was not recorded on the active tape")
    tape.consumed = True
    loss.grad = np.ones((), dtype=np.float64)
    for out, adjoint in reversed(tape._nodes):
        if out.grad is not None:
            adjoint(out.grad)


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; 2-D or batched with identical leading dimensions."""
    ad, bd = a.data, b.data
    if (
        ad.ndim < 2
        or bd.ndim != ad.ndim
        or ad.shape[:-2] != bd.shape[:-2]
        or ad.shape[-1] != bd.shape[-2]
    ):
        raise ShapeError(f"matmul shape mismatch: {ad.shape} x {bd.shape}")
    out = _track(ad @ bd, (a, b))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g @ bd.swapaxes(-1, -2), own=True)
        if b.requires_grad:
            _accum(b, ad.swapaxes(-1, -2) @ g, own=True)

    _record(out, adjoint)
    return out


def _suffix_check(op: str, a: np.ndarray, b: np.ndarray) -> int:
    """Validate b as an exact suffix of a's shape; return leading-axis count."""
    if a.shape == b.shape:
        return 0
    k = a.ndim - b.ndim
    if k <= 0 or a.shape[k:] != b.shape:
        raise ShapeError(f"{op} shape mismatch: {a.shape} vs {b.shape} (suffix broadcast only)")
    return k


def add(a: Tensor, b: Tensor) -> Tensor:
    k = _suffix_check("add", a.data, b.data)
    out = _track(a.data + b.data, (a, b))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g)
        if b.requires_grad:
            _accum(b, g.sum(axis=tuple(range(k))) if k else g)

    _record(out, adjoint)
    return out


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b on plain arrays: `affine`'s forward formula, the bias added
    in place."""
    y = x @ w
    if b is not None:
        y += b
    return y


def affine(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w + b for 2-D x and w and a bias over w's columns, as one node."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"affine shape mismatch: {xd.shape} x {wd.shape}")
    if b is not None and b.data.shape != wd.shape[1:]:
        raise ShapeError(f"affine bias shape {b.data.shape} does not match {wd.shape[1]} columns")
    out = _track(affine_forward(xd, wd, None if b is None else b.data), (x, w) if b is None else (x, w, b))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=0), own=True)
        if x.requires_grad:
            _accum(x, g @ wd.T, own=True)
        if w.requires_grad:
            _accum(w, xd.T @ g, own=True)

    _record(out, adjoint)
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = _track(a.data * c, (a,))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        _accum(a, g * c, own=True)

    _record(out, adjoint)
    return out


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    orig = a.data.shape
    out = _track(a.data.reshape(shape), (a,))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        _accum(a, g.reshape(orig))

    _record(out, adjoint)
    return out


def swap_axes(a: Tensor, i: int, j: int) -> Tensor:
    out = _track(a.data.swapaxes(i, j), (a,))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        _accum(a, g.swapaxes(i, j))

    _record(out, adjoint)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat of zero tensors")
    out = _track(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    if not out.requires_grad:
        return out
    sizes = [t.data.shape[axis] for t in tensors]

    def adjoint(g: np.ndarray) -> None:
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offset, offset + size)
                _accum(t, g[tuple(sl)])
            offset += size

    _record(out, adjoint)
    return out


def embedding(table: Tensor, ids: Sequence[int] | np.ndarray) -> Tensor:
    """Gather rows of a 2-D table; gradients scatter-add back."""
    idx = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding table must be 2-D, got {table.data.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ShapeError(f"embedding id out of range for table of {table.data.shape[0]} rows")
    out = _track(table.data[idx], (table,))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        if table.requires_grad:
            gt = np.zeros_like(table.data)
            np.add.at(gt, idx, g)
            _accum(table, gt, own=True)

    _record(out, adjoint)
    return out


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu_forward(x: np.ndarray, keep_tanh: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Tanh-approximated GELU of x, with the tanh term its adjoint reads:
    (gelu(x), tanh term).  With `keep_tanh=False`, for a caller with no
    adjoint, gelu(x) is written over the tanh term, which comes back as
    None: one array of x's shape besides x, not two."""
    # 0.5 * x * (1 + tanh(c * (x + 0.044715 * x * x * x))) in two arrays:
    # products and sums commute, and halving last is exact
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    y = np.add(t, 1.0, out=None if keep_tanh else t)
    y *= x
    y *= 0.5
    return y, (t if keep_tanh else None)


def gelu(a: Tensor) -> Tensor:
    x = a.data
    y, t = gelu_forward(x)
    out = _track(y, (a,))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        if a.requires_grad:
            d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 0.134145 * (x * x))
            _accum(a, g * d, own=True)

    _record(out, adjoint)
    return out


def softmax_forward(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Max-stabilized softmax of x along one axis."""
    # the ufunc reduce gives ndarray.max's values without its Python-level wrapper
    e = np.exp(x - np.maximum.reduce(x, axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# additive attention mask entry of a hidden key: its weight's exp underflows to 0
HIDDEN_KEY = -1e30


@functools.lru_cache(maxsize=None)
def _upper_triangle(n: int) -> np.ndarray:
    """Read-only (n, n) additive mask that hides from each row every later
    column."""
    mask = np.triu(np.full((n, n), HIDDEN_KEY), k=1)
    mask.flags.writeable = False
    return mask


def _causal_mask(nq: int, nk: int) -> np.ndarray:
    """Additive mask of nq queries that are the last rows of nk keys: query r
    sits at key row nk - nq + r and sees no later key.  A view of one
    triangle shared by every size up to the next power of two."""
    return _upper_triangle(1 << (nk - 1).bit_length())[nk - nq : nk, :nk]


def attention_forward(
    qh: np.ndarray, kh: np.ndarray, vh: np.ndarray, scale: float, mask: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax attention over the last two axes of head-split arrays:
    weights softmax(qh @ khᵀ * scale + mask) over the keys, and their
    weighted sum of vh.  Returns (output, weights); `mask` is additive
    and broadcasts against the scores."""
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if mask is not None:
        scores = scores + mask
    att = softmax_forward(scores)
    return att @ vh, att


def _check_blocks(lengths: tuple[Sequence[int], Sequence[int]], nq: int, nk: int, causal: bool) -> None:
    q_lengths, k_lengths = lengths
    if (
        not k_lengths
        or len(q_lengths) != len(k_lengths)
        or sum(q_lengths) != nq
        or sum(k_lengths) != nk
        or min(q_lengths) < 0
        or min(k_lengths) < 1
        or causal and any(map(operator.gt, q_lengths, k_lengths))
    ):
        raise ShapeError(
            f"attention lengths {tuple(q_lengths)} x {tuple(k_lengths)} do not pack {nq} query and {nk} key rows"
            + (" with each query block at most its key block" if causal else "")
        )


def attention_blocks_forward(
    q: np.ndarray, blocks: Iterable[tuple[int, np.ndarray, np.ndarray]], n_heads: int, causal: bool = False,
    collect: list | None = None,
) -> Iterator[tuple[np.ndarray, ...]]:
    """Multi-head attention of packed query rows q (rows, d) on plain
    arrays, block by block: for each (n, k, v) of `blocks`, the next n rows
    of q attend over that block's keys and values, (m, d) each; with
    `causal`, as the last n rows of those keys.  `collect`, if given, gets
    each block's head-averaged weights (n, m) appended in order.

    Yields each block's (n, d) context with the head-split arrays and
    weights `attention`'s adjoint reads: (context, qh, kh, vh, att).  A
    caller that keeps only the contexts holds one block's arrays at a time."""
    d = q.shape[1]
    hd = d // n_heads
    c = float(1.0 / np.sqrt(hd))
    q0 = 0
    for n, k, v in blocks:
        m = k.shape[0]
        qh = q[q0 : q0 + n].reshape(n, n_heads, hd).swapaxes(0, 1)
        kh = k.reshape(m, n_heads, hd).swapaxes(0, 1)
        vh = v.reshape(m, n_heads, hd).swapaxes(0, 1)
        q0 += n
        ctx, att = attention_forward(qh, kh, vh, c, _causal_mask(n, m) if causal and n > 1 else None)
        if collect is not None:
            collect.append(att.mean(axis=0))
        yield ctx.swapaxes(0, 1).reshape(n, d), qh, kh, vh, att


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    lengths: tuple[Sequence[int], Sequence[int]] | None = None,
    causal: bool = False,
    collect: list | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q is (nq, d); k and v are (nk, d).  Each of the n_heads heads takes a
    contiguous d / n_heads slice of the columns, and the heads' outputs
    are merged back into (nq, d).

    `lengths` = (q_lengths, k_lengths) packs several sequences: the
    q_lengths[b] query rows of block b attend to the k_lengths[b] key rows
    of block b only.  None is one block of every row.  With `causal`,
    block b's queries are the last rows of its keys, and each sees no key
    after its own row.  The forward is `attention_blocks_forward`, and the
    adjoint loops over the same blocks, so no array spans two of them.
    `collect`, if given, gets each block's head-averaged weights
    (q_lengths[b], k_lengths[b]) appended in order.
    """
    nq, d = q.data.shape
    nk = k.data.shape[0]
    if k.data.shape != (nk, d) or v.data.shape != (nk, d) or d % n_heads:
        raise ShapeError(
            f"attention shape mismatch: q {q.data.shape}, k {k.data.shape}, v {v.data.shape}, {n_heads} heads"
        )
    if lengths is None:
        lengths = ((nq,), (nk,))
    _check_blocks(lengths, nq, nk, causal)
    per_block = ((n, k.data[end - m : end], v.data[end - m : end])
                 for n, m, end in zip(*lengths, itertools.accumulate(lengths[1])))
    outs, blocks = [], []  # each block's context, and its (qh, kh, vh, att)
    for ctx, *block in attention_blocks_forward(q.data, per_block, n_heads, causal, collect):
        outs.append(ctx)
        blocks.append(block)
    out = _track(outs[0] if len(outs) == 1 else np.concatenate(outs), (q, k, v))
    if not out.requires_grad:
        return out
    hd = d // n_heads
    c = float(1.0 / np.sqrt(hd))

    def adjoint(g: np.ndarray) -> None:
        gq, gk, gv = (np.empty_like(t.data) if t.requires_grad else None for t in (q, k, v))
        q0 = k0 = 0
        for qh, kh, vh, att in blocks:
            n, m = qh.shape[1], kh.shape[1]
            rows, keys = slice(q0, q0 + n), slice(k0, k0 + m)
            q0, k0 = q0 + n, k0 + m
            gh = g[rows].reshape(n, n_heads, hd).swapaxes(0, 1)
            ga = gh @ vh.swapaxes(-1, -2)
            if gv is not None:
                gv[keys] = (att.swapaxes(-1, -2) @ gh).swapaxes(0, 1).reshape(m, d)
            gs = att * (ga - (ga * att).sum(axis=-1, keepdims=True)) * c
            if gq is not None:
                gq[rows] = (gs @ kh).swapaxes(0, 1).reshape(n, d)
            if gk is not None:
                gk[keys] = (qh.swapaxes(-1, -2) @ gs).swapaxes(-1, -2).swapaxes(0, 1).reshape(m, d)
        # value, query, key: the order in which an input passed twice accumulates
        for t, gt in ((v, gv), (q, gq), (k, gk)):
            if gt is not None:
                _accum(t, gt, own=True)

    _record(out, adjoint)
    return out


LAYER_NORM_EPS = 1e-5


def layer_norm_forward(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of x's last axis on plain arrays, with the normalized rows
    and inverse deviations its adjoint reads: (output, yhat, inv)."""
    d = x.shape[-1]
    # the reductions np.mean / np.var perform, without their wrappers; the
    # centred rows become yhat in place, and their squares the output
    yhat = x - np.add.reduce(x, -1, keepdims=True) / d
    out = yhat * yhat
    inv = 1.0 / np.sqrt(np.add.reduce(out, -1, keepdims=True) / d + LAYER_NORM_EPS)
    yhat *= inv
    np.multiply(yhat, gain, out=out)
    out += bias
    return out, yhat, inv


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match last axis {d}"
        )
    y, yhat, inv = layer_norm_forward(x.data, gain.data, bias.data)
    out = _track(y, (x, gain, bias))
    if not out.requires_grad:
        return out
    lead = tuple(range(x.data.ndim - 1))

    def adjoint(g: np.ndarray) -> None:
        if bias.requires_grad:
            _accum(bias, g.sum(axis=lead), own=True)
        if gain.requires_grad:
            _accum(gain, (g * yhat).sum(axis=lead), own=True)
        if x.requires_grad:
            gy = g * gain.data
            gx = inv * (
                gy
                - np.add.reduce(gy, -1, keepdims=True) / d
                - yhat * (np.add.reduce(gy * yhat, -1, keepdims=True) / d)
            )
            _accum(x, gx, own=True)

    _record(out, adjoint)
    return out


def cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean negative log-softmax probability of the targets; `logits` is (n, V)."""
    ld = logits.data
    if ld.ndim != 2:
        raise ShapeError(f"cross_entropy expects 2-D logits, got {ld.shape}")
    n, v = ld.shape
    tgt = np.asarray(targets, dtype=np.int64)
    if tgt.shape != (n,):
        raise ShapeError(f"targets shape {tgt.shape} does not match logits rows {n}")
    if not n:
        raise AutodiffError("empty loss: no targets")
    if tgt.min() < 0 or tgt.max() >= v:
        raise ShapeError(f"target id out of range for {v} classes")

    z = ld - np.maximum.reduce(ld, axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    logp = z - lse
    nll = -logp[np.arange(n), tgt]
    out = _track(np.asarray(nll.sum() / n), (logits,))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        if logits.requires_grad:
            grad = np.exp(logp)
            grad[np.arange(n), tgt] -= 1.0
            grad *= 1.0 / n
            _accum(logits, g * grad, own=True)

    _record(out, adjoint)
    return out


def bce_with_logits(logits: Tensor, labels: Sequence[float]) -> Tensor:
    """Mean binary cross-entropy of sigmoid(logits) against {0,1} labels."""
    x = logits.data
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != x.shape:
        raise ShapeError(f"labels shape {y.shape} does not match logits {x.shape}")
    if x.size == 0:
        raise AutodiffError("empty loss: no labels")
    loss = np.maximum(x, 0.0) - x * y + np.log1p(np.exp(-np.abs(x)))
    n = x.size
    out = _track(np.asarray(loss.sum() / n), (logits,))
    if not out.requires_grad:
        return out

    def adjoint(g: np.ndarray) -> None:
        if logits.requires_grad:
            sig = 1.0 / (1.0 + np.exp(-x))
            _accum(logits, g * (sig - y) / n, own=True)

    _record(out, adjoint)
    return out
