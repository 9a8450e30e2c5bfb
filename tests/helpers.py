"""Shared test oracles, independent of the implementations they check."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable

import numpy as np

from kwbias import autodiff as ad
from kwbias.autodiff import Tape, Tensor, backward
from kwbias.rng import stream
from kwbias.text import RESERVED, Vocab, VocabError, _merge_pair, normalize
from kwbias.training import TRAINABLE_GROUPS, set_trainable


def finite_difference(fn, tensor, index, h: float = 1e-5) -> float:
    """Central finite difference of a scalar-valued fn at one coordinate."""
    orig = tensor.data[index]
    tensor.data[index] = orig + h
    up = fn()
    tensor.data[index] = orig - h
    down = fn()
    tensor.data[index] = orig
    return (up - down) / (2.0 * h)


def weighted_sum(x: Tensor, w) -> Tensor:
    """Scalar loss sum(x * w) for a constant weight array w of x's size,
    from reshape and matmul only; the gradient it sends to x is w."""
    n = x.data.size
    return ad.reshape(ad.matmul(ad.reshape(x, (1, n)), Tensor(np.reshape(w, (n, 1)))), ())


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def reference_build_vocab(corpus: Iterable[str], target_size: int) -> Vocab:
    """`text.build_vocab` as a merge over each transcript's whole character
    stream, never merging a pair whose second unit starts with a space."""
    docs = [normalize(t) for t in corpus]
    docs = [d for d in docs if d]
    if not docs:
        raise VocabError("cannot build a vocabulary from an empty corpus")
    alphabet = sorted({ch for d in docs for ch in d})
    units = list(RESERVED) + alphabet
    if target_size < len(units):
        raise VocabError(
            f"target_size {target_size} is below reserved+alphabet size {len(units)}"
        )
    seqs = [list(d) for d in docs]
    while len(units) < target_size:
        pairs: Counter[tuple[str, str]] = Counter()
        for seq in seqs:
            pairs.update(zip(seq, seq[1:]))
        pairs = Counter({p: c for p, c in pairs.items() if not p[1].startswith(" ")})
        if not pairs:
            break
        top = max(pairs.values())
        if top < 2:
            break
        a, b = min(p for p, c in pairs.items() if c == top)
        merged = a + b
        units.append(merged)
        seqs = [_merge_pair(seq, a, b, merged) for seq in seqs]
    return Vocab(units)


def brute_force_edit_distance(ref: list[str], hyp: list[str]) -> int:
    """Second, independent edit-distance implementation (memoized recursion)."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        if ref[i] == hyp[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j + 1), go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def gradcheck_modes(params, loss_builders, n_coords=20, h=1e-5):
    """Analytic-vs-finite-difference check per mode; returns worst rel errors.

    `loss_builders` maps mode -> zero-argument callable building the loss
    Tensor from the current parameter values (pure in the parameters).
    Frozen groups are asserted to carry exactly zero gradient.
    """
    results = {}
    for mode, build in loss_builders.items():
        set_trainable(params, mode)
        with Tape():
            loss = build()
            backward(loss)

        def loss_value() -> float:
            return float(build().data)

        worst = 0.0
        coord_rng = stream(2024, "gradcheck", mode)
        for gname in sorted(TRAINABLE_GROUPS[mode]):
            group = params.groups()[gname]
            if not group:
                continue
            names = sorted(group)
            for _ in range(n_coords):
                name = names[int(coord_rng.integers(len(names)))]
                t = group[name]
                flat = int(coord_rng.integers(t.data.size))
                index = np.unravel_index(flat, t.data.shape)
                analytic = 0.0 if t.grad is None else float(t.grad[index])
                fd = finite_difference(loss_value, t, index, h=h)
                worst = max(worst, relative_error(analytic, fd))
        for gname, group in params.groups().items():
            if gname in TRAINABLE_GROUPS[mode]:
                continue
            for name, t in group.items():
                assert t.grad is None or not t.grad.any(), (
                    f"{mode}: frozen {gname}.{name} accumulated gradient"
                )
        for group in params.groups().values():
            for t in group.values():
                t.grad = None
        results[mode] = worst
    return results
