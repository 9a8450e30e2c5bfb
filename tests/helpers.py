"""Shared test oracles, independent of the implementations they check."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable

import numpy as np

from kwbias import autodiff as ad
from kwbias.autodiff import Tape, Tensor, backward
from kwbias.container import read_container, write_container
from kwbias.rng import stream
from kwbias.synth import SynthError
from kwbias.text import RESERVED, Vocab, VocabError, _merge_pair, normalize
from kwbias.training import CheckpointError, set_trainable, stage_for


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
        for gname in sorted(stage_for(mode).trainable):
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
            if gname in stage_for(mode).trainable:
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


def rewrite_dataset(path, edit) -> None:
    """Rewrite dataset `path` after `edit(header)` has changed its own header
    fields; the copy carries a valid digest."""
    header, frames = read_container(path, b"KWBDS001", "dataset", SynthError, {})
    header = {k: v for k, v in header.items() if k not in ("digest", "shapes")}
    edit(header)
    write_container(path, b"KWBDS001", header, frames)


_CKPT_GROUPS = ("encoder", "decoder", "kws", "prefix")


def rewrite_checkpoint(src, dst, edit) -> None:
    """Copy checkpoint `src` to `dst` after `edit(config, groups)` has changed
    its header config dict or its {group: {name: array}} tensors.  The copy
    is framed as `checkpoint_save` frames a file (names sorted, payload in
    group order) and carries a valid digest, so only a layout check can
    reject it."""
    header, arrays = read_container(src, b"KWBCKPT1", "checkpoint", CheckpointError, {})
    payload = iter(arrays)
    groups = {g: {name: next(payload) for name in header["groups"][g]} for g in _CKPT_GROUPS}
    edit(header["config"], groups)
    header = {k: v for k, v in header.items() if k not in ("digest", "shapes")}
    header["groups"] = {g: sorted(groups[g]) for g in _CKPT_GROUPS}
    write_container(dst, b"KWBCKPT1", header,
                    [groups[g][name] for g in _CKPT_GROUPS for name in header["groups"][g]])


def _drop_tensor(config, groups):
    del groups["encoder"]["l0.attn.wq"]


def _extra_tensor(config, groups):
    groups["encoder"]["l0.attn.bk"] = np.zeros(config["d_model"])


def _wrong_shape(config, groups):
    groups["encoder"]["l0.attn.wq"] = groups["encoder"]["l0.attn.wq"][:, :-1]


def _narrow_prefix(config, groups):
    groups["prefix"] = {"q": np.zeros((3, config["d_model"] - 1))}


def _float_config_field(config, groups):
    config["d_model"] = float(config["d_model"])


def _odd_d_model(config, groups):
    config["d_model"], config["n_heads"] = 33, 3  # divisible, so only the parity check sees it


def _missing_config_key(config, groups):
    del config["max_src_frames"]  # shapes no tensor, so only the key check sees it


def _extra_config_key(config, groups):
    config["dropout"] = 1


# (edit, a regex the one-line CheckpointError must match) per kind of damage,
# for a checkpoint with d_model 32
MALFORMED_CHECKPOINTS = {
    "missing-tensor": (
        _drop_tensor, r"manifest of group 'encoder' .*: missing \['l0\.attn\.wq'\], extra \[\]$"),
    "extra-tensor": (
        _extra_tensor, r"manifest of group 'encoder' .*: missing \[\], extra \['l0\.attn\.bk'\]$"),
    "wrong-shape": (
        _wrong_shape, r"encoder tensor 'l0\.attn\.wq' has shape \[32, 31\], the model layout says \[32, 32\]$"),
    "narrow-prefix": (
        _narrow_prefix, r"prefix tensor 'q' has shape \[3, 31\], the model layout says \[3, 32\]$"),
    "float-config": (
        _float_config_field, r"bad model config: d_model must be an int >= 1, got 32\.0$"),
    "odd-d_model": (
        _odd_d_model, r"bad model config: d_model must be even for sinusoidal positions, got 33$"),
    "missing-config-key": (
        _missing_config_key,
        r"model config keys do not match ModelConfig: missing \['max_src_frames'\], extra \[\]$"),
    "extra-config-key": (
        _extra_config_key, r"model config keys do not match ModelConfig: missing \[\], extra \['dropout'\]$"),
}
