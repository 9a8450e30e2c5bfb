"""Training regimes, the optimizer, and checkpoint serialization.

Four modes share one loop, each the mode of one stage of `STAGES`, the one
place a stage is declared (`config`, `harness` and `cli` read it there):

* ``base-asr``  trains encoder+decoder on teacher-forced transcripts.  A
  configurable fraction of examples sees a prompt of whole-word keywords
  (`prompts.sample_word_keywords`) so the decoder acquires generic
  prompt-conditioning, mirroring a large pretrained model's exposure to
  previous-text context; the rest train with the empty prompt.
* ``kws``       trains only the keyword head against positive/negative
  token spans (`prompts.sample_training_keywords`), encoder frozen.
* ``ft``        fine-tunes only the decoder on prompts of such spans.
* ``pt``        trains only the soft prompt prefix on prompts of such
  spans, everything else frozen.  Evaluation keywords are whole words.

Frozen groups get ``requires_grad = False`` up front, so they accumulate
no gradient at all; their hashes are verified unchanged after every run.
A run tokenizes an utterance once, when a batch first draws it.

Every mode runs the same step.  One rule, `train_run`'s ``keywords``,
draws each example's keyword set (the empty set for a base-asr example
shown no prompt); then one packed encoder pass (`model.encode`, no
padding) gives the step's encoder output, and the mode's loss reads it:
`loss_asr` in one decoder pass (`model.teacher_forced_logits`), or
`loss_kws` in one keyword-head pass (`model.kws_logits`).  A frozen
encoder records nothing on the tape.  No encoder output is kept across
steps, so a frozen encoder reruns on every draw of an utterance.  The
decoder computes only the rows the loss reads (see `model`), and
attention keeps each packed example within its own block.

`Adam` updates its moments and the parameters in place, with the
textbook update's operations in its order, so a step allocates no array.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor, backward
from .container import read_container, write_container
from .errors import KwbiasError, require_finite
from .model import (
    GROUPS,
    ModelConfig,
    ModelError,
    ModelParams,
    Packed,
    encode,
    init_prefix,
    kws_logits,
    param_group_hash,
    param_layout,
    teacher_forced_logits,
)
from .prompts import KeywordSet, assemble_prompt, sample_training_keywords, sample_word_keywords
from .rng import stream
from .synth import Utterance
from .text import Vocab, normalize, tfidf_scores


class TrainingError(KwbiasError):
    pass


class CheckpointError(KwbiasError):
    pass


@dataclass(frozen=True)
class Stage:
    """One training stage: `mode` trains the groups `trainable` of a copy of
    stage `source`'s model (a fresh model if None) for the run-config keys
    `steps_key` and `lr_key`; `role` keys its model in `train_stack` and evaluation."""

    mode: str
    role: str
    source: str | None
    trainable: frozenset[str]
    steps_key: str
    lr_key: str


STAGES = (
    Stage("base-asr", "base", None, frozenset({"encoder", "decoder"}), "steps_asr", "lr_asr"),
    Stage("kws", "kws", "base", frozenset({"kws"}), "steps_kws", "lr_kws"),
    Stage("ft", "ft", "kws", frozenset({"decoder"}), "steps_ft", "lr_ft"),
    Stage("pt", "pt", "kws", frozenset({"prefix"}), "steps_pt", "lr_pt"),
)
MODES = tuple(s.mode for s in STAGES)


def stage_for(mode: str) -> Stage:
    return STAGES[MODES.index(mode)]


@dataclass(frozen=True)
class TrainConfig:
    mode: str
    steps: int
    learning_rate: float
    batch_size: int = 4
    seed: int = 0
    prefix_len: int = 12
    prompt_exposure: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self, TrainingError)
        if self.mode not in MODES:
            raise TrainingError(f"unknown training mode {self.mode!r}, expected one of {MODES}")
        if self.learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.steps < 1:
            raise TrainingError(f"steps must be >= 1, got {self.steps}")
        # keyword draws take negatives from the batch; base-asr draws only at prompt exposure
        if self.batch_size < 2 and (self.mode != "base-asr" or self.prompt_exposure > 0):
            exposed = f" at prompt_exposure {self.prompt_exposure}" if self.mode == "base-asr" else ""
            raise TrainingError(f"mode {self.mode}{exposed} needs batch_size >= 2 for negative keywords")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if not 0.0 <= self.prompt_exposure <= 1.0:
            raise TrainingError(f"prompt_exposure must be in [0,1], got {self.prompt_exposure}")
        if self.prefix_len < 1:
            raise TrainingError(f"prefix_len must be >= 1, got {self.prefix_len}")


class Adam:
    """Adam with the standard constants; state keyed by parameter name.

    A step updates the moments and the parameter in place, through two
    scratch arrays per parameter, with the operations of the textbook
    update in its order, so the results are that update's bit for bit."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, named_params: Sequence[tuple[str, Tensor]], lr: float) -> None:
        self.params = list(named_params)
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params}
        self._scratch = {name: (np.empty_like(p.data), np.empty_like(p.data)) for name, p in self.params}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        c1, c2 = 1 - b1**self.t, 1 - b2**self.t
        for name, p in self.params:
            g = p.grad
            if g is None:
                continue
            m, v = self.m[name], self.v[name]
            a, b = self._scratch[name]
            # m = b1 * m + (1 - b1) * g
            m *= b1
            m += np.multiply(1 - b1, g, out=a)
            # v = b2 * v + (1 - b2) * g * g
            v *= b2
            np.multiply(1 - b2, g, out=a)
            v += np.multiply(a, g, out=a)
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=a)
            a *= self.lr
            np.sqrt(np.divide(v, c2, out=b), out=b)
            b += self.EPS
            p.data -= np.divide(a, b, out=a)

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None


def set_trainable(params: ModelParams, mode: str) -> None:
    trainable = stage_for(mode).trainable
    for gname, group in params.groups().items():
        flag = gname in trainable
        for t in group.values():
            t.requires_grad = flag


def loss_asr(
    params: ModelParams,
    vocab: Vocab,
    u: Packed,
    targets: Sequence[Sequence[int]],
    prompts: Sequence[Sequence[int]],
) -> Tensor:
    """Mean token cross-entropy over all target positions in the batch.

    Example b decodes target token ids targets[b] after prompt prompts[b]
    against sequence b of the encoder output u, all in one packed decoder
    pass.  The loss covers the targets plus the closing end-of-text token,
    never the prompt or prefix positions.
    """
    logits = teacher_forced_logits(params, u, prompts, targets, params.prefix.get("q"))
    return ad.cross_entropy(logits, [tok for t in targets for tok in (*t, vocab.eot_id)])


def loss_kws(params: ModelParams, u: Packed, keyword_sets: Sequence[KeywordSet]) -> Tensor:
    """Mean binary cross-entropy over every keyword in the batch, example b's
    keyword_sets[b] scored against sequence b of the encoder output u in
    one keyword-head pass."""
    logits = kws_logits(params, u, [[kw.tokens for kw in ks] for ks in keyword_sets])
    return ad.bce_with_logits(logits, [1.0 if kw.positive else 0.0 for ks in keyword_sets for kw in ks])


def train_run(
    config: TrainConfig,
    dataset: Sequence[Utterance],
    vocab: Vocab,
    params: ModelParams,
) -> list[float]:
    """Run one training regime in place; returns the per-step loss series.

    Frozen groups are hash-checked before/after: any change is a bug and
    raises.  A non-finite loss aborts with the step index.  A ``pt`` run
    starts a soft prefix of `prefix_len` rows, or continues one of exactly
    that many.  A ``ft`` run refuses a model that carries a soft prefix: it
    would train the decoder behind it and save a decoder-plus-prefix model.
    """
    if not dataset:
        raise TrainingError("empty dataset")
    if config.mode == "ft" and "q" in params.prefix:
        raise TrainingError(f"ft fine-tunes the decoder alone, but this model carries a soft prefix of "
                            f"{params.prefix['q'].shape[0]} rows; start ft from a checkpoint without one")
    if config.mode == "pt":
        if "q" not in params.prefix:
            init_prefix(params, config.prefix_len, config.seed)
        elif params.prefix["q"].shape[0] != config.prefix_len:
            raise TrainingError(f"the soft prefix has {params.prefix['q'].shape[0]} rows, "
                                f"but prefix_len is {config.prefix_len}")
    set_trainable(params, config.mode)

    # An utterance is tokenized and split when a batch first draws it.
    @functools.cache
    def tokens(i: int) -> list[int]:
        return vocab.tokenize(dataset[i].text)

    @functools.cache
    def words(i: int) -> list[str]:
        return normalize(dataset[i].text).split()

    if config.mode == "base-asr" and config.prompt_exposure > 0:
        # exposure prompts use whole-word keywords weighted like the
        # evaluation draw, so the base model sees eval-format prompts
        word_weights = tfidf_scores([u.text for u in dataset])
    else:
        word_weights = None

    frozen_before = {
        g: param_group_hash(group)
        for g, group in params.groups().items()
        if g not in stage_for(config.mode).trainable
    }

    trainable = [(f"{g}.{name}", t) for g, group in params.groups().items()
                 for name, t in sorted(group.items()) if t.requires_grad]
    opt = Adam(trainable, lr=config.learning_rate)
    rng = stream(config.seed, "train", config.mode)
    losses: list[float] = []

    def keywords(idx: list[int], j: int) -> KeywordSet:
        """Example j's keyword set; a base-asr example gets one with
        probability `prompt_exposure`, and the empty set otherwise."""
        if config.mode != "base-asr":
            return sample_training_keywords(vocab, [tokens(i) for i in idx], j, rng)
        if rng.random() >= config.prompt_exposure:
            return KeywordSet(())
        return sample_word_keywords(vocab, [words(i) for i in idx], j, word_weights, rng)

    for step in range(config.steps):
        idx = [int(i) for i in rng.integers(0, len(dataset), size=config.batch_size)]
        keyword_sets = [keywords(idx, j) for j in range(len(idx))]
        with Tape():
            u = encode(params, [dataset[i].frames for i in idx])
            if config.mode == "kws":
                loss = loss_kws(params, u, keyword_sets)
            else:
                prompts = [assemble_prompt(vocab, ks) for ks in keyword_sets]
                loss = loss_asr(params, vocab, u, [tokens(i) for i in idx], prompts)
            backward(loss)
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingError(f"non-finite loss at step {step}")
        opt.step()
        opt.zero_grad()
        losses.append(value)

    for g, digest in frozen_before.items():
        if param_group_hash(params.groups()[g]) != digest:
            raise TrainingError(f"frozen group {g!r} changed during a {config.mode} run")
    return losses


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"KWBCKPT1"


def checkpoint_save(path: Path | str, params: ModelParams, vocab_hash: str, seed: int) -> None:
    """Container of every parameter; header fields `config`, `vocab_hash`,
    `rng.seed` and `groups`, each group's parameter names in payload order."""
    groups = params.groups()
    manifest = {gname: sorted(group) for gname, group in groups.items()}
    header = {
        "config": params.config.__dict__,
        "vocab_hash": vocab_hash,
        "rng": {"seed": seed},
        "groups": manifest,
    }
    write_container(path, _CKPT_MAGIC, header,
                    [groups[gname][name].data for gname, names in manifest.items() for name in names])


_CKPT_FIELDS = {"config": dict, "vocab_hash": str, "rng": dict, "groups": dict}


def _checked_manifest(path: Path, header: dict, config: ModelConfig) -> list[tuple[str, list[str]]]:
    """(group, parameter names) in payload order, once the header's manifest
    and shapes are found to be exactly `param_layout(config)` plus an
    optional soft prefix `q` of shape (n >= 1, d_model)."""
    layout = param_layout(config)
    manifest = []
    for gname in GROUPS:  # payload order; JSON gave the header's groups back sorted
        names = header["groups"].get(gname)
        if not isinstance(names, list):
            raise CheckpointError(f"{path}: corrupt checkpoint header: no manifest for group {gname!r}")
        expected = sorted(layout[gname]) if gname in layout else ["q"] if names else []
        if names != expected:
            raise CheckpointError(
                f"{path}: corrupt checkpoint header: manifest of group {gname!r} does not match the "
                f"model layout: missing {[n for n in expected if n not in names]}, "
                f"extra {[n for n in names if n not in expected]}"
            )
        manifest.append((gname, names))
    if sum(len(names) for _, names in manifest) != len(header["shapes"]):
        raise CheckpointError(f"{path}: corrupt checkpoint header: manifest does not cover the payload")
    shapes = iter(header["shapes"])
    for gname, names in manifest:
        specs = layout.get(gname)
        for name in names:
            shape = next(shapes)
            # a soft prefix has d_model columns and any number n >= 1 of rows
            want = list(specs[name].shape) if specs is not None else [max([1, *shape[:1]]), config.d_model]
            if shape != want:
                raise CheckpointError(
                    f"{path}: corrupt checkpoint: {gname} tensor {name!r} has shape {shape}, "
                    f"the model layout says {want}"
                )
    return manifest


def _checked_header(path: Path, header: dict, expected_vocab_hash: str | None) -> tuple[int, ModelConfig, list]:
    """(seed, config, manifest) of a checkpoint header, once its seed, vocabulary
    hash, config and manifest are found sound."""
    seed = header["rng"].get("seed")
    if type(seed) is not int:  # bool is an int subclass
        raise CheckpointError(f"{path}: corrupt checkpoint header: rng seed must be int")
    if expected_vocab_hash is not None and header["vocab_hash"] != expected_vocab_hash:
        raise CheckpointError(
            f"{path}: vocabulary hash mismatch: checkpoint {header['vocab_hash'][:12]}... "
            f"vs current {expected_vocab_hash[:12]}..."
        )
    keys, fields = set(header["config"]), {f.name for f in dataclasses.fields(ModelConfig)}
    if keys != fields:
        raise CheckpointError(
            f"{path}: corrupt checkpoint header: model config keys do not match ModelConfig: "
            f"missing {sorted(fields - keys)}, extra {sorted(keys - fields)}"
        )
    try:
        config = ModelConfig(**header["config"])
    except ModelError as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header: bad model config: {exc}") from exc
    return seed, config, _checked_manifest(path, header, config)


def checkpoint_load(
    path: Path | str,
    expected_vocab_hash: str | None = None,
    reuse: tuple[ModelParams, dict] | None = None,
) -> tuple[ModelParams, dict]:
    """(params, meta): meta holds the header's `vocab_hash`, the rng `seed`,
    the `digest` the reader verified and the verified per-array `digests`,
    {group: {name: sha256 hex}}.

    `reuse` is an already loaded (params, meta).  A tensor whose group,
    name, shape and recorded digest equal one of it is not read: the
    returned params hold that very `Tensor`, so the two models share it,
    and training either one changes both.  Every other tensor is read and
    checked against its digest.

    A file whose config keys are not exactly `ModelConfig`'s fields, or
    whose tensors are not exactly those `param_layout` declares for its
    config (plus an optional prefix), fails here as one line, before any
    tensor is read."""
    path = Path(path)
    checked = None  # (seed, config, manifest), once `select` has checked the header
    held, held_digests = (reuse[0].groups(), reuse[1]["digests"]) if reuse is not None else ({}, {})

    def select(header: dict) -> list[int]:
        nonlocal checked
        checked = _checked_header(path, header, expected_vocab_hash)
        slots = [(g, name) for g, names in checked[2] for name in names]
        return [i for i, ((g, name), shape, digest) in enumerate(zip(slots, header["shapes"], header["digests"]))
                if held_digests.get(g, {}).get(name) != digest or list(held[g][name].shape) != shape]

    header, arrays = read_container(path, _CKPT_MAGIC, "checkpoint", CheckpointError, _CKPT_FIELDS, select)
    seed, config, manifest = checked
    tensors, digests = iter(arrays), iter(header["digests"])
    groups: dict[str, dict[str, Tensor]] = {}
    recorded: dict[str, dict[str, str]] = {}
    for gname, names in manifest:
        groups[gname], recorded[gname] = {}, {}
        for name in names:
            a, recorded[gname][name] = next(tensors), next(digests)
            groups[gname][name] = held[gname][name] if a is None else Tensor(a)
    meta = {"vocab_hash": header["vocab_hash"], "seed": seed, "digest": header["digest"], "digests": recorded}
    return ModelParams(config=config, **groups), meta
