"""Flat run configuration merged from a key=value file and flag overrides.

Unknown keys are rejected with a nearest-key suggestion; the resolved
configuration is echoed into every run directory so any output can be
reproduced bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import KwbiasError, require_finite
from .model import ModelConfig
from .synth import SynthSpec
from .training import STAGES, TrainConfig, stage_for


class ConfigError(KwbiasError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Every setting of a run.  A setting a component config shares takes
    that config's default, and each component is built from those fields."""

    seed: int = SynthSpec.seed

    # synthetic data
    train_size: int = SynthSpec.train_size
    dev_size: int = SynthSpec.dev_size
    test_size: int = SynthSpec.test_size
    n_common: int = SynthSpec.n_common
    n_jargon: int = SynthSpec.n_jargon
    jargon_fraction: float = SynthSpec.jargon_fraction
    jargon_per_utterance: int = SynthSpec.jargon_per_utterance
    noise_sigma: float = SynthSpec.noise_sigma
    confusable_offset: float = SynthSpec.confusable_offset
    min_words: int = SynthSpec.min_words
    max_words: int = SynthSpec.max_words
    min_word_frames: int = SynthSpec.min_word_frames
    max_word_frames: int = SynthSpec.max_word_frames
    vocab_target: int = 61

    # model
    n_mels: int = ModelConfig.n_mels
    d_model: int = ModelConfig.d_model
    n_heads: int = ModelConfig.n_heads
    n_enc_layers: int = ModelConfig.n_enc_layers
    n_dec_layers: int = ModelConfig.n_dec_layers
    d_ff: int = ModelConfig.d_ff
    max_src_frames: int = ModelConfig.max_src_frames
    max_tgt_len: int = ModelConfig.max_tgt_len

    # training
    batch_size: int = TrainConfig.batch_size
    steps_asr: int = 3000
    steps_kws: int = 600
    steps_ft: int = 600
    steps_pt: int = 1200
    lr_asr: float = 1e-3
    lr_kws: float = 1e-3
    lr_ft: float = 1e-4
    lr_pt: float = 5e-4
    prefix_len: int = TrainConfig.prefix_len
    prompt_exposure: float = TrainConfig.prompt_exposure

    # evaluation
    eval_keywords: int = 20
    eval_positives: int = 3
    kws_threshold: float = 0.5
    attn_layer: int = 1
    ablate_lengths: str = "4,8,12,16,20,24"

    def __post_init__(self) -> None:
        require_finite(self, ConfigError)
        if not 0.0 <= self.kws_threshold <= 1.0:
            raise ConfigError(f"kws_threshold must be in [0, 1], got {self.kws_threshold}")
        if not 0 <= self.eval_positives <= self.eval_keywords:
            raise ConfigError(f"eval_positives must be in [0, eval_keywords {self.eval_keywords}], "
                              f"got {self.eval_positives}")

    def _build(self, cls: type, **explicit: object):
        """`cls` from the fields it shares with this config, plus `explicit`."""
        shared = {f.name: getattr(self, f.name) for f in dataclasses.fields(cls) if f.name not in explicit}
        return cls(**shared, **explicit)

    def synth_spec(self) -> SynthSpec:
        return self._build(SynthSpec)

    def model_config(self, vocab_size: int) -> ModelConfig:
        return self._build(ModelConfig, vocab_size=vocab_size)

    def train_config(self, mode: str) -> TrainConfig:
        stage = stage_for(mode)
        return self._build(TrainConfig, mode=mode, steps=getattr(self, stage.steps_key),
                           learning_rate=getattr(self, stage.lr_key))

    def scale_steps(self, factor: float) -> "RunConfig":
        """Every stage's step count times `factor`, rounded down but at least 1.
        A factor that is not finite and > 0 is an error."""
        if not 0.0 < factor < math.inf:
            raise ConfigError(f"step scale must be finite and > 0, got {factor}")
        steps = {s.steps_key: max(1, int(getattr(self, s.steps_key) * factor)) for s in STAGES}
        return dataclasses.replace(self, **steps)

    def ablation_lengths(self) -> list[int]:
        try:
            lengths = sorted({int(x) for x in self.ablate_lengths.split(",") if x.strip()})
        except ValueError as exc:
            raise ConfigError(f"ablate_lengths must be comma-separated integers: {exc}") from exc
        if not lengths:
            raise ConfigError("ablate_lengths is empty")
        return lengths


_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}
_PARSERS = {"int": int, "float": float, "str": str}


def _coerce(key: str, raw: str) -> object:
    kind = _FIELDS[key]
    try:
        return _PARSERS[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r} expects {kind}, got {raw!r}") from exc


def _reject_unknown(key: str) -> None:
    if key in _FIELDS:
        return
    hint = difflib.get_close_matches(key, _FIELDS, n=1)
    suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
    raise ConfigError(f"unknown config key {key!r}{suffix}")


def read_config_file(path: Path | str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, eq, value = stripped.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        values[key.strip()] = value.strip()
    return values


def parse_config(path: Path | str | None, overrides: Mapping[str, str] | None = None) -> RunConfig:
    """File values first, then flag overrides; every key validated."""
    merged: dict[str, object] = {}
    if path is not None:
        for key, raw in read_config_file(path).items():
            _reject_unknown(key)
            merged[key] = _coerce(key, raw)
    for key, raw in (overrides or {}).items():
        _reject_unknown(key)
        merged[key] = _coerce(key, str(raw))
    return RunConfig(**merged)


def resolved_text(cfg: RunConfig, provenance: Mapping[str, str] | None = None) -> str:
    """Canonical serialization: sorted keys, then provenance comments."""
    lines = [f"{name} = {getattr(cfg, name)}" for name in sorted(_FIELDS)]
    for key in sorted(provenance or {}):
        lines.append(f"# {key} = {provenance[key]}")
    return "\n".join(lines) + "\n"


def write_resolved(out_dir: Path | str, cfg: RunConfig, provenance: Mapping[str, str] | None = None) -> Path:
    out = Path(out_dir) / "config.resolved"
    out.write_text(resolved_text(cfg, provenance), encoding="utf-8")
    return out
