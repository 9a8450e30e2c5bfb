"""Flat run configuration merged from a key=value file and flag overrides.

Unknown keys are rejected with a nearest-key suggestion; the resolved
configuration is echoed into every run directory so any output can be
reproduced bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import KwbiasError
from .model import ModelConfig
from .synth import SynthSpec
from .training import TrainConfig


class ConfigError(KwbiasError):
    pass


# The (steps key, learning-rate key) each training mode reads.
STAGE_KEYS = {
    "base-asr": ("steps_asr", "lr_asr"),
    "kws": ("steps_kws", "lr_kws"),
    "ft": ("steps_ft", "lr_ft"),
    "pt": ("steps_pt", "lr_pt"),
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42

    # synthetic data
    train_size: int = 2000
    dev_size: int = 100
    test_size: int = 100
    n_common: int = 5
    n_jargon: int = 24
    jargon_fraction: float = 0.6
    jargon_per_utterance: int = 2
    noise_sigma: float = 0.2
    confusable_offset: float = 0.035
    min_words: int = 4
    max_words: int = 5
    min_word_frames: int = 5
    max_word_frames: int = 6
    vocab_target: int = 61

    # model
    n_mels: int = 80
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 256
    max_src_frames: int = 1024
    max_tgt_len: int = 128

    # training
    batch_size: int = 4
    steps_asr: int = 3000
    steps_kws: int = 600
    steps_ft: int = 600
    steps_pt: int = 1200
    lr_asr: float = 1e-3
    lr_kws: float = 1e-3
    lr_ft: float = 1e-4
    lr_pt: float = 5e-4
    prefix_len: int = 12
    prompt_exposure: float = 0.5

    # evaluation
    eval_keywords: int = 20
    eval_positives: int = 3
    kws_threshold: float = 0.5
    attn_layer: int = 1
    ablate_lengths: str = "4,8,12,16,20,24"

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(
            n_common=self.n_common,
            n_jargon=self.n_jargon,
            n_mels=self.n_mels,
            min_word_frames=self.min_word_frames,
            max_word_frames=self.max_word_frames,
            min_words=self.min_words,
            max_words=self.max_words,
            jargon_per_utterance=self.jargon_per_utterance,
            noise_sigma=self.noise_sigma,
            confusable_offset=self.confusable_offset,
            jargon_fraction=self.jargon_fraction,
            train_size=self.train_size,
            dev_size=self.dev_size,
            test_size=self.test_size,
            seed=self.seed,
        )

    def model_config(self, vocab_size: int) -> ModelConfig:
        return ModelConfig(
            d_model=self.d_model,
            n_heads=self.n_heads,
            n_enc_layers=self.n_enc_layers,
            n_dec_layers=self.n_dec_layers,
            d_ff=self.d_ff,
            vocab_size=vocab_size,
            n_mels=self.n_mels,
            max_src_frames=self.max_src_frames,
            max_tgt_len=self.max_tgt_len,
        )

    def train_config(self, mode: str) -> TrainConfig:
        steps_key, lr_key = STAGE_KEYS[mode]
        return TrainConfig(
            mode=mode,
            steps=getattr(self, steps_key),
            learning_rate=getattr(self, lr_key),
            batch_size=self.batch_size,
            seed=self.seed,
            prefix_len=self.prefix_len,
            prompt_exposure=self.prompt_exposure,
        )

    def scale_steps(self, factor: float) -> "RunConfig":
        """Every stage's step count times `factor`, rounded down but at least 1."""
        steps = {key: max(1, int(getattr(self, key) * factor)) for key, _ in STAGE_KEYS.values()}
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
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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
