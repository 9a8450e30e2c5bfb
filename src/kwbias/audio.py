"""WAV ingestion and log-mel feature extraction.

The feature recipe: 25 ms Hann windows with a 10 ms hop over 16 kHz
audio, power spectrum, a triangular mel bank of the model's `n_mels`
filters (HTK scale, 0 Hz to Nyquist), log10 with
a 1e-10 floor, then a per-utterance clamp to [max-8, max] followed by the
(x+4)/4 affine rescale.  The clamp/rescale step is an implementation
choice for a bounded, silence-safe feature range.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .errors import KwbiasError


class AudioFormatError(KwbiasError):
    pass


SAMPLE_RATE_HZ = 16000
WINDOW_MS, HOP_MS = 25, 10
N_MELS = 80  # default feature width of corpus and model alike


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise AudioFormatError(f"sample rate must be positive, got {self.sample_rate_hz}")
        if self.samples.size == 0:
            raise AudioFormatError("empty waveform")


@dataclass(frozen=True)
class FeatureSequence:
    frames: np.ndarray  # (T, n_mels), one frame every HOP_MS

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def load_wav(source: Path | str | BinaryIO) -> Waveform:
    """Read a 16-bit PCM WAV file or binary stream; stereo is averaged down to mono."""
    try:
        with wave.open(source if hasattr(source, "read") else str(source), "rb") as w:
            comptype = w.getcomptype()
            if comptype != "NONE":
                raise AudioFormatError(f"unsupported WAV encoding {comptype!r}: need plain PCM")
            if w.getsampwidth() != 2:
                raise AudioFormatError(
                    f"need 16-bit PCM samples, got {8 * w.getsampwidth()}-bit"
                )
            n_channels = w.getnchannels()
            raw = w.readframes(w.getnframes())
            rate = w.getframerate()
    except (wave.Error, EOFError) as exc:  # `wave` lets EOFError out of a header cut short
        raise AudioFormatError(f"not a readable PCM WAV file: {exc or 'unexpected end of file'}") from exc
    if len(raw) % (2 * n_channels):
        raise AudioFormatError(f"WAV data of {len(raw)} bytes ends inside a {2 * n_channels}-byte frame")
    pcm = np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if n_channels > 1:
        pcm = pcm.reshape(-1, n_channels).mean(axis=1)
    return Waveform(pcm, rate)


def resample(w: Waveform, target_hz: int) -> Waveform:
    """Linear-interpolation resampling; identity when rates already match."""
    if target_hz <= 0:
        raise AudioFormatError(f"target rate must be positive, got {target_hz}")
    if target_hz == w.sample_rate_hz:
        return w
    n_out = round(len(w.samples) * target_hz / w.sample_rate_hz)
    t_old = np.arange(len(w.samples)) / w.sample_rate_hz
    t_new = np.arange(n_out) / target_hz
    return Waveform(np.interp(t_new, t_old, w.samples), target_hz)


def hz_to_mel(f: np.ndarray | float) -> np.ndarray | float:
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: np.ndarray | float) -> np.ndarray | float:
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate_hz: int) -> np.ndarray:
    """(n_mels, n_fft//2 + 1) triangular filters, unit peak, HTK mel spacing."""
    edges_hz = np.asarray(mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate_hz / 2), n_mels + 2)))
    bin_hz = np.arange(n_fft // 2 + 1) * sample_rate_hz / n_fft
    fb = np.zeros((n_mels, bin_hz.size))
    for j in range(n_mels):
        lo, mid, hi = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        rising = (bin_hz - lo) / (mid - lo)
        falling = (hi - bin_hz) / (hi - mid)
        fb[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def log_mel_raw(w: Waveform, n_mels: int) -> np.ndarray:
    """Pre-clamp log-mel energies; useful for checking log-domain identities."""
    if w.sample_rate_hz != SAMPLE_RATE_HZ:
        raise AudioFormatError(
            f"log_mel expects {SAMPLE_RATE_HZ} Hz input, got {w.sample_rate_hz} Hz: resample first"
        )
    win = w.sample_rate_hz * WINDOW_MS // 1000
    hop = w.sample_rate_hz * HOP_MS // 1000
    n = len(w.samples)
    if n < win:
        raise AudioFormatError(f"input too short: need at least {win} samples, got {n}")
    n_frames = (n - win) // hop + 1
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    power = np.abs(np.fft.rfft(w.samples[idx] * window, n=win, axis=1)) ** 2
    mel = power @ mel_filterbank(n_mels, win, w.sample_rate_hz).T
    return np.log10(np.maximum(mel, 1e-10))


def log_mel(w: Waveform, n_mels: int) -> FeatureSequence:
    """Log-mel features for 16 kHz audio; frames fully inside the signal."""
    logm = log_mel_raw(w, n_mels)
    clamped = np.maximum(logm, logm.max() - 8.0)
    return FeatureSequence(frames=(clamped + 4.0) / 4.0)
