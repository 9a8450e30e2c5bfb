"""WAV ingestion, resampling, and the log-mel frontend."""

import wave

import numpy as np
import pytest

from kwbias.audio import (
    AudioFormatError,
    Waveform,
    load_wav,
    log_mel,
    log_mel_raw,
    mel_filterbank,
    resample,
)


def _write_wav(path, samples, rate=16000, channels=1):
    pcm = np.clip(np.asarray(samples) * 32767, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(pcm.tobytes())


def test_load_wav_silence(tmp_path):
    path = tmp_path / "zeros.wav"
    _write_wav(path, np.zeros(16000))
    wav = load_wav(path)
    assert wav.sample_rate_hz == 16000
    assert len(wav.samples) == 16000
    assert np.all(wav.samples == 0.0)


def test_load_wav_full_scale_square(tmp_path):
    path = tmp_path / "square.wav"
    square = np.where(np.arange(800) % 2 == 0, 1.0, -1.0)
    _write_wav(path, square)
    wav = load_wav(path)
    assert np.all(np.abs(np.abs(wav.samples) - 1.0) < 1e-3)


def test_load_wav_opposite_stereo_channels_cancel(tmp_path):
    path = tmp_path / "stereo.wav"
    a = np.sin(2 * np.pi * 440 * np.arange(1600) / 16000) * 0.5
    interleaved = np.empty(2 * len(a))
    interleaved[0::2] = a
    interleaved[1::2] = -a
    _write_wav(path, interleaved, channels=2)
    wav = load_wav(path)
    assert np.all(np.abs(wav.samples) <= 1 / 32768)


def test_load_wav_rejects_wrong_sample_width(tmp_path):
    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(16000)
        w.writeframes(bytes(800))
    with pytest.raises(AudioFormatError, match="8-bit"):
        load_wav(path)


@pytest.mark.parametrize("blob", [
    b"not a riff chunk at all",
    b"",
    b"RIFF",
    # a RIFF/WAVE header cut inside its 16-byte `fmt ` chunk
    b"RIFF\x24\x00\x00\x00WAVEfmt \x10\x00\x00\x00\x01\x00\x01\x00\x80\x3e",
], ids=["not-riff", "empty", "bare-riff", "cut-in-fmt"])
def test_load_wav_rejects_non_wav(tmp_path, blob):
    path = tmp_path / "noise.wav"
    path.write_bytes(blob)
    with pytest.raises(AudioFormatError, match="^not a readable PCM WAV file: "):
        load_wav(path)


@pytest.mark.parametrize("channels, cut, size", [(1, 1, 3199), (2, 2, 3198)])
def test_load_wav_rejects_data_that_ends_inside_a_frame(tmp_path, channels, cut, size):
    path = tmp_path / "cut.wav"
    _write_wav(path, np.zeros(1600), channels=channels)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(AudioFormatError, match=f"^WAV data of {size} bytes ends inside a {2 * channels}-byte frame$"):
        load_wav(path)


def test_resample_identity_is_bit_identical():
    wav = Waveform(np.sin(np.arange(1000) * 0.01), 16000)
    out = resample(wav, 16000)
    assert out is wav


def test_resample_constant_signal():
    wav = Waveform(np.full(8000, 0.25), 8000)
    out = resample(wav, 16000)
    assert len(out.samples) == 16000
    assert np.allclose(out.samples, 0.25)


def test_resample_sine_keeps_dominant_frequency():
    rate = 44100
    t = np.arange(rate) / rate
    wav = Waveform(np.sin(2 * np.pi * 440 * t), rate)
    out = resample(wav, 16000)
    assert len(out.samples) == round(rate * 16000 / rate)
    spectrum = np.abs(np.fft.rfft(out.samples))
    peak_hz = np.argmax(spectrum) * 16000 / len(out.samples)
    assert abs(peak_hz - 440) <= 1.5


def test_log_mel_silence_is_98_equal_finite_frames():
    feats = log_mel(Waveform(np.zeros(16000), 16000), 80)
    assert feats.frames.shape == (98, 80)
    assert np.isfinite(feats.frames).all()
    assert np.allclose(feats.frames, feats.frames[0])


def test_frame_count_formula_across_lengths():
    for n in (400, 401, 559, 560, 561, 4000, 16000):
        feats = log_mel(Waveform(np.ones(n) * 0.1, 16000), 80)
        assert feats.n_frames == (n - 400) // 160 + 1


def test_log_mel_rejects_short_input():
    with pytest.raises(AudioFormatError, match="400"):
        log_mel(Waveform(np.zeros(399), 16000), 80)


def test_log_mel_rejects_wrong_rate():
    with pytest.raises(AudioFormatError, match="16000"):
        log_mel(Waveform(np.zeros(8000), 8000), 80)


@pytest.mark.parametrize("f0", [250.0, 1000.0, 4000.0])
def test_pure_tone_peaks_at_nearest_filter_center(f0):
    t = np.arange(16000) / 16000
    feats = log_mel(Waveform(0.5 * np.sin(2 * np.pi * f0 * t), 16000), 80)
    # peaks of 80 triangles spaced evenly on the HTK mel scale, 0 Hz to Nyquist
    mel_edges = np.linspace(0.0, 2595.0 * np.log10(1.0 + 8000.0 / 700.0), 82)
    centers = 700.0 * (10.0 ** (mel_edges[1:-1] / 2595.0) - 1.0)
    nearest = int(np.argmin(np.abs(centers - f0)))
    per_frame = feats.frames.argmax(axis=1)
    assert (per_frame == nearest).all()


def test_doubling_amplitude_shifts_raw_log_uniformly():
    t = np.arange(16000) / 16000
    tone = 0.25 * np.sin(2 * np.pi * 1000 * t)
    lo = log_mel_raw(Waveform(tone, 16000), 80)
    hi = log_mel_raw(Waveform(2 * tone, 16000), 80)
    delta = hi - lo
    # floor at 1e-10 never engages for a loud tone on active filters
    active = lo > -9
    assert np.allclose(delta[active], 2 * np.log10(2), atol=1e-6)


def test_filterbank_rows_nonnegative_and_bins_covered():
    fb = mel_filterbank(80, 400, 16000)
    assert (fb >= 0).all()
    coverage = fb.sum(axis=0)
    # every bin strictly between DC and Nyquist touched by some filter
    assert (coverage[1:-1] > 0).all()


def test_log_mel_finite_for_noise_and_silence_mixture():
    rng = np.random.default_rng(0)
    samples = np.concatenate([np.zeros(8000), rng.normal(0, 0.1, 8000)])
    feats = log_mel(Waveform(np.clip(samples, -1, 1), 16000), 80)
    assert np.isfinite(feats.frames).all()
