"""Configuration parsing and the command-line surface.

CLI tests run on a miniature corpus; they verify wiring, provenance, and
byte determinism rather than model quality.
"""

import argparse
import builtins
import hashlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import struct
import subprocess
import sys
import wave
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from kwbias import cli
from kwbias.cli import main
from kwbias.config import ConfigError, RunConfig, parse_config, resolved_text, write_resolved
from kwbias.harness import evaluate_conditions, make_eval_context
from kwbias.metrics import WerBreakdown, compute_wer, keyword_f1
from kwbias.model import ModelConfig
from kwbias.synth import SynthSpec, Utterance, dataset_load, dataset_save
from kwbias.text import Vocab, normalize
from kwbias.training import MODES, STAGES, TrainConfig, checkpoint_load, checkpoint_save, stage_for

from helpers import MALFORMED_CHECKPOINTS, rewrite_checkpoint, rewrite_dataset

ROOT = Path(__file__).resolve().parent.parent


def test_defaults_from_empty_file(tmp_path):
    path = tmp_path / "empty.conf"
    path.write_text("")
    assert parse_config(path, {}) == RunConfig()


def test_defaults_without_file():
    assert parse_config(None, {}) == RunConfig()


def test_flag_overrides_file_value(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("prefix_len = 12\nseed = 1  # trailing comment\n")
    cfg = parse_config(path, {"prefix_len": "16"})
    assert cfg.prefix_len == 16
    assert cfg.seed == 1


def test_unknown_key_suggests_nearest(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("prefx_len = 12\n")
    with pytest.raises(ConfigError, match="did you mean 'prefix_len'"):
        parse_config(path, {})


def test_type_mismatch_names_key_and_type():
    with pytest.raises(ConfigError, match="'steps_pt' expects int"):
        parse_config(None, {"steps_pt": "soon"})


def test_malformed_line_is_rejected(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("steps_pt\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config(path, {})


def test_resolved_text_round_trips(tmp_path):
    cfg = RunConfig(seed=9, noise_sigma=0.25)
    out = write_resolved(tmp_path, cfg, {"command": "gen-data"})
    assert out.name == "config.resolved"
    reparsed = parse_config(out, {})
    assert reparsed == cfg
    assert "# command = gen-data" in out.read_text()


def test_ablation_lengths_parsing():
    assert RunConfig(ablate_lengths="8, 4,4").ablation_lengths() == [4, 8]
    with pytest.raises(ConfigError, match="integers"):
        RunConfig(ablate_lengths="4,x").ablation_lengths()
    with pytest.raises(ConfigError, match="empty"):
        RunConfig(ablate_lengths=" , ").ablation_lengths()


def test_train_config_reads_each_modes_keys():
    cfg = RunConfig(steps_asr=11, steps_kws=12, steps_ft=13, steps_pt=14,
                    lr_asr=0.1, lr_kws=0.2, lr_ft=0.3, lr_pt=0.4,
                    batch_size=3, seed=9, prefix_len=5, prompt_exposure=0.25)
    expected = {"base-asr": (11, 0.1), "kws": (12, 0.2), "ft": (13, 0.3), "pt": (14, 0.4)}
    assert set(expected) == set(MODES)
    for mode, (steps, lr) in expected.items():
        tc = cfg.train_config(mode)
        assert (tc.mode, tc.steps, tc.learning_rate) == (mode, steps, lr)
        assert (tc.batch_size, tc.seed, tc.prefix_len, tc.prompt_exposure) == (3, 9, 5, 0.25)


# the component fields RunConfig's builders pass in explicitly
_EXPLICIT = {SynthSpec: set(), ModelConfig: {"vocab_size"}, TrainConfig: {"mode", "steps", "learning_rate"}}


def test_every_component_field_is_a_run_setting_or_passed_explicitly():
    run_fields = {f.name for f in fields(RunConfig)}
    for cls, explicit in _EXPLICIT.items():
        names = {f.name for f in fields(cls)}
        assert explicit <= names, cls.__name__
        assert names - explicit <= run_fields, (cls.__name__, sorted(names - explicit - run_fields))


def test_default_run_builds_each_component_with_its_own_defaults():
    cfg = RunConfig()
    assert cfg.synth_spec() == SynthSpec()
    assert cfg.model_config(99) == ModelConfig(vocab_size=99)
    run_fields = {f.name for f in fields(RunConfig)}
    for stage in STAGES:
        assert {stage.steps_key, stage.lr_key} <= run_fields, stage
        steps, lr = getattr(cfg, stage.steps_key), getattr(cfg, stage.lr_key)
        # a run seeds its training from the run seed, not TrainConfig's own default
        assert cfg.train_config(stage.mode) == TrainConfig(stage.mode, steps, lr, seed=cfg.seed)


def test_more_positives_than_keywords_is_a_config_error(tmp_path, capsys):
    with pytest.raises(ConfigError, match="eval_positives must be in \\[0, eval_keywords 2\\], got 3$"):
        RunConfig(eval_keywords=2, eval_positives=3)
    with pytest.raises(ConfigError, match="eval_positives"):
        RunConfig(eval_positives=-1)
    assert RunConfig(eval_keywords=3, eval_positives=3).eval_positives == 3
    rc = main(["evaluate", "--data", str(tmp_path), "--out", str(tmp_path / "x"), "--set", "eval_keywords=2"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("ConfigError: eval_positives")


@pytest.mark.parametrize("argv, message", [
    (["--set", "kws_threshold=nan"], "kws_threshold must be finite, got nan"),
    (["--set", "kws_threshold=1.5"], "kws_threshold must be in [0, 1], got 1.5"),
    (["--set", "kws_threshold=-0.1"], "kws_threshold must be in [0, 1], got -0.1"),
    (["--set", "noise_sigma=nan"], "noise_sigma must be finite, got nan"),
    (["--set", "lr_ft=nan"], "lr_ft must be finite, got nan"),
    (["--set", "lr_pt=inf"], "lr_pt must be finite, got inf"),
    (["--set", "prompt_exposure=-inf"], "prompt_exposure must be finite, got -inf"),
    (["--conditions", ","], "--conditions names no condition: ','"),
    (["--conditions", "baseline, pt,baseline"], "--conditions names baseline more than once: 'baseline, pt,baseline'"),
], ids=["threshold-nan", "threshold-above-1", "threshold-below-0", "noise-nan", "lr-nan", "lr-inf",
        "exposure-inf", "no-conditions", "repeated-condition"])
def test_bad_float_settings_and_empty_conditions_are_config_errors(tmp_path, capsys, argv, message):
    # each is rejected before any input is read, so the data directory can be empty
    rc = main(["evaluate", "--data", str(tmp_path), "--out", str(tmp_path / "x"), *argv])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"ConfigError: {message}"


def test_ci_runs_the_help_of_every_subcommand():
    # the workflow's `--help` loop names the parser's subcommands, so an added
    # or removed command shows here, not only when the installed CLI runs
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (loop,) = re.findall(r'for cmd in ([^;]+); do\s+kwbias "\$cmd" --help', workflow)
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(loop.split()) == sorted(sub.choices)


def test_scale_steps_scales_every_stage_and_floors_at_one():
    cfg = RunConfig()
    assert cfg.scale_steps(1.0) == cfg
    assert cfg.scale_steps(0.5) == replace(cfg, steps_asr=1500, steps_kws=300, steps_ft=300, steps_pt=600)
    tiny = cfg.scale_steps(0.001)
    assert {mode: tiny.train_config(mode).steps for mode in MODES} == {
        "base-asr": 3, "kws": 1, "ft": 1, "pt": 1}
    for factor in (math.nan, math.inf, 0.0, -1.0):
        with pytest.raises(ConfigError, match=f"step scale must be finite and > 0, got {factor}"):
            cfg.scale_steps(factor)


@pytest.mark.parametrize("script", ["biasing_experiment.py", "run_pipeline.py"])
def test_scripts_report_a_bad_step_scale_as_one_error_line(script, tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--steps-scale", "nan"], cwd=tmp_path,
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2 and proc.stdout == "" and "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == f"{script}: error: step scale must be finite and > 0, got nan"


def test_pipeline_chains_each_stage_to_the_checkpoint_its_source_stage_writes(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("run_pipeline", ROOT / "scripts" / "run_pipeline.py")
    pipeline = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pipeline)
    calls = []
    monkeypatch.setattr(pipeline, "kwbias_main", lambda argv: calls.append(argv) or 0)
    monkeypatch.setattr(sys, "argv", ["run_pipeline.py", "--root", str(tmp_path), "--steps-scale", "0.001"])
    # the test split gen-data would write; the keywords come from utterance 0
    (tmp_path / "data").mkdir()
    dataset_save(tmp_path / "data" / "test.ds", [Utterance(np.zeros((1, SynthSpec().n_mels)), text, False)
                                                 for text in ("alpha beta gamma", "delta")], SynthSpec())
    pipeline.main()
    parsed = {argv[0]: cli.build_parser().parse_args(argv) for argv in calls}
    assert len(parsed) == len(calls)
    scaled = RunConfig().scale_steps(0.001)
    written = {}  # the checkpoint each stage's command writes, by role
    for command, mode, source_flag, _ in cli.TRAIN_COMMANDS:
        args, stage = parsed[command], stage_for(mode)
        assert args.steps == scaled.train_config(mode).steps
        if source_flag is not None:
            assert Path(args.source_ckpt) == written[stage.source]
        written[stage.role] = Path(args.out) / f"{mode}.ckpt"
    assert written["base"] == tmp_path / "base" / "base-asr.ckpt"
    evaluate = parsed["evaluate"]
    assert [evaluate.base_ckpt, evaluate.ft_ckpt, evaluate.pt_ckpt, evaluate.kws_ckpt] == [
        str(written[role]) for role in ("base", "ft", "pt", "kws")]
    assert parsed["attn-export"].pt_ckpt == str(written["pt"])
    # the last call reads one record of test.ds and the spotter against the decoding checkpoint
    transcribe = parsed["transcribe"]
    assert calls[-1][0] == "transcribe"
    assert (Path(transcribe.data), transcribe.index) == (tmp_path / "data", 0)
    assert [transcribe.ckpt, transcribe.kws_ckpt] == [str(written["pt"]), str(written["kws"])]
    assert transcribe.keywords == "alpha,beta,gamma"


# ---------------------------------------------------------------------------
# CLI


TINY_OVERRIDES = [
    "--set", "train_size=40", "--set", "dev_size=6", "--set", "test_size=6",
    "--set", "n_common=5", "--set", "n_jargon=18", "--set", "jargon_per_utterance=2",
    "--set", "min_words=4", "--set", "max_words=5", "--set", "n_mels=12",
    "--set", "d_model=32", "--set", "n_enc_layers=1", "--set", "n_dec_layers=1",
    "--set", "d_ff=64", "--set", "vocab_target=140",
    "--set", "steps_asr=30", "--set", "steps_kws=20", "--set", "steps_ft=15",
    "--set", "steps_pt=15", "--set", "eval_keywords=10", "--set", "eval_positives=3",
]


@pytest.fixture(scope="module")
def cli_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--out", str(data), *TINY_OVERRIDES]) == 0
    asr = root / "asr"
    assert main(["train-asr", "--data", str(data), "--out", str(asr), *TINY_OVERRIDES]) == 0
    kws = root / "kws"
    assert main(["train-kws", "--data", str(data), "--out", str(kws),
                 "--asr-ckpt", str(asr / "base-asr.ckpt"), *TINY_OVERRIDES]) == 0
    pt = root / "pt"
    assert main(["prompt-tune", "--data", str(data), "--out", str(pt),
                 "--kws-ckpt", str(kws / "kws.ckpt"), *TINY_OVERRIDES]) == 0
    return root, data, asr, kws, pt


def test_gen_data_outputs(cli_world):
    _, data, *_ = cli_world
    for name in ("train.ds", "dev.ds", "test.ds", "vocab.tsv", "words.json", "config.resolved"):
        assert (data / name).exists(), name
    assert list(data.glob("*.txt")) == []  # the transcripts live in each split's header
    assert len(dataset_load(data / "train.ds")[0]) == 40


def test_training_stages_write_checkpoint_metrics_provenance(cli_world):
    _, _, asr, kws, pt = cli_world
    assert (asr / "base-asr.ckpt").exists()
    assert (kws / "kws.ckpt").exists()
    assert (pt / "pt.ckpt").exists()
    for out in (asr, kws, pt):
        lines = (out / "metrics.log").read_text().splitlines()
        assert lines[0].startswith("0\t")
        assert (out / "config.resolved").exists()
    # provenance records the input checkpoint's header digest, read here from its framing
    blob = (asr / "base-asr.ckpt").read_bytes()
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    digest = json.loads(blob[16 : 16 + header_len])["digest"]
    assert f"# input.asr-ckpt = {asr / 'base-asr.ckpt'} digest={digest}\n" in (kws / "config.resolved").read_text()


def test_evaluate_writes_reports(cli_world):
    root, data, asr, kws, pt = cli_world
    out = root / "eval"
    rc = main(["evaluate", "--data", str(data), "--out", str(out),
               "--conditions", "baseline,pt,pt-oracle",
               "--base-ckpt", str(asr / "base-asr.ckpt"),
               "--pt-ckpt", str(pt / "pt.ckpt"),
               "--kws-ckpt", str(kws / "kws.ckpt"), *TINY_OVERRIDES])
    assert rc == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "condition,wer,S,D,I,f1,tp,fp,fn,params"
    assert len(report) == 4
    assert (out / "report.txt").exists()


def _input_line(resolved_dir, role, path, content):
    return f"# input.{role} = {path} {content}\n" in (resolved_dir / "config.resolved").read_text()


def test_evaluate_records_both_splits_it_reads(cli_world, tmp_path):
    _, data, asr, *_ = cli_world
    out = tmp_path / "eval"
    assert main(["evaluate", "--data", str(data), "--out", str(out), "--conditions", "baseline",
                 "--base-ckpt", str(asr / "base-asr.ckpt"), *TINY_OVERRIDES]) == 0
    for split in ("train", "test"):
        digest = dataset_load(data / f"{split}.ds")[1]
        assert _input_line(out, f"{split}-data", data / f"{split}.ds", f"digest={digest}")


def _header_only_flags(asr, kws, pt) -> dict[str, tuple[list[str], str]]:
    """Per command that reads train.ds by its header alone, its flags and its main output."""
    return {
        "evaluate": (["--conditions", "baseline,pt", "--base-ckpt", str(asr / "base-asr.ckpt"),
                      "--pt-ckpt", str(pt / "pt.ckpt"), "--kws-ckpt", str(kws / "kws.ckpt")], "report.csv"),
        "attn-export": (["--pt-ckpt", str(pt / "pt.ckpt"), "--layer", "0", "--limit", "2"], "attn_summary.txt"),
    }


@pytest.mark.parametrize("command", ["evaluate", "attn-export"])
def test_train_ds_is_read_by_its_header_alone(cli_world, tmp_path, monkeypatch, command):
    """evaluate and attn-export take only train.ds's transcripts: they open it
    once and sha256 sees no more of it than its header, yet their output and
    config.resolved are byte-identical to a run that loads its frames."""
    _, data, asr, kws, pt = cli_world
    flags, output = _header_only_flags(asr, kws, pt)[command]
    opened, hashed = _count_reads(monkeypatch)
    assert main([command, "--data", str(data), "--out", str(tmp_path / "header"), *flags, *TINY_OVERRIDES]) == 0
    monkeypatch.undo()
    train = str(data / "train.ds")
    header_len, header = _container_header(data / "train.ds")
    assert opened[train] == 1
    assert _signed_len(header) <= hashed[train] <= header_len

    def full_load(path):
        utts, digest = dataset_load(path)
        return [u.text for u in utts], digest

    monkeypatch.setattr(cli, "dataset_transcripts", full_load)
    assert main([command, "--data", str(data), "--out", str(tmp_path / "full"), *flags, *TINY_OVERRIDES]) == 0
    for name in (output, "config.resolved"):
        assert (tmp_path / "header" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


@pytest.mark.parametrize("edit, message", [
    (lambda h: h["transcripts"].__setitem__(0, 7), "corrupt dataset header: every transcript must be a string"),
    (lambda h: h["contains_jargon"].__setitem__(0, 2),
     "corrupt dataset header: every contains_jargon entry must be 0 or 1"),
], ids=["transcript", "flag"])
def test_a_corrupt_train_ds_header_fails_evaluate_as_one_synth_error_line(cli_world, capsys, tmp_path,
                                                                           edit, message):
    _, data, asr, *_ = cli_world
    edited = tmp_path / "data"
    shutil.copytree(data, edited)
    rewrite_dataset(edited / "train.ds", edit)
    rc = main(["evaluate", "--data", str(edited), "--out", str(tmp_path / "eval"), "--conditions", "baseline",
               "--base-ckpt", str(asr / "base-asr.ckpt"), *TINY_OVERRIDES])
    assert rc == 2
    assert capsys.readouterr().err.strip() == f"SynthError: {edited / 'train.ds'}: {message}"


def test_finetune_then_evaluate_the_ft_conditions(cli_world, tmp_path):
    _, data, asr, kws, _ = cli_world
    ft = tmp_path / "ft"
    assert main(["finetune", "--data", str(data), "--out", str(ft),
                 "--kws-ckpt", str(kws / "kws.ckpt"), *TINY_OVERRIDES]) == 0
    vocab = Vocab.load(data / "vocab.tsv")
    tuned, _ = checkpoint_load(ft / "ft.ckpt", vocab.content_hash)
    before, _ = checkpoint_load(kws / "kws.ckpt", vocab.content_hash)
    assert any(not np.array_equal(t.data, before.decoder[n].data) for n, t in tuned.decoder.items())
    out = tmp_path / "eval"
    assert main(["evaluate", "--data", str(data), "--out", str(out), "--conditions", "baseline,ft,ft-oracle",
                 "--base-ckpt", str(asr / "base-asr.ckpt"), "--ft-ckpt", str(ft / "ft.ckpt"),
                 "--kws-ckpt", str(kws / "kws.ckpt"), *TINY_OVERRIDES]) == 0
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    decoder_size = sum(t.data.size for t in tuned.decoder.values())
    assert [(r[0], r[-1]) for r in rows] == [
        ("baseline", "0"), ("ft", str(decoder_size)), ("ft-oracle", str(decoder_size))]


def test_finetune_from_a_prompt_tuned_checkpoint_is_a_single_line_error(cli_world, capsys, tmp_path):
    _, data, _, _, pt = cli_world
    out = tmp_path / "ft"
    rc = main(["finetune", "--data", str(data), "--out", str(out),
               "--kws-ckpt", str(pt / "pt.ckpt"), *TINY_OVERRIDES])
    assert rc == 2
    assert capsys.readouterr().err == (
        "TrainingError: ft fine-tunes the decoder alone, but this model carries a soft prefix of "
        f"{RunConfig().prefix_len} rows; start ft from a checkpoint without one\n")
    assert not (out / "ft.ckpt").exists()


def test_ablate_scores_each_prefix_length(cli_world, tmp_path):
    _, data, _, kws, _ = cli_world
    out = tmp_path / "ablate"
    assert main(["ablate", "--data", str(data), "--out", str(out), "--kws-ckpt", str(kws / "kws.ckpt"),
                 "--lengths", "2,1", *TINY_OVERRIDES]) == 0
    lines = (out / "ablation.csv").read_text().splitlines()
    assert lines[0] == "prefix_len,wer,f1"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]
    assert _input_line(out, "test-data", data / "test.ds", f"digest={dataset_load(data / 'test.ds')[1]}")


def test_attn_export_writes_its_summary(cli_world, tmp_path):
    _, data, _, _, pt = cli_world
    out = tmp_path / "attn"
    assert main(["attn-export", "--data", str(data), "--out", str(out), "--pt-ckpt", str(pt / "pt.ckpt"),
                 "--layer", "0", "--limit", "2", *TINY_OVERRIDES]) == 0
    records, hits = (out / "attn_summary.txt").read_text().splitlines()
    n = int(records.removeprefix("records: "))
    assert 1 <= n <= 2 and len(list((out / "attn").iterdir())) == n
    assert hits.startswith("keyword-peak hits: ")
    words = data / "words.json"
    assert _input_line(out, "words", words, f"sha256={hashlib.sha256(words.read_bytes()).hexdigest()}")
    assert _input_line(out, "train-data", data / "train.ds", f"digest={dataset_load(data / 'train.ds')[1]}")


def test_attn_export_rejects_a_negative_limit(cli_world, capsys, tmp_path):
    _, data, _, _, pt = cli_world
    out = tmp_path / "attn"
    rc = main(["attn-export", "--data", str(data), "--out", str(out), "--pt-ckpt", str(pt / "pt.ckpt"),
               "--limit", "-1", *TINY_OVERRIDES])
    assert rc == 2
    assert capsys.readouterr().err == "ConfigError: --limit must be >= 0, got -1\n"
    assert not out.exists()


def test_attn_export_rejects_a_layer_the_checkpoint_lacks_even_when_exporting_nothing(cli_world, capsys, tmp_path):
    _, data, _, _, pt = cli_world
    rc = main(["attn-export", "--data", str(data), "--out", str(tmp_path / "attn"), "--pt-ckpt", str(pt / "pt.ckpt"),
               "--layer", "7", "--limit", "0", *TINY_OVERRIDES])
    assert rc == 2
    assert capsys.readouterr().err == "ModelError: layer 7 out of range for 1 decoder layers\n"
    assert not (tmp_path / "attn" / "attn_summary.txt").exists()


def test_attn_export_on_a_truncated_word_bank_is_a_single_line_error(cli_world, capsys, tmp_path):
    _, data, _, _, pt = cli_world
    cut = tmp_path / "data"
    shutil.copytree(data, cut)
    (cut / "words.json").write_text('{"jargon": [', encoding="utf-8")
    rc = main(["attn-export", "--data", str(cut), "--out", str(tmp_path / "attn"),
               "--pt-ckpt", str(pt / "pt.ckpt"), "--layer", "0", *TINY_OVERRIDES])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"SynthError: {cut / 'words.json'}: corrupt word bank: ")


def test_an_edited_reference_transcript_fails_the_request(cli_world, capsys, tmp_path):
    """The container digest that provenance records covers the transcripts."""
    _, data, asr, *_ = cli_world
    edited = tmp_path / "data"
    shutil.copytree(data, edited)
    blob = (edited / "test.ds").read_bytes()
    length, header = _container_header(edited / "test.ds")
    header["transcripts"][0] += " " + header["transcripts"][0].split()[0]  # the recorded digest stays
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    (edited / "test.ds").write_bytes(blob[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes
                                     + blob[16 + length :])
    rc = main(["transcribe", "--data", str(edited), "--index", "0", "--ckpt", str(asr / "base-asr.ckpt"),
               "--out", str(tmp_path / "tr"), *TINY_OVERRIDES])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err == f"SynthError: {edited / 'test.ds'}: dataset header digest mismatch: file is corrupt"


@pytest.mark.parametrize("case", MALFORMED_CHECKPOINTS)
def test_transcribe_rejects_a_checkpoint_off_the_model_layout(cli_world, capsys, tmp_path, case):
    _, data, asr, *_ = cli_world
    edit, message = MALFORMED_CHECKPOINTS[case]
    bad = tmp_path / "bad.ckpt"
    rewrite_checkpoint(asr / "base-asr.ckpt", bad, edit)
    rc = main(["transcribe", "--data", str(data), "--ckpt", str(bad), "--out", str(tmp_path / "tr"),
               *TINY_OVERRIDES])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"CheckpointError: {bad}: ")
    assert re.search(message, err)


def test_evaluate_rerun_is_byte_identical(cli_world):
    root, data, asr, kws, pt = cli_world
    outs = []
    for name in ("eval_a", "eval_b"):
        out = root / name
        assert main(["evaluate", "--data", str(data), "--out", str(out),
                     "--conditions", "baseline,pt-oracle",
                     "--base-ckpt", str(asr / "base-asr.ckpt"),
                     "--pt-ckpt", str(pt / "pt.ckpt"),
                     "--kws-ckpt", str(kws / "kws.ckpt"), *TINY_OVERRIDES]) == 0
        outs.append(out)
    assert (outs[0] / "report.csv").read_bytes() == (outs[1] / "report.csv").read_bytes()


def test_train_rerun_is_byte_identical(cli_world, tmp_path):
    _, data, asr, *_ = cli_world
    again = tmp_path / "asr_again"
    assert main(["train-asr", "--data", str(data), "--out", str(again), *TINY_OVERRIDES]) == 0
    assert (again / "base-asr.ckpt").read_bytes() == (asr / "base-asr.ckpt").read_bytes()
    assert (again / "metrics.log").read_bytes() == (asr / "metrics.log").read_bytes()


def test_transcribe_from_dataset(cli_world, tmp_path):
    root, data, asr, kws, _ = cli_world
    out = tmp_path / "tr"
    rc = main(["transcribe", "--data", str(data), "--index", "1",
               "--ckpt", str(asr / "base-asr.ckpt"),
               "--out", str(out), *TINY_OVERRIDES])
    assert rc == 0
    text = (out / "transcript.txt").read_text()
    assert text.startswith("transcript: ")


@pytest.mark.parametrize("index", ["6", "99", "-1"])
def test_transcribe_rejects_index_outside_test_split(cli_world, capsys, tmp_path, index):
    _, data, asr, *_ = cli_world
    rc = main(["transcribe", "--data", str(data), f"--index={index}",
               "--ckpt", str(asr / "base-asr.ckpt"), "--out", str(tmp_path / "tr"), *TINY_OVERRIDES])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("ConfigError: ") and f"--index {index} " in err


def test_transcribe_with_too_long_a_keyword_prompt_is_a_single_line_error(cli_world, capsys, tmp_path):
    _, data, asr, *_ = cli_world
    words = sorted({w for u in dataset_load(data / "train.ds")[0] for w in u.text.split()})
    keywords = ",".join(a + b for a in words for b in words[:4])  # far beyond max_tgt_len
    rc = main(["transcribe", "--data", str(data), "--index", "0", "--ckpt", str(asr / "base-asr.ckpt"),
               "--keywords", keywords, "--out", str(tmp_path / "tr"), *TINY_OVERRIDES])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert re.fullmatch(r"ModelError: conditioning of \d+ rows leaves no room for end-of-text "
                        rf"within max_tgt_len {ModelConfig.max_tgt_len}", err)


def test_transcribe_with_keywords_through_spotter(cli_world, tmp_path):
    root, data, asr, kws, _ = cli_world
    train_words = sorted({w for u in dataset_load(data / "train.ds")[0] for w in u.text.split()})
    spoken = dataset_load(data / "test.ds")[0][0].text.split()
    present = next(w for w in spoken if w in train_words)
    absent = next(w for w in train_words if w not in spoken)
    out = tmp_path / "tr_kw"
    rc = main(["transcribe", "--data", str(data), "--index", "0",
               "--ckpt", str(asr / "base-asr.ckpt"),
               "--kws-ckpt", str(kws / "kws.ckpt"),
               "--keywords", f"{present},{absent}",
               "--out", str(out), *TINY_OVERRIDES])
    assert rc == 0
    lines = (out / "transcript.txt").read_text().splitlines()
    assert lines[0].startswith("detected: ") and lines[1].startswith("transcript: ")
    detected = lines[0].removeprefix("detected: ")
    assert detected == "(none)" or set(detected.split(", ")) <= {present, absent}


def _transcribe_lines(data: Path, ckpt: Path, out: Path, *extra: str) -> list[str]:
    assert main(["transcribe", "--data", str(data), "--index", "0", "--ckpt", str(ckpt),
                 "--out", str(out), *TINY_OVERRIDES, *extra]) == 0
    return (out / "transcript.txt").read_text().splitlines()


def _spotter_keywords(data: Path) -> list[str]:
    """Two words utterance 0 of the test split speaks and two it does not."""
    train_words = sorted({w for u in dataset_load(data / "train.ds")[0] for w in u.text.split()})
    spoken = dataset_load(data / "test.ds", 0)[0].text.split()
    words = [w for w in spoken if w in train_words][:2] + [w for w in train_words if w not in spoken][:2]
    assert len(words) == 4
    return words


def test_transcribe_spotter_at_threshold_one_prompts_like_no_keywords(cli_world, tmp_path):
    _, data, _, kws, pt = cli_world
    keywords = _spotter_keywords(data)
    spotted = _transcribe_lines(data, pt / "pt.ckpt", tmp_path / "spotted", "--kws-ckpt", str(kws / "kws.ckpt"),
                                "--keywords", ",".join(keywords), "--set", "kws_threshold=1.0")
    plain = _transcribe_lines(data, pt / "pt.ckpt", tmp_path / "plain")
    assert spotted == ["detected: (none)", plain[0]]
    assert plain[0].startswith("transcript: ")


def test_transcribe_spotter_at_threshold_zero_prompts_every_keyword(cli_world, tmp_path):
    _, data, _, kws, pt = cli_world
    keywords = _spotter_keywords(data)
    spotted = _transcribe_lines(data, pt / "pt.ckpt", tmp_path / "spotted", "--kws-ckpt", str(kws / "kws.ckpt"),
                                "--keywords", ",".join(keywords), "--set", "kws_threshold=0.0")
    listed = _transcribe_lines(data, pt / "pt.ckpt", tmp_path / "listed", "--keywords", ",".join(keywords))
    assert spotted == ["detected: " + ", ".join(keywords), listed[0]]
    assert listed[0].startswith("transcript: ")


def test_transcribe_with_a_spotter_but_no_keywords_fails_before_any_input_is_read(capsys, tmp_path):
    # no --keywords at all, or a list whose every entry normalizes to nothing
    out = tmp_path / "tr"
    for keywords in ([], ["--keywords", ","], ["--keywords", " ,!, "]):
        rc = main(["transcribe", "--data", str(tmp_path / "missing"), "--index", "0",
                   "--ckpt", str(tmp_path / "missing.ckpt"), "--kws-ckpt", str(tmp_path / "missing-kws.ckpt"),
                   "--out", str(out), *keywords])
        assert rc == 2
        assert capsys.readouterr().err == "ConfigError: transcribe --kws-ckpt needs --keywords for the spotter to filter\n"
        assert not out.exists()


def test_transcribe_serves_the_transcripts_that_the_harness_scores(cli_world, tmp_path):
    """On every test utterance, `transcribe` under `baseline` (no keywords) and
    `pt` (the spotter over the utterance's evaluation keywords) gives the
    harness's WER and keyword-F1 counts for that condition."""
    _, data, asr, kws, pt = cli_world
    cfg = parse_config(None, dict(item.split("=") for item in TINY_OVERRIDES[1::2]))
    vocab = Vocab.load(data / "vocab.tsv")
    test = dataset_load(data / "test.ds")[0]
    ctx = make_eval_context(cfg, vocab, [u.text for u in dataset_load(data / "train.ds")[0]])
    ckpts = {"base": asr / "base-asr.ckpt", "pt": pt / "pt.ckpt"}
    checkpoints = {role: checkpoint_load(path, vocab.content_hash)[0] for role, path in ckpts.items()}
    spotter = checkpoint_load(kws / "kws.ckpt", vocab.content_hash)[0]
    keyword_sets = [ctx.keywords_for(i, u.text) for i, u in enumerate(test)]
    reports = evaluate_conditions(["baseline", "pt"], checkpoints, spotter, test, ctx)
    for report, role in zip(reports, ckpts):
        refs, hyps, wer = [], [], WerBreakdown(0, 0, 0, 0)
        for i, utt in enumerate(test):
            out = tmp_path / f"{role}-{i}"
            argv = ["transcribe", "--data", str(data), "--index", str(i), "--ckpt", str(ckpts[role]),
                    "--out", str(out), *TINY_OVERRIDES]
            if role == "pt":
                argv += ["--kws-ckpt", str(kws / "kws.ckpt"),
                         "--keywords", ",".join(kw.surface for kw in keyword_sets[i])]
            assert main(argv) == 0
            hyps.append((out / "transcript.txt").read_text().splitlines()[-1].removeprefix("transcript: "))
            refs.append(normalize(utt.text))
            wer = wer + compute_wer(refs[-1], hyps[-1])
        assert wer == report.wer, report.condition
        assert keyword_f1(refs, hyps, keyword_sets) == report.f1, report.condition


def test_transcribe_encodes_once_when_the_spotter_shares_the_encoder(cli_world, tmp_path, monkeypatch):
    _, data, asr, kws, _ = cli_world
    vocab = Vocab.load(data / "vocab.tsv")
    perturbed, meta = checkpoint_load(kws / "kws.ckpt", vocab.content_hash)
    perturbed.encoder["in_b"].data[0] += 1e-3
    checkpoint_save(tmp_path / "kws-perturbed.ckpt", perturbed, vocab.content_hash, meta["seed"])
    word = dataset_load(data / "test.ds")[0][0].text.split()[0]

    calls = []
    original = cli.encode

    def counted(params, frames):
        calls.append(params)
        return original(params, frames)

    monkeypatch.setattr(cli, "encode", counted)
    encodes = []
    for kws_ckpt in (kws / "kws.ckpt", tmp_path / "kws-perturbed.ckpt"):
        calls.clear()
        assert main(["transcribe", "--data", str(data), "--index", "0",
                     "--ckpt", str(asr / "base-asr.ckpt"), "--kws-ckpt", str(kws_ckpt),
                     "--keywords", word, "--out", str(tmp_path / kws_ckpt.stem), *TINY_OVERRIDES]) == 0
        encodes.append(len(calls))
    assert encodes == [1, 2]


def _container_header(path: Path) -> tuple[int, dict]:
    """(length, parsed JSON) of a container file's header."""
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<Q", blob, 8)
    return length, json.loads(blob[16 : 16 + length])


def _checkpoint_arrays(header: dict) -> dict[tuple[str, str], tuple[int, str]]:
    """(group, name) -> (payload bytes, digest) of every tensor a checkpoint header records."""
    slots = [(g, name) for g in ("encoder", "decoder", "kws", "prefix") for name in header["groups"][g]]
    return {slot: (8 * math.prod(shape), digest)
            for slot, shape, digest in zip(slots, header["shapes"], header["digests"], strict=True)}


def _count_reads(monkeypatch) -> tuple[Counter, Counter]:
    """(opened, hashed): until `monkeypatch.undo()`, how often each file is
    opened for reading, and how many bytes sha256 sees while each file is
    the one opened last."""
    opened, hashed = Counter(), Counter()
    last = [None]
    real_open, real_sha256 = builtins.open, hashlib.sha256

    def counted_open(file, mode="r", *args, **kwargs):
        if "r" in mode:
            opened[str(file)] += 1
            last[0] = str(file)
        return real_open(file, mode, *args, **kwargs)

    class CountedSha256:
        def __init__(self, data=b""):
            self._h = real_sha256()
            self.update(data)

        def update(self, data):
            hashed[last[0]] += memoryview(data).nbytes
            self._h.update(data)

        def digest(self):
            return self._h.digest()

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(builtins, "open", counted_open)
    monkeypatch.setattr(io, "open", counted_open)
    monkeypatch.setattr(hashlib, "sha256", CountedSha256)
    return opened, hashed


def _signed_len(header: dict) -> int:
    """Bytes a container's header digest covers: its fields but `digest`, as canonical JSON."""
    return len(json.dumps({k: v for k, v in header.items() if k != "digest"},
                          sort_keys=True, separators=(",", ":")).encode("utf-8"))


def test_transcribe_request_reads_and_hashes_each_input_once(cli_world, tmp_path, monkeypatch):
    """Provenance comes from the digests the loaders verified: no input file
    is opened twice, and sha256 sees the decoding checkpoint, the header and
    differing tensors of the spotter's, the header and record 0 of test.ds,
    and the vocabulary, and nothing else.  The lower bound fails a loader
    that skips a check it owes."""
    _, data, asr, kws, _ = cli_world
    word = dataset_load(data / "test.ds", 0)[0].text.split()[0]
    opened, hashed = _count_reads(monkeypatch)
    assert main(["transcribe", "--data", str(data), "--index", "0",
                 "--ckpt", str(asr / "base-asr.ckpt"), "--kws-ckpt", str(kws / "kws.ckpt"),
                 "--keywords", word, "--out", str(tmp_path / "tr"), *TINY_OVERRIDES]) == 0
    monkeypatch.undo()
    inputs = [asr / "base-asr.ckpt", kws / "kws.ckpt", data / "test.ds", data / "vocab.tsv"]
    assert opened == Counter({str(path): 1 for path in inputs})
    asr_header_len, asr_header = _container_header(asr / "base-asr.ckpt")
    kws_header_len, kws_header = _container_header(kws / "kws.ckpt")
    decoder_arrays = _checkpoint_arrays(asr_header)
    spotter_only = sum(n for slot, (n, digest) in _checkpoint_arrays(kws_header).items()
                       if decoder_arrays.get(slot, (None, None))[1] != digest)
    assert spotter_only > 0  # the trained keyword head
    ds_header_len, ds_header = _container_header(data / "test.ds")
    record0 = 8 * math.prod(ds_header["shapes"][0])
    bound = ((asr / "base-asr.ckpt").stat().st_size + kws_header_len + spotter_only
             + ds_header_len + record0 + (data / "vocab.tsv").stat().st_size)
    floor = (sum(n for n, _ in decoder_arrays.values()) + spotter_only + record0
             + sum(map(_signed_len, (asr_header, kws_header, ds_header))))
    assert floor <= sum(hashed.values()) <= bound


def _write_wav(path, seconds=0.5, rate=16000):
    t = np.arange(int(seconds * rate)) / rate
    pcm = (0.3 * 32767 * np.sin(2 * np.pi * 440.0 * t)).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(pcm.tobytes())


def test_transcribe_wav_records_its_sha256(cli_world, tmp_path):
    _, data, asr, *_ = cli_world
    wav = tmp_path / "tone.wav"
    _write_wav(wav)
    out = tmp_path / "tr_wav"
    rc = main(["transcribe", "--wav", str(wav), "--vocab", str(data / "vocab.tsv"),
               "--ckpt", str(asr / "base-asr.ckpt"), "--out", str(out), *TINY_OVERRIDES])
    assert rc == 0
    assert (out / "transcript.txt").read_text().startswith("transcript: ")
    resolved = (out / "config.resolved").read_text()
    assert f"# input.wav = {wav} sha256={hashlib.sha256(wav.read_bytes()).hexdigest()}\n" in resolved


def test_transcribe_wav_cut_inside_a_frame_is_a_single_line_error(cli_world, tmp_path, capsys):
    _, data, asr, *_ = cli_world
    wav = tmp_path / "cut.wav"
    _write_wav(wav)
    wav.write_bytes(wav.read_bytes()[:-1])
    rc = main(["transcribe", "--wav", str(wav), "--vocab", str(data / "vocab.tsv"),
               "--ckpt", str(asr / "base-asr.ckpt"), "--out", str(tmp_path / "x"), *TINY_OVERRIDES])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err == "AudioFormatError: WAV data of 15999 bytes ends inside a 2-byte frame"


def test_transcribe_wav_without_a_vocabulary_is_a_config_error(capsys, tmp_path):
    wav = tmp_path / "tone.wav"
    _write_wav(wav)
    rc = main(["transcribe", "--wav", str(wav), "--ckpt", str(tmp_path / "missing.ckpt"),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("ConfigError: ") and "--vocab" in err


def test_second_run_in_a_process_reads_its_own_flags(cli_world, tmp_path, monkeypatch):
    """The parser is built once per process; no flag of one run reaches the next."""
    _, data, asr, *_ = cli_world
    frames = []
    original = cli.encode

    def recorded(params, x):
        frames.extend(x)
        return original(params, x)

    monkeypatch.setattr(cli, "encode", recorded)
    argv = ["transcribe", "--data", str(data), "--ckpt", str(asr / "base-asr.ckpt"), *TINY_OVERRIDES]
    assert main([*argv, "--index", "1", "--set", "kws_threshold=0.9", "--out", str(tmp_path / "a")]) == 0
    assert main([*argv, "--out", str(tmp_path / "b")]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert parse_config(tmp_path / "a" / "config.resolved", {}).kws_threshold == 0.9
    assert parse_config(tmp_path / "b" / "config.resolved", {}).kws_threshold == RunConfig().kws_threshold
    test, _ = dataset_load(data / "test.ds")
    assert np.array_equal(frames[0], test[1].frames) and np.array_equal(frames[1], test[0].frames)


def test_cli_reports_errors_as_single_line(cli_world, capsys, tmp_path):
    _, data, *_ = cli_world
    rc = main(["train-asr", "--data", str(data), "--out", str(tmp_path / "x"),
               "--set", "steps_asr=oops"])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("ConfigError: ")


def test_evaluate_on_an_empty_test_split_is_a_single_line_error(cli_world, capsys, tmp_path):
    _, data, asr, *_ = cli_world
    empty = tmp_path / "data"
    shutil.copytree(data, empty)
    dataset_save(empty / "test.ds", [], parse_config(data / "config.resolved", {}).synth_spec())
    rc = main(["evaluate", "--data", str(empty), "--out", str(tmp_path / "eval"),
               "--conditions", "baseline", "--base-ckpt", str(asr / "base-asr.ckpt"), *TINY_OVERRIDES])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert err == "EvalError: empty test set: WER and F1 are undefined"


def test_odd_d_model_is_a_single_line_error(cli_world, capsys, tmp_path):
    _, data, *_ = cli_world
    rc = main(["train-asr", "--data", str(data), "--out", str(tmp_path / "x"), *TINY_OVERRIDES,
               "--set", "d_model=65", "--set", "n_heads=5"])
    assert rc == 2
    assert capsys.readouterr().err.strip() == "ModelError: d_model must be even for sinusoidal positions, got 65"


def test_prompt_tuning_a_prefix_of_another_length_is_a_single_line_error(cli_world, capsys, tmp_path):
    _, data, _, _, pt = cli_world
    rc = main(["prompt-tune", "--data", str(data), "--out", str(tmp_path / "x"),
               "--kws-ckpt", str(pt / "pt.ckpt"), "--prefix-len", "8", *TINY_OVERRIDES])
    assert rc == 2
    assert capsys.readouterr().err.strip() == "TrainingError: the soft prefix has 12 rows, but prefix_len is 8"
    assert not (tmp_path / "x" / "pt.ckpt").exists()


def test_evaluating_pt_oracle_on_a_base_checkpoint_is_a_single_line_error(cli_world, capsys, tmp_path):
    _, data, asr, *_ = cli_world
    rc = main(["evaluate", "--data", str(data), "--out", str(tmp_path / "eval"), "--conditions", "pt-oracle",
               "--pt-ckpt", str(asr / "base-asr.ckpt"), *TINY_OVERRIDES])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "EvalError: condition 'pt-oracle' needs a prompt-tuned checkpoint, but this one has no soft prefix")
    assert not (tmp_path / "eval" / "report.csv").exists()


def test_evaluating_baseline_on_a_prompt_tuned_checkpoint_is_a_single_line_error(cli_world, capsys, tmp_path):
    """Scored, pt's decoding would be reported as baseline, with 0 trained parameters."""
    _, data, _, _, pt = cli_world
    rc = main(["evaluate", "--data", str(data), "--out", str(tmp_path / "eval"), "--conditions", "baseline",
               "--base-ckpt", str(pt / "pt.ckpt"), *TINY_OVERRIDES])
    assert rc == 2
    assert capsys.readouterr().err.strip() == (
        "EvalError: condition 'baseline' decodes the 'base' model, which has no soft prefix, "
        "but this checkpoint carries one of 12 rows")
    assert not (tmp_path / "eval" / "report.csv").exists()


@pytest.mark.parametrize("argv", [
    ["evaluate", "--data", "/nonexistent"],
    ["transcribe", "--data", "/nonexistent", "--ckpt", "/nonexistent/base.ckpt"],
], ids=["evaluate", "transcribe"])
def test_cli_reports_missing_inputs_as_single_line(argv, capsys, tmp_path):
    assert main([*argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("FileNotFoundError: ") and "vocab.tsv" in err


def test_config_file_that_is_not_utf8_is_a_single_line_error(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xff\xfeseed = 1\n")
    assert main(["gen-data", "--config", str(config), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"ConfigError: {config}: config file is not UTF-8 text: ")


def test_vocabulary_that_is_not_utf8_is_a_single_line_error(tmp_path, capsys):
    wav, vocab = tmp_path / "tone.wav", tmp_path / "vocab.tsv"
    _write_wav(wav)
    vocab.write_bytes(b"\xff\xfe0\t<pad>\n")
    rc = main(["transcribe", "--wav", str(wav), "--vocab", str(vocab), "--ckpt", str(tmp_path / "missing.ckpt"),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"VocabError: {vocab}: vocabulary file is not UTF-8 text: ")


def test_a_batch_of_one_with_prompt_exposure_fails_before_any_input_is_read(tmp_path, capsys):
    # the data directory is empty: the config is rejected before train.ds is opened
    out = tmp_path / "asr"
    rc = main(["train-asr", "--data", str(tmp_path), "--out", str(out), "--set", "batch_size=1"])
    assert rc == 2
    assert capsys.readouterr().err == (f"TrainingError: mode base-asr at prompt_exposure {RunConfig.prompt_exposure} "
                                       "needs batch_size >= 2 for negative keywords\n")
    assert not out.exists()


def test_cli_unknown_set_key(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "d"), "--set", "prefx_len=9"])
    assert rc == 2
    assert "did you mean" in capsys.readouterr().err
