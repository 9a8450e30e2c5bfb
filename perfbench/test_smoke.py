"""Smoke test for the benchmark: every workload at tiny size through run.py.

Each workload runs once untraced and twice traced.  Every metric that
BENCHMARK.json names must be emitted with its unit and a sample count, the
benchmark's correctness checks must pass, count metrics must repeat exactly
between the two traced runs, and the stack, quality and transcript
fingerprints must agree across all three runs.  A trace wrapper whose
target is gone must be listed, not fatal.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def _is_count(name: str) -> bool:
    return (name.endswith(".calls") or name.endswith("tape_nodes_per_step")
            or name.startswith(("harness.decode_steps.", "harness.runaway.")))


def _run(out: Path, workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    report = json.loads((out / f"{workload}-seed{SEED}-trace{trace}.json").read_text(encoding="utf-8"))
    return result, report


def _check_output(result: dict, report: dict, kind: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["checks"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC[kind]]
    assert list(result["metrics"]) == names
    for metric in SPEC[kind]:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"}
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float))
        samples = report["metrics"][metric["name"]]["samples"]
        assert isinstance(samples, int)
        # a wrapper whose target a later version removed costs only its metrics
        if not report.get("missing_wrappers") and not report.get("hook_errors"):
            assert samples >= 1, metric["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_tiny_size(tmp_path, workload):
    plain, plain_report = _run(tmp_path / "plain", workload, 0)
    _check_output(plain, plain_report, "end_to_end")
    traced = [_run(tmp_path / f"traced{i}", workload, 1) for i in range(2)]
    for result, report in traced:
        _check_output(result, report, "per_layer")

    (first, _), (second, _) = traced
    for name in first["metrics"]:
        if _is_count(name):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    fingerprints = [plain_report["fingerprints"]] + [report["fingerprints"] for _, report in traced]
    assert all(f == fingerprints[0] for f in fingerprints)


def test_wrapper_without_target_is_listed_not_fatal(monkeypatch):
    import kwbias.model

    original = kwbias.model.encode
    targets = tracing.TARGETS + (
        ("kwbias.model.renamed_away", "model.renamed_away", None),
        ("kwbias.removed_module.fn", "removed.fn", None),
        ("kwbias.training.Adam.removed_method", "training.removed", None),
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    before = {t: tracing._resolve(t) for t, _, _ in targets}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert kwbias.model.encode is original  # only its callers' names are wrapped
        assert tracer.missing == [t for t, _, _ in targets[-3:]]
    finally:
        tracer.uninstall()
    for target, found in before.items():
        after = tracing._resolve(target)
        assert after == found if found is None else after[2] is found[2], target
