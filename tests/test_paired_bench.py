"""scripts/paired_bench.py on stand-in checkouts whose benchmark prints fixed results."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "paired_bench.py"
spec = importlib.util.spec_from_file_location("paired_bench", SCRIPT)
paired_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_bench)

BENCHMARK = {"end_to_end": [{"name": "speed", "better": "higher", "bound": 0.05},
                            {"name": "wait", "better": "lower", "bound": 0.1}]}


def _checkout(root: Path, speed: str, correct: bool = True, failed: int = 0, wait: str = "2.0") -> Path:
    """A directory whose perfbench/run.py prints one result line; `speed`
    and `wait` are Python expressions of the run's seed."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "seed = int(sys.argv[sys.argv.index('--seed') + 1])\n"
        f"print(json.dumps({{'correct': {correct}, 'attempted': 5, 'failed': {failed},\n"
        f"    'metrics': {{'speed': {{'value': {speed}}}, 'wait': {{'value': {wait}}}}}}}))\n"
    )
    return root


def test_prints_quartiles_wins_and_the_gain_rule(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", "100.0 + seed % 3")
    change = _checkout(tmp_path / "change", "110.0 + seed % 3")
    assert paired_bench.main([str(parent), str(change), "--workload", "eval", "--pairs", "4", "--seed0", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:8]] == [
        "pair 0 seed 0 parent", "pair 0 seed 0 change", "pair 1 seed 1 change", "pair 1 seed 1 parent",
        "pair 2 seed 2 parent", "pair 2 seed 2 change", "pair 3 seed 3 change", "pair 3 seed 3 parent"]
    # parent speeds 100, 101, 102, 100: median 100.5, quartiles 100 and 101.25
    speed = next(line for line in lines if line.startswith("speed "))
    assert "parent 100.5 [100, 101.25]" in speed and "change 110.5 [110, 111.25]" in speed
    assert "wins 4/4" in speed and "median gain +10 exceeds parent IQR 1.25" in speed
    assert speed.endswith(": gain")
    wait = next(line for line in lines if line.startswith("wait "))
    assert "wins 0/4" in wait and wait.endswith(": no gain")
    assert "same value on both sides in every pair: wait" in lines
    assert lines[-3:] == ["no regression, each bound a share of the parent's median:",
                          "speed                  bound 0.05: no worse", "wait                   bound 0.1: no worse"]


def test_prints_the_per_pair_ratio_that_drift_hides_from_the_unpaired_range(tmp_path, capsys):
    # the machine speeds up from pair to pair: the change is 5 % ahead in
    # every pair, but its median gain is within the parent's spread; a
    # parent that reads 0 has no ratio
    parent = _checkout(tmp_path / "parent", "100.0 * 2 ** seed", wait="0.0")
    change = _checkout(tmp_path / "change", "105.0 * 2 ** seed", wait="seed")
    assert paired_bench.main([str(parent), str(change), "--workload", "eval", "--pairs", "4", "--seed0", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    speed = next(line for line in lines if line.startswith("speed "))
    assert "wins 4/4  change/parent 1.0500 [1.0500, 1.0500]  median gain +15 within parent IQR 325" in speed
    assert speed.endswith(": no gain")
    wait = next(line for line in lines if line.startswith("wait "))
    assert "change/parent n/a " in wait


@pytest.mark.parametrize("change_speed, change_wait, same", [
    ("100.0", "2.0 + seed", "speed, wait"),
    ("100.0", "2.0 + seed % 3", "speed"),
    ("100.5", "2.0 + seed", "wait"),
    ("100.5", "2.5", "none"),
])
def test_names_the_metrics_equal_in_every_pair(tmp_path, capsys, change_speed, change_wait, same):
    # the parent's wait varies from pair to pair; "seed % 3" parts from it
    # only in the last pair (seed 3)
    parent = _checkout(tmp_path / "parent", "100.0", wait="2.0 + seed")
    change = _checkout(tmp_path / "change", change_speed, wait=change_wait)
    assert paired_bench.main([str(parent), str(change), "--workload", "eval", "--pairs", "4", "--seed0", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("same value")] == [
        f"same value on both sides in every pair: {same}"]


# in the last two cases the parent's speeds over seeds 0-3 are 100, 120,
# 100, 120: median 110, IQR 20, wider than speed's bound of 0.05 * 110 = 5.5
@pytest.mark.parametrize("parent_speed, change_speed, change_wait, verdicts", [
    ("100.0", "94.0", "2.0", ["worse by 6 > bound 5", "no worse"]),
    ("100.0", "100.0", "2.3", ["no worse", "worse by 0.3 > bound 0.2"]),
    ("100.0 + 20 * (seed % 2)", "108.0", "2.0", [
        "unresolved: the parent's own runs spread by IQR 20, wider than the bound 5.5", "no worse"]),
    ("100.0 + 20 * (seed % 2)", "121.0", "2.0", ["no worse", "no worse"]),
])
def test_no_regression_verdict_per_metric(tmp_path, capsys, parent_speed, change_speed, change_wait, verdicts):
    parent = _checkout(tmp_path / "parent", parent_speed)
    change = _checkout(tmp_path / "change", change_speed, wait=change_wait)
    assert paired_bench.main([str(parent), str(change), "--workload", "eval", "--pairs", "4", "--seed0", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[1] for line in lines[-2:]] == verdicts


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 1)])
def test_refuses_an_incorrect_or_failing_run(tmp_path, correct, failed):
    parent = _checkout(tmp_path / "parent", "100.0")
    change = _checkout(tmp_path / "change", "110.0", correct=correct, failed=failed)
    with pytest.raises(SystemExit, match="is refused"):
        paired_bench.main([str(parent), str(change), "--workload", "eval", "--pairs", "2", "--seed0", "7"])
