#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, with the gain rule applied.

    python scripts/paired_bench.py PARENT_DIR CHANGE_DIR --workload eval --pairs 10 --seed0 801

Pair i runs `perfbench/run.py --workload W --seed S0+i --seconds 10
--trace 0` once from each checkout, one after the other; the parent goes
first in even pairs and the change in odd ones.  A run whose `correct` is
false or whose `failed` is above 0 stops the script with exit status 1.

For each end-to-end metric of CHANGE_DIR/BENCHMARK.json it prints the
median [Q1, Q3] of each side (inclusive quartiles, as numpy's default
percentile gives them), how many pairs the change wins (ties count for
neither side), the median [Q1, Q3] of the per-pair change/parent ratio
(n/a when a parent run reads 0), and whether the change's median is
better than the parent's by more than the parent's interquartile range.
The ratio shows a steady per-pair change that machine drift between
pairs hides from the unpaired range; it decides no verdict.  A gain is
claimed when the change wins at least nine tenths of the pairs and its
median gain exceeds that range.  Every run's value is printed as it
finishes.  One line then names the metrics that read the same value on
both sides in every pair, as outputs a change leaves alone do, and one
says whether the output fingerprints (set-up, stack, eval, transcribe)
that each run writes to its report agree between the sides of every
pair.

It then gives each metric a no-regression verdict against the metric's
`bound`, read as a share of the parent's median:

- "worse by X > bound": the change's median is worse than the parent's
  by more than the bound;
- "unresolved": the parent's interquartile range is wider than the
  bound, so its own runs spread too widely to tell, and not every run of
  the change beats every run of the parent;
- "no worse" otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SECONDS = "10"
FINGERPRINTS = ("setup", "stack", "eval", "transcribe")


def run_once(checkout: Path, workload: str, seed: int, out: Path) -> tuple[dict[str, float], dict[str, str]]:
    """Metric values and output fingerprints of one untraced benchmark run
    from `checkout`; the fingerprints come from the report it writes to
    `out`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", "0", "--out", str(out)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"paired_bench: {checkout} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] > 0:
        raise SystemExit(f"paired_bench: {checkout} seed {seed} is refused: correct={result['correct']}, "
                         f"failed={result['failed']} of {result['attempted']}")
    report = json.loads((out / f"{workload}-seed{seed}-trace0.json").read_text(encoding="utf-8"))
    return {name: m["value"] for name, m in result["metrics"].items()}, report["fingerprints"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(name: str, better: str, parent: list[float], change: list[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    verdict = "gain" if wins >= 0.9 * len(parent) and gain > p3 - p1 else "no gain"
    beyond = "exceeds" if gain > p3 - p1 else "within"
    ratio = "n/a"
    if 0 not in parent:
        r1, rm, r3 = quartiles([c / p for p, c in zip(parent, change)])
        ratio = f"{rm:.4f} [{r1:.4f}, {r3:.4f}]"
    return (f"{name:<22} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} [{c1:.6g}, {c3:.6g}]  "
            f"wins {wins}/{len(parent)}  change/parent {ratio}  "
            f"median gain {gain:+.6g} {beyond} parent IQR {p3 - p1:.6g}  ({better} is better): {verdict}")


def regression(better: str, bound: float, parent: list[float], change: list[float]) -> str:
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    limit = bound * abs(pm)
    worse = sign * (pm - quartiles(change)[1])
    if worse > limit:
        return f"worse by {worse:.6g} > bound {limit:.6g}"
    if p3 - p1 > limit and min(sign * c for c in change) <= max(sign * p for p in parent):
        return f"unresolved: the parent's own runs spread by IQR {p3 - p1:.6g}, wider than the bound {limit:.6g}"
    return "no worse"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, choices=("eval", "transcribe"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, required=True, help="seed of the first pair; pair i uses seed0 + i")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    prints: dict[str, list[dict[str, str]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="paired_bench-") as tmp:
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                values, fingerprints = run_once(getattr(args, side), args.workload, seed, Path(tmp) / side)
                runs[side].append(values)
                prints[side].append(fingerprints)
                print(f"pair {i} seed {seed} {side}: " + " ".join(f"{n}={values[n]:.6g}" for n, _, _ in metrics),
                      flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, seeds {args.seed0}-{args.seed0 + args.pairs - 1}")
    series = {name: ([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]]) for name, _, _ in metrics}
    for name, better, _ in metrics:
        print(summary(name, better, *series[name]))
    same = [name for name, _, _ in metrics if series[name][0] == series[name][1]]
    print(f"\nsame value on both sides in every pair: {', '.join(same) or 'none'}")
    differ = [k for k in FINGERPRINTS if any(p[k] != c[k] for p, c in zip(prints["parent"], prints["change"]))]
    print(f"fingerprints {', '.join(FINGERPRINTS)}: "
          + (f"differ in {', '.join(differ)}" if differ else "the same on both sides in every pair"))
    print("\nno regression, each bound a share of the parent's median:")
    for name, better, bound in metrics:
        print(f"{name:<22} bound {bound:g}: {regression(better, bound, *series[name])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
