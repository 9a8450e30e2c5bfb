#!/usr/bin/env python3
"""kwbias benchmark entry point.

    python3 perfbench/run.py --workload {eval,transcribe} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}] [--out DIR]

Run from the root of a source checkout: the package is imported from its
``src/`` directory.  Prints one line per metric (name, value, unit, sample
count) and, as the last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric of BENCHMARK.json with
``--trace 0``, every per-layer metric with ``--trace 1``.  A detailed report
(machine block, checks, quality CSV, output fingerprints and, when traced,
the spans) goes to ``DIR/<workload>-seed<N>-trace<T>.json``.
"""

import os

# One process on one thread: pin BLAS/OpenMP before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("eval", "transcribe")


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_env": {var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench_out")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    src = ROOT / "src"
    if not (src / "kwbias" / "__init__.py").is_file():
        print(f"perfbench: no kwbias package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # needs kwbias on the path

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    work = args.out / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        size = workloads.SIZES[args.size]
        if args.trace:
            result = workloads.trace(args.workload, args.seed, size, work)
        else:
            result = workloads.measure(args.workload, args.seed, args.seconds, size, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [name for name in expected if name not in result.metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for name, check_ok in result.checks.results.items():
        print(f"check  {'ok  ' if check_ok else 'FAIL'}  {name}")
    for name in expected:
        value, unit, samples = result.metrics[name]
        print(f"metric  {name:<40} {value:>14.6f} {unit:<6} n={samples}")

    machine_block = machine()
    print(f"machine {json.dumps(machine_block)}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "machine": machine_block,
        "correct": result.checks.ok, "attempted": result.attempted, "failed": result.failed,
        "checks": result.checks.results,
        "metrics": {n: {"value": v, "unit": u, "samples": k} for n, (v, u, k) in result.metrics.items()},
        **result.report,
    }
    report_path = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"report {report_path}")
    for key in ("missing_wrappers", "hook_errors"):
        if result.report.get(key):
            print(f"perfbench: {key}: {result.report[key]}", file=sys.stderr)

    print(json.dumps({
        "correct": result.checks.ok and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": result.metrics[name][0], "unit": result.metrics[name][1]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
