"""Importing kwbias keeps freed numpy temporaries in the heap for reuse.

glibc's adaptive malloc thresholds would otherwise unmap or trim them and
fault them in again on the next step, as many times as what ran before
decides.  The check runs in a fresh interpreter, so no earlier test's
allocations shape the heap it measures.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Six rounds of ten 1 MiB arrays, filled and freed; prints each round's minor faults.
PROBE = """
import resource, sys
if sys.argv[1] == "kwbias":
    import kwbias
import numpy as np
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(1 << 17) for _ in range(10)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


def _round_faults(first_import: str) -> list[int]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        env.pop(var, None)
    proc = subprocess.run([sys.executable, "-c", PROBE, first_import], env=env, capture_output=True, text=True,
                          check=True)
    return [int(n) for n in proc.stdout.split()]


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, OSError, ValueError):
        return False


@pytest.mark.skipif(not _glibc(), reason="glibc malloc only")
def test_freed_temporaries_are_reused_not_faulted_in_again():
    plain = _round_faults("numpy")
    assert min(plain[1:]) > 2000  # glibc's own thresholds: every round faults its 10 MiB in again
    pinned = _round_faults("kwbias")
    assert pinned[0] > 2000 and max(pinned[1:]) < 50
