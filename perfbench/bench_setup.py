"""Set-up of one run: import pcpkit and generate a workload's inputs.

Run as a script it times that set-up in a fresh interpreter and prints
the seconds; ``run.py`` starts it a few times per run to sample
``setup_s``:

    python3 perfbench/bench_setup.py <workload> <seed> <input-dir>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def timed_setup(workload: str, seed: int, input_dir: Path) -> tuple[float, list]:
    """Seconds from ``import pcpkit`` until the inputs exist, and the inputs."""
    start = time.perf_counter()
    import pcpkit  # noqa: F401  (the import is part of the timed set-up)
    import workloads

    pool = workloads.generate(workload, seed, input_dir)
    return time.perf_counter() - start, pool


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    elapsed, _ = timed_setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(repr(elapsed))
