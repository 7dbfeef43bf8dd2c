"""Record the reference outcome of every pool entry of a workload.

    python3 perfbench/make_reference.py --workload affine --seeds 0-10,1009

Adds (or replaces) the listed seeds in perfbench/reference/<workload>.json.
Run it on the code the benchmark should hold later commits to; the
benchmark compares each unit it runs against these records.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOL))
    parser.add_argument("--seeds", required=True, type=seed_list)
    args = parser.parse_args()
    path = HERE / "reference" / f"{args.workload}.json"
    size = workloads.POOL[args.workload]
    record = {"workload": args.workload, "pool": size, "seeds": {}}
    if path.is_file():
        record = json.loads(path.read_text(encoding="utf-8"))
        if record["pool"] != size:
            record = {"workload": args.workload, "pool": size, "seeds": {}}
    out_dir = HERE.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        for seed in args.seeds:
            pool = workloads.generate(args.workload, seed, Path(scratch))
            outcomes = [
                workloads.outcome(args.workload, workloads.run_unit(args.workload, seed, entry))
                for entry in pool
            ]
            record["seeds"][str(seed)] = [
                {key: value for key, value in got.items() if key not in workloads.UNRECORDED}
                for got in outcomes
            ]
            print(f"{args.workload} seed {seed}: {len(pool)} entries", flush=True)
    seeds = sorted(record["seeds"].items(), key=lambda item: int(item[0]))
    lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in seeds)
    path.write_text(
        f'{{"workload": {json.dumps(args.workload)}, "pool": {size}, "seeds": {{\n{lines}\n}}}}\n',
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
