"""Regenerate ``expected/``: the outputs every benchmark sweep must
reproduce, one file per workload and simulation seed.

Run from the root of a checkout, after a change that is meant to alter
the tables::

    python3 perfbench/make_expected.py [--seeds 1 2 ...]

Each file holds the sha256 of every task's events (the result cache's
wire form) and of every rendered table, taken from a cold sweep.  The
seed-1 figure tables must equal ``tests/golden/figure*.txt`` byte for
byte and the switch-wide ``lru64`` rows the golden scenario table's
equake+mcf rows; the script refuses to write otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    EXPECTED_SEEDS,
    SWITCH_MIX,
    WORKLOADS,
    child_env,
)

GOLDEN = Path.cwd() / "tests" / "golden"


def cold_sweep(workload: str, seed: int, work: Path) -> dict:
    root = work / f"{workload}-{seed}"
    spec = {"workload": workload, "seed": seed, "state": "cold",
            "store": str(root / "store"), "cache": str(root / "cache")}
    done = subprocess.run(
        [sys.executable, str(HERE / "sweep.py"), json.dumps(spec)],
        env=child_env(Path.cwd() / "src"), capture_output=True, text=True,
        check=True,
    )
    shutil.rmtree(root, ignore_errors=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_golden(workload: str, out: dict) -> None:
    """Seed 1 must reproduce the repository's golden masters."""
    if workload == "figures":
        for name, text in out["tables"].items():
            golden = GOLDEN / f"{name}.txt"
            if golden.exists() and golden.read_text() != text:
                raise SystemExit(f"seed 1 {name} differs from {golden}")
    elif workload == "switch-wide":
        mix = f"mix({'+'.join(SWITCH_MIX)})"
        golden = [line for line in
                  (GOLDEN / "scenarios.txt").read_text().splitlines()
                  if line.startswith(mix)]
        ours = [line for line in
                out["tables"]["scenarios-lru64"].splitlines()
                if line.startswith(mix)]
        if not golden or golden != ours:
            raise SystemExit("seed 1 switch-wide lru64 rows differ from "
                             "tests/golden/scenarios.txt")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="*",
                        default=list(range(1, EXPECTED_SEEDS + 1)))
    args = parser.parse_args()
    work = Path.cwd() / ".perfbench" / f"expected-{os.getpid()}"
    jobs = [(workload, seed) for seed in args.seeds for workload in WORKLOADS]
    try:
        with ThreadPoolExecutor(max_workers=2) as executor:
            outs = list(executor.map(
                lambda job: cold_sweep(*job, work), jobs))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for (workload, seed), out in zip(jobs, outs):
        if seed == 1:
            check_golden(workload, out)
        path = HERE / "expected" / workload / f"seed-{seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "tasks": out["digests"],
            "tables": {name: hashlib.sha256(text.encode()).hexdigest()
                       for name, text in out["tables"].items()},
        }, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(Path.cwd())}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
