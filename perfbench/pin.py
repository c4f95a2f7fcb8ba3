"""Re-pin ``digests.json``: the expected per-operation output digests.

Runs each workload's first pass once per seed, each in a fresh
``worker.py`` process, and writes the digests.  Re-pin only when a change
is meant to alter the program's outputs, and say so in its description:
a speed-only change must leave every digest as it is.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --seeds 0-11 [--workload perf-cost]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import HERE, OUT, start_worker
from workloads import WORKLOADS


def parse_seeds(text: str):
    """``"0-3,7"`` -> ``[0, 1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-11")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    OUT.mkdir(exist_ok=True)
    path = HERE / "digests.json"
    pinned = json.loads(path.read_text())
    for workload in args.workload or sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            worker = start_worker(root, [
                "--workload", workload, "--seed", str(seed),
                "--budget", "0", "--setup-only"])
            worker.wait(600)
            record = (worker.result or {"passes": [{}]})["passes"][0]
            if "digests" not in record:
                print("%s seed %d failed:\n%s" % (
                    workload, seed, record.get("error")), file=sys.stderr)
                return 1
            pinned.setdefault(workload, {})[str(seed)] = record["digests"]
            print(workload, seed, json.dumps(record["headline"],
                                             sort_keys=True), flush=True)
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                            + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
