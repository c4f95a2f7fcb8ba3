"""One fresh benchmark process: set up, then time passes until a deadline.

``run.py`` starts this script once per run, so process-global caches
(boot checkpoints, shared assembly, hotel datasets, compiled JIT units)
never leak from one workload, or one run, into another.  It prints one
JSON event per line on stdout:

* ``{"event": "setup"}`` right after the first pass, so the parent can
  time set-up from process start;
* ``{"event": "done", ...}`` at exit, with every pass's kind, host
  seconds, per-operation digests and headline numbers, and the process's
  peak RSS.

Pass kinds: ``setup`` (the first pass), ``settle`` (untimed passes that
let lazily compiled code settle), ``steady`` (timed, untraced) and
``traced`` (timed with :class:`spans.Recorder` installed).  With
``--trace`` the first pass is traced too and the spans are written to
``--spans`` at exit.

Usage (normally via run.py)::

    python3 perfbench/worker.py --workload perf-cost --seed 0 \\
        --budget 60 [--setup-only] [--trace --spans F]
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback

from summary import median
from workloads import WORKLOADS

#: Host-side counters the program keeps itself, sampled around each pass.
#: (module, dict attribute, counter prefix)
PROGRAM_COUNTERS = (("repro.sim.isa.predecode", "STATS", "predecode."),
                    ("repro.sim.isa.blockjit", "STATS", "jit."))


def _emit(event: dict) -> None:
    sys.stdout.write(json.dumps(event) + "\n")
    sys.stdout.flush()


def _counters() -> dict:
    values = {}
    for module_name, attribute, prefix in PROGRAM_COUNTERS:
        module = sys.modules.get(module_name)
        for key, value in (getattr(module, attribute, None) or {}).items():
            values[prefix + key] = value
    return values


def run_pass(workload, seed: int, kind: str, recorder=None) -> dict:
    """One pass: run, time, reduce to digests.  A raised pass reports its
    error instead of digests (every operation then counts as failed)."""
    gc.collect()  # the same collector state before every pass
    root = None
    if recorder is not None:
        recorder.install()
        root = recorder.begin("bench.pass")
        before = _counters()
    start = time.perf_counter()
    try:
        output = workload.run(seed)
        error = None
    except Exception:  # noqa: BLE001 - a failing pass is a counted result
        output, error = None, traceback.format_exc(limit=8)
    seconds = time.perf_counter() - start
    if recorder is not None:
        after = _counters()
        for key, value in after.items():
            recorder.count(key, value - before.get(key, 0))
        recorder.end(root)
        recorder.uninstall()
    record = {"kind": kind, "seconds": seconds, "root": root}
    if error is not None:
        record["error"] = error
        return record
    try:
        outputs = workload.outputs(output)
    except Exception:  # noqa: BLE001 - malformed output is a failure too
        record["error"] = traceback.format_exc(limit=8)
        return record
    record.update(digests=outputs.digests, requests=outputs.requests,
                  headline=outputs.headline)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds from process start to stop starting "
                             "passes")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where --trace writes its spans")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    workload = WORKLOADS[args.workload]

    recorder = None
    if args.trace:
        from spans import Recorder

        recorder = Recorder()
    records = [run_pass(workload, args.seed, "setup", recorder)]
    _emit({"event": "setup"})

    if not args.setup_only:
        for _ in range(workload.settle):
            records.append(run_pass(workload, args.seed, "settle"))
        deadline = started + args.budget
        kinds = ["steady", "traced"] if args.trace else ["steady"]
        timed = []
        while True:
            for kind in kinds:
                record = run_pass(workload, args.seed, kind,
                                  recorder if kind == "traced" else None)
                records.append(record)
                timed.append(record["seconds"])
            # Start another round only if a typical one ends in time.
            typical = median(timed) * len(kinds)
            if time.perf_counter() + typical > deadline:
                break

    if recorder is not None and args.spans:
        recorder.dump(args.spans)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    _emit({"event": "done", "passes": records, "peak_rss_mb": peak_kb / 1024})
    return 0


if __name__ == "__main__":
    sys.exit(main())
