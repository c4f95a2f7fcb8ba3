"""The repo benchmark: run one workload, check its outputs, print metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload perf-cost --seed 0 \\
        --seconds 60 --trace 0

``--seconds`` is the whole run's budget, set-up included.  The run starts
one fresh process (``worker.py``), which sets up, settles, then times
steady passes until the budget is spent.  With ``--trace 0`` it prints
the end-to-end metrics of ``BENCHMARK.json``:

* ``setup_s`` -- host seconds from starting the fresh process to the end
  of its first pass (imports, dataset build, boot checkpoints, decode,
  JIT codegen);
* ``pass_s`` -- host seconds of one steady pass, the third quartile
  over the run's steady passes (see :func:`untraced_metrics`);
* ``serve_rps`` -- simulated requests completed per host second of a
  steady pass, the first quartile over passes;
* ``peak_rss_mb`` -- the process's peak RSS.

With ``--trace 1`` the process traces its first pass, then alternates
untraced and traced steady passes; the run prints the per-layer
metrics (see ``spans.py`` and ``README.md``), prefixed ``setup.`` for
the first pass and unprefixed for the median traced steady pass, plus
``trace.overhead_ratio`` and ``sim_kips``.

Every pass's per-operation digests are checked against
``perfbench/digests.json`` when it pins the seed, and otherwise against
the run's first pass.  A raised pass, a broken invariant or a digest
mismatch fails its operations; ``failed`` and ``correct`` report it.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from summary import (  # noqa: E402
    count_failures,
    median,
    metric,
    quartiles,
    spread,
    valid_name,
    valid_unit,
)
from workloads import WORKLOADS  # noqa: E402

#: Seconds after which a run kills its worker (the run must end in 180).
RUN_LIMIT_S = 170

#: Environment knobs that change what or how the program runs; cleared
#: for the worker (and recorded in the stamp when they were set).
CLEARED_PREFIX = "REPRO_"

#: Where the worker writes (result cache dir, spans); ignored by git.
OUT = HERE / "out"


def stamp(root: Path) -> Dict[str, object]:
    """Provenance of the run: source identity, interpreter, cores, and
    any program knob the caller had set (the worker runs without)."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode())
        source.update(path.read_bytes())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cleared_env": {key: value for key, value in sorted(os.environ.items())
                        if key.startswith(CLEARED_PREFIX)},
    }


def worker_env(root: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(CLEARED_PREFIX)}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(OUT / "cache")
    env["REPRO_RESULT_CACHE"] = "0"
    env["REPRO_JOBS"] = "1"
    return env


def start_worker(root: Path, args: List[str]) -> "Worker":
    return Worker(subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + args, cwd=root,
        env=worker_env(root), stdout=subprocess.PIPE, text=True))


class Worker:
    """A running ``worker.py``: times its set-up, collects its result."""

    def __init__(self, process: subprocess.Popen):
        self.process = process
        self.started = time.perf_counter()
        self.setup_s: Optional[float] = None
        self.result: Optional[dict] = None

    def wait(self, timeout: float) -> None:
        """Read events until the worker exits; kill it after ``timeout``
        seconds; always reap it."""
        timer = threading.Timer(timeout, self.process.kill)
        timer.start()
        try:
            for line in self.process.stdout:
                try:
                    event = json.loads(line)
                except ValueError:
                    continue  # not an event: something the program printed
                if not isinstance(event, dict):
                    continue
                if event.get("event") == "setup":
                    self.setup_s = time.perf_counter() - self.started
                elif event.get("event") == "done":
                    self.result = event
        finally:
            timer.cancel()
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process.stdout.close()


def pinned_digests(workload: str, seed: int) -> Optional[List[str]]:
    """The digests ``digests.json`` pins for this workload and seed."""
    pinned = json.loads((HERE / "digests.json").read_text())
    return pinned.get(workload, {}).get(str(seed))


def check_passes(ops: int, reference: Optional[List[str]],
                 passes: List[dict]):
    """(attempted, failed) operations over every pass of ``ops``
    operations.  Without a pinned reference the first pass that produced
    digests is the reference."""
    attempted = failed = 0
    for record in passes:
        digests = record.get("digests")
        if reference is None and digests is not None:
            reference = digests
        attempted += ops
        failed += count_failures(reference, digests, ops)
    return attempted, failed


def print_line(name: str, value, unit: str = "") -> None:
    print("%-34s %s %s" % (name, value, unit))


def untraced_metrics(worker: Worker, passes: List[dict]) -> dict:
    """The end-to-end metrics of one run.

    Steady passes are summarised by their slow quartile: the third
    quartile of pass seconds, the first of pass rates.  On a shared VM the
    host now and then runs the process up to 1.7x faster for tens of
    seconds; the slow quartile follows the host's base speed, which varies
    far less from run to run than the median does.
    """
    steady = [p for p in passes if p["kind"] == "steady"]
    return {
        "setup_s": metric(worker.setup_s, "s"),
        "pass_s": metric(quartiles([p["seconds"] for p in steady])[2], "s"),
        "serve_rps": metric(quartiles([p.get("requests", 0) / p["seconds"]
                                       for p in steady])[0], "1/s"),
        "peak_rss_mb": metric(worker.result["peak_rss_mb"], "MB"),
    }


#: Metrics a traced run adds to the per-pass layer metrics.
TRACE_EXTRAS = {"trace.overhead_ratio": "ratio", "sim_kips": "kinst/s"}


def traced_metric_names() -> List[str]:
    """Every metric a ``--trace 1`` run prints, in order."""
    from spans import UNITS

    names = []
    for name in UNITS:
        names += ["setup." + name, name]
    return names + list(TRACE_EXTRAS)


def traced_metrics(passes: List[dict], spans_path: Path) -> dict:
    from spans import UNITS, layer_metrics

    trace = json.loads(spans_path.read_text())
    spans, counts = trace["spans"], trace["counts"]
    traced = [p for p in passes if p["kind"] == "traced"]
    steady = [p for p in passes if p["kind"] == "steady"]
    setup = layer_metrics(spans, counts, passes[0]["root"])
    per_pass = [layer_metrics(spans, counts, p["root"]) for p in traced]
    metrics = {}
    for name, unit in UNITS.items():
        metrics["setup." + name] = metric(setup[name], unit)
        metrics[name] = metric(median([m[name] for m in per_pass]), unit)
    untraced_s = median([p["seconds"] for p in steady])
    insts = median([m["sim.o3_insts"] for m in per_pass])
    extras = {
        "trace.overhead_ratio":
            median([p["seconds"] for p in traced]) / untraced_s,
        # Simulated instructions per host second, from untraced passes.
        "sim_kips": median([insts / p["seconds"] / 1000 for p in steady]),
    }
    for name, unit in TRACE_EXTRAS.items():
        metrics[name] = metric(extras[name], unit)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no program at %s/src/repro; run from the root of "
              "a checkout" % root, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Byte-compile first, so no set-up pays for writing bytecode.
    compileall.compile_dir(str(root / "src"), quiet=1)
    print("stamp", json.dumps(stamp(root), sort_keys=True))

    spans_path = OUT / ("spans-%s.json" % args.workload)
    options = ["--workload", args.workload, "--seed", str(args.seed),
               "--budget", str(args.seconds)]
    if args.trace:
        spans_path.unlink(missing_ok=True)
        options += ["--trace", "--spans", str(spans_path)]
    began = time.perf_counter()
    worker = start_worker(root, options)
    worker.wait(RUN_LIMIT_S)
    if worker.result is None or worker.setup_s is None:
        print("perfbench: the worker died (exit %s)"
              % worker.process.returncode, file=sys.stderr)
        return 1
    passes = worker.result["passes"]
    pinned = pinned_digests(args.workload, args.seed)
    attempted, failed = check_passes(WORKLOADS[args.workload].ops, pinned,
                                     passes)
    for record in passes:
        if "error" in record:
            print("pass %s raised:\n%s" % (record["kind"], record["error"]),
                  file=sys.stderr)
    if args.trace:
        metrics = traced_metrics(passes, spans_path)
    else:
        metrics = untraced_metrics(worker, passes)

    illegal = [name for name, entry in metrics.items()
               if not (valid_name(name) and valid_unit(entry["unit"]))]
    if illegal:
        raise ValueError("illegal metric names or units: %s" % illegal)
    headline = next((p["headline"] for p in passes if "headline" in p), {})
    steady = [p["seconds"] for p in passes if p["kind"] == "steady"]
    print("workload %s seed %d: %d passes, %.1f s" % (
        args.workload, args.seed, len(passes), time.perf_counter() - began))
    print("pass seconds", " ".join("%s:%.3f" % (p["kind"], p["seconds"])
                                   for p in passes))
    print("steady passes: n=%d, quartiles %s s, spread %.3f" % (
        len(steady), " / ".join("%.3f" % q for q in quartiles(steady)),
        spread(steady)))
    print("headline", json.dumps(headline, sort_keys=True))
    print("reference digests:", "pinned" if pinned is not None
          else "the run's first pass (seed not pinned)")
    for name, entry in metrics.items():
        print_line(name, entry["value"], entry["unit"])
    print_line("fail_frac", failed / attempted if attempted else 1.0)
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
