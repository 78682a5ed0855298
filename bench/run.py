"""Time to verdict for the orbitdensity verifier, end to end and per layer.

    python3 bench/run.py --workload headline --seed 1 --seconds 55 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/``.  Single process, single thread, stdlib only.

``--trace 0`` measures the end-to-end metrics with no tracing installed:
``verdict_s`` (median wall time from the end of set-up to the workload's
final verdict, over as many iterations as fit in ``--seconds``),
``setup_s`` (median of the set-ups run before each verdict, four each, every
one re-importing the package) and ``peak_rss_mb`` (peak resident memory of
this fresh process after its first set-up and verdict).  ``--trace 1``
alternates untraced and traced iterations and reports the per-layer metrics
of ``tracer.PER_LAYER`` plus the tracing overhead (traced minus untraced
median ``verdict_s``).

Every iteration's verdict is checked against the known answers in
``reference.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a run
with any failed check reports no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUPS_PER_VERDICT = 4
TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile
MODULES = ("cli", "densities", "dyadic", "scalars", "shift", "vector")


def import_package() -> SimpleNamespace:
    """Import ``orbitdensity`` afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "orbitdensity" or n.startswith("orbitdensity.")]:
        del sys.modules[name]
    package = importlib.import_module("orbitdensity")
    modules = {name: importlib.import_module(f"orbitdensity.{name}") for name in MODULES}
    return SimpleNamespace(modules=(package, *modules.values()), **modules)


def timed_setup(workload):
    gc.collect()
    start = time.perf_counter()
    pkg = import_package()
    state = workload.setup(pkg, ROOT)
    return time.perf_counter() - start, pkg, state


def run_verdict(workload, pkg, state) -> tuple[float, object]:
    workload.reset(state)
    gc.collect()
    start = time.perf_counter()
    outcome = workload.verdict(pkg, state)
    return time.perf_counter() - start, outcome


class Tally:
    """Checks attempted and failed over the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, results) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failures.append(f"{name}: {detail}")


def high_water_kb() -> int:
    """Peak resident size of this process's address space, in kB (Linux)."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def tail(samples: list[float]) -> str:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return f"none ({n} samples; needs more than {TAIL_BEYOND})"
    rank = n - TAIL_BEYOND  # 1-based rank with TAIL_BEYOND samples above it
    return f"p{100.0 * rank / n:.1f} = {sorted(samples)[rank - 1]:.6f} s ({n} samples)"


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": git_commit(), "loadavg": [round(x, 2) for x in os.getloadavg()]}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_end_to_end(workload, seed: int, seconds: float, tally: Tally) -> dict:
    # Set-ups are interleaved with the verdicts so that both sample the same
    # stretch of time; the host's speed drifts over tens of seconds.  The
    # first round has a single set-up, so the high-water mark read after it
    # is that of a fresh process that ran the workload once.
    setups, samples, rounds = [], [], []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() + statistics.median(rounds) <= deadline:
        start = time.perf_counter()
        for _ in range(SETUPS_PER_VERDICT if rounds else 1):
            elapsed, pkg, state = timed_setup(workload)
            setups.append(elapsed)
        workload.inputs(pkg, state, seed)
        elapsed, outcome = run_verdict(workload, pkg, state)
        samples.append(elapsed)
        tally.add(workload.check(state, outcome))
        workload.reset(state)
        if not rounds:
            rss_mb = high_water_kb() / 1024.0
        rounds.append(time.perf_counter() - start)

    print(f"setup_s samples: {' '.join(f'{x:.6f}' for x in setups)}")
    print(f"verdict_s samples: {' '.join(f'{x:.6f}' for x in samples)}")
    print(f"verdict_s tail: {tail(samples)}")
    return {"verdict_s": (statistics.median(samples), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MB")}


def measure_per_layer(workload, seed: int, seconds: float, tally: Tally) -> dict:
    # Untraced and traced iterations alternate, each from a fresh import as in
    # a --trace 0 run.  A traced iteration traces the set-up (vector.family_s
    # is set-up work) and the verdict, but not the drawing of the inputs.
    tracer = tracing.Tracer()
    plain, traced, snapshots = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() + statistics.median(plain + traced) <= deadline:
        trace = len(plain) > len(traced)
        pkg = import_package()
        tracer.reset()
        scope = (lambda: tracer.installed(pkg)) if trace else contextlib.nullcontext
        with scope():
            state = workload.setup(pkg, ROOT)
        workload.inputs(pkg, state, seed)
        with scope():
            elapsed, outcome = run_verdict(workload, pkg, state)
        (traced if trace else plain).append(elapsed)
        if trace:
            snapshots.append(tracer.snapshot())
        tally.add(workload.check(state, outcome))
        workload.reset(state)

    # A failed check explains zero counts better than a misplaced wrapper.
    missing = sorted({name for snap in snapshots for name in tracing.self_check(snap, workload.name)})
    if missing and not tally.failures:
        raise tracing.TraceError(f"no calls reached {', '.join(missing)} on {workload.name}; "
                                 "a wrapper is not where the name is looked up")

    last = snapshots[-1]
    print(f"traced iterations: {len(traced)}, untraced: {len(plain)}")
    print(f"{'span':40} {'calls':>10} {'total_s':>10} {'self_s':>10}")
    for name in sorted(last["total"]):
        print(f"{name:40} {last['counts'].get(name + '.calls', 0):>10} "
              f"{last['total'][name]:>10.4f} {last['self'][name]:>10.4f}")
    for name in sorted(k for k in last["counts"] if not k.removesuffix(".calls") in last["total"]):
        print(f"{'count ' + name:40} {last['counts'][name]:>10}")

    per_iteration = [tracing.layer_values(snap) for snap in snapshots]
    metrics = {name: (statistics.median(values[name] for values in per_iteration), unit)
               for name, (unit, _, _) in tracing.PER_LAYER.items()}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / statistics.median(plain), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "orbitdensity" / "__init__.py").is_file() or \
            not (ROOT / "run.cfg").is_file():
        print(f"error: {ROOT} holds no orbitdensity source checkout "
              "(src/orbitdensity and run.cfg)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name}; seed {args.seed}; {args.seconds:g} s; trace {args.trace}")
    tally = Tally()
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        metrics = measure(workload, args.seed, args.seconds, tally)
    except tracing.TraceError as exc:
        print(f"error: trace self-check: {exc}", file=sys.stderr)
        return 3

    failed = len(tally.failures)
    print(f"failed_share: {failed}/{tally.attempted} = {failed / tally.attempted:g}")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    if not failed:
        for name, (value, unit) in metrics.items():
            print(f"metric {name} = {value:.6g} {unit}")
    result = {"correct": not failed, "attempted": tally.attempted, "failed": failed,
              "metrics": {} if failed else
              {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
