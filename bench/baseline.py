"""Run the benchmark over many seeds and summarise every metric.

    python3 bench/baseline.py --runs 10 [--write bench/baseline.json]

For each workload of ``workloads.WORKLOADS`` (``certify`` too, which
``BENCHMARK.json`` does not list) and each trace mode it runs
``bench/run.py`` once per seed (seeds 1..runs), one run at a time, for the
``run_seconds`` of ``BENCHMARK.json``, and
prints each metric's median, quartiles and spread (interquartile distance
over the median) next to the bound ``BENCHMARK.json`` fixes for it.  The
``verdict_s`` samples of all runs are pooled for the tail percentile.
``--write`` stores the summary, with the environment of the first run, as a
JSON baseline, rewritten after each workload and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    samples, env = [], {}
    for line in lines:
        if line.startswith("verdict_s samples: "):
            samples = [float(x) for x in line.split(": ", 1)[1].split()]
        elif line.startswith("env "):
            env = json.loads(line[4:])
    return json.loads(lines[-1]), samples, env


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    summary = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    for workload in WORKLOADS:
        entry = summary["workloads"].setdefault(workload, {})
        for trace in (0, 1):
            per_metric: dict[str, list[float]] = {}
            units, pooled, attempted, failed, loads = {}, [], 0, 0, []
            for seed in range(1, args.runs + 1):
                result, samples, env = run_once(workload, seed, seconds, trace)
                summary.setdefault("environment", env)
                loads.append(env["loadavg"])
                attempted += result["attempted"]
                failed += result["failed"]
                pooled.extend(samples)
                for name, metric in result["metrics"].items():
                    per_metric.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
                shown = result["metrics"] if trace == 0 else {}
                print(f"{workload} trace={trace} seed={seed}: {result['failed']}/"
                      f"{result['attempted']} failed "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in shown.items()), flush=True)
            block = {"attempted": attempted, "failed": failed,
                     "failed_share": failed / attempted if attempted else 0.0,
                     "loadavg_at_start": loads, "metrics": {}}
            if pooled:
                block["verdict_s_tail"] = tail(pooled)
            print(f"== {workload} trace={trace}: failed_share {failed}/{attempted}")
            for name, values in per_metric.items():
                stats = summarise(values)
                stats["unit"] = units[name]
                block["metrics"][name] = stats
                bound = bounds.get(name)
                verdict = ""
                if bound is not None:
                    label = ("steady" if stats["spread"] < bound / 3 else
                             "within bound" if stats["spread"] <= bound else "WIDE")
                    verdict = f" bound {bound:g} {label}"
                print(f"  {name:36} median {stats['median']:.6g} {units[name]:5} "
                      f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} "
                      f"spread {stats['spread']:.3f}{verdict}")
            if pooled:
                print(f"  verdict_s tail (pooled): {block['verdict_s_tail']}")
            entry[f"trace{trace}"] = block
            if args.write:
                args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
