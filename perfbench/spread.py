"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--workloads spectral pulse]
                                [--out summary.json]

Seeds run from 1 to `--seeds`, with tracing off.

Runs are made seed by seed, each seed going through every workload, so a
slow spell of the machine spreads over workloads rather than hitting one.
For each workload and metric it prints the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the quartile distance
as a share of the median, next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: "
                           f"{done.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = range(1, args.seeds + 1)
    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in seeds:
        for workload in args.workloads:
            result = run_once(workload, seed, spec["run_seconds"])
            results[workload].append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                if k in bounds), file=sys.stderr, flush=True)

    summary = {}
    for workload, runs in results.items():
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": {name: summarise([r["metrics"][name]["value"] for r in runs])
                        | {"unit": runs[0]["metrics"][name]["unit"],
                           "bound": bounds.get(name)}
                        for name in runs[0]["metrics"]},
        }
        print(f"{workload}: correct {summary[workload]['correct']}, failed "
              f"{summary[workload]['failed']}/{summary[workload]['attempted']}")
        for name, m in summary[workload]["metrics"].items():
            bound = "" if m["bound"] is None else f"  bound {m['bound']}"
            print(f"  {name:34s} median {m['median']:12.6g} {m['unit']:6s}"
                  f" spread {m['spread']:7.2%}{bound}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": list(seeds),
                       "run_seconds": spec["run_seconds"], "summary": summary},
                      fh, indent=1)
    return 0 if all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
