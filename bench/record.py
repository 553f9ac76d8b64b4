"""Run the benchmark over several seeds and record the results as JSON.

    python3 bench/record.py --out bench/baselines/NAME.json [--seeds 1-10]

Run from the root of a source checkout.  For each workload in
`BENCHMARK.json` it makes one untraced run per seed, one after another, each
`run_seconds` long, then one traced run with seed 1.  The file
holds every run's result line and metadata and, per end-to-end metric, the
median, the quartiles and their distance as a share of the median (the
spread that `BENCHMARK.json` bounds).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(line[len("# meta "):]) for line in lines
                 if line.startswith("# meta ")), None)
    return {"seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": time.perf_counter() - start, "meta": meta,
            "result": json.loads(lines[-1]) if lines else None,
            "notes": [line for line in lines[:-1] if not line.startswith("# meta ")]}


def summarize(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(vals)}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    first, last = (int(s) for s in args.seeds.split("-"))
    record: dict = {"seconds": seconds, "seeds": [first, last], "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(first, last + 1):
            runs.append(run_once(workload, seed, seconds, 0))
            res = runs[-1]["result"]
            print(f"{workload} seed {seed}: exit {runs[-1]['exit']}, "
                  f"{runs[-1]['wall_s']:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        traced = run_once(workload, 1, seconds, 1)
        record["workloads"][workload] = {
            "summary": summarize(runs), "runs": runs, "traced": traced}
        for name, s in record["workloads"][workload]["summary"].items():
            print(f"  {workload} {name}: median {s['median']:.6g}, "
                  f"spread {s['spread']:.4f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    failed = [(w, r["seed"]) for w, rec in record["workloads"].items()
              for r in rec["runs"] + [rec["traced"]] if not r["result"]["correct"]]
    if failed:
        print(f"runs with failed ops: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
