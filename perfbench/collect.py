"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads adapt_cdl,artifact_io \
        --seeds 1,2,3,4,5 [--trace] [--out perfbench/baseline.json]

Runs `perfbench/run.py` once per (workload, seed), one after another,
with the run length from BENCHMARK.json. For every metric it prints the
median, the quartiles as `statistics.quantiles(values, n=4)` gives them,
and their distance as a share of the median; with BENCHMARK.json's bound
beside it, so an unsteady metric shows before it is relied on.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    with open(os.path.join(ROOT, ".perfbench_out", f"result-{workload}-seed"
                           f"{seed}-trace{1 if trace else 0}.json")) as f:
        result["record"] = json.load(f)
    return result


def summarize(values):
    q1, _, q3 = stats.quantiles4(values)
    return {"median": stats.median(values), "q1": q1, "q3": q3,
            "spread": stats.quartile_spread(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True,
                   help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", help="write the summary JSON here")
    args = p.parse_args(argv)

    bench = load_benchmark()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            r = run_once(workload, seed, seconds, args.trace)
            print(f"{workload} seed {seed}: correct {r['correct']} "
                  f"attempted {r['attempted']} failed {r['failed']} "
                  f"elapsed {r['elapsed_s']:.1f} s", flush=True)
            runs.append(r)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarize(values)
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
            m = metrics[name]
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None:
                flag = f" bound {bound:g}" + (
                    "" if m["spread"] < bound / 3 else "  <-- above bound/3")
            print(f"  {name:44s} median {m['median']:12.6g}  "
                  f"q1 {m['q1']:12.6g}  q3 {m['q3']:12.6g}  "
                  f"spread {m['spread']:.4f}{flag}", flush=True)
        summary[workload] = {
            "seeds": seeds, "seconds": seconds,
            "provenance": runs[0]["record"]["provenance"],
            "all_correct": all(r["correct"] for r in runs),
            "max_elapsed_s": max(r["elapsed_s"] for r in runs),
            "metrics": metrics,
            # every end-to-end figure of each run, gated or not, with the
            # wall-time sample count and tail percentile
            "runs": [{"seed": seed, "end_to_end": r["record"]["end_to_end"],
                      "wall_samples": r["record"]["wall_samples"],
                      "wall_tail": r["record"]["wall_tail"]}
                     for seed, r in zip(seeds, runs)]}
    if args.out:
        # traced and untraced summaries of the same workloads share a file
        merged = {}
        if os.path.exists(args.out):
            with open(args.out) as f:
                merged = json.load(f)
        kind = "per_layer" if args.trace else "end_to_end"
        for workload, entry in summary.items():
            merged.setdefault(workload, {})[kind] = entry
        with open(args.out, "w") as f:
            json.dump(merged, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
