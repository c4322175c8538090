#!/usr/bin/env python3
"""Run bench/run.py over several seeds and report the run-to-run spread.

    python3 bench/spread.py --seeds 1-10 --seconds 20 [--workloads a,b] [--out FILE]

For each workload it makes one untraced run per seed and prints, per
end-to-end metric, the median, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median, next to the metric's bound in
BENCHMARK.json.  It then makes two traced runs and checks that the
deterministic work counters agree exactly between them.  With --out the
figures are written as JSON (bench/baseline.json holds the seed baseline).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from run import COUNTERS  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        runs = [run_once(name, seed, seconds, 0) for seed in parse_seeds(args.seeds)]
        entry = {}
        for metric, bound in bounds.items():
            values = [r[metric] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            entry[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": values}
            flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER BOUND")
            print(f"{name:14s} {metric:12s} median {med:.4f}  quartiles {q1:.4f}..{q3:.4f}  "
                  f"spread {spread:.3f}  bound {bound}  {flag}", flush=True)
            print("    runs: " + " ".join(f"{v:.4g}" for v in values), flush=True)
        traced = [run_once(name, seed, seconds, 1) for seed in parse_seeds(args.seeds)[:2]]
        drift = [c for c in COUNTERS if len({t[c] for t in traced}) > 1]
        verdict = "repeat exactly" if not drift else "DIFFER: " + ", ".join(drift)
        print(f"{name:14s} counters {verdict}", flush=True)
        entry["per_layer"] = traced[0]
        report["workloads"][name] = entry
        if drift:
            raise SystemExit(1)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
