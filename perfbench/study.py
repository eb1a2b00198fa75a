"""Steadiness study: run the benchmark on several seeds and summarise.

    python3 perfbench/study.py --workloads decompose mirror --seeds 1-10 --seconds 20

For each workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of the
median (``statistics.quantiles(values, n=4)``), plus the share of failed
operations.  The ``wall.*`` lines are the same times before scaling to the
reference host.  Runs go one at a time, so they do not disturb each other.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["decompose", "mirror", "transition", "cli"])
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args()
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            detail = json.loads((HERE / "out" / f"result-{workload}-seed{seed}-trace0.json")
                                .read_text())["detail"]
            result["metrics"]["wall.setup_s"] = {"value": statistics.median(detail["setup_s"])}
            result["metrics"]["wall.pass_s"] = {"value": statistics.fmean(detail["pass_s"])}
            result["metrics"]["wall.item_ms_p50"] = {"value": detail["item_ms_p50"]}
            runs.append(result)
            print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  flush=True)
        print(f"== {workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted({r['failed'] / r['attempted'] for r in runs})}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            print(f"   {name:40s} median {med:12.6g}  iqr/median {spread:7.2%}")


if __name__ == "__main__":
    main()
