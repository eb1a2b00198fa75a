"""syzkit benchmark: one workload per call, printing one JSON result line.

    python3 perfbench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; syzkit is imported from its ``src``.
With ``--trace 0`` the result holds the end-to-end metrics:
- ``setup_s``: the median over several fresh processes of the time from
  spawn to the first timed pass;
- ``pass_s``: the mean time of a whole pass over the corpus;
- ``item_ms_p50``: the median time of one item;
- ``peak_rss_mb``.
All three times are in seconds of a reference host (host.py); the wall
times are kept in the result file under out/.  With ``--trace 1`` the
result holds the per-layer metrics of layers.py, from two traced processes
whose counts must agree exactly.  README.md describes the workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("decompose", "mirror", "transition", "cli")
# Set-up is timed in this many fresh processes; the last one goes on to measure.
SETUP_SAMPLES = 9
STARTUP_SAMPLES = 7
DEADLINE_S = 170


class Failure(Exception):
    pass


def _env():
    return {k: v for k, v in os.environ.items() if k != "SYZKIT_BUDGET"}


def spawn(args, mode, seconds, tag, deadline, extra=()):
    """Run worker.py; return (seconds from spawn to READY, its result or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode,
           "--work", str(OUT / f"work-{os.getpid()}-{tag}"), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env())
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise Failure(f"{mode} process for {args.workload} ran past the deadline")
    if proc.returncode != 0 or first.strip() != "READY":
        raise Failure(f"{mode} process for {args.workload} exited with {proc.returncode}")
    lines = [line for line in rest.splitlines() if line.startswith("RESULT ")]
    return ready, json.loads(lines[-1][len("RESULT "):]) if lines else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, deadline):
    """Times are scaled to the reference host by the kernel samples the
    measuring process takes between items (host.py), each pass by the
    samples taken during it.  Set-up is too short for kernel samples of its
    own; it runs just before the passes, in the same state of the host, so
    it is scaled by the mean of all the run's samples."""
    setups = []
    for i in range(SETUP_SAMPLES):
        mode = "measure" if i == SETUP_SAMPLES - 1 else "setup"
        ready, result = spawn(args, mode, args.seconds, f"s{i}", deadline)
        setups.append(ready)
    metrics = {
        "setup_s": metric(statistics.median(setups) * result["factor"], "s"),
        "pass_s": metric(statistics.fmean(result["scaled_pass_s"]), "s"),
        "item_ms_p50": metric(result["scaled_item_ms_p50"], "ms"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }
    detail = dict(result, setup_s=setups)
    return result, detail, metrics


def startup_seconds():
    """Median `python -c "import syzkit"` minus median bare `python -c pass`."""
    env = dict(_env(), PYTHONPATH=str(ROOT / "src"))
    times = {"pass": [], "import syzkit": []}
    for _ in range(STARTUP_SAMPLES):
        for code in times:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times[code].append(time.perf_counter() - start)
    return statistics.median(times["import syzkit"]) - statistics.median(times["pass"])


def per_layer(args, deadline):
    runs = []
    for tag in ("a", "b"):
        spans = OUT / f"spans-{args.workload}-seed{args.seed}-{tag}.json"
        runs.append(spawn(args, "trace", args.seconds / 2, f"t{tag}", deadline,
                          ["--spans", str(spans)])[1])
    mismatch = layers.count_mismatch([r["layers"] for r in runs])
    if mismatch:
        raise Failure(mismatch)
    passes = [p for r in runs for p in r["layers"]]
    values = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    # Each traced pass is paired with the untraced pass that follows it, so
    # the overhead compares passes made in the same state of the host.
    pairs = [p for r in runs for p in zip(r["traced_pass_s"], r["untraced_pass_s"])]
    values.update({
        "cli.startup_s": startup_seconds(),
        "trace.untraced_pass_s": statistics.median(u for _, u in pairs),
        "trace.traced_pass_s": statistics.median(t for t, _ in pairs),
        "trace.overhead_s": statistics.median(t - u for t, u in pairs),
        "trace.overhead_pct": statistics.median(100 * (t / u - 1) for t, u in pairs),
    })
    merged = {
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "errors": [e for r in runs for e in r["errors"]],
    }
    metrics = {name: metric(values[name], unit) for name, unit, _ in layers.catalogue()}
    return merged, {"runs": runs, "values": values}, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "syzkit" / "__init__.py").is_file():
        print(f"no syzkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        summary, detail, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for error in summary["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not summary["errors"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(result, detail=detail), indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
