"""One workload in one process: set up, run whole passes, check the outputs.

A pass times each item on its own, and a pass's time is the sum of its
item times.  Between items, a measuring run times the host-speed kernel of
host.py, and scales each pass's times by the samples taken during it.

Started by run.py, never by hand.  It prints ``READY`` once set-up is done
(run.py times set-up from the spawn to that line) and, unless it only sets
up, one line ``RESULT <json>`` at the end.
"""

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import host
import layers
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def setup(workload, seed, work, in_process):
    sys.path.insert(0, str(ROOT / "src"))
    import syzkit
    if Path(syzkit.__file__).resolve().parent != ROOT / "src" / "syzkit":
        raise SystemExit(f"imported syzkit from {syzkit.__file__}, not from this checkout")
    if workload == "cli":
        import syzkit.cli  # noqa: F401  (the in-process check runs cli.main)
    import workloads
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return syzkit, workloads.build(workload, syzkit, seed, work, env, in_process)


def run_pass(items, order, between):
    """Time every item; ``between`` runs after each item, outside the times."""
    clock = time.perf_counter
    outputs = [None] * len(items)
    times = [0.0] * len(items)
    for i in order:
        begin = clock()
        try:
            outputs[i] = items[i].run()
        except Exception as exc:  # counted as a failed operation
            outputs[i] = exc
        times[i] = clock() - begin
        between()
    return sum(times), times, outputs


def same(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


class Passes:
    """Whole passes over the corpus, each in a seeded order, with the
    first pass's outputs kept for the checks and every later pass compared
    against them."""

    def __init__(self, items, rng, between=lambda: None):
        self.items = items
        self.rng = rng
        self.between = between
        self.pass_s = []
        self.item_s = []
        self.first = None
        self.failed = 0
        self.errors = []

    def one(self, after=None):
        order = list(range(len(self.items)))
        self.rng.shuffle(order)
        gc.collect()
        pass_s, times, outputs = run_pass(self.items, order, self.between)
        if after is not None:
            after(outputs)
        self.pass_s.append(pass_s)
        self.item_s.extend(times)
        self.failed += sum(isinstance(o, Exception) for o in outputs)
        if self.first is None:
            self.first = outputs
            for item, out in zip(self.items, outputs):
                if isinstance(out, Exception):
                    print(f"{item.name}: {type(out).__name__}", file=sys.stderr)
        else:
            for item, a, b in zip(self.items, self.first, outputs):
                if not same(a, b):
                    self.errors.append(f"{item.name}: output differs between passes")

    def until(self, deadline, after=None):
        self.one(after)
        while time.perf_counter() < deadline:
            self.one(after)

    def check(self):
        for item, out in zip(self.items, self.first):
            if isinstance(out, Exception):
                continue
            try:
                item.check(out)
            except Exception as exc:
                self.errors.append(f"{item.name}: {type(exc).__name__}: {exc}")
                traceback.print_exc(file=sys.stderr)

    def summary(self):
        return {
            "items": [item.name for item in self.items],
            "pass_s": self.pass_s,
            "item_ms_p50": 1000 * statistics.median(self.item_s),
            "item_ms": {item.name: 1000 * statistics.median(self.item_s[i::len(self.items)])
                        for i, item in enumerate(self.items)},
            "item_s": self.item_s,
            "attempted": len(self.items) * len(self.pass_s),
            "failed": self.failed,
            "errors": self.errors,
        }


def measure(args, items):
    """Whole passes; each pass's times are also given in reference seconds,
    scaled by the kernel samples taken during that pass."""
    speed = host.Speed(args.workload)
    speed.sample(force=True)
    passes = Passes(items, random.Random(f"order:{args.workload}:{args.seed}"), speed.sample)
    factors, start = [], [0]

    def after(outputs):
        factors.append(speed.factor(start[0]))
        start[0] = len(speed.samples)

    passes.until(time.perf_counter() + args.seconds, after)
    # For the CLI, the largest command process: the kernel's are smaller.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    passes.check()
    n = len(items)
    scaled_items = [t * factors[i // n] for i, t in enumerate(passes.item_s)]
    return dict(passes.summary(), peak_rss_mb=peak_mb, kernel_s=speed.samples,
                factor=speed.factor(), pass_factors=factors,
                scaled_pass_s=[t * f for t, f in zip(passes.pass_s, factors)],
                scaled_item_ms_p50=1000 * statistics.median(scaled_items))


def trace(args, sk, items):
    """After one untraced pass to warm caches, traced and untraced passes
    alternate, so that both kinds see the same state of the host.  The
    tracer is installed for each traced pass and removed after it."""
    passes = Passes(items, random.Random(f"order:{args.workload}:{args.seed}"))
    passes.one()
    spy = tracer.Tracer()
    untraced, traced, per_pass, all_spans = [], [], [], []

    def after(outputs):
        spy.on = False  # the comparison with the first pass is not traced
        spans, counts = spy.take()
        all_spans.append(spans)
        per_pass.append(layers.metrics(args.workload, spans, counts, outputs))

    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        spy.install(sk, layers.hooks())
        spy.on = True
        try:
            passes.one(after)
        finally:
            spy.on = False
            spy.uninstall()
        traced.append(passes.pass_s[-1])
        passes.one()
        untraced.append(passes.pass_s[-1])
    passes.check()
    Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent"], "passes": all_spans}, fh)
    return dict(passes.summary(), untraced_pass_s=untraced, traced_pass_s=traced,
                layers=per_pass)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--work", required=True, help="scratch directory for CLI files")
    ap.add_argument("--spans", help="where a traced run writes its spans (trace mode only)")
    args = ap.parse_args()
    if (args.mode == "trace") != (args.spans is not None):
        ap.error("--spans goes with --mode trace, and only with it")
    work = Path(args.work)
    try:
        sk, items = setup(args.workload, args.seed, work, in_process=args.mode == "trace")
        print("READY", flush=True)
        if args.mode == "setup":
            return
        result = measure(args, items) if args.mode == "measure" else trace(args, sk, items)
        print("RESULT " + json.dumps(result), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
