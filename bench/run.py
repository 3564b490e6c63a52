"""merlib benchmark: one command, three workloads, end-to-end and per-layer
metrics.

    python3 bench/run.py --workload pretrain --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
./src. Workloads (see bench/README.md for why each was chosen and which
per-layer metric should move which end-to-end metric):

    pretrain       merlib train, pretrain preset, plain net, batch 50
    loso-finetune  merlib eval --protocol loso --init-mode upgrade
    score          forward-only fold scoring of an attention checkpoint

Each run sets up its inputs at least five times and for at least a
second (set-up time is their median), then runs timed units back to
back, one process and one client, for --seconds. Times exclude the time
the host of a virtual machine took the CPU away (steal; see StealClock).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced units and prints per-layer metrics from
the traced ones, plus the tracing overhead. The last line of
stdout is the JSON result; the line before it is the run's record
(environment, seed, digests) that bench/compare.py reads.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time

from tracing import LAYER_METRICS, Tracer, layer_metrics, percentile

# Fixed before numpy is imported, so every run uses the same BLAS threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5      # at least this many set-ups a run,
SETUP_SECONDS = 1.0    # and more while their total is below this

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("samples_per_s", "1/s"),
              ("request_ms.p50", "ms"), ("peak_rss_mb", "MB")]
TRACE_METRICS = [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"),
                 ("trace.spans", "count")]


def import_program():
    """Import merlib from ./src of this checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "merlib", "__init__.py")):
        raise SystemExit(f"error: no merlib sources under {SRC}; run from the "
                         f"root of a merlib checkout")
    sys.path.insert(0, SRC)
    import merlib
    if not os.path.abspath(merlib.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported merlib from {merlib.__file__}, not {SRC}")


def git_rev():
    """Commit id read from .git without running git; None outside a repo."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "merlib")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"git_rev": git_rev(), "src_sha256": src.hexdigest(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace)}


def cpu_jiffies():
    """(busy, stolen) clock ticks summed over all CPUs, from /proc/stat;
    (0, 0) where it cannot be read."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq + steal, steal


class StealClock:
    """Times a stretch of work net of hypervisor steal.

    On a virtual machine the host can take a CPU away while the benchmark
    runs on it; the guest kernel counts that time as steal. `stop` returns
    wall seconds times the share of busy CPU time the host did not steal,
    which is the wall time on an unshared machine. With one busy CPU that
    is wall time minus steal; an idle CPU accrues no steal. Where
    /proc/stat is missing the share is 0 and the time is plain wall time.
    """

    def __init__(self):
        self.busy, self.steal = cpu_jiffies()
        self.t0 = time.perf_counter()

    def stop(self):
        wall = time.perf_counter() - self.t0
        busy, steal = cpu_jiffies()
        busy -= self.busy
        self.frac = (steal - self.steal) / busy if busy > 0 else 0.0
        return wall * (1.0 - self.frac)


class Runner:
    """Runs one workload's units in fresh output directories, timing each
    net of steal (see StealClock)."""

    def __init__(self, workload, ctx, work):
        self.workload, self.ctx, self.work = workload, ctx, work
        self.count = 0

    def run(self):
        from workloads import run_unit
        out = os.path.join(self.work, f"unit{self.count}")
        self.count += 1
        os.makedirs(out)
        try:
            clock = StealClock()
            u = run_unit(self.workload, self.ctx, out)
            clock.stop()
            u.steal_frac = clock.frac
            u.wall *= 1.0 - clock.frac
            u.latencies_ms = [ms * (1.0 - clock.frac) for ms in u.latencies_ms]
            return u
        finally:
            shutil.rmtree(out, ignore_errors=True)


def setup(workload, work, seed):
    """Set up SETUP_REPEATS times, and again while the set-ups so far took
    less than SETUP_SECONDS; returns (median seconds, last context). A
    set-up of a few milliseconds is repeated dozens of times, so its
    median does not hang on a handful of samples.

    All set-ups write into one directory: the first creates the files and
    the others overwrite them. Creating a file cost 0.03 to 0.7 ms on the
    ext4 disk of a shared 2-core VM, varying from minute to minute, so the
    median of set-ups that overwrite measures the set-up's work, not the disk.
    """
    d = os.path.join(work, "setup")
    os.makedirs(d)
    times, ctx = [], None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
        clock = StealClock()
        ctx = workload.setup(d, seed)
        times.append(clock.stop())
    return statistics.median(times), ctx


def measure(runner, seconds, tracer=None):
    """One untimed warm-up unit, then units back to back until the next
    one would overrun `seconds`; returns (untraced, traced, [warm-up]).

    The first unit of a process ran up to a fifth slower than the rest
    (first allocations, cold caches), so it is checked but not timed.
    Traced: alternates an untraced and a traced unit, always at least one
    pair.
    """
    plain, traced, warm = [], [], [runner.run()]
    start = time.perf_counter()
    while True:
        plain.append(runner.run())
        if tracer is not None:
            tracer.run_id = len(traced)
            with tracer:
                traced.append(runner.run())
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            return plain, traced, warm


def digest_check(units):
    """Repeated units of the same inputs must produce identical artifacts."""
    first = next((u.digest for u in units if u.digest), "")
    for u in units:
        if u.digest and u.digest != first:
            u.check(False, "artifact digest differs from the first unit's")
    return first


def end_to_end(units, setup_s):
    timed = [u for u in units if u.wall > 0]
    latencies = [ms for u in units for ms in u.latencies_ms]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(u.wall for u in timed),
        "samples_per_s": statistics.median(u.samples / u.wall for u in timed),
        "request_ms.p50": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, plain, traced):
    per_run = [layer_metrics(tracer, i) for i in range(len(traced))]
    values = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
    untraced_s = statistics.median(u.wall for u in plain)
    traced_s = statistics.median(u.wall for u in traced)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    values["trace.spans"] = len(tracer.spans) / len(traced)
    return values


def summary(workload, metrics, plain, units, attempted, failed):
    """Human-readable lines: every metric by name and unit, then the figures
    that carry no bound (see bench/README.md)."""
    alias = {"pretrain": "train_samples_per_s", "loso-finetune": "train_samples_per_s",
             "score": "infer_samples_per_s"}[workload]
    lines = [f"{name:32s} {entry['value']:.6g} {entry['unit']}"
             + (f"  ({alias})" if name == "samples_per_s" else "")
             for name, entry in metrics.items()]
    latencies = [ms for u in plain for ms in u.latencies_ms]
    lines.append(f"{'request_ms.p90':32s} {percentile(latencies, 90):.6g} ms "
                 f"(n={len(latencies)})")
    quality = {}
    for u in units:
        for k, v in u.quality.items():
            quality.setdefault(k, []).append(v)
    for name, unit in (("final_loss", "loss"), ("war", "ratio")):
        if name in quality:
            lines.append(f"{name:32s} {statistics.median(quality[name]):.6g} {unit}")
    lines.append(f"{'ops_failed_frac':32s} {failed / attempted:.6g} ratio "
                 f"({failed}/{attempted})")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pretrain", "loso-finetune", "score"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    from workloads import WORKLOADS

    # A terminated run still removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        setup_s, ctx = setup(workload, work, args.seed)
        runner = Runner(workload, ctx, os.path.join(work, "units"))
        tracer = Tracer() if args.trace else None
        plain, traced, warm = measure(runner, args.seconds, tracer)
        units = warm + plain + traced
        digest = digest_check(units)
        if tracer is None:
            metrics = end_to_end(plain, setup_s)
            metric_units = END_TO_END
        else:
            metrics = per_layer(tracer, plain, traced)
            metric_units = LAYER_METRICS + TRACE_METRICS
            trace_dir = os.path.join(ROOT, ".bench_work", "traces")
            os.makedirs(trace_dir, exist_ok=True)
            tracer.write(os.path.join(trace_dir, f"{args.workload}-s{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                          for name, unit in metric_units}}
    for line in summary(args.workload, result["metrics"], plain, units, attempted,
                        failed):
        print(line)
    for u in units:
        for e in u.errors:
            print(f"check failed: {e}", file=sys.stderr)
    record = {"env": environment(args), "digest": digest,
              "unit_walls_s": [u.wall for u in plain],
              "unit_steal_frac": [u.steal_frac for u in plain],
              "traced_unit_walls_s": [u.wall for u in traced]}
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
