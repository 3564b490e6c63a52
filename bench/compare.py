"""Compare two result sets of the benchmark: parent commit against a change.

    python3 bench/compare.py RESULTS_PARENT RESULTS_CHANGE

Each argument is a directory of files holding the stdout of untraced
bench/run.py runs (one run per file; the run's record and result are its
last two lines). Runs of the two sides are paired by workload and seed;
run them alternately, parent first for half the pairs and change first
for the rest, with at least ten seeds.

For every workload and end-to-end metric it prints each side's median and
quartiles, the change's win fraction over the pairs, and a verdict:

- improved: the change wins at least 9/10 of the pairs, ties counting for
  neither, and the medians differ by more than the parent's own spread
  (the distance between its quartiles), and no more operations failed;
- unresolved: the parent's spread is wider than the metric's bound, and
  not every change run beats every parent run;
- worse: the change's median is worse than the parent's by more than the
  bound;
- no worse: otherwise, within the bound.

Bounds and directions come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory):
    """{(workload, seed): [run, ...]} of untraced runs in a directory."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        try:
            record = json.loads(lines[-2])["record"]
            result = json.loads(lines[-1])
        except (IndexError, KeyError, ValueError):
            print(f"skipping {path}: not a benchmark run's output", file=sys.stderr)
            continue
        env = record["env"]
        if env["trace"]:
            continue
        runs.setdefault((env["workload"], env["seed"]), []).append(
            {"env": env, "digest": record["digest"], "result": result})
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound, parent_failed=0, change_failed=0):
    """Verdict and win fraction for paired values of one metric."""
    def beats(a, b):
        return a < b if better == "lower" else a > b

    wins = sum(beats(c, p) for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    spread = p_q3 - p_q1
    if (win_frac >= 0.9 and beats(c_med, p_med) and abs(c_med - p_med) > spread
            and change_failed <= parent_failed):
        return "improved", win_frac
    all_better = all(beats(c, p) for c in change for p in parent)
    if spread > bound * abs(p_med) and not all_better:
        return "unresolved", win_frac
    worse_by = (c_med - p_med) if better == "lower" else (p_med - c_med)
    if worse_by > bound * abs(p_med):
        return "worse", win_frac
    return "no worse", win_frac


def compare(parent_runs, change_runs, spec):
    """Table rows: (workload, metric, parent stats, change stats, pairs,
    win fraction, verdict)."""
    rows = []
    workloads = sorted({w for w, _ in parent_runs} & {w for w, _ in change_runs})
    for workload in workloads:
        seeds = sorted(s for w, s in parent_runs
                       if w == workload and (w, s) in change_runs)
        pairs = [(parent_runs[(workload, s)][0], change_runs[(workload, s)][0])
                 for s in seeds]
        failed_p = sum(p["result"]["failed"] for p, _ in pairs)
        failed_c = sum(c["result"]["failed"] for _, c in pairs)
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [pr["result"]["metrics"][name]["value"] for pr, _ in pairs]
            c = [cr["result"]["metrics"][name]["value"] for _, cr in pairs]
            v, win = verdict(p, c, m["better"], m["bound"], failed_p, failed_c)
            rows.append((workload, name, quartiles(p), quartiles(c), len(pairs), win, v))
    return rows


def digest_report(runs, side):
    """Lines naming (workload, seed) groups whose repeated runs disagree."""
    lines = []
    for (workload, seed), group in sorted(runs.items()):
        digests = {r["digest"] for r in group}
        if len(digests) > 1:
            lines.append(f"{side}: {workload} seed {seed}: {len(digests)} "
                         f"different artifact digests over {len(group)} runs")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    parent, change = load_runs(args.parent), load_runs(args.change)
    rows = compare(parent, change, spec)
    if not rows:
        print("no workload has untraced runs on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':14s} {'metric':16s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'pairs':>5s} {'wins':>5s}  verdict")
    for workload, name, p, c, n, win, v in rows:
        fmt = "/".join(f"{x:.4g}" for x in p), "/".join(f"{x:.4g}" for x in c)
        print(f"{workload:14s} {name:16s} {fmt[0]:>32s} {fmt[1]:>32s} {n:5d} "
              f"{win:5.2f}  {v}")
    if min(n for *_, n, _, _ in rows) < 10:
        print("note: fewer than ten pairs; a gain cannot be claimed")
    for line in digest_report(parent, "parent") + digest_report(change, "change"):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
