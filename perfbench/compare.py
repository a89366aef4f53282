#!/usr/bin/env python3
"""Collect, summarise and compare perfbench result sets.

A result set is a directory of files, one per run, each holding the
standard output of one perfbench run (its `{"meta": ...}` line and its
result line). Runs pair up across sets by workload, seed and trace flag.

  compare.py collect OUT [--root DIR] [--workloads a,b] [--seeds 1-10] [--trace 0|1]
      run the benchmark command of DIR/BENCHMARK.json from DIR (default:
      the current directory) once per workload and seed into OUT.
  compare.py pairs PARENT_ROOT CHANGE_ROOT OUT [--workloads ...] [--seeds ...]
      the same for two checkouts, alternating which one runs first per
      seed; results land in OUT/parent and OUT/change.
  compare.py spread SET
      per workload and end-to-end metric: median, quartiles and the
      quartile spread as a share of the median, against the bound.
  compare.py diff PARENT CHANGE
      one row per workload and end-to-end metric with both sides'
      medians and quartiles and a verdict, then per-layer deltas.
      Exits 1 if any row is `worse`.

Verdicts follow the benchmark's rules. `better`: the change wins at
least nine tenths of the seed-paired runs (ties count for neither side)
and the medians differ by more than the parent's quartile spread.
`worse`: the change's median is worse than the parent's by more than
the metric's bound. `unresolved`: the parent's own quartile spread is
wider than the bound, unless every change run beats every parent run.
`unchanged`: none of these.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(text):
    """(meta, result) of one run's standard output, or None."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    meta = {}
    for line in lines[:-1]:
        if line.startswith('{"meta"'):
            meta = json.loads(line)["meta"]
    if not {"correct", "attempted", "failed", "metrics"} <= result.keys():
        return None
    return meta, result


def load_set(path):
    """{(workload, trace, seed): result} of every run file in `path`."""
    runs = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if not os.path.isfile(full):
            continue
        with open(full) as f:
            parsed = parse_run(f.read())
        if parsed is None:
            print(f"skipping {full}: no result line", file=sys.stderr)
            continue
        meta, result = parsed
        key = (meta.get("workload", "?"), int(meta.get("trace", 0)), meta.get("seed", name))
        runs[key] = result
    return runs


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root, bench, workload, seed, trace, out_dir):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.out")
    with open(out, "w") as f:
        proc = subprocess.run(cmd, cwd=root, stdout=f, stderr=subprocess.DEVNULL)
    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
    print(f"{root}: {workload} seed {seed} trace {trace}: {status}", file=sys.stderr)


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_values(runs, workload, name, trace=0):
    out = {}
    for (w, t, seed), result in runs.items():
        m = result["metrics"].get(name)
        if w == workload and t == trace and m is not None:
            out[seed] = m["value"]
    return out


def workloads_of(runs, trace):
    return sorted({w for (w, t, _) in runs if t == trace})


def cmd_spread(args):
    bench = load_benchmark(args.root)
    runs = load_set(args.set)
    worst = 0.0
    print(f"{'workload':<8} {'metric':<14} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for w in workloads_of(runs, 0):
        for m in bench["end_to_end"]:
            vals = list(metric_values(runs, w, m["name"]).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
                flag = "" if spread < m["bound"] / 3 else (" >1/3 bound" if spread <= m["bound"] else " >bound")
            print(f"{w:<8} {m['name']:<14} {len(vals):>3} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} {spread:>8.4f} {m['bound']:>6}{flag}")
    bad = [(k, r["failed"]) for k, r in runs.items() if not r["correct"]]
    for key, failed in bad:
        print(f"incorrect run {key}: {failed} failed checks")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 1 if bad else 0


def verdict(pv, cv, higher, bound):
    """Verdict, change-wins and pair count for seed-paired values."""
    seeds = sorted(set(pv) & set(cv))
    p = [pv[s] for s in seeds]
    c = [cv[s] for s in seeds]
    if not seeds:
        return "unresolved", 0, 0
    better = (lambda a, b: a > b) if higher else (lambda a, b: a < b)
    wins = sum(better(c[i], p[i]) for i in range(len(seeds)))
    pq1, pm, pq3 = quartiles(p)
    _, cm, _ = quartiles(c)
    worse_by = ((pm - cm) if higher else (cm - pm)) / pm if pm else 0.0
    if wins >= 0.9 * len(seeds) and better(cm, pm) and abs(cm - pm) > pq3 - pq1:
        return "better", wins, len(seeds)
    if pm and (pq3 - pq1) / pm > bound:
        all_better = min(c) > max(p) if higher else max(c) < min(p)
        if all_better:
            return "unchanged", wins, len(seeds)
        return "unresolved", wins, len(seeds)
    if worse_by > bound:
        return "worse", wins, len(seeds)
    return "unchanged", wins, len(seeds)


def cmd_diff(args):
    bench = load_benchmark(args.root)
    parent, change = load_set(args.parent), load_set(args.change)
    any_worse = False
    print(f"{'workload':<8} {'metric':<14} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} {'delta':>8} {'wins':>6}  verdict")
    for w in sorted(set(workloads_of(parent, 0)) | set(workloads_of(change, 0))):
        for m in bench["end_to_end"]:
            pv, cv = metric_values(parent, w, m["name"]), metric_values(change, w, m["name"])
            if not pv or not cv:
                continue
            v, wins, n = verdict(pv, cv, m["better"] == "higher", m["bound"])
            any_worse |= v == "worse"
            pq1, pm, pq3 = quartiles(list(pv.values()))
            cq1, cm, cq3 = quartiles(list(cv.values()))
            delta = (cm - pm) / pm * 100 if pm else float("nan")
            print(f"{w:<8} {m['name']:<14} {pm:>12.4f} [{pq1:>9.4f}, {pq3:>9.4f}] {cm:>12.4f} [{cq1:>9.4f}, {cq3:>9.4f}] {delta:>+7.2f}% {wins:>2}/{n:<3}  {v}")
    layers = sorted(set(workloads_of(parent, 1)) & set(workloads_of(change, 1)))
    if layers:
        print()
        print(f"{'workload':<8} {'per-layer metric':<40} {'parent median':>14} {'change median':>14} {'delta':>9}")
    for w in layers:
        for m in bench["per_layer"]:
            pv = list(metric_values(parent, w, m["name"], 1).values())
            cv = list(metric_values(change, w, m["name"], 1).values())
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            delta = f"{(cm - pm) / abs(pm) * 100:+8.2f}%" if pm else f"{cm - pm:+9.4f}"
            print(f"{w:<8} {m['name']:<40} {pm:>14.4f} {cm:>14.4f} {delta:>9}")
    return 1 if any_worse else 0


def cmd_collect(args):
    bench = load_benchmark(args.root)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for seed in parse_seeds(args.seeds):
        for w in names:
            run_once(args.root, bench, w, seed, args.trace, args.out)
    return 0


def cmd_pairs(args):
    roots = {"parent": args.parent_root, "change": args.change_root}
    bench = load_benchmark(args.change_root)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in names:
            for side in order:
                run_once(roots[side], load_benchmark(roots[side]), w, seed, args.trace,
                         os.path.join(args.out, side))
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--root", default=".", help="checkout whose BENCHMARK.json to use")
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("set")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    for name in ("collect", "pairs"):
        c = sub.add_parser(name)
        if name == "pairs":
            c.add_argument("parent_root")
            c.add_argument("change_root")
        c.add_argument("out")
        c.add_argument("--workloads", default="")
        c.add_argument("--seeds", default="1-10")
        c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return {"spread": cmd_spread, "diff": cmd_diff, "collect": cmd_collect, "pairs": cmd_pairs}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
