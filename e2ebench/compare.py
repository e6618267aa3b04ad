#!/usr/bin/env python3
"""Collects benchmark runs and compares two sets of them.

  collect  runs run.py once per (workload, seed) and saves each result
           line as DIR/<workload>-seed<N>.json
             python3 e2ebench/compare.py collect DIR --seeds 1-10
  pairs    the same for two checkouts, alternating which one runs first
           per seed, into DIR/parent and DIR/change
             python3 e2ebench/compare.py pairs PARENT_ROOT CHANGE_ROOT DIR
  spread   per workload and metric of one set: median, quartiles and
           spread (Q3 - Q1) / median against the metric's bound
             python3 e2ebench/compare.py spread DIR
  compare  parent set against change set, pairing runs by seed: each
           side's median and quartiles, the share of pairs the change
           won, the bound, and a verdict
             python3 e2ebench/compare.py compare PARENT_DIR CHANGE_DIR

A metric is "unresolved" when either side's spread is wider than its
bound, unless every change run beats every parent run; "regressed" when
the change's median is worse than the parent's by more than the bound;
"improved" only when the change wins at least 9/10 of the pairs (ties
count for neither) and the medians differ by more than the parent's
own quartile distance.
"""
import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = m
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return spec, metrics


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def load_runs(directory):
    """{workload: {seed: result}} from DIR/<workload>-seed<N>.json."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-seed*.json"))):
        m = re.match(r"(.+)-seed(\d+)\.json$", os.path.basename(path))
        if not m:
            continue
        with open(path) as f:
            runs.setdefault(m.group(1), {})[int(m.group(2))] = json.load(f)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def values_of(runs, name):
    return [r["metrics"][name]["value"] for _, r in sorted(runs.items())
            if name in r["metrics"] and r["metrics"][name]["value"] is not None]


def run_one(root, out_dir, workload, seed, seconds, trace):
    """Runs root's run.py once and saves its result line; False on failure."""
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(root, "e2ebench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", trace]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=root)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{root}: {workload} seed {seed}: exit {done.returncode}")
        return False
    with open(os.path.join(out_dir, f"{workload}-seed{seed}.json"), "w") as f:
        f.write(lines[-1] + "\n")
    print(f"{root}: {workload} seed {seed}: {lines[-1][:100]}...")
    return True


def plan(args):
    spec, _ = load_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    return workloads, parse_seeds(args.seeds), str(args.seconds or spec["run_seconds"])


def cmd_collect(args):
    workloads, seeds, seconds = plan(args)
    ok = True
    for workload in workloads:
        for seed in seeds:
            ok &= run_one(ROOT, args.dir, workload, seed, seconds, args.trace)
    return 0 if ok else 1


def cmd_pairs(args):
    workloads, seeds, seconds = plan(args)
    sides = [(os.path.abspath(args.parent_root), os.path.join(args.dir, "parent")),
             (os.path.abspath(args.change_root), os.path.join(args.dir, "change"))]
    ok = True
    for workload in workloads:
        for i, seed in enumerate(seeds):
            for root, out in (sides if i % 2 == 0 else sides[::-1]):
                ok &= run_one(root, out, workload, seed, seconds, args.trace)
    return 0 if ok else 1


def cmd_spread(args):
    _, metrics = load_spec()
    worst = 0
    for workload, runs in sorted(load_runs(args.dir).items()):
        print(f"{workload} ({len(runs)} runs)")
        names = sorted({n for r in runs.values() for n in r["metrics"]},
                       key=lambda n: list(metrics).index(n) if n in metrics else 1e9)
        for name in names:
            vals = values_of(runs, name)
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            bound = (metrics.get(name) or {}).get("bound")
            s = spread(vals)
            flag = ""
            if bound is not None:
                flag = "ok" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
                worst = max(worst, 0 if s < bound / 3 else 1 if s <= bound else 2)
            print(f"  {name:28s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {s:7.4f}  bound {bound if bound is not None else '-':>5}  {flag}")
    return 1 if worst == 2 else 0


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    all_better = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if bound is not None and (spread(parent) > bound or spread(change) > bound) and not all_better:
        return "unresolved"
    worse_by = sign * (pm - cm) / abs(pm) if pm else 0.0
    if bound is not None and worse_by > bound:
        return "regressed"
    return None


def cmd_compare(args):
    _, metrics = load_spec()
    parent, change = load_runs(args.parent), load_runs(args.change)
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        seeds = sorted(set(p_runs) & set(c_runs))
        print(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs, "
              f"{len(seeds)} pairs")
        names = [n for n in metrics if any(n in r["metrics"] for r in p_runs.values())]
        for name in names:
            spec = metrics[name]
            pv, cv = values_of(p_runs, name), values_of(c_runs, name)
            if not pv or not cv:
                continue
            sign = 1 if spec["better"] == "higher" else -1
            wins = ties = 0
            for s in seeds:
                a = p_runs[s]["metrics"][name]["value"]
                b = c_runs[s]["metrics"][name]["value"]
                if a == b:
                    ties += 1
                elif (b - a) * sign > 0:
                    wins += 1
            pq, cq = quartiles(pv), quartiles(cv)
            v = verdict(pv, cv, spec["better"], spec["bound"])
            if v is None:
                improved = (seeds and wins >= 0.9 * len(seeds)
                            and abs(cq[1] - pq[1]) > (pq[2] - pq[0])
                            and (cq[1] - pq[1]) * sign > 0)
                v = "improved" if improved else "no change"
            bound = spec["bound"] if spec["bound"] is not None else "-"
            print(f"  {name:28s} parent {pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]  "
                  f"change {cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
                  f"won {wins}/{len(seeds)} (ties {ties})  bound {bound}  {v}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    r = sub.add_parser("pairs")
    r.add_argument("parent_root")
    r.add_argument("change_root")
    r.add_argument("dir")
    for q in (c, r):
        q.add_argument("--seeds", default="1-10")
        q.add_argument("--workloads", default="")
        q.add_argument("--seconds", type=int, default=0)
        q.add_argument("--trace", default="0", choices=["0", "1"])
    s = sub.add_parser("spread")
    s.add_argument("dir")
    p = sub.add_parser("compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = ap.parse_args()
    commands = {"collect": cmd_collect, "pairs": cmd_pairs, "spread": cmd_spread,
                "compare": cmd_compare}
    return commands[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
