"""Run sets, and the comparison two sets of runs are judged by.

``python3 -m benchmarks.e2e runs --repeat N --out A.json`` makes a set: N
untraced runs per workload, each a fresh process with its own seed.
``python3 -m benchmarks.e2e compare A.json B.json`` prints one row per
workload x end-to-end metric -- both medians, both quartile pairs, the
bound, and a status:

* ``ok``         B's median is no worse than A's by more than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` either set's own spread (quartile distance / median) is
  wider than the bound, so the sets cannot settle the question -- unless
  every run of B reads better than every run of A, which is ``ok``.

A bound of 0 marks an exact count: for runs of equal seed it must repeat
bit for bit, and ``compare`` checks exactly that.  The exit code is that of
the worst row (0 ok, 1 unresolved, 2 regressed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e import metrics as M

_MAIN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__main__.py")
OK, UNRESOLVED, REGRESSED = "ok", "unresolved", "regressed"
_EXIT = {OK: 0, UNRESOLVED: 1, REGRESSED: 2}


# -- making a set ----------------------------------------------------------------------------


def make_runs(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e runs")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--workload", action="append", choices=sorted(M.WORKLOAD_WHY))
    p.add_argument("--seed-base", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(M.RUN_SECONDS))
    p.add_argument("--quick", action="store_true")
    args = p.parse_args(argv)
    runs = []
    status = 0
    for workload in args.workload or list(M.WORKLOAD_WHY):
        for i in range(args.repeat):
            cmd = [
                sys.executable, _MAIN, "--workload", workload,
                "--seed", str(args.seed_base + i), "--seconds", str(args.seconds),
                "--trace", "0",
            ] + (["--quick"] if args.quick else [])
            done = subprocess.run(cmd, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if len(lines) < 2:
                sys.stderr.write(done.stderr)
                return 3
            report = json.loads(lines[-2])
            runs.append(report)
            status = max(status, done.returncode)
            print(
                f"{workload} seed {report['seed']}: correct={report['correct']} "
                f"round_s_p50={report['metrics']['round_s_p50']['value']:.4f} "
                f"({report['wall_s']:.1f} s)", flush=True,
            )
    with open(args.out, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


# -- comparing two sets ------------------------------------------------------------------------


def _load(path: str) -> Dict[str, List[dict]]:
    with open(path) as fh:
        data = json.load(fh)
    runs = data["runs"] if isinstance(data, dict) and "runs" in data else [data]
    by_workload: Dict[str, List[dict]] = {}
    for run in runs:
        if run.get("traced"):
            continue
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: Sequence[float]) -> float:
    q1, med, q3 = _quartiles(values)
    return (q3 - q1) / med if med else 0.0


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """Status of one workload x metric row (timed metrics)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(_spread(a), _spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return OK if all_better else UNRESOLVED
    return REGRESSED if worse_by > bound else OK


def judge_exact(runs_a: List[dict], runs_b: List[dict], name: str) -> str:
    """An exact count must be identical for runs of equal seed."""
    by_seed = {r["seed"]: r["metrics"][name]["value"] for r in runs_a}
    paired = [
        (by_seed[r["seed"]], r["metrics"][name]["value"])
        for r in runs_b if r["seed"] in by_seed
    ]
    if not paired:
        return UNRESOLVED
    return OK if all(x == y for x, y in paired) else REGRESSED


def compare(argv: List[str]) -> int:
    p = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e compare")
    p.add_argument("a")
    p.add_argument("b")
    args = p.parse_args(argv)
    set_a, set_b = _load(args.a), _load(args.b)
    worst = OK
    print(f"{'workload':13s} {'metric':26s} {'A med [q1, q3]':>34s} "
          f"{'B med [q1, q3]':>34s} {'bound':>6s}  status")
    for workload in M.WORKLOAD_WHY:
        runs_a, runs_b = set_a.get(workload), set_b.get(workload)
        if not runs_a or not runs_b:
            continue
        for name, unit, better, bound in M.END_TO_END:
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            if bound == 0.0:
                status = judge_exact(runs_a, runs_b, name)
            else:
                status = judge(a, b, better, bound)
            cells = []
            for values in (a, b):
                q1, med, q3 = _quartiles(values)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:13s} {name:26s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{bound:6.2f}  {status}  (n={len(a)},{len(b)} {unit})")
            if _EXIT[status] > _EXIT[worst]:
                worst = status
        for runs, label in ((runs_a, "A"), (runs_b, "B")):
            bad = [r["seed"] for r in runs if not r["correct"]]
            if bad:
                print(f"{workload:13s} set {label}: incorrect runs, seeds {bad}")
                worst = REGRESSED
    print(f"worst: {worst}")
    return _EXIT[worst]


