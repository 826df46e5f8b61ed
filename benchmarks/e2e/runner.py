"""Build a world, run measured rounds, report metrics.

One invocation is one run of one workload.  ``--trace 0`` is the untraced
run every end-to-end number comes from (``repro.obs`` is left uninstalled
and no wrapper is in place); ``--trace 1`` runs the same world untraced for
a while, then installs :mod:`benchmarks.e2e.trace` and reports where a
round's time goes.  The last stdout line is the driver's contract object;
the line before it (and ``--out``) carries the full report with the
effective config and environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from benchmarks.e2e import metrics as M
from benchmarks.e2e.trace import ROUND, Tracer, maybe_span
from benchmarks.e2e.worlds import WARMUP_ROUNDS, WINDOW_S, WORKLOADS, World

SETUP_REPEATS = 3
#: Measured rounds a full run makes even if ``--seconds`` runs out first.
MIN_ROUNDS = 100
#: The exact-count metrics are read after this many measured rounds, so
#: they do not depend on how many rounds the box fits into ``--seconds``.
PREFIX_ROUNDS = 64
QUICK_ROUNDS = 12
#: Faults a full untraced run must score for its verdict latency to count.
MIN_FAULTS = 10
MAX_UNATTRIBUTED = 0.10


def parse_args(argv: List[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=float(M.RUN_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help=f"12 machines, {QUICK_ROUNDS} rounds: the smoke-test size")
    p.add_argument("--out", help="also write the full report JSON here")
    p.add_argument("--trace-out",
                   help="with --trace 1: write Chrome trace-event JSON here")
    return p.parse_args(argv)


# -- set-up --------------------------------------------------------------------------------


def set_up(factory: Callable[..., World], seed: int, quick: bool) -> World:
    """World build + warm-up rounds: what ``setup_s`` times."""
    world = factory(seed, quick)
    try:
        for r in range(WARMUP_ROUNDS):
            world.prepare(r)
            world.round_t0 = t0 = time.perf_counter()
            world.step(r)
            world.program_s += time.perf_counter() - t0
            world.observe(r, world.program_s)
    except BaseException:
        world.close()
        raise
    return world


# -- the measured loop ------------------------------------------------------------------------


def run_rounds(world: World, first_round: int, seconds: float, min_rounds: int,
               max_rounds: Optional[int], tracer: Optional[Tracer] = None,
               at_round: Optional[Dict[int, Callable[[], None]]] = None
               ) -> List[float]:
    """Closed loop: one round after another until time and count are met.

    The cyclic collector is off while a round is timed; garbage is
    collected between rounds instead, outside the timed region.
    """
    times: List[float] = []
    deadline = time.perf_counter() + seconds
    r = first_round
    clock = time.perf_counter
    gc.disable()
    try:
        while True:
            world.prepare(r)
            gc.collect()
            world.round_t0 = t0 = clock()
            with maybe_span(tracer, ROUND):
                world.step(r)
            t1 = clock()
            world.program_s += t1 - t0
            world.observe(r, world.program_s)
            times.append(t1 - t0)
            r += 1
            if at_round and len(times) in at_round:
                at_round[len(times)]()
            if max_rounds is not None and len(times) >= max_rounds:
                break
            if len(times) >= min_rounds and clock() >= deadline:
                break
    finally:
        gc.enable()
    return times


def age(world: World) -> int:
    """Fill the stores before measuring; returns the first measured round.

    Not part of ``setup_s`` (a deployment pays it once, over its first
    minutes) and not measured: until every ring has wrapped and the coarse
    tiers are full, each round costs more than the one before.
    """
    run_rounds(world, WARMUP_ROUNDS, 0.0, world.ageing_rounds, world.ageing_rounds)
    gc.collect()
    gc.freeze()
    return WARMUP_ROUNDS + world.ageing_rounds


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


# -- the untraced run: end-to-end metrics --------------------------------------------------------


def run_untraced(args: argparse.Namespace) -> Tuple[Dict[str, object], World]:
    factory = WORKLOADS[args.workload]
    setups: List[float] = []
    world: Optional[World] = None
    for i in range(1 if args.quick else SETUP_REPEATS):
        if world is not None:
            world.close()
            del world
            gc.collect()
        t0 = time.perf_counter()
        world = set_up(factory, args.seed, args.quick)
        setups.append(time.perf_counter() - t0)
    assert world is not None
    first = age(world)
    prefix_rounds = QUICK_ROUNDS if args.quick else PREFIX_ROUNDS
    rows0 = world.rows_applied()
    wire0 = world.wire_bytes()
    prefix: Dict[str, float] = {}

    def take_prefix() -> None:
        prefix["rows"] = world.rows_applied() - rows0
        prefix["wire_bytes"] = world.wire_bytes() - wire0
        prefix["history_bytes"] = world.history_bytes()["total"]
        prefix["last_round"] = first + prefix_rounds - 1

    times = run_rounds(
        world, first, args.seconds,
        min_rounds=QUICK_ROUNDS if args.quick else MIN_ROUNDS,
        max_rounds=QUICK_ROUNDS if args.quick else None,
        at_round={prefix_rounds: take_prefix},
    )
    rows = world.rows_applied() - rows0
    world.quiesce()
    world.check_mirrors()
    oracle = world.oracle
    oracle.finish()

    verdict_s, _, scored = oracle.verdict_latency()
    in_prefix = [
        f.verdict_round - f.bump_round + 1 for f in oracle.scored()
        if first <= f.bump_round and f.verdict_round <= prefix["last_round"]
    ]
    problems = list(oracle.failures)
    if not args.quick and scored < MIN_FAULTS:
        problems.append(f"only {scored} faults scored, need {MIN_FAULTS}")
    if verdict_s is None or not in_prefix:
        problems.append("no fault was scored, verdict latency is undefined")
        verdict_s, in_prefix = 0.0, [0.0]

    values = {
        "setup_s": statistics.median(setups),
        "round_s_p50": statistics.median(times),
        "round_s_p90": p90(times),
        "records_per_s": rows / sum(times),
        "verdict_s_p50": verdict_s,
        "verdict_rounds_p50": float(statistics.median(in_prefix)),
        "wire_bytes_per_record": prefix["wire_bytes"] / prefix["rows"],
        "history_bytes_per_machine": prefix["history_bytes"] / world.machine_count(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "correct": oracle.failed == 0 and not problems,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in M.END_TO_END
        },
        "samples": {
            "rounds": len(times), "warmup_rounds": WARMUP_ROUNDS,
            "ageing_rounds": world.ageing_rounds,
            "setups": setups, "faults_injected": len(oracle.faults),
            "faults_scored": scored, "prefix_rounds": prefix_rounds,
            "exact": {
                "prefix_rows": prefix["rows"],
                "prefix_wire_bytes": prefix["wire_bytes"],
                "prefix_history_bytes": prefix["history_bytes"],
                "fault_placement": [
                    [f.kind, f.machine or f.tenant, f.row or f.root, f.start]
                    for f in oracle.faults if f.start <= prefix["last_round"]
                ],
            },
        },
        "problems": problems,
    }
    return report, world


# -- the traced run: per-layer metrics ------------------------------------------------------------


def run_traced(args: argparse.Namespace) -> Tuple[Dict[str, object], World]:
    world = set_up(WORKLOADS[args.workload], args.seed, args.quick)
    quick = args.quick
    first = age(world)
    rows0 = world.rows_applied()
    monitor0 = world.daemon_stats()["monitor_s"]
    plain = run_rounds(
        world, first, 0.35 * args.seconds,
        min_rounds=4 if quick else 20, max_rounds=4 if quick else None,
    )
    tracer = Tracer()
    tracer.install()
    world.set_tracer(tracer)
    batch0, wire0 = world.batch_bytes(), world.wire_bytes()
    try:
        traced = run_rounds(
            world, first + len(plain), 0.65 * args.seconds,
            min_rounds=8 if quick else 30, max_rounds=8 if quick else None,
            tracer=tracer,
        )
    finally:
        tracer.uninstall()
        world.set_tracer(None)
    n = len(traced)
    batch = world.batch_bytes() - batch0
    zone_report = (world.wire_bytes() - wire0) - batch
    world.quiesce()
    world.check_mirrors()
    oracle = world.oracle
    oracle.finish()

    stats = tracer.analyse()
    values: Dict[str, float] = {}
    by_layer = {layer: 0.0 for layer in M.LAYERS}
    intended = 0.0
    for name, row in stats.items():
        if name == ROUND:
            continue
        values[f"{name}.self_ms"] = row["self_s"] / n * 1e3
        values[f"{name}.calls"] = row["calls"] / n
        by_layer[M.layer_of(name)] += row["self_s"]
        if name.startswith(M.INTENDED[args.workload]):
            intended += row["self_s"]
    total_self = sum(by_layer.values())
    for layer, self_s in by_layer.items():
        values[f"share.{layer}"] = self_s / total_self
    values["share.intended"] = intended / total_self

    agents = list(world.agents().values())
    pushes = sum(a.total_pushes for a in agents)
    skips = sum(a.total_push_skips for a in agents)
    values["agent.push_useful_ratio"] = pushes / (pushes + skips) if pushes + skips else 0.0
    values["agent.modeled_cpu_frac"] = (
        sum(a.total_cpu_s for a in agents) / (len(agents) * world.sim.now)
    )
    mirrors = list(world.mirrors())
    offered = sum(m.snapshots_received for m in mirrors)
    values["store.apply_blocks.rows"] = (offered - rows0) / (len(plain) + n)
    values["store.dedup_ratio"] = (
        sum(m.store.total_appended for m in mirrors) / offered
    )
    values["store.rebaselines"] = float(world.rebaselines())
    history = world.history_bytes()
    values["tiers.nbytes.fine"] = float(history["fine"])
    values["tiers.nbytes.coarse"] = float(history.get("coarse", 0))
    values["codec.encode_batch_response.bytes"] = batch / n
    values["codec.encode_zone_report.bytes"] = zone_report / n
    exchanges = sorted(tracer.durations("net.client.collect_blocks"))
    values["net.client.collect_blocks.ms_p50"] = (
        statistics.median(exchanges) * 1e3 if exchanges else 0.0
    )
    values["net.client.collect_blocks.ms_p90"] = (
        p90(exchanges) * 1e3 if len(exchanges) > 1 else 0.0
    )
    wire = world.wire_stats()
    values["net.client.retries"] = wire["retries"]
    values["net.server.connections"] = wire["connections"]
    values["controller.mirror.sync.failed"] = float(
        sum(m.failed_syncs for m in mirrors)
    )
    daemon = world.daemon_stats()
    values["daemon.monitor_share"] = (
        (daemon["monitor_s"] - monitor0) / (sum(plain) + sum(traced))
    )
    values["daemon.opened"] = daemon["opened"]
    values["daemon.deferred"] = daemon["deferred"]
    values["daemon.false_alarms"] = daemon["false_alarms"]
    rounds = stats[ROUND]
    unattributed = rounds["self_s"] / rounds["total_s"]
    values["trace.unattributed_share"] = unattributed
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    values["trace.rounds"] = float(n)

    problems = list(oracle.failures)
    if unattributed > MAX_UNATTRIBUTED:
        problems.append(
            f"{unattributed:.1%} of round wall is under no span "
            f"(limit {MAX_UNATTRIBUTED:.0%})"
        )
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out)
    report = {
        "correct": oracle.failed == 0 and not problems,
        "attempted": oracle.attempted,
        "failed": oracle.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in M.per_layer()
        },
        "samples": {
            "untraced_rounds": len(plain), "traced_rounds": n,
            "untraced_round_s_p50": statistics.median(plain),
            "traced_round_s_p50": statistics.median(traced),
            "spans": tracer.span_count(),
        },
        "problems": problems,
    }
    return report, world


# -- entry point ---------------------------------------------------------------------------------


def git_head() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    report, world = (run_traced if args.trace else run_untraced)(args)
    try:
        config = world.config()
    finally:
        world.close()
    full = dict(report)
    full.update({
        "bench": "benchmarks.e2e",
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "config": dict(
            config, window_s=WINDOW_S, seconds=args.seconds, quick=args.quick,
            warmup_rounds=WARMUP_ROUNDS, setup_repeats=SETUP_REPEATS,
            load="closed loop, one driver thread",
        ),
        "env": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "git_head": git_head(),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
            "perfsight_env": sorted(k for k in os.environ if k.startswith("PERFSIGHT_")),
            "gc": "disabled in rounds, collect() between, set-up frozen",
        },
        "wall_s": time.perf_counter() - started,
    })
    for name, metric in report["metrics"].items():
        print(f"{name:48s} {metric['value']!r} {metric['unit']}")
    for key in ("samples", "problems"):
        print(f"{key}: {json.dumps(full[key])}")
    if args.workload == "wire_tcp":
        print("transport: traffic crossed the host's loopback interface (127.0.0.1), "
              "not a real link")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(full, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(full, sort_keys=True))
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed", "metrics")}))
    sys.stdout.flush()
    return 0 if report["correct"] else 1
