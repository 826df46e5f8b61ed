"""The metric tables: names, units, direction and bounds, in one place.

``BENCHMARK.json`` at the repository root is generated from these tables
(``python3 -m benchmarks.e2e manifest``); the smoke test checks the two
agree and that a run reports exactly these names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from benchmarks.e2e.trace import LOADGEN, ROUND, SPAN_NAMES

RUN_SECONDS = 20

#: name, unit, better, bound (share of the parent's median the metric may
#: worsen by before a change counts as a regression).  The timed bounds are
#: what this shared 2-core box can resolve: sets of ten runs of one commit
#: spread 5-9% (quartile distance / median) in a quiet half hour and up to
#: 16% in a busy one, from neighbours' cache and memory traffic alone, so a
#: tighter bound would only ever read "unresolved".
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    # World build + the discarded warm-up rounds, median of three set-ups.
    ("setup_s", "s", "lower", 0.25),
    # Wall time of one full tick -> verdict round.
    ("round_s_p50", "s", "lower", 0.25),
    ("round_s_p90", "s", "lower", 0.25),
    # Mirror rows applied / measured wall.
    ("records_per_s", "rec/s", "higher", 0.25),
    # Driver wall time from a fault's first counter bump to its first
    # correct root-visible verdict, median over the faults scored.
    ("verdict_s_p50", "s", "lower", 0.25),
    # The same in rounds: an exact count over a fixed prefix of the run.
    ("verdict_rounds_p50", "rounds", "lower", 0.0),
    # bin1 BATCH_DELTA + ZONE_REPORT frame bytes / records, fixed prefix.
    ("wire_bytes_per_record", "B/rec", "lower", 0.05),
    # store_nbytes()["total"] / machines at the end of the fixed prefix.
    ("history_bytes_per_machine", "B", "lower", 0.05),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: Span names grouped into layers (= module names) for the share metrics.
LAYERS: Tuple[str, ...] = (
    "simnet", "channels", "agent", "store", "tiers", "codec", "net", "controller",
    "daemon", "diagnosis", "rulebook", "report", "sketches", "query", "loadgen",
)

#: The layers each workload exists to stress (span-name prefixes).
INTENDED: Dict[str, Tuple[str, ...]] = {
    "fleet_steady": ("agent.", "store.", "channels.", "controller.zone.ingest_push"),
    "fleet_scan": (
        "diagnosis.", "store.window_ending_now", "store.latest", "tiers.window",
        "report.", "rulebook.", "query.", "sketches.",
    ),
    "wire_tcp": ("net.", "codec.", "controller.mirror.sync"),
    "sim_chain": ("simnet.",),
}

_TRACED = tuple(n for n in SPAN_NAMES if n != ROUND)

_EXTRA_PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("share.intended", "ratio", "higher"),
    ("agent.push_useful_ratio", "ratio", "higher"),
    ("agent.modeled_cpu_frac", "ratio", "lower"),
    ("store.apply_blocks.rows", "rows/round", "lower"),
    ("store.dedup_ratio", "ratio", "higher"),
    ("store.rebaselines", "count", "lower"),
    ("tiers.nbytes.fine", "B", "lower"),
    ("tiers.nbytes.coarse", "B", "lower"),
    ("codec.encode_batch_response.bytes", "B/round", "lower"),
    ("codec.encode_zone_report.bytes", "B/round", "lower"),
    ("net.client.collect_blocks.ms_p50", "ms", "lower"),
    ("net.client.collect_blocks.ms_p90", "ms", "lower"),
    ("net.client.retries", "count", "lower"),
    ("net.server.connections", "count", "lower"),
    ("controller.mirror.sync.failed", "count", "lower"),
    ("daemon.monitor_share", "ratio", "lower"),
    ("daemon.opened", "count", "lower"),
    ("daemon.deferred", "count", "lower"),
    ("daemon.false_alarms", "count", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.rounds", "count", "higher"),
)


def per_layer() -> List[Tuple[str, str, str]]:
    """name, unit, better -- every metric of the traced run."""
    out: List[Tuple[str, str, str]] = []
    for name in _TRACED:
        out.append((f"{name}.self_ms", "ms/round", "lower"))
        out.append((f"{name}.calls", "1/round", "lower"))
    out.extend((f"share.{layer}", "ratio", "lower") for layer in LAYERS)
    out.extend(_EXTRA_PER_LAYER)
    return out


def layer_of(span_name: str) -> str:
    return "loadgen" if span_name == LOADGEN else span_name.split(".", 1)[0]


WORKLOAD_WHY: Dict[str, str] = {
    "fleet_steady": (
        "replay fleet 48x20 elements, 4 zones, agents pushing: collection writes "
        "(sweep, push, mirror apply, tiers) dominate; store/agent changes show here"
    ),
    "fleet_scan": (
        "same fleet pulled through, full Algorithm-1 scan + 8 Algorithm-2 chains + 400 "
        "Fig-6 reads a round: mirror reads and diagnosis dominate; reads beside writes"
    ),
    "wire_tcp": (
        "48 agents behind loopback TCP servers, bin1 refresh + ZONE_REPORT to a real "
        "FleetServer, partitions: client/server/codec dominate, store does little"
    ),
    "sim_chain": (
        "real simulated dataplane at 1 ms ticks, 3 receivers + one tenant chain: simnet "
        "dominates, PerfSight is a small share; collection gains must read no change"
    ),
}


def manifest() -> Dict[str, object]:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in per_layer()
        ],
    }
