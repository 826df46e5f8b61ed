"""Fleet collection benchmark: serial vs. concurrent refresh fan-out.

Against a fleet, the controller's refresh cost decides the collection
cadence: syncing agents one after another costs the *sum* of per-agent
round trips, fanning them out over the worker pool costs roughly the
*max*.  This benchmark builds an 8-machine fleet whose agent handles
each inject ~20 ms of wire latency per BATCH_DELTA exchange — the shape
of a real management network, where the exchange is dominated by RTT,
not by serialization — and measures both schedules.

Expected: serial ≈ N x latency, concurrent ≈ latency (plus pool
overhead), so the speedup should approach N.  The assertion demands a
conservative 3x so the benchmark stays robust on loaded CI runners.

``PERFSIGHT_FLEET_ROUNDS`` (default 3) sets how many rounds each
schedule is measured over (medians taken); CI's quick mode uses the
default and uploads ``benchmarks/out/BENCH_perf_fleet.json``.
"""

import os
import time

from repro.core.controller import Controller
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness

AGENTS = 8
LATENCY_S = 0.020
ROUNDS = int(os.environ.get("PERFSIGHT_FLEET_ROUNDS", "3"))
MIN_SPEEDUP = 3.0


class LatencyHandle:
    """AgentHandle proxy injecting wall-clock wire latency per exchange."""

    def __init__(self, agent, latency_s: float) -> None:
        self._agent = agent
        self._latency_s = latency_s
        self.name = agent.name

    def query(self, element_ids=None, attrs=None):
        time.sleep(self._latency_s)
        return self._agent.query(element_ids, attrs)

    def element_ids(self):
        return self._agent.element_ids()

    def stack_element_ids(self):
        return [e.name for e in self._agent.machine.stack_elements()]

    def collect_blocks(self, acked=None):
        time.sleep(self._latency_s)
        return self._agent.collect_blocks(acked)


def build_fleet():
    h = Harness()
    controller = Controller("bench-fleet", max_workers=AGENTS)
    for i in range(AGENTS):
        machine = h.add_machine(f"m{i}")
        vm = machine.add_vm("vm0", vcpu_cores=1.0)
        h.register_app(Proxy(h.sim, vm, f"proxy{i}"))
    h.advance(0.5)
    for i in range(AGENTS):
        agent = h.agents[f"m{i}"]
        agent.poll_once()
        controller.register_agent(f"m{i}", LatencyHandle(agent, LATENCY_S))
    return h, controller


def median_wall_s(fn, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def test_concurrent_refresh_beats_serial(paper_report):
    _, controller = build_fleet()
    # Warm both paths once (lazy state, thread-pool spin-up).
    controller.refresh()
    controller.refresh_concurrent()

    serial_s = median_wall_s(lambda: controller.refresh(), ROUNDS)
    concurrent_s = median_wall_s(lambda: controller.refresh_concurrent(), ROUNDS)

    # One instrumented round for the per-machine/fan-out evidence.
    report = controller.refresh_report()
    speedup = serial_s / concurrent_s

    paper_report(
        "perf_fleet",
        "\n".join(
            [
                f"fleet: {AGENTS} agents, {LATENCY_S * 1e3:.0f} ms injected "
                f"latency per BATCH_DELTA exchange",
                f"serial refresh (sum of RTTs):      {serial_s * 1e3:8.1f} ms",
                f"concurrent refresh (max of RTTs):  "
                f"{concurrent_s * 1e3:8.1f} ms",
                f"speedup: {speedup:.1f}x "
                f"(peak {report.peak_workers} workers)",
            ]
        ),
        data={
            "config": {
                "agents": AGENTS,
                "latency_s": LATENCY_S,
                "rounds": ROUNDS,
            },
            "serial_wall_s": serial_s,
            "concurrent_wall_s": concurrent_s,
            "serial_syncs_per_s": AGENTS / serial_s,
            "concurrent_syncs_per_s": AGENTS / concurrent_s,
            "speedup": speedup,
            "peak_workers": report.peak_workers,
        },
    )
    assert report.peak_workers > 1, "fan-out never ran two syncs at once"
    assert not report.failed, f"syncs failed during benchmark: {report.failed}"
    assert speedup >= MIN_SPEEDUP, (
        f"concurrent refresh only {speedup:.1f}x faster than serial "
        f"(expected >= {MIN_SPEEDUP}x for {AGENTS} agents at "
        f"{LATENCY_S * 1e3:.0f} ms each)"
    )
