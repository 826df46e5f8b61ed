"""Collection-plane micro-benchmark: per-query pull vs. mirror lookup.

The Figure-6 refactor from a synchronous agent pull per query to an
O(1) window lookup against the controller's delta-batched mirror store,
on the Figure-16 machine shape (8 VMs, one Proxy middlebox each,
1000-query sweep).  Writes ``BENCH_perf_collection.json``.
"""

import time

from repro.cluster.topology import Tenant
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness

QUERIES = 1000
#: Timing passes per path; the minimum is reported.  The lookup loop is
#: only a few ms long, so when the whole benchmark dir runs in one
#: process a single GC pause inherited from the heavyweight figure
#: benchmarks can double one sample.
PASSES = 3


def build_world():
    h = Harness()
    machine = h.add_machine("m1")
    for i in range(8):
        vm = machine.add_vm(f"vm{i}", vcpu_cores=1.0)
        h.register_app(Proxy(h.sim, vm, f"proxy{i}"))
    tenant = Tenant("t1")
    for eid in h.agents["m1"].element_ids():
        tenant.vnet.register_element(eid, "m1", eid)
    h.controller.register_tenant(tenant)
    return h


def test_mirror_lookup_vs_per_query_pull(paper_report):
    h = build_world()
    agent = h.agents["m1"]
    controller = h.controller
    element_ids = agent.element_ids()

    # Seed history: a few cadence sweeps, then one delta-batched refresh.
    agent.start_polling(0.1)
    h.advance(1.0)
    controller.refresh("m1")

    mirror_store = controller.mirror_for("m1").store
    pull_s = lookup_s = float("inf")
    for _ in range(PASSES):
        # Legacy path: every query is a fresh agent pull of its element.
        t0 = time.perf_counter()
        for q in range(QUERIES):
            eid = element_ids[q % len(element_ids)]
            record = controller.query_machine("m1", [eid])[0]
            record.get("rx_bytes")
        pull_s = min(pull_s, time.perf_counter() - t0)

        # Refactored path: the same sweep as trailing-window lookups.
        t1 = time.perf_counter()
        for q in range(QUERIES):
            eid = element_ids[q % len(element_ids)]
            mirror_store.window_ending_now(eid, 0.5).rate("rx_bytes")
        lookup_s = min(lookup_s, time.perf_counter() - t1)

    speedup = pull_s / lookup_s
    text = "\n".join(
        [
            f"machine: 8 VMs x Proxy, {len(element_ids)} elements",
            f"{QUERIES}-query sweep, per-query agent pull: "
            f"{pull_s * 1e3:8.2f} ms ({pull_s / QUERIES * 1e6:6.1f} us/query)",
            f"{QUERIES}-query sweep, mirror window lookup: "
            f"{lookup_s * 1e3:8.2f} ms ({lookup_s / QUERIES * 1e6:6.1f} us/query)",
            f"speedup: {speedup:.1f}x",
        ]
    )
    data = {
        "config": {"vms": 8, "elements": len(element_ids), "queries": QUERIES},
        "pull_wall_s": pull_s,
        "lookup_wall_s": lookup_s,
        "pull_ops_per_s": QUERIES / pull_s,
        "lookup_ops_per_s": QUERIES / lookup_s,
        "speedup": speedup,
    }
    paper_report("perf_collection", text, data=data)
    assert speedup >= 5.0, f"mirror lookup only {speedup:.1f}x faster than pull"
