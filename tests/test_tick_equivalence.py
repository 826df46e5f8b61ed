"""The compiled tick against the loop it replaced.

``Simulator.step`` walks a plan compiled per structure version and
``Element``/``Buffer``/``CounterSet`` run their per-tick arithmetic from
flattened tables and inlined fast paths.  The code they replaced is kept
here, written out the slow way, as the oracle: :class:`ReferenceSimulator`
is the four-phase loop over every component and every resource, and
:func:`reference_datapath` swaps the old hook bodies back in.  Both
engines drive the same seeded worlds through the same scripts and must
agree with ``==`` — not approximately — on every counter, buffer total,
resource total and on the RNG state, because every float has to come out
of the same operations in the same order.
"""

import heapq
from contextlib import contextmanager
from typing import List

import pytest

from repro.cluster.chains import build_chain
from repro.core.counters import CounterSet
from repro.core.extensions import PacketSizeHistogram
from repro.dataplane.queue_element import QueueElement
from repro.middleboxes.http import HttpClient, HttpServer
from repro.middleboxes.proxy import Proxy
from repro.scenarios.common import Harness
from repro.simnet.buffers import _CRUMB_BYTES, _CRUMB_PKTS, _EPS, Buffer
from repro.simnet.element import Element
from repro.simnet.engine import Component, Simulator
from repro.simnet.packet import Flow, PacketBatch
from repro.simnet.resources import Resource, SubResource
from repro.workloads.faults import inject_perf_bug
from repro.workloads.stress import CpuHog
from repro.workloads.traffic import ExternalTrafficSource, VmUdpSender

# -- the oracle: the engine loop -------------------------------------------------------


class ReferenceSimulator(Simulator):
    """The four-phase loop, as it was before the tick plan."""

    def step(self) -> None:
        horizon = self._horizon()
        while self._events and self._events[0][0] <= horizon:
            _, _, fn = heapq.heappop(self._events)
            fn()

        for comp in self._components:
            comp.begin_tick(self)

        for phase in (0, 1):
            for res in reversed(self._resources):
                if res.phase == phase:
                    res.aggregate_demand(self)
            for res in self._resources:
                if res.parent is None and res.phase == phase:
                    res.allocate(self)
            if phase == 0:
                for comp in self._components:
                    comp.mid_tick(self)

        for comp in self._components:
            comp.process_tick(self)
        for comp in self._components:
            comp.end_tick(self)
        for res in self._resources:
            res.finish_tick(self)

        self.tick_index += 1
        self.now = self.tick_index * self.tick


# -- the oracle: the per-tick arithmetic -----------------------------------------------


def _ref_begin_tick(self, sim):
    if self.in_buf is None:
        return
    pkts = self.in_buf.pkts
    nbytes = self.in_buf.nbytes
    self._overhead_owed_s += self.counters.drain_update_cost()
    for c in self.claims:
        if c.resource.phase != 0:
            continue
        demand = c.demand_for(pkts, nbytes)
        if c.is_cpu:
            demand += self._overhead_owed_s
        if demand > 0:
            c.resource.request(self.name, demand, c.weight, c.priority)


def _ref_mid_tick(self, sim):
    late = [c for c in self.claims if c.resource.phase != 0]
    if self.in_buf is None or not late:
        return
    pkts = self.in_buf.pkts
    nbytes = self.in_buf.nbytes
    if pkts <= 0:
        return
    avg = nbytes / pkts
    ceil_pkts = float("inf")
    for c in self.claims:
        if c.resource.phase != 0:
            continue
        unit = c.per_pkt + c.per_byte * avg
        if unit > 0:
            ceil_pkts = min(ceil_pkts, c.resource.grant(self.name) / unit)
    if self.rate_pps is not None:
        ceil_pkts = min(ceil_pkts, self.rate_pps * sim.tick)
    if self.rate_bps is not None and avg > 0:
        ceil_pkts = min(ceil_pkts, self.rate_bps / 8.0 * sim.tick / avg)
    eff_pkts = min(pkts, ceil_pkts)
    eff_bytes = eff_pkts * avg
    for c in late:
        demand = c.demand_for(eff_pkts, eff_bytes)
        if demand > 0:
            c.resource.request(self.name, demand, c.weight, c.priority)


def _ref_process_tick(self, sim):
    if self.in_buf is None:
        return
    budgets: List[List[float]] = []
    for c in self.claims:
        grant = c.resource.grant(self.name)
        if c.is_cpu:
            pay = min(grant, self._overhead_owed_s)
            grant -= pay
            self._overhead_owed_s -= pay
        if c.per_pkt == 0.0 and c.per_byte == 0.0:
            continue
        budgets.append([c.per_pkt, c.per_byte, grant])
    if self.rate_pps is not None:
        budgets.append([1.0, 0.0, self.rate_pps * sim.tick])
    if self.rate_bps is not None:
        budgets.append([0.0, 1.0, self.rate_bps / 8.0 * sim.tick])
    budgets.extend(self.extra_budgets(sim))
    if self.in_buf.ready_pkts > 0:
        batches = self.in_buf.pop_budgeted(budgets)
        for batch in batches:
            if self.count_rx_on_process:
                self.counters.count_rx(batch.pkts, batch.nbytes)
            for cc in self.custom_counters:
                cc.observe(batch)
                self._overhead_owed_s += cc.update_cost_s
            for out_batch in self.transform(batch):
                self._emit(out_batch)
    extra_pkts = float("inf")
    extra_bytes = float("inf")
    for per_pkt, per_byte, remaining in budgets:
        rem = max(0.0, remaining)
        if per_pkt > 0:
            extra_pkts = min(extra_pkts, rem / per_pkt)
        if per_byte > 0:
            extra_bytes = min(extra_bytes, rem / per_byte)
    self.in_buf.report_service_credit(extra_pkts, extra_bytes)


def _ref_emit(self, batch):
    target = self.route(batch)
    if target is None:
        self.counters.count_tx(batch.pkts, batch.nbytes)
        return
    if isinstance(target, Buffer):
        accepted = target.push(batch)
        if not accepted.empty:
            self.counters.count_tx(accepted.pkts, accepted.nbytes)
    else:
        self.counters.count_tx(batch.pkts, batch.nbytes)
        target(batch)


def _ref_charge(self, simple=0.0, time=0.0):
    self._pending_update_cost_s += self.overhead.cost_for(simple, time)


def _ref_count_rx(self, pkts, nbytes):
    self.rx_pkts += pkts
    self.rx_bytes += nbytes
    self._version += 1
    _ref_charge(self, simple=2.0 * pkts)


def _ref_count_tx(self, pkts, nbytes):
    self.tx_pkts += pkts
    self.tx_bytes += nbytes
    self._version += 1
    _ref_charge(self, simple=2.0 * pkts)


def _ref_count_drop(self, location, pkts, nbytes, flow_id=None):
    self.drops[location] = self.drops.get(location, 0.0) + pkts
    self.drop_bytes[location] = self.drop_bytes.get(location, 0.0) + nbytes
    if flow_id is not None:
        self.drops_by_flow[flow_id] = self.drops_by_flow.get(flow_id, 0.0) + pkts
    self._version += 1
    _ref_charge(self, simple=2.0 * pkts)


def _ref_space_pkts(self):
    if self.capacity_pkts is None:
        return float("inf")
    return max(0.0, self.capacity_pkts - self.pkts)


def _ref_space_bytes(self):
    if self.capacity_bytes is None:
        return float("inf")
    return max(0.0, self.capacity_bytes - self.nbytes)


_planned_push = Buffer.push


def _ref_push(self, batch):
    if batch.empty or (batch.pkts < _CRUMB_PKTS and batch.nbytes < _CRUMB_BYTES):
        return batch
    if self.policy == "drop":
        self._staged.append(batch)
        self._staged_pkts += batch.pkts
        self._staged_bytes += batch.nbytes
        self.total_in_pkts += batch.pkts
        self.total_in_bytes += batch.nbytes
        return batch
    # The blocking-buffer admission below this point was not touched.
    return _planned_push(self, batch)


def _ref_pop_budgeted(self, costs):
    out = []
    while self._ready:
        head = self._ready[0]
        if head.pkts < _CRUMB_PKTS and head.nbytes < _CRUMB_BYTES:
            self._ready.popleft()
            self._ready_pkts = max(0.0, self._ready_pkts - head.pkts)
            self._ready_bytes = max(0.0, self._ready_bytes - head.nbytes)
            continue
        frac = 1.0
        for entry in costs:
            per_pkt, per_byte, budget = entry
            cost = per_pkt * head.pkts + per_byte * head.nbytes
            if cost > budget:
                frac = min(frac, budget / cost if cost > 0 else 1.0)
        if frac <= _EPS:
            break
        if frac >= 1.0 - 1e-12:
            taken = self._ready.popleft()
        else:
            taken = head.split_pkts(head.pkts * frac)
            if head.empty:
                self._ready.popleft()
        if taken.empty:
            break
        for entry in costs:
            entry[2] -= entry[0] * taken.pkts + entry[1] * taken.nbytes
        self._ready_pkts -= taken.pkts
        self._ready_bytes -= taken.nbytes
        self.total_out_pkts += taken.pkts
        self.total_out_bytes += taken.nbytes
        out.append(taken)
    if self._ready_pkts < 0:
        self._ready_pkts = 0.0
    if self._ready_bytes < 0:
        self._ready_bytes = 0.0
    return out


def _ref_report_service_credit(self, pkts, nbytes):
    self._service_credit_pkts += max(0.0, pkts)
    self._service_credit_bytes += max(0.0, nbytes)


def _ref_commit(self):
    room_pkts = (
        float("inf")
        if self.capacity_pkts is None
        else max(0.0, self.capacity_pkts - self._ready_pkts)
        + self._service_credit_pkts
    )
    room_bytes = (
        float("inf")
        if self.capacity_bytes is None
        else max(0.0, self.capacity_bytes - self._ready_bytes)
        + self._service_credit_bytes
    )
    self._service_credit_pkts = 0.0
    self._service_credit_bytes = 0.0
    frac = 1.0
    if self.policy == "drop":
        if self._staged_pkts > room_pkts + _EPS and self._staged_pkts > 0:
            frac = min(frac, room_pkts / self._staged_pkts)
        if self._staged_bytes > room_bytes + _EPS and self._staged_bytes > 0:
            frac = min(frac, room_bytes / self._staged_bytes)
    for batch in self._staged:
        if frac < 1.0:
            accepted = batch.split_pkts(batch.pkts * frac)
            if not batch.empty:
                self._record_drop(batch)
            batch = accepted
            if batch.empty:
                continue
        self._ready.append(batch)
        self._ready_pkts += batch.pkts
        self._ready_bytes += batch.nbytes
    self._staged.clear()
    self._staged_pkts = 0.0
    self._staged_bytes = 0.0


_REFERENCE_DATAPATH = (
    (Element, "begin_tick", _ref_begin_tick),
    (Element, "mid_tick", _ref_mid_tick),
    (Element, "process_tick", _ref_process_tick),
    (Element, "_emit", _ref_emit),
    (CounterSet, "count_rx", _ref_count_rx),
    (CounterSet, "count_tx", _ref_count_tx),
    (CounterSet, "count_drop", _ref_count_drop),
    (Buffer, "space_pkts", _ref_space_pkts),
    (Buffer, "space_bytes", _ref_space_bytes),
    (Buffer, "push", _ref_push),
    (Buffer, "pop_budgeted", _ref_pop_budgeted),
    (Buffer, "report_service_credit", _ref_report_service_credit),
    (Buffer, "commit", _ref_commit),
)


@contextmanager
def reference_datapath():
    """Run with the pre-plan hook bodies swapped in at class level."""
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in _REFERENCE_DATAPATH]
    for cls, name, fn in _REFERENCE_DATAPATH:
        setattr(cls, name, fn)
    try:
        yield
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)


# -- worlds and what is compared -------------------------------------------------------


class World:
    """Receiver + client→proxy→server chain on one machine, agent polling."""

    def __init__(self, sim_cls, seed=3):
        self.h = h = Harness(tick=1e-3, seed=seed)
        # Same object layout; only step() differs.
        h.sim.__class__ = sim_cls
        self.sim = h.sim
        self.machine = m = h.add_machine("m1")
        vm = m.add_vm("vm0", vcpu_cores=1.0, vnic_bps=100e6)
        self.sink = HttpServer(h.sim, vm, "sink", cpu_per_byte=1e-9)
        flow = Flow("rx", dst_vm="vm0", kind="udp")
        vm.bind_udp(flow, self.sink.socket)
        self.source = ExternalTrafficSource(
            h.sim, "src", flow, m.inject, rate_bps=60e6
        )
        tenant = h.add_tenant("acme")
        self.apps = {
            "client": HttpClient(h.sim, m.add_vm("vm-client", vnic_bps=100e6), "client"),
            "proxy": Proxy(h.sim, m.add_vm("vm-proxy", vnic_bps=100e6), "proxy"),
            "server": HttpServer(h.sim, m.add_vm("vm-server", vnic_bps=100e6), "server"),
        }
        build_chain(list(self.apps.values()), tenant.vnet)
        for app in (self.sink, *self.apps.values()):
            h.register_app(app)
        # A drain queue (pnic-tx) and passive ones (pnic, tun, backlogs)
        # come with the machine, the vswitch rules with each VM.
        m.pnic_rx.add_custom_counter(PacketSizeHistogram())
        # The only sim.rng draws are the channels' latency draws; polling
        # puts them on the event heap between ticks.
        h.agents["m1"].start_polling(0.05)
        self.extra_buffers: List[Buffer] = []

    def run_ticks(self, n):
        for _ in range(n):
            self.sim.step()

    def state(self):
        sim = self.sim
        elements = [c for c in sim.components if isinstance(c, Element)]
        buffers = {}
        for e in elements:
            for buf in (e.in_buf, getattr(e, "queue", None), *e._owned_buffers):
                if buf is not None:
                    buffers.setdefault(id(buf), buf)
        for vm in self.machine.vms.values():
            for buf in (vm.vnic_rx_ring, vm.vnic_tx_ring, vm.txq):
                buffers.setdefault(id(buf), buf)
        return {
            "clock": (sim.now, sim.tick_index),
            "snapshots": {e.name: e.snapshot() for e in elements},
            "owed": {
                e.name: (e._overhead_owed_s, e.counters._pending_update_cost_s)
                for e in elements
            },
            "buffers": [
                (
                    b.name, b.total_in_pkts, b.total_in_bytes, b.total_out_pkts,
                    b.total_out_bytes, b.total_drop_pkts, b.total_drop_bytes,
                    dict(b.drops_by_flow), b.ready_pkts, b.ready_bytes, b.pkts,
                )
                for b in buffers.values()
            ],
            "resources": [
                (r.name, r.total_granted, r.total_capacity_seen, r.last_utilization)
                for r in sim._resources
            ],
            "agent": self.h.agents["m1"].channel_stats(),
            "rng": sim.rng.getstate(),
        }


def base_script(world):
    """≥300 ticks: steady, a 400 Mbps spike, a perf bug inside it, recovery."""
    world.run_ticks(100)
    world.source.set_rate(rate_bps=400e6)
    world.run_ticks(60)
    undo = inject_perf_bug(world.apps["proxy"], 20.0)
    world.run_ticks(60)
    undo()
    world.source.set_rate(rate_bps=60e6)
    world.run_ticks(80)


def run_both(script, seed=3):
    """(reference state, planned state) of one script on one seeded world."""
    with reference_datapath():
        ref = World(ReferenceSimulator, seed)
        script(ref)
        ref_state = ref.state()
    new = World(Simulator, seed)
    script(new)
    return ref_state, new.state(), ref, new


def assert_equal_states(ref_state, new_state):
    for key in ref_state:
        assert new_state[key] == ref_state[key], key


# -- the base run ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 3])
def test_planned_tick_equals_reference_loop(seed):
    ref_state, new_state, ref, _ = run_both(base_script, seed)
    assert_equal_states(ref_state, new_state)
    # The script exercised what it claims to: loss under the spike, the
    # chain moving bytes, the custom counter observing, CPU arbitrated.
    snaps = ref_state["snapshots"]
    assert ref.sim.tick_index >= 300
    assert snaps["tun-vm0@m1"]["drops"] > 0
    assert snaps["server"]["rx_bytes"] > 0
    assert snaps["pnic@m1"]["pkt_size_hist.total_pkts"] > 0
    assert any(granted > 0 for _, granted, _, _ in ref_state["resources"])


def test_reference_datapath_is_really_swapped_in():
    """Guard the oracle itself: inside the context the old bodies run."""
    with reference_datapath():
        assert Element.process_tick is _ref_process_tick
        assert Buffer.commit is _ref_commit
    assert Element.process_tick is not _ref_process_tick
    assert CounterSet.count_rx is not _ref_count_rx


# -- structure changes mid-run: each invalidates the plan ------------------------------


def _late_tenant(world, vm_id="vm-late"):
    """A VM (SubResource + seven elements), an app and a sender."""
    vm = world.machine.add_vm(vm_id, vcpu_cores=0.5, vnic_bps=50e6)
    app = HttpServer(world.sim, vm, f"app-{vm_id}", cpu_per_byte=2e-9)
    flow = Flow(f"rx-{vm_id}", dst_vm=vm_id, kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(
        world.sim, f"src-{vm_id}", flow, world.machine.inject, rate_bps=30e6
    )
    world.h.register_app(app)
    return app


def test_component_and_resource_added_from_an_event_tick_that_step():
    seen = {}

    def script(world):
        def grow():
            app = _late_tenant(world)
            Resource(world.sim, "late-pool", capacity_per_s=1.0)
            seen[type(world.sim)] = (world.sim.tick_index, app)

        world.sim.schedule(0.05, grow)
        world.run_ticks(300)

    ref_state, new_state, _, new = run_both(script)
    assert_equal_states(ref_state, new_state)
    assert "app-vm-late" in new_state["snapshots"]
    assert new_state["snapshots"]["app-vm-late"]["rx_bytes"] > 0
    # Registered by the event of tick 50, and ticked in tick 50: the
    # source injected and the vCPU pool saw a full tick of capacity.
    tick, _ = seen[Simulator]
    assert tick == 50
    late_pool = [r for r in new.sim._resources if r.name == "late-pool"][0]
    assert late_pool.total_capacity_seen == pytest.approx((300 - tick) * 1e-3)


def test_component_added_between_steps():
    def script(world):
        world.run_ticks(120)
        _late_tenant(world)
        CpuHog(world.sim, "hog", world.machine.cpu, threads=2.0)
        world.run_ticks(180)

    ref_state, new_state, _, _ = run_both(script)
    assert_equal_states(ref_state, new_state)
    assert new_state["snapshots"]["app-vm-late"]["rx_bytes"] > 0


def test_late_claim_and_late_custom_counter():
    def script(world):
        m = world.machine
        world.run_ticks(100)
        # A bus claim the driver did not have: mid_tick starts asking.
        m.driver.claim(m.membus, per_byte=0.5)
        m.napi.add_custom_counter(PacketSizeHistogram("napi_sizes"))
        world.run_ticks(100)
        # And a second CPU claim priced per packet.
        m.vms["vm0"].gdriver.claim(m.vms["vm0"].vcpu, per_pkt=1e-6)
        world.run_ticks(100)

    ref_state, new_state, _, _ = run_both(script)
    assert_equal_states(ref_state, new_state)
    assert new_state["snapshots"]["napi@m1"]["napi_sizes.total_pkts"] > 0


def test_set_rate_and_set_allocation():
    def script(world):
        vm = world.machine.vms["vm0"]
        world.run_ticks(100)
        vm.vcpu.set_allocation(0.05)
        vm.set_vnic_bps(40e6)
        world.run_ticks(100)
        vm.vcpu.set_allocation(1.0)
        vm.qemu_rx.rate_pps = 2000.0
        world.source.set_rate(rate_pps=9000.0)
        world.run_ticks(100)

    ref_state, new_state, _, _ = run_both(script)
    assert_equal_states(ref_state, new_state)
    assert new_state["snapshots"]["tun-vm0@m1"]["drops"] > 0


class _Feeder(Component):
    """Pushes a fixed batch into two queues every tick."""

    def __init__(self, sim, queues):
        super().__init__("feeder")
        self.queues = queues
        self.flow = Flow("feed", packet_bytes=500.0)
        sim.add(self)

    def begin_tick(self, sim):
        for pkts, queue in zip((7.0, 3.0), self.queues):
            queue.push(PacketBatch(self.flow, pkts, pkts * 500.0))


def test_attach_input_rewiring():
    def script(world):
        sim = world.sim
        q1 = QueueElement(sim, "q1", capacity_pkts=40)
        q2 = QueueElement(sim, "q2", capacity_pkts=40)
        _Feeder(sim, (q1, q2))
        worker = Element(sim, "worker", rate_pps=5000.0)
        worker.claim(world.machine.cpu, per_pkt=2e-5, is_cpu=True)
        worker.attach_input(q1.queue)
        world.run_ticks(150)
        worker.attach_input(q2.queue)
        worker.out = q1.push  # and feed the other queue back
        world.run_ticks(150)

    ref_state, new_state, _, _ = run_both(script)
    assert_equal_states(ref_state, new_state)
    assert new_state["snapshots"]["q1"]["drops"] > 0
    assert new_state["snapshots"]["worker"]["tx_pkts"] > 0


def test_in_vm_sender_and_contention():
    """The TX direction and a starved CPU pool (block-policy rings fill)."""

    def script(world):
        m = world.machine
        vm = m.vms["vm0"]
        VmUdpSender(world.sim, "tx", vm, Flow("tx-out", src_vm="vm0"), rate_bps=80e6)
        world.run_ticks(100)
        CpuHog(world.sim, "hog", m.cpu, threads=4 * m.cpu.capacity_per_s)
        world.run_ticks(200)

    ref_state, new_state, _, _ = run_both(script)
    assert_equal_states(ref_state, new_state)
    # The drain-mode queue element (pnic-tx) carried the sender's frames.
    assert new_state["snapshots"]["pnic-tx@m1"]["tx_pkts"] > 0


# -- a hook that registers a component -------------------------------------------------


class _Recorder(Component):
    def __init__(self, name):
        super().__init__(name)
        self.calls = []

    def begin_tick(self, sim):
        self.calls.append(("begin", sim.tick_index))

    def mid_tick(self, sim):
        self.calls.append(("mid", sim.tick_index))

    def process_tick(self, sim):
        self.calls.append(("process", sim.tick_index))

    def end_tick(self, sim):
        self.calls.append(("end", sim.tick_index))


class _Spawner(Component):
    """Registers a recorder (and a resource) from inside one hook, once."""

    def __init__(self, hook, at_tick):
        super().__init__("spawner")
        self.at_tick = at_tick
        self.spawned = None
        setattr(self, hook, self._spawn)

    def _spawn(self, sim):
        if sim.tick_index == self.at_tick and self.spawned is None:
            self.spawned = sim.add(_Recorder("spawned"))
            SubResource(
                sim, "spawned-pool", parent=Resource(sim, "spawned-root", 1.0),
                cap_per_s=0.5,
            )


_PHASES = ["begin", "mid", "process", "end"]


@pytest.mark.parametrize("hook", _PHASES)
def test_hook_registering_a_component_matches_the_live_list_walk(hook):
    """Pinned: the reference walks the live list, so a component a hook
    registers runs the rest of that phase's walk and every later phase of
    the same step — and the plan, recompiled mid-step, does the same."""
    seen = {}
    for sim_cls in (ReferenceSimulator, Simulator):
        sim = sim_cls(tick=1e-3, seed=0)
        first = sim.add(_Recorder("first"))
        spawner = sim.add(_Spawner(f"{hook}_tick", at_tick=2))
        last = sim.add(_Recorder("last"))
        for _ in range(4):
            sim.step()
        root = [r for r in sim._resources if r.name == "spawned-root"][0]
        seen[sim_cls] = (
            first.calls, spawner.spawned.calls, last.calls, root.total_capacity_seen
        )
    assert seen[Simulator] == seen[ReferenceSimulator]
    _, spawned, _, capacity_seen = seen[Simulator]
    assert [phase for phase, tick in spawned if tick == 2] == _PHASES[
        _PHASES.index(hook):
    ]
    assert [phase for phase, tick in spawned if tick == 3] == _PHASES
    # A pool registered in begin_tick is still allocated in that step's
    # phase 0; registered any later it first allocates in the next step.
    assert capacity_seen == pytest.approx(2e-3 if hook == "begin" else 1e-3)
