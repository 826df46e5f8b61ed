"""Wire-level concurrency: pooled clients against one-loop servers.

A server serves all its connections from one thread, so concurrent
callers are served one request at a time and each gets the right
answer; concurrent BATCH_DELTA reads racing collection sweeps see no
torn rows; one pooled handle serves many threads, and closing it
retires even the connections checked out at that moment; seeded
handles retry with reproducible backoff jitter.
"""

import socket
import threading
import time
from array import array

import pytest

from repro.core.agent import Agent
from repro.core.net.client import RemoteAgentHandle, RetryPolicy
from repro.core.net.server import AgentServer
from repro.dataplane.machine import PhysicalMachine
from repro.middleboxes.http import HttpServer
from repro.simnet.packet import Flow
from repro.workloads.traffic import ExternalTrafficSource

#: Full retry budget, no real waiting.
FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay_s=0.001, max_delay_s=0.002, deadline_s=30.0
)


@pytest.fixture
def served_agent(sim_with_transport):
    sim = sim_with_transport
    machine = PhysicalMachine(sim, "m1")
    vm = machine.add_vm("v1", vcpu_cores=1.0)
    app = HttpServer(sim, vm, "app", cpu_per_byte=1e-9)
    flow = Flow("rx", dst_vm="v1", kind="udp")
    vm.bind_udp(flow, app.socket)
    ExternalTrafficSource(sim, "src", flow, machine.inject, rate_bps=40e6)
    sim.run(0.5)
    agent = Agent(sim, machine)
    agent.register(app)
    server = AgentServer(agent).start()
    yield sim, agent, server
    server.shutdown()


def closed_port() -> int:
    """A localhost port that refuses connections."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestOneLoopServer:
    def test_one_thread_serves_every_connection(self, served_agent):
        _, agent, _ = served_agent
        # Compared as sets, so a thread some earlier test left behind
        # that ends meanwhile cannot mask an extra one.
        before = set(threading.enumerate())
        with AgentServer(agent) as server:
            handles = [
                RemoteAgentHandle(*server.address, retry=FAST_RETRY)
                for _ in range(3)
            ]
            for handle in handles:
                assert handle.ping() == agent.name
            started = set(threading.enumerate()) - before
            for handle in handles:
                handle.close()
        assert len(started) == 1, sorted(t.name for t in started)


class TestConcurrentReads:
    def test_parallel_queries_share_the_read_lock(self, served_agent):
        """Many readers share one server: 4 threads issue 10 listings
        each through one handle, and all 40 come back correct.  The
        server takes no lock for a listing; its loop serves them in
        turn."""
        _, agent, server = served_agent
        host, port = server.address
        results = []
        errors = []
        gate = threading.Barrier(4, timeout=10.0)

        # Each listing dwells 10 ms at the agent, so the 4 threads'
        # requests wait at the server together and its one loop serves
        # them from several pooled connections in turn.
        expected = agent.element_ids()
        orig_element_ids = agent.element_ids

        def slow_element_ids():
            time.sleep(0.01)
            return orig_element_ids()

        agent.element_ids = slow_element_ids

        with RemoteAgentHandle(host, port, retry=FAST_RETRY) as handle:

            def reader():
                try:
                    gate.wait()
                    for _ in range(10):
                        results.append(handle.element_ids())
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        assert not errors
        assert len(results) == 40
        for ids in results:
            assert ids == expected

    def test_concurrent_queries_see_no_torn_snapshots(self, served_agent):
        """BATCH_DELTA reads racing cadence sweeps all see identical rows.

        Simulated time is frozen while the threads run, so every row any
        reader collects must carry byte-identical values and timestamp
        for its element, no matter how many sweeps and drains interleave
        with it; any divergence would be a torn read through the agent's
        store or channels.
        """
        _, agent, server = served_agent
        host, port = server.address
        stop = threading.Event()
        errors = []
        rows_seen = []

        def row_state(blocks):
            return {
                (element, attrs, ts, array("d", values).tobytes())
                for element, _, attrs, rows in blocks
                for _, ts, values in rows
            }

        with RemoteAgentHandle(host, port, retry=FAST_RETRY) as handle:
            baseline = row_state(handle.collect_blocks({})[0])

            def sweeper():
                try:
                    while not stop.is_set():
                        agent.poll_once()
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            def reader():
                acked = {}
                try:
                    while not stop.is_set():
                        blocks, acked = handle.collect_blocks(acked)
                        rows_seen.append(row_state(blocks))
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=sweeper),
                threading.Thread(target=reader),
                threading.Thread(target=reader),
            ]
            for t in threads:
                t.start()
            time.sleep(0.3)
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        assert not errors
        assert rows_seen, "readers never completed a round"
        assert rows_seen[0] == baseline  # a fresh cursor gets every element
        for rows in rows_seen:
            assert rows <= baseline

    def test_query_completes_while_sweep_is_in_flight(self, served_agent):
        """A read is not serialized behind a slow cadence sweep.

        The sweep runs on another thread (the simulator's, in a live
        agent) and holds the agent's sweep lock for its whole body; the
        server's loop answers a listing meanwhile, since a listing takes
        neither that lock nor the store's.
        """
        _, agent, server = served_agent
        host, port = server.address
        sweep_started = threading.Event()
        sweep_finished = threading.Event()
        orig_append = agent.store.append

        def slow_append(snap):
            if not sweep_started.is_set():
                sweep_started.set()
                time.sleep(0.4)  # a pathologically slow sweep, lock held
            return orig_append(snap)

        agent.store.append = slow_append

        def sweep():
            try:
                agent.poll_once()
            finally:
                sweep_finished.set()

        sweeper = threading.Thread(target=sweep)
        with RemoteAgentHandle(host, port, retry=FAST_RETRY) as handle:
            handle.ping()  # warm a connection before the sweep starts
            sweeper.start()
            assert sweep_started.wait(timeout=10.0)
            ids = handle.element_ids()
            assert not sweep_finished.is_set(), (
                "the listing was serialized behind the sweep"
            )
            assert ids == agent.element_ids()
        sweeper.join(timeout=30.0)
        assert not sweeper.is_alive()
        assert agent.total_polls == 1


class TestPooledHandle:
    def test_one_handle_many_threads_reuses_connections(self, served_agent):
        _, agent, server = served_agent
        host, port = server.address
        errors = []

        with RemoteAgentHandle(
            host, port, retry=FAST_RETRY, pool_size=3
        ) as handle:
            def worker():
                try:
                    for _ in range(15):
                        assert handle.ping() == agent.name
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
            assert not errors
            # The pool bound held and paid off: at most 3 sockets ever
            # existed for 90 exchanges.
            assert handle.pool.created <= 3
            assert handle.pool.reused >= 90 - 3
            assert handle.pool.in_use == 0

    def test_handle_usable_again_after_close(self, served_agent):
        _, agent, server = served_agent
        host, port = server.address
        handle = RemoteAgentHandle(host, port, retry=FAST_RETRY)
        assert handle.ping() == agent.name
        handle.close()
        # Matches the old single-socket semantics: close then reconnect.
        assert handle.ping() == agent.name
        handle.close()

    def test_close_retires_a_checked_out_connection(self, served_agent):
        """A connection in flight across ``close()`` is closed on its
        return, never pooled and reused."""
        _, agent, server = served_agent
        handle = RemoteAgentHandle(*server.address, retry=FAST_RETRY)
        conn = handle.pool.checkout()
        handle.close()
        handle.pool.checkin(conn)
        assert handle.pool.idle == 0
        assert conn.sock.fileno() == -1  # closed on checkin
        assert handle.ping() == agent.name
        assert handle.pool.created == 2  # the ping reconnected
        handle.close()


class TestSeededBackoff:
    def test_same_seed_same_jitter_schedule(self):
        port = closed_port()
        retry = RetryPolicy(
            max_attempts=3, base_delay_s=0.01, max_delay_s=0.04,
            deadline_s=30.0, jitter=0.5,
        )

        def delays_for(seed):
            delays = []
            handle = RemoteAgentHandle(
                "127.0.0.1", port, retry=retry, seed=seed,
                sleep=delays.append, timeout_s=1.0,
            )
            with pytest.raises(ConnectionError):
                handle.ping()
            handle.close()
            return delays

        first, second = delays_for(7), delays_for(7)
        assert len(first) == 2  # 3 attempts -> 2 backoff sleeps
        assert first == second, "seeded backoff must be reproducible"
        assert delays_for(1234) != first
        # Jitter shrank the nominal delays rather than growing them.
        assert all(0 < d <= nominal for d, nominal in zip(first, [0.01, 0.02]))
