"""Wire-level concurrency: pooled clients against the RW-locked server.

The acceptance claims of the concurrent fleet plane, asserted rather
than eyeballed: read-only ops (QUERY) really do run concurrently with
each other and with an in-flight collection sweep (the server lock's
``max_concurrent_readers`` statistic is the proof), concurrent queries
see no torn snapshots, one pooled handle serves many threads, and
seeded handles retry with reproducible backoff jitter.
"""

import socket
import threading
import time

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


class TestConcurrentReads:
    def test_parallel_queries_share_the_read_lock(self, served_agent):
        _, agent, server = served_agent
        host, port = server.address
        results = []
        errors = []
        gate = threading.Barrier(4, timeout=10.0)

        # Widen the read critical section so the overlap is guaranteed
        # rather than a scheduling coin-flip: each query dwells 10 ms
        # inside the lock, and 4 threads issue 10 each.
        orig_query = agent.query

        def slow_query(element_ids=None, attrs=None):
            time.sleep(0.01)
            return orig_query(element_ids, attrs)

        agent.query = slow_query

        with RemoteAgentHandle(host, port, retry=FAST_RETRY) as handle:
            def reader():
                try:
                    gate.wait()
                    for _ in range(10):
                        results.append(handle.query(None, ["rx_bytes"]))
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
        # The lock saw genuinely overlapping readers — the whole point
        # of replacing the global mutex.
        assert server.lock.max_concurrent_readers >= 2

    def test_concurrent_queries_see_no_torn_snapshots(self, served_agent):
        """QUERYs racing BATCH_DELTA sweeps all see identical state.

        Simulated time is frozen while the threads run, so every query
        must return byte-identical records no matter how many sweeps
        and drains interleave with it; any divergence would be a torn
        read through the agent's store or channels.
        """
        _, agent, server = served_agent
        host, port = server.address
        stop = threading.Event()
        errors = []
        query_results = []

        with RemoteAgentHandle(host, port, retry=FAST_RETRY) as handle:
            baseline = handle.query(None, ["rx_bytes", "rx_pkts", "drops"])

            def sweeper():
                acked = {}
                try:
                    while not stop.is_set():
                        _, acked = handle.collect_blocks(acked)
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            def querier():
                try:
                    while not stop.is_set():
                        query_results.append(
                            handle.query(None, ["rx_bytes", "rx_pkts", "drops"])
                        )
                except Exception as exc:  # noqa: BLE001
                    errors.append(exc)

            threads = [
                threading.Thread(target=sweeper),
                threading.Thread(target=querier),
                threading.Thread(target=querier),
            ]
            for t in threads:
                t.start()
            time.sleep(0.3)
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        assert not errors
        assert query_results, "queriers never completed a round"
        expected = [r.to_dict() for r in baseline]
        for records in query_results:
            assert [r.to_dict() for r in records] == expected

    def test_query_completes_while_sweep_is_in_flight(self, served_agent):
        """Read-only ops are not serialized behind a slow sweep."""
        _, agent, server = served_agent
        host, port = server.address
        sweep_started = threading.Event()
        sweep_finished = threading.Event()
        orig_poll = agent.poll_once

        def slow_poll():
            sweep_started.set()
            time.sleep(0.4)  # a pathologically slow channel sweep
            try:
                return orig_poll()
            finally:
                sweep_finished.set()

        agent.poll_once = slow_poll
        errors = []

        def collector():
            try:
                with RemoteAgentHandle(host, port, retry=FAST_RETRY) as h:
                    h.collect_blocks({})
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        collector_thread = threading.Thread(target=collector)
        with RemoteAgentHandle(host, port, retry=FAST_RETRY) as handle:
            handle.ping()  # warm a connection before the sweep starts
            collector_thread.start()
            assert sweep_started.wait(timeout=10.0)
            records = handle.query(None, ["rx_bytes"])
            # The query came back while the sweep still held its read
            # slot — under the old global lock it would have queued
            # behind the full 0.4 s sweep.
            assert not sweep_finished.is_set(), (
                "query was serialized behind the sweep"
            )
            assert records
        collector_thread.join(timeout=30.0)
        assert not collector_thread.is_alive()
        assert not errors
        assert server.lock.max_concurrent_readers >= 2


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
