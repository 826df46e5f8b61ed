"""Unit tests for the collection-plane concurrency primitives."""

import threading
import time

import pytest

from repro.core.concurrency import ConnectionPool, PoolTimeout


def run_threads(targets, timeout_s=5.0):
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout_s)
        assert not t.is_alive(), "worker thread deadlocked"


class CountingFactory:
    """Resource factory producing distinct, closable tokens."""

    def __init__(self, fail_times: int = 0):
        self.made = 0
        self.closed = []
        self.fail_times = fail_times
        self._lock = threading.Lock()

    def make(self):
        with self._lock:
            if self.fail_times > 0:
                self.fail_times -= 1
                raise ConnectionRefusedError("factory down")
            self.made += 1
            return f"conn-{self.made}"

    def close(self, resource):
        self.closed.append(resource)


class TestConnectionPool:
    def test_checkin_enables_reuse(self):
        f = CountingFactory()
        pool = ConnectionPool(f.make, f.close, max_size=2)
        a = pool.checkout()
        pool.checkin(a)
        b = pool.checkout()
        assert b == a  # warmest connection reused, not a new one
        assert pool.created == 1 and pool.reused == 1

    def test_lifo_reuse_keeps_warmest(self):
        f = CountingFactory()
        pool = ConnectionPool(f.make, f.close, max_size=3)
        a, b = pool.checkout(), pool.checkout()
        pool.checkin(a)
        pool.checkin(b)
        assert pool.checkout() == b  # last returned, first out

    def test_max_size_blocks_until_checkin(self):
        f = CountingFactory()
        pool = ConnectionPool(f.make, f.close, max_size=1)
        a = pool.checkout()
        got = []

        def blocked_checkout():
            got.append(pool.checkout(timeout_s=5.0))

        t = threading.Thread(target=blocked_checkout, daemon=True)
        t.start()
        time.sleep(0.02)
        assert not got, "checkout should block while the slot is taken"
        pool.checkin(a)
        t.join(timeout=5.0)
        assert got == [a]

    def test_exhausted_pool_times_out_as_oserror(self):
        f = CountingFactory()
        pool = ConnectionPool(f.make, f.close, max_size=1)
        pool.checkout()
        with pytest.raises(PoolTimeout):
            pool.checkout(timeout_s=0.02)
        # The retry loop's contract: pool exhaustion is a transport error.
        assert issubclass(PoolTimeout, OSError)

    def test_discard_frees_slot_and_closes(self):
        f = CountingFactory()
        pool = ConnectionPool(f.make, f.close, max_size=1)
        a = pool.checkout()
        pool.discard(a)
        assert f.closed == [a]
        b = pool.checkout(timeout_s=1.0)  # slot is free again
        assert b != a
        assert pool.discarded == 1

    def test_factory_failure_releases_reserved_slot(self):
        f = CountingFactory(fail_times=1)
        pool = ConnectionPool(f.make, f.close, max_size=1)
        with pytest.raises(ConnectionRefusedError):
            pool.checkout()
        assert pool.in_use == 0
        assert pool.checkout(timeout_s=1.0)  # slot was not leaked

    def test_idle_reaping(self):
        clock = [0.0]
        f = CountingFactory()
        pool = ConnectionPool(
            f.make, f.close, max_size=2, max_idle_s=10.0, clock=lambda: clock[0]
        )
        a = pool.checkout()
        pool.checkin(a)
        clock[0] = 11.0
        assert pool.reap_idle() == 1
        assert f.closed == [a]
        b = pool.checkout()  # fresh connection, not the stale one
        assert b != a

    def test_stale_idle_not_served_on_checkout(self):
        clock = [0.0]
        f = CountingFactory()
        pool = ConnectionPool(
            f.make, f.close, max_size=2, max_idle_s=5.0, clock=lambda: clock[0]
        )
        a = pool.checkout()
        pool.checkin(a)
        clock[0] = 6.0
        assert pool.checkout() != a  # reaped inline, never handed back out
        assert pool.reaped == 1

    def test_close_all_refuses_checkout_and_reopen_recovers(self):
        """``close_all`` refuses every resource checked out before it a
        way back into the pool; the pool recovers on its own, with fresh
        resources (there is no separate reopen step)."""
        f = CountingFactory()
        pool = ConnectionPool(f.make, f.close, max_size=3)
        a = pool.checkout()
        b = pool.checkout()
        pool.checkin(a)
        pool.close_all()
        assert f.closed == [a]  # idle closed immediately
        c = pool.checkout(timeout_s=1.0)  # the pool stays usable ...
        assert c not in (a, b)  # ... with a fresh resource
        pool.checkin(b)  # borrowed before close_all -> closed, not pooled
        assert f.closed == [a, b]
        pool.checkin(c)  # borrowed after close_all -> pooled as usual
        assert f.closed == [a, b]
        assert (pool.in_use, pool.idle) == (0, 1)
        assert pool.checkout() == c

    def test_close_all_during_a_connect_retires_the_new_resource(self):
        f = CountingFactory()
        box = {}

        def make():
            resource = f.make()
            box["pool"].close_all()  # a close lands while connecting
            return resource

        pool = ConnectionPool(make, f.close, max_size=1)
        box["pool"] = pool
        a = pool.checkout()
        pool.checkin(a)
        assert f.closed == [a] and pool.idle == 0

    def test_in_use_and_idle_track_checkout_and_checkin(self):
        f = CountingFactory()
        pool = ConnectionPool(f.make, f.close, max_size=2)
        a = pool.checkout()
        assert (pool.in_use, pool.idle) == (1, 0)
        pool.checkin(a)
        assert (pool.in_use, pool.idle) == (0, 1)
        pool.checkout()
        assert (pool.in_use, pool.idle) == (1, 0)

    def test_concurrent_checkouts_respect_bound(self):
        f = CountingFactory()
        pool = ConnectionPool(f.make, f.close, max_size=3)
        peak = [0]
        lock = threading.Lock()

        def worker():
            for _ in range(20):
                conn = pool.checkout(timeout_s=5.0)
                with lock:
                    peak[0] = max(peak[0], pool.in_use)
                assert pool.in_use <= 3
                pool.checkin(conn)

        run_threads([worker] * 6)
        assert peak[0] <= 3
        assert f.made <= 3  # never created more than the bound

    def test_reap_closes_outside_pool_lock(self):
        # A closer that blocks (or re-enters the pool) must not run
        # under the pool lock, or every concurrent checkout stalls
        # behind it.  The closer proves the lock is free by acquiring
        # it non-blocking — which would fail if reaping still closed
        # inline under ``_cond``.
        clock = [0.0]
        lock_was_free = []
        box = {}

        def close(resource):
            acquired = box["pool"]._cond.acquire(blocking=False)
            lock_was_free.append(acquired)
            if acquired:
                box["pool"]._cond.release()

        f = CountingFactory()
        pool = ConnectionPool(
            f.make, close, max_size=2, max_idle_s=1.0, clock=lambda: clock[0]
        )
        box["pool"] = pool
        a = pool.checkout()
        pool.checkin(a)
        clock[0] = 5.0
        assert pool.reap_idle() == 1  # explicit reap path
        b = pool.checkout()
        pool.checkin(b)
        clock[0] = 10.0
        pool.checkout()  # opportunistic reap on checkout path
        assert pool.reaped == 2
        assert lock_was_free == [True, True]

    def test_reap_racing_checkout_never_hands_out_closed_resource(self):
        # Regression: expired idle entries must leave the idle list
        # atomically before their closer runs, so a checkout racing a
        # reap can never receive a resource that is (or is about to be)
        # closed.  Hammer the interleaving with a slow closer.
        class Conn:
            def __init__(self):
                self.closed = False

        def close(conn):
            time.sleep(0.001)  # widen the unhook-to-close window
            conn.closed = True

        # The cutoff must sit *below* the borrowers' post-checkin pause,
        # or LIFO reuse re-checks entries out before they ever expire
        # and the race goes unexercised.
        pool = ConnectionPool(Conn, close, max_size=4, max_idle_s=0.0002)
        errors = []
        stop = threading.Event()

        def borrower():
            while not stop.is_set():
                conn = pool.checkout(timeout_s=5.0)
                if conn.closed:
                    errors.append("checked out a closed connection")
                    pool.discard(conn)
                    return
                pool.checkin(conn)
                time.sleep(0.001)  # leave it idle past the cutoff

        def reaper():
            while not stop.is_set():
                pool.reap_idle()
                time.sleep(0.0005)

        threads = [threading.Thread(target=t, daemon=True) for t in
                   [borrower] * 3 + [reaper] * 2]
        for t in threads:
            t.start()
        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
            assert not t.is_alive(), "worker thread deadlocked"
        assert not errors
        assert pool.reaped > 0  # the race was actually exercised
