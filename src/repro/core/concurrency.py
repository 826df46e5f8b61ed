"""Concurrency primitives for the collection plane.

The controller fans ``mirror.sync()`` out over a worker pool, the wire
client multiplexes concurrent callers over a small connection pool, and
the agent server lets read-only ops run side by side — all built on the
two primitives here:

:class:`RWLock`
    A reader/writer lock with writer preference.  Any number of readers
    share the lock; a writer excludes everyone.  A waiting writer blocks
    *new* readers so a steady read stream cannot starve the write side
    (the agent's sweep/drain path must never wait forever behind query
    traffic).  The lock keeps acquisition statistics —
    :attr:`RWLock.max_concurrent_readers` in particular — so tests can
    *assert* that reads really did overlap instead of eyeballing
    timings.

:class:`ConnectionPool`
    A bounded checkout/checkin pool of homogeneous resources (sockets,
    in the wire client).  Checkout reuses the most recently returned
    idle resource (LIFO keeps connections warm), creates a fresh one
    while under ``max_size``, and otherwise blocks until a peer checks
    one in.  Broken resources are *discarded* rather than checked in,
    which frees their slot immediately.  Idle resources older than
    ``max_idle_s`` are reaped opportunistically on the next checkout.

Neither primitive imports the observability facade: occupancy is read
from :attr:`ConnectionPool.in_use` and :attr:`ConnectionPool.idle`, so
the module stays dependency-free and unit-testable on its own.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class LockTimeout(RuntimeError):
    """An RWLock acquisition gave up before the lock became free."""


class PoolTimeout(OSError):
    """A pool checkout waited out its budget with every slot in use.

    Deliberately an ``OSError``: to the wire client's retry loop an
    exhausted pool looks like any other transient transport failure —
    the request never left the process, so retrying it is always safe.
    """


class PoolClosed(OSError):
    """Checkout against a pool that has been shut down."""


class RWLock:
    """A reader/writer lock with writer preference and visible stats.

    Not reentrant on either side, and deliberately so: the collection
    plane's critical sections are small and flat, and reentrancy would
    hide lock-ordering mistakes instead of deadlocking loudly in tests.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._active_readers = 0
        self._writer_active = False
        self._writers_waiting = 0
        #: Acquisition statistics, readable without the lock (ints are
        #: only ever written under ``_cond``; torn reads are impossible
        #: under the GIL and staleness is fine for telemetry).
        self.read_acquisitions = 0
        self.write_acquisitions = 0
        self.max_concurrent_readers = 0

    # -- read side ----------------------------------------------------------------

    def acquire_read(self, timeout_s: Optional[float] = None) -> None:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._cond:
            # A waiting writer gates new readers (writer preference).
            while self._writer_active or self._writers_waiting:
                if not self._wait(deadline):
                    raise LockTimeout("timed out waiting for read lock")
            self._active_readers += 1
            self.read_acquisitions += 1
            self.max_concurrent_readers = max(
                self.max_concurrent_readers, self._active_readers
            )

    def release_read(self) -> None:
        with self._cond:
            if self._active_readers <= 0:
                raise RuntimeError("release_read without a matching acquire_read")
            self._active_readers -= 1
            if self._active_readers == 0:
                self._cond.notify_all()

    # -- write side ---------------------------------------------------------------

    def acquire_write(self, timeout_s: Optional[float] = None) -> None:
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._active_readers:
                    if not self._wait(deadline):
                        raise LockTimeout("timed out waiting for write lock")
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
            self.write_acquisitions += 1

    def release_write(self) -> None:
        with self._cond:
            if not self._writer_active:
                raise RuntimeError("release_write without a matching acquire_write")
            self._writer_active = False
            self._cond.notify_all()

    def _wait(self, deadline: Optional[float]) -> bool:
        """One condition wait against ``deadline``; False when expired."""
        if deadline is None:
            self._cond.wait()
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        return self._cond.wait(remaining) or deadline > time.monotonic()

    # -- context managers ---------------------------------------------------------

    @contextmanager
    def read_locked(self, timeout_s: Optional[float] = None) -> Iterator[None]:
        self.acquire_read(timeout_s)
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write_locked(self, timeout_s: Optional[float] = None) -> Iterator[None]:
        self.acquire_write(timeout_s)
        try:
            yield
        finally:
            self.release_write()

    # -- introspection ------------------------------------------------------------

    @property
    def readers(self) -> int:
        return self._active_readers

    @property
    def writer_active(self) -> bool:
        return self._writer_active

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RWLock(readers={self._active_readers}, "
            f"writer={self._writer_active}, waiting={self._writers_waiting})"
        )


class ConnectionPool(Generic[T]):
    """Bounded checkout/checkin pool with idle reaping.

    ``factory`` creates a resource (may raise — the error propagates to
    the checking-out caller, and no slot stays burned); ``closer``
    disposes of one (its errors are swallowed: the resource was broken
    or surplus either way).  ``max_idle_s`` bounds how long an idle
    resource survives between uses; ``None`` keeps them forever.

    The closer is never invoked while the pool lock is held: reaping
    unhooks expired resources under the lock, then closes them outside
    it, so a slow (or pool-re-entrant) closer cannot stall checkouts and
    a reap racing a checkout cannot hand out a just-closed resource.
    """

    def __init__(
        self,
        factory: Callable[[], T],
        closer: Callable[[T], None],
        max_size: int = 4,
        max_idle_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_size < 1:
            raise ValueError(f"max_size must be >= 1: {max_size!r}")
        if max_idle_s is not None and max_idle_s <= 0:
            raise ValueError(f"max_idle_s must be positive: {max_idle_s!r}")
        self._factory = factory
        self._closer = closer
        self.max_size = max_size
        self.max_idle_s = max_idle_s
        self._clock = clock
        self._cond = threading.Condition()
        self._idle: List[Tuple[T, float]] = []  # (resource, checkin time)
        self._in_use = 0
        self._closed = False
        #: Lifetime counters.
        self.created = 0
        self.reused = 0
        self.discarded = 0
        self.reaped = 0

    # -- checkout / checkin -------------------------------------------------------

    def checkout(self, timeout_s: Optional[float] = None) -> T:
        """Borrow a resource; blocks while all ``max_size`` are in use."""
        deadline = None if timeout_s is None else self._clock() + timeout_s
        # Expired idle resources are unhooked from ``_idle`` under the
        # lock but closed only after it is released (see ``finally``):
        # closing under the lock would stall every concurrent checkout
        # behind a slow closer, and a closer that ever touched the pool
        # would deadlock.  Because removal is atomic, no peer can check
        # out a resource that is about to be closed.
        expired: List[T] = []
        try:
            with self._cond:
                while True:
                    if self._closed:
                        raise PoolClosed("pool is closed")
                    expired.extend(self._take_expired_locked())
                    if self._idle:
                        resource, _ = self._idle.pop()  # LIFO: warmest first
                        self._in_use += 1
                        self.reused += 1
                        return resource
                    if self._in_use < self.max_size:
                        # Create outside the condition so a slow connect
                        # does not block peers returning resources; the
                        # slot is reserved first so the bound holds.
                        self._in_use += 1
                        break
                    if deadline is not None:
                        remaining = deadline - self._clock()
                        if remaining <= 0 or not self._cond.wait(remaining):
                            if deadline <= self._clock():
                                raise PoolTimeout(
                                    f"no free connection within {timeout_s}s "
                                    f"({self.max_size} in use)"
                                )
                    else:
                        self._cond.wait()
        finally:
            for stale in expired:
                self._close_quietly(stale)
        try:
            resource = self._factory()
        except BaseException:
            with self._cond:
                self._in_use -= 1
                self._cond.notify()
            raise
        with self._cond:
            self.created += 1
        return resource

    def checkin(self, resource: T) -> None:
        """Return a healthy resource for reuse."""
        with self._cond:
            if self._in_use <= 0:
                raise RuntimeError("checkin without a matching checkout")
            self._in_use -= 1
            if self._closed:
                self._close_quietly(resource)
            else:
                self._idle.append((resource, self._clock()))
            self._cond.notify()

    def discard(self, resource: T) -> None:
        """Drop a broken resource; its slot frees up immediately."""
        self._close_quietly(resource)
        with self._cond:
            if self._in_use <= 0:
                raise RuntimeError("discard without a matching checkout")
            self._in_use -= 1
            self.discarded += 1
            self._cond.notify()

    # -- maintenance --------------------------------------------------------------

    def reap_idle(self) -> int:
        """Close idle resources older than ``max_idle_s``; returns count.

        Expired entries are removed from the idle list atomically under
        the pool lock and closed only after it is released.  The order
        matters: a reap racing a checkout must never hand the peer a
        just-closed resource, so a resource is either still pooled and
        open, or already unhooked and invisible to checkouts by the time
        its closer runs.
        """
        with self._cond:
            expired = self._take_expired_locked()
        for resource in expired:
            self._close_quietly(resource)
        return len(expired)

    def _take_expired_locked(self) -> List[T]:
        """Unhook idle entries past ``max_idle_s``; caller closes them.

        Must run under ``_cond``.  Returns the expired resources without
        closing them — invoking the closer under the pool lock would
        serialize every checkout behind it (and deadlock if a closer
        re-entered the pool), so disposal is the caller's job once the
        lock is dropped.
        """
        if self.max_idle_s is None or not self._idle:
            return []
        cutoff = self._clock() - self.max_idle_s
        expired: List[T] = []
        keep: List[Tuple[T, float]] = []
        for resource, idle_since in self._idle:
            if idle_since <= cutoff:
                expired.append(resource)
                self.reaped += 1
            else:
                keep.append((resource, idle_since))
        self._idle = keep
        return expired

    def close_all(self) -> None:
        """Close every idle resource and refuse new checkouts.

        Checked-out resources stay with their borrowers; returning them
        closes them instead of pooling them.
        """
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for resource, _ in idle:
            self._close_quietly(resource)

    def reopen(self) -> None:
        """Allow checkouts again after :meth:`close_all` (reconnect path)."""
        with self._cond:
            self._closed = False

    def _close_quietly(self, resource: T) -> None:
        try:
            self._closer(resource)
        except Exception:
            pass

    # -- introspection ------------------------------------------------------------

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def idle(self) -> int:
        return len(self._idle)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConnectionPool(in_use={self._in_use}, idle={len(self._idle)}, "
            f"max={self.max_size})"
        )
