"""The wire client's connection pool.

The wire client multiplexes concurrent callers over a small pool of
connections to one peer:

:class:`ConnectionPool`
    A bounded checkout/checkin pool of homogeneous resources (sockets,
    in the wire client).  Checkout reuses the most recently returned
    idle resource (LIFO keeps connections warm), creates a fresh one
    while under ``max_size``, and otherwise blocks until a peer checks
    one in.  Broken resources are *discarded* rather than checked in,
    which frees their slot immediately.  Idle resources older than
    ``max_idle_s`` are reaped opportunistically on the next checkout.
    :meth:`ConnectionPool.close_all` retires every resource that exists
    at that moment, idle or checked out.

The pool does not import the observability facade: occupancy is read
from :attr:`ConnectionPool.in_use` and :attr:`ConnectionPool.idle`, so
the module stays dependency-free and unit-testable on its own.  The
servers the pool connects to need no primitive from here: each serves
all its connections from one thread (:mod:`repro.core.net.server`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class PoolTimeout(OSError):
    """A pool checkout waited out its budget with every slot in use.

    Deliberately an ``OSError``: to the wire client's retry loop an
    exhausted pool looks like any other transient transport failure —
    the request never left the process, so retrying it is always safe.
    """


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
        #: Bumped by :meth:`close_all`; a resource checked out in an
        #: older generation is closed when it comes back.
        self._generation = 0
        self._lent: Dict[int, int] = {}  # id(resource) -> its generation
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
                    expired.extend(self._take_expired_locked())
                    if self._idle:
                        resource, _ = self._idle.pop()  # LIFO: warmest first
                        self._in_use += 1
                        self.reused += 1
                        self._lent[id(resource)] = self._generation
                        return resource
                    if self._in_use < self.max_size:
                        # Create outside the condition so a slow connect
                        # does not block peers returning resources; the
                        # slot is reserved first so the bound holds.
                        self._in_use += 1
                        generation = self._generation
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
            # The generation of the slot's reservation: a close_all while
            # the connect ran retires this resource too.
            self._lent[id(resource)] = generation
        return resource

    def checkin(self, resource: T) -> None:
        """Return a healthy resource for reuse.

        A resource checked out before the last :meth:`close_all` is
        closed instead of pooled.
        """
        with self._cond:
            if self._in_use <= 0:
                raise RuntimeError("checkin without a matching checkout")
            self._in_use -= 1
            retired = self._lent.pop(id(resource), self._generation) < self._generation
            if not retired:
                self._idle.append((resource, self._clock()))
            self._cond.notify()
        if retired:
            self._close_quietly(resource)

    def discard(self, resource: T) -> None:
        """Drop a broken resource; its slot frees up immediately."""
        self._close_quietly(resource)
        with self._cond:
            if self._in_use <= 0:
                raise RuntimeError("discard without a matching checkout")
            self._in_use -= 1
            self._lent.pop(id(resource), None)
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
        """Retire every resource that exists now; the pool stays usable.

        Idle resources are closed at once.  Checked-out ones stay with
        their borrowers and are closed when they come back, instead of
        being pooled.  The next checkout creates a fresh resource.
        """
        with self._cond:
            self._generation += 1
            idle, self._idle = self._idle, []
        for resource, _ in idle:
            self._close_quietly(resource)

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConnectionPool(in_use={self._in_use}, idle={len(self._idle)}, "
            f"max={self.max_size})"
        )
