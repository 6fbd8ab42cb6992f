"""Deterministic fault injection: named sites, armable fault specs.

Production failure paths are unreachable from ordinary tests — a snapshot
write that tears, a WAL append that hits a full disk, a rebuild worker
that dies — so the serving stack declares *injection sites* (one string
name per failure point) and calls :func:`fault_check` as it passes each
one.  Tests arm a site with a :class:`FaultSpec` — raise, delay, or tear
the write — through ``get_fault_registry().arm("wal.append",
kind="error")``, and the next ``fault_check`` hits fire it,
deterministically, for exactly the armed number of triggers.

The registry is process-global (:func:`get_fault_registry`) so a fault
armed in a test thread fires inside the server's worker threads.  Every
trigger increments both a per-registry counter and the process-wide
observability counter ``faults.triggered{site=...}``, so a test can
assert that the faults it armed actually fired.  When nothing is armed,
``fault_check`` is one dict emptiness test — safe to leave in hot paths.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultSpec",
    "InjectedFault",
    "FaultRegistry",
    "fault_check",
    "get_fault_registry",
]

#: The failure points the serving stack declares.  Arming an unknown site
#: is an error (it would silently never fire).
FAULT_SITES = (
    "snapshot.write",
    "wal.append",
    "rebuild.worker",
    "serve.dispatch",
    "index.query",
)

#: ``error`` raises :class:`InjectedFault`; ``delay`` sleeps
#: ``delay_seconds`` then continues; ``torn_write`` makes a write site
#: write part of its data and then fail: the WAL writes half a record and
#: cuts it back before raising, the snapshot store renames a truncated
#: file into place — sites without torn-write semantics treat it as
#: ``error``.
FAULT_KINDS = ("error", "delay", "torn_write")


class InjectedFault(RuntimeError):
    """The exception raised by an armed ``error``/``torn_write`` fault."""


@dataclass
class FaultSpec:
    """One armed fault: what happens at ``site`` and how many times.

    Attributes
    ----------
    site:
        Injection-site name (one of :data:`FAULT_SITES`).
    kind:
        ``error`` / ``delay`` / ``torn_write`` (:data:`FAULT_KINDS`).
    times:
        Triggers before the spec disarms itself; ``0`` means unlimited.
    after:
        Hits to let pass before the first trigger (fire on the
        ``after+1``-th passage), for targeting e.g. the third append.
    delay_seconds:
        Sleep length for ``delay`` faults.
    """

    site: str
    kind: str = "error"
    times: int = 1
    after: int = 0
    delay_seconds: float = 0.01
    _hits: int = field(default=0, repr=False)
    _fired: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known sites: {FAULT_SITES}"
            )
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: {FAULT_KINDS}"
            )
        if self.times < 0 or self.after < 0:
            raise ValueError("times and after must be >= 0")
        if self.delay_seconds < 0:
            raise ValueError(f"delay_seconds must be >= 0, got {self.delay_seconds}")


class FaultRegistry:
    """Thread-safe registry of armed faults, checked at injection sites."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._specs: dict[str, FaultSpec] = {}
        self._triggered: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(
        self,
        site: str,
        kind: str = "error",
        times: int = 1,
        after: int = 0,
        delay_seconds: float = 0.01,
    ) -> FaultSpec:
        """Arm ``site``; replaces any spec already armed there."""
        spec = FaultSpec(
            site=site, kind=kind, times=times, after=after,
            delay_seconds=delay_seconds,
        )
        with self._lock:
            self._specs[site] = spec
        return spec

    def disarm(self, site: "str | None" = None) -> None:
        """Disarm one site, or everything when ``site`` is None."""
        with self._lock:
            if site is None:
                self._specs.clear()
            else:
                self._specs.pop(site, None)

    def reset(self) -> None:
        """Disarm everything and zero the trigger counts (test teardown)."""
        with self._lock:
            self._specs.clear()
            self._triggered.clear()

    def armed(self) -> dict[str, FaultSpec]:
        with self._lock:
            return dict(self._specs)

    # ------------------------------------------------------------------
    # Checking (the hot-path call)
    # ------------------------------------------------------------------
    def check(self, site: str) -> "str | None":
        """Pass injection site ``site``; fires the armed fault, if any.

        Returns ``"torn_write"`` when a torn-write fault fired (the call
        site performs the partial write, then raises
        :class:`InjectedFault`); raises :class:`InjectedFault` directly
        for ``error`` faults; sleeps for ``delay`` faults.  Returns None
        when nothing fired.
        """
        if not self._specs:  # fast path: nothing armed anywhere
            return None
        with self._lock:
            spec = self._specs.get(site)
            if spec is None:
                return None
            spec._hits += 1
            if spec._hits <= spec.after:
                return None
            spec._fired += 1
            if spec.times and spec._fired >= spec.times:
                del self._specs[site]
            self._triggered[site] = self._triggered.get(site, 0) + 1
            kind = spec.kind
            delay = spec.delay_seconds
        get_registry().counter("faults.triggered", site=site, kind=kind).inc()
        if kind == "delay":
            time.sleep(delay)
            return None
        if kind == "torn_write":
            return "torn_write"
        raise InjectedFault(f"injected fault at {site}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def triggered(self, site: "str | None" = None) -> int:
        """Trigger count for one site (or the total across all sites)."""
        with self._lock:
            if site is not None:
                return self._triggered.get(site, 0)
            return sum(self._triggered.values())


_global_lock = threading.Lock()
_global_registry: "FaultRegistry | None" = None


def get_fault_registry() -> FaultRegistry:
    """The process-global registry."""
    global _global_registry
    with _global_lock:
        if _global_registry is None:
            _global_registry = FaultRegistry()
        return _global_registry


def fault_check(site: str) -> "str | None":
    """Module-level :meth:`FaultRegistry.check` against the global registry."""
    registry = _global_registry
    if registry is None:
        registry = get_fault_registry()
    return registry.check(site)
