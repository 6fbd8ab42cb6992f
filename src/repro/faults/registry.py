"""Deterministic fault injection: named sites, armable fault specs.

Production failure paths are unreachable from ordinary tests — a snapshot
write that tears, a WAL append that hits a full disk, a rebuild worker
that dies — so the serving stack declares *injection sites* (one string
name per failure point) and calls :func:`fault_check` as it passes each
one.  Tests and the chaos harness (:mod:`repro.faults.chaos`) arm a site
with a :class:`FaultSpec` — raise, delay, or tear the write — and the
next ``fault_check`` hits fire it, deterministically, for exactly the
armed number of triggers.

The registry is process-global (:func:`get_fault_registry`) so a fault
armed in a test thread fires inside the server's worker threads.  Arming
comes from two sources:

- the API: ``get_fault_registry().arm("wal.append", kind="error")``;
- the ``REPRO_FAULTS`` environment variable, parsed once when the global
  registry is created (``site=kind[:times[:after]]``, comma-separated).

Every trigger increments both a per-registry counter and the process-wide
observability counter ``faults.triggered{site=...}``, so chaos runs can
assert that the faults they armed actually fired (and export the report
through ``repro/obs``).  When nothing is armed, ``fault_check`` is one
dict emptiness test — safe to leave in hot paths.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

from repro.obs.metrics import get_registry

__all__ = [
    "ENV_FAULTS",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultSpec",
    "InjectedFault",
    "FaultRegistry",
    "fault_check",
    "get_fault_registry",
    "parse_fault_spec",
]

ENV_FAULTS = "REPRO_FAULTS"

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
#: ``delay_seconds`` then continues; ``torn_write`` instructs write sites
#: to leave a partial record on disk and then fail (simulating a crash
#: mid-write) — sites without torn-write semantics treat it as ``error``.
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


def parse_fault_spec(spec: str) -> list[FaultSpec]:
    """Parse a ``site=kind[:times[:after]]`` comma-separated spec string.

    Examples: ``"wal.append=error"``, ``"snapshot.write=torn_write:1"``,
    ``"rebuild.worker=error:2,serve.dispatch=delay"``.
    """
    out: list[FaultSpec] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad fault spec {part!r}: expected site=kind[:times[:after]]"
            )
        site, _, rhs = part.partition("=")
        pieces = rhs.split(":")
        if not pieces or not pieces[0]:
            raise ValueError(f"bad fault spec {part!r}: missing kind")
        kind = pieces[0]
        try:
            times = int(pieces[1]) if len(pieces) > 1 else 1
            after = int(pieces[2]) if len(pieces) > 2 else 0
        except ValueError as exc:
            raise ValueError(
                f"bad fault spec {part!r}: times/after must be integers"
            ) from exc
        if len(pieces) > 3:
            raise ValueError(f"bad fault spec {part!r}: too many ':' fields")
        out.append(FaultSpec(site=site.strip(), kind=kind, times=times, after=after))
    return out


class FaultRegistry:
    """Thread-safe registry of armed faults, checked at injection sites."""

    def __init__(self, env: "str | None" = None) -> None:
        self._lock = threading.Lock()
        self._specs: dict[str, FaultSpec] = {}
        self._triggered: dict[str, int] = {}
        if env:
            self.arm_spec(env)

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

    def arm_spec(self, spec: str) -> list[FaultSpec]:
        """Arm every fault in a ``REPRO_FAULTS``-format spec string."""
        specs = parse_fault_spec(spec)
        with self._lock:
            for s in specs:
                self._specs[s.site] = s
        return specs

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

    def report(self) -> dict:
        """JSON-able summary: per-site trigger counts + still-armed specs."""
        with self._lock:
            return {
                "triggered": dict(self._triggered),
                "armed": {
                    site: {"kind": s.kind, "times": s.times, "fired": s._fired}
                    for site, s in self._specs.items()
                },
            }


_global_lock = threading.Lock()
_global_registry: "FaultRegistry | None" = None


def get_fault_registry() -> FaultRegistry:
    """The process-global registry (arms ``REPRO_FAULTS`` on first use)."""
    global _global_registry
    with _global_lock:
        if _global_registry is None:
            _global_registry = FaultRegistry(env=os.environ.get(ENV_FAULTS))
        return _global_registry


def fault_check(site: str) -> "str | None":
    """Module-level :meth:`FaultRegistry.check` against the global registry."""
    registry = _global_registry
    if registry is None:
        registry = get_fault_registry()
    return registry.check(site)
