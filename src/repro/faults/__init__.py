"""Fault injection and chaos scenarios for the serving stack.

:mod:`repro.faults.registry` declares named injection sites across the
snapshot, WAL, rebuild, and dispatch paths and lets tests arm
exception/delay/torn-write faults against them deterministically;
:mod:`repro.faults.chaos` packages the kill-and-recover (one scenario
per kill mode), torn-snapshot, and rebuild-crash-retry scenarios the
``repro chaos`` CLI runs.
"""

from repro.faults.registry import (
    ENV_FAULTS,
    FAULT_KINDS,
    FAULT_SITES,
    FaultRegistry,
    FaultSpec,
    InjectedFault,
    fault_check,
    get_fault_registry,
    parse_fault_spec,
)

__all__ = [
    "ENV_FAULTS",
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultRegistry",
    "FaultSpec",
    "InjectedFault",
    "fault_check",
    "get_fault_registry",
    "parse_fault_spec",
]
