"""Fault injection for the serving stack.

:mod:`repro.faults.registry` declares named injection sites across the
snapshot, WAL, rebuild, and dispatch paths and lets tests arm
exception/delay/torn-write faults against them deterministically; the
crash-recovery state machine of ``tests/test_recovery_machine.py`` drives
the serving stack through them.
"""

from repro.faults.registry import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultRegistry,
    FaultSpec,
    InjectedFault,
    fault_check,
    get_fault_registry,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_SITES",
    "FaultRegistry",
    "FaultSpec",
    "InjectedFault",
    "fault_check",
    "get_fault_registry",
]
