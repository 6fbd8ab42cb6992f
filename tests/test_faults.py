"""Tests for the fault-injection registry (sites, specs, arming, firing)."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    FaultRegistry,
    FaultSpec,
    InjectedFault,
    fault_check,
    get_fault_registry,
)


class TestSpecs:
    def test_unknown_site_and_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="warp.core")
        with pytest.raises(ValueError):
            FaultSpec(site="wal.append", kind="explode")
        for site in FAULT_SITES:
            for kind in FAULT_KINDS:
                FaultSpec(site=site, kind=kind)


class TestFiring:
    def test_error_fires_exactly_times_then_disarms(self):
        registry = FaultRegistry()
        registry.arm("index.query", kind="error", times=2)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                registry.check("index.query")
        assert registry.check("index.query") is None
        assert registry.triggered("index.query") == 2
        assert registry.armed() == {}

    def test_after_skips_initial_hits(self):
        registry = FaultRegistry()
        registry.arm("serve.dispatch", kind="error", times=1, after=2)
        assert registry.check("serve.dispatch") is None
        assert registry.check("serve.dispatch") is None
        with pytest.raises(InjectedFault):
            registry.check("serve.dispatch")

    def test_torn_write_returns_marker(self):
        registry = FaultRegistry()
        registry.arm("wal.append", kind="torn_write")
        assert registry.check("wal.append") == "torn_write"
        assert registry.check("wal.append") is None

    def test_delay_sleeps_and_continues(self):
        registry = FaultRegistry()
        registry.arm("rebuild.worker", kind="delay", delay_seconds=0.0)
        assert registry.check("rebuild.worker") is None
        assert registry.triggered("rebuild.worker") == 1

    def test_unarmed_sites_fast_path(self):
        registry = FaultRegistry()
        assert registry.check("wal.append") is None
        registry.arm("wal.append")
        assert registry.check("snapshot.write") is None  # other site untouched

    def test_unlimited_times_zero(self):
        registry = FaultRegistry()
        registry.arm("wal.append", kind="torn_write", times=0)
        for _ in range(5):
            assert registry.check("wal.append") == "torn_write"
        assert "wal.append" in registry.armed()

    def test_disarm_and_reset(self):
        registry = FaultRegistry()
        registry.arm("wal.append")
        registry.arm("index.query")
        registry.disarm("wal.append")
        assert set(registry.armed()) == {"index.query"}
        registry.reset()
        assert registry.armed() == {} and registry.triggered() == 0


class TestGlobalRegistry:
    def test_module_helper_hits_global(self):
        get_fault_registry().arm("index.query", kind="error", times=1)
        with pytest.raises(InjectedFault):
            fault_check("index.query")
        assert fault_check("index.query") is None
