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
    parse_fault_spec,
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

    def test_parse_spec_string(self):
        specs = parse_fault_spec(
            "wal.append=error, snapshot.write=torn_write:2, rebuild.worker=error:3:5"
        )
        assert [(s.site, s.kind, s.times, s.after) for s in specs] == [
            ("wal.append", "error", 1, 0),
            ("snapshot.write", "torn_write", 2, 0),
            ("rebuild.worker", "error", 3, 5),
        ]
        assert parse_fault_spec("") == []

    @pytest.mark.parametrize(
        "bad",
        ["wal.append", "wal.append=", "wal.append=error:x", "wal.append=error:1:2:3"],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)


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

    def test_env_spec_arms_registry(self):
        registry = FaultRegistry(env="snapshot.write=error:2")
        assert registry.armed()["snapshot.write"].times == 2

    def test_report_shape(self):
        registry = FaultRegistry()
        registry.arm("wal.append", times=2)
        with pytest.raises(InjectedFault):
            registry.check("wal.append")
        report = registry.report()
        assert report["triggered"] == {"wal.append": 1}
        assert report["armed"]["wal.append"]["fired"] == 1

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
