"""--audit plumbing: runners, pv exchange hook, sweep failure surfacing."""

import json
import os

import pytest

from repro.experiments.runner import (
    NativeRunner,
    RunConfig,
    VirtRunConfig,
    VirtRunner,
)
from repro.lint.invariants import InvariantViolation
from repro.obs.options import ObsOptions


class TestNativeRunnerAudit:
    def test_audit_runs_and_counts(self, tmp_path):
        out = str(tmp_path / "m.json")
        runner = NativeRunner(
            RunConfig(
                "GUPS",
                "Trident",
                n_accesses=1500,
                seed=7,
                obs=ObsOptions(audit=True, audit_every=256, metrics_out=out),
            )
        )
        runner.run()
        auditor = runner.system.auditor
        assert auditor is not None
        assert auditor.audits >= 1  # the runner's final audit at minimum
        assert auditor.checks > 0
        assert auditor.violations == 0
        section = json.load(open(out))["run"]
        assert section["audit_runs"] == auditor.audits
        assert section["audit_checks"] == auditor.checks
        assert section["audit_violations"] == 0

    def test_audit_off_by_default(self):
        runner = NativeRunner(
            RunConfig("GUPS", "Trident", n_accesses=500, seed=7)
        )
        assert runner.system.auditor is None

    def test_selftest_injection_surfaces(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUDIT_SELFTEST", "1")
        runner = NativeRunner(
            RunConfig(
                "GUPS", "Trident", n_accesses=500, seed=7,
                obs=ObsOptions(audit=True),
            )
        )
        with pytest.raises(InvariantViolation, match="self-test"):
            runner.run()
        assert runner.system.auditor.violations >= 1


class TestVirtRunnerAudit:
    def test_pv_run_audits_both_systems(self):
        runner = VirtRunner(
            VirtRunConfig(
                "GUPS",
                "Trident",
                "Trident",
                pv=True,
                n_accesses=1500,
                seed=7,
                obs=ObsOptions(audit=True, audit_every=512),
            )
        )
        runner.run()
        guest, host = runner.vm.guest.auditor, runner.vm.host.auditor
        assert guest is not None and host is not None
        assert guest.audits >= 1 and host.audits >= 1
        assert guest.violations == 0 and host.violations == 0
        # the host auditor carries the hypervisor for pv bijectivity
        assert host.hypervisor is runner.vm.hypervisor

    def test_corrupted_exchange_detected(self):
        """A pfn swap that skips the owner fix-up must fail the pv audit."""
        from repro.lint.invariants import check_pv_mappings

        runner = VirtRunner(
            VirtRunConfig(
                "GUPS",
                "Trident",
                "Trident",
                pv=True,
                n_accesses=800,
                seed=7,
                obs=ObsOptions(audit=True),
            )
        )
        runner.run()
        hypervisor = runner.vm.hypervisor
        assert check_pv_mappings(hypervisor) > 0
        mappings = list(hypervisor.host_table.iter_mappings())
        a, b = mappings[0], mappings[-1]
        a.pfn, b.pfn = b.pfn, a.pfn  # exchange without _owner_swap
        with pytest.raises(InvariantViolation):
            check_pv_mappings(hypervisor)


class TestSweepAudit:
    def _sweep(self, tmp_path, monkeypatch, selftest: bool):
        from repro.experiments.orchestrator import SweepConfig, run_sweep

        if selftest:
            monkeypatch.setenv("REPRO_AUDIT_SELFTEST", "1")
        else:
            monkeypatch.delenv("REPRO_AUDIT_SELFTEST", raising=False)
        config = SweepConfig(
            modules=("table3",),
            quick=True,
            jobs=1,
            out_dir=str(tmp_path / "report"),
            max_retries=0,
            audit=True,
        )
        return run_sweep(config, progress=lambda *_: None)

    def test_audit_counters_reach_sweep_metrics(self, tmp_path, monkeypatch):
        manifest = self._sweep(tmp_path, monkeypatch, selftest=False)
        assert all(u["status"] == "ok" for u in manifest["units"])
        assert manifest["audit"] is True
        summary = json.load(open(manifest["metrics_summary"]))
        assert summary["totals"]["audit_runs"] >= 1
        assert summary["totals"]["audit_checks"] > 0
        assert summary["totals"]["audit_violations"] == 0
        # GUPS x unfragmented/fragmented x 3 mechanisms: six runs, six drops
        (unit,) = manifest["units"]
        assert len(unit["metrics"]) == 6
        assert summary["files"] == 6

    def test_audit_failures_surface_as_unit_failures(
        self, tmp_path, monkeypatch
    ):
        manifest = self._sweep(tmp_path, monkeypatch, selftest=True)
        statuses = {u["status"] for u in manifest["units"]}
        assert "ok" not in statuses
        manifest_path = os.path.join(
            str(tmp_path / "report"), "sweep_manifest.json"
        )
        on_disk = json.load(open(manifest_path))
        assert on_disk["counts"].get("ok", 0) == 0
