"""Gate-engine semantics: specs, assertions, severities, CLI plumbing."""

import json

import pytest

from repro.cli import main
from repro.obs import validate_document
from repro.qa import (
    GateQuestion,
    GateSpec,
    RunManifest,
    available_specs,
    evaluate_spec,
    load_spec,
    write_manifest,
)
from repro.qa.gates import escalate


def manifest(metrics, **overrides):
    fields = dict(kind="bench", label="unit", metrics=metrics)
    fields.update(overrides)
    return RunManifest(**fields)


def spec_of(*questions, params=None, requires_baseline=False):
    return GateSpec.from_dict({
        "name": "unit", "version": "1",
        "params": params or {},
        "requires_baseline": requires_baseline,
        "questions": list(questions),
    })


Q_FLOOR = {
    "id": "floor", "question": "above floor?",
    "check": "metrics['rate']",
    "assertion": "result >= (1.0 - params['tol']) * baseline",
    "severity": "high", "category": "performance",
}


class TestShippedSpecs:
    def test_all_seven_ship(self):
        assert available_specs() == [
            "capacity", "chaos", "faults", "promotion", "serve", "slo",
            "throughput",
        ]

    def test_specs_load_and_have_questions(self):
        for name in available_specs():
            spec = load_spec(name)
            assert spec.questions, name

    def test_unknown_spec_lists_available(self):
        with pytest.raises(FileNotFoundError, match="throughput"):
            load_spec("nonesuch")


class TestAssertionSemantics:
    def test_band_edge_passes_exactly_at_floor(self):
        spec = spec_of(Q_FLOOR, params={"tol": 0.2})
        base = manifest({"rate": 1000.0})
        at_floor = manifest({"rate": 800.0})
        below = manifest({"rate": 799.9})
        assert evaluate_spec(spec, at_floor, base).exit_code == 0
        assert evaluate_spec(spec, below, base).exit_code == 1

    def test_param_override_changes_decision(self):
        spec = spec_of(Q_FLOOR, params={"tol": 0.2})
        base = manifest({"rate": 1000.0})
        cand = manifest({"rate": 700.0})
        assert evaluate_spec(spec, cand, base).exit_code == 1
        assert evaluate_spec(
            spec, cand, base, params={"tol": 0.5}
        ).exit_code == 0

    def test_unknown_param_override_is_rejected(self):
        spec = spec_of(Q_FLOOR, params={"tol": 0.2})
        with pytest.raises(ValueError, match="unknown param"):
            evaluate_spec(
                spec, manifest({"rate": 1.0}), manifest({"rate": 1.0}),
                params={"tolerance": 0.5},
            )

    def test_missing_baseline_key_is_escalated_error(self):
        spec = spec_of(Q_FLOOR, params={"tol": 0.2})
        base = manifest({})  # no 'rate'
        cand = manifest({"rate": 800.0})
        report = evaluate_spec(spec, cand, base)
        (outcome,) = report.outcomes
        assert outcome.status == "error"
        assert outcome.declared_severity == "high"
        assert outcome.severity == "critical"
        assert report.exit_code == 1

    def test_none_metric_is_error_not_pass(self):
        # NaN metrics are stored as None in the canonical manifest form;
        # comparing None must fail loudly, never silently pass.
        spec = spec_of(Q_FLOOR, params={"tol": 0.2})
        base = manifest({"rate": 1000.0})
        cand = manifest({"rate": float("nan")})
        report = evaluate_spec(spec, cand, base)
        assert report.outcomes[0].status == "error"
        assert report.exit_code == 1

    def test_warn_failure_does_not_gate(self):
        question = dict(Q_FLOOR, severity="warn")
        spec = spec_of(question, params={"tol": 0.2})
        report = evaluate_spec(
            spec, manifest({"rate": 1.0}), manifest({"rate": 1000.0})
        )
        assert report.outcomes[0].status == "fail"
        assert not report.outcomes[0].gating
        assert report.exit_code == 0

    def test_warn_error_escalates_to_gating_high(self):
        question = dict(Q_FLOOR, severity="warn")
        spec = spec_of(question, params={"tol": 0.2})
        report = evaluate_spec(
            spec, manifest({}), manifest({"rate": 1000.0})
        )
        assert report.outcomes[0].severity == "high"
        assert report.exit_code == 1

    def test_pair_question_without_baseline_is_skipped(self):
        spec = spec_of(Q_FLOOR, params={"tol": 0.2})
        report = evaluate_spec(spec, manifest({"rate": 1.0}))
        assert report.outcomes[0].status == "skipped"
        assert report.exit_code == 0

    def test_requires_baseline_spec_refuses_single_manifest(self):
        spec = spec_of(Q_FLOOR, params={"tol": 0.2},
                       requires_baseline=True)
        with pytest.raises(ValueError, match="requires"):
            evaluate_spec(spec, manifest({"rate": 1.0}))

    def test_escalation_ladder(self):
        assert escalate("info") == "warn"
        assert escalate("warn") == "high"
        assert escalate("high") == "critical"
        assert escalate("critical") == "critical"

    def test_question_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="severity"):
            GateQuestion(id="x", question="?", check="1",
                         assertion="result", severity="fatal")

    def test_report_document_validates(self):
        spec = spec_of(Q_FLOOR, params={"tol": 0.2})
        report = evaluate_spec(
            spec, manifest({"rate": 1.0}), manifest({"rate": 1.0})
        )
        assert validate_document(report.to_dict()) == []


class TestLegacyGateParity:
    """The shipped specs reproduce the historical ad-hoc decisions."""

    def bench_pair(self, **candidate_overrides):
        metrics = {
            "total_accesses": 98304,
            "cohort_cycles": 76904,
            "msi_fcfs_cycles": 66496,
            "cohort_accesses_per_second": 396052.0,
            "msi_fcfs_accesses_per_second": 487944.0,
            "telemetry_cycles": 76904,
            "lockstep_cycles_digest": "1" * 64,
            "lockstep_speedup": 5.6,
            "lockstep_accesses_per_second": 3553186.0,
        }
        base = manifest(dict(metrics), label="artifact")
        cand_metrics = dict(
            metrics,
            telemetry_on_rate=400000.0,
            telemetry_off_rate=410000.0,
        )
        cand_metrics.update(candidate_overrides)
        return base, manifest(cand_metrics, label="candidate")

    def test_identical_measurement_passes(self):
        base, cand = self.bench_pair()
        spec = load_spec("throughput")
        assert evaluate_spec(spec, cand, base).exit_code == 0

    def test_cycle_drift_fails(self):
        base, cand = self.bench_pair(cohort_cycles=76000)
        assert evaluate_spec(
            load_spec("throughput"), cand, base
        ).exit_code == 1

    def test_throughput_band_edges(self):
        spec = load_spec("throughput")
        base, at_floor = self.bench_pair(
            cohort_accesses_per_second=0.8 * 396052.0
        )
        _, below = self.bench_pair(
            cohort_accesses_per_second=0.79 * 396052.0
        )
        assert evaluate_spec(spec, at_floor, base).exit_code == 0
        assert evaluate_spec(spec, below, base).exit_code == 1

    def test_telemetry_overhead_budget(self):
        spec = load_spec("throughput")
        base, ok = self.bench_pair(
            telemetry_on_rate=80.0, telemetry_off_rate=100.0
        )
        _, slow = self.bench_pair(
            telemetry_on_rate=79.0, telemetry_off_rate=100.0
        )
        assert evaluate_spec(spec, ok, base).exit_code == 0
        assert evaluate_spec(spec, slow, base).exit_code == 1

    def test_lockstep_identity_and_speedup_floor(self):
        spec = load_spec("throughput")
        base, diverged = self.bench_pair(lockstep_cycles_digest="2" * 64)
        _, slow = self.bench_pair(lockstep_speedup=4.9)
        assert evaluate_spec(spec, diverged, base).exit_code == 1
        assert evaluate_spec(spec, slow, base).exit_code == 1

    def test_missing_artifact_lockstep_section_fails(self):
        # legacy: "artifact has no 'lockstep' section" was a failure
        base, cand = self.bench_pair()
        base.metrics = {
            k: v for k, v in base.metrics.items()
            if not k.startswith("lockstep")
        }
        assert evaluate_spec(
            load_spec("throughput"), cand, base
        ).exit_code == 1

    def faults_manifest(self, silent):
        return manifest({
            "campaigns": 7,
            "injections": 14,
            "detected": 5,
            "survived": 2 - silent,
            "silent_corruptions": silent,
        }, kind="faults")

    def test_faults_zero_silent_corruption_passes(self):
        report = evaluate_spec(load_spec("faults"), self.faults_manifest(0))
        assert report.exit_code == 0

    def test_faults_any_silent_corruption_fails(self):
        report = evaluate_spec(load_spec("faults"), self.faults_manifest(1))
        assert report.exit_code == 1

    def serve_manifest(self, **overrides):
        metrics = {
            "round1_failures": 0, "round2_failures": 0,
            "client_mismatches": 0, "round2_hit_rate": 1.0,
            "cli_submit_exit_code": 0,
            "drain_exit_code": 0, "final_snapshot_written": True,
            "trace_propagation_ok": True,
        }
        metrics.update(overrides)
        return manifest(metrics, kind="serve_smoke")

    def test_serve_clean_run_passes(self):
        assert evaluate_spec(
            load_spec("serve"), self.serve_manifest()
        ).exit_code == 0

    def test_serve_cold_warm_round_floor(self):
        assert evaluate_spec(
            load_spec("serve"), self.serve_manifest(round2_hit_rate=0.9)
        ).exit_code == 0
        assert evaluate_spec(
            load_spec("serve"), self.serve_manifest(round2_hit_rate=0.83)
        ).exit_code == 1

    def test_serve_dirty_drain_fails(self):
        assert evaluate_spec(
            load_spec("serve"), self.serve_manifest(drain_exit_code=143)
        ).exit_code == 1

    def test_serve_failed_cli_submit_fails(self):
        assert evaluate_spec(
            load_spec("serve"), self.serve_manifest(cli_submit_exit_code=1)
        ).exit_code == 1

    def test_serve_broken_trace_propagation_fails(self):
        assert evaluate_spec(
            load_spec("serve"),
            self.serve_manifest(trace_propagation_ok=False),
        ).exit_code == 1


class TestGateCli:
    def simulate(self, tmp_path, name, theta0):
        path = tmp_path / name
        rc = main([
            "simulate", "-b", "fft",
            "-t", str(theta0), "20", "20", "20",
            "--scale", "0.1", "--manifest-out", str(path),
        ])
        assert rc == 0
        return str(path)

    def test_diff_identical_manifests_passes(self, tmp_path, capsys):
        a = self.simulate(tmp_path, "a.json", 100)
        b = self.simulate(tmp_path, "b.json", 100)
        assert main(["gate", "diff", a, b]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_diff_exits_nonzero_on_cycle_drift(self, tmp_path, capsys):
        a = self.simulate(tmp_path, "a.json", 100)
        b = self.simulate(tmp_path, "b.json", 50)
        report_out = tmp_path / "verdict.json"
        rc = main([
            "gate", "diff", a, b, "--report-out", str(report_out)
        ])
        assert rc == 1
        assert "cycle_identity" in capsys.readouterr().out
        doc = json.loads(report_out.read_text())
        assert doc["passed"] is False
        assert validate_document(doc) == []

    def test_promote_installs_candidate_on_pass(self, tmp_path):
        a = self.simulate(tmp_path, "a.json", 100)
        b = self.simulate(tmp_path, "b.json", 100)
        assert main(["gate", "promote", a, b]) == 0
        assert open(a).read() == open(b).read()

    def test_promote_refuses_failing_candidate(self, tmp_path, capsys):
        a = self.simulate(tmp_path, "a.json", 100)
        before = open(a).read()
        b = self.simulate(tmp_path, "b.json", 50)
        assert main(["gate", "promote", a, b]) == 1
        assert open(a).read() == before
        assert "promotion refused" in capsys.readouterr().err

    def test_gate_run_with_spec_and_param(self, tmp_path, capsys):
        m = manifest({
            "campaigns": 1, "injections": 1, "detected": 1,
            "survived": 0, "silent_corruptions": 0,
        }, kind="faults")
        path = tmp_path / "faults.json"
        write_manifest(m, str(path))
        rc = main([
            "gate", "run", "--spec", "faults", "--manifest", str(path),
        ])
        assert rc == 0

    def test_gate_run_missing_baseline_for_pair_spec(self, tmp_path, capsys):
        m = manifest({"x": 1})
        path = tmp_path / "m.json"
        write_manifest(m, str(path))
        rc = main([
            "gate", "run", "--spec", "throughput", "--manifest", str(path),
        ])
        assert rc == 2
        assert "baseline" in capsys.readouterr().err

    def test_gate_list(self, capsys):
        assert main(["gate", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("faults", "promotion", "serve", "slo", "throughput"):
            assert name in out

    def test_metrics_summarises_manifest_and_verdict(
        self, tmp_path, capsys
    ):
        a = self.simulate(tmp_path, "a.json", 100)
        capsys.readouterr()
        assert main(["metrics", a]) == 0
        assert "run manifest" in capsys.readouterr().out
