"""Run-manifest determinism, fingerprinting and schema validation."""

import hashlib
import json
import math

import pytest

from repro.obs import classify, validate_document
from repro.params import cohort_config
from repro.qa import (
    RunManifest,
    artifact_ref,
    build_manifest,
    config_fingerprint,
    load_manifest,
    stats_metrics,
    write_manifest,
)


def make_manifest(**overrides):
    fields = dict(
        kind="simulate",
        label="unit",
        engine="seed",
        seed=0,
        config_fingerprint="c" * 64,
        traces=["a" * 40, "b" * 40],
        metrics={"final_cycle": 6443, "hit_rate": 0.87},
        artifacts=[{"path": "out.json", "sha256": "d" * 64, "bytes": 12}],
        environment={"host": "ci"},
    )
    fields.update(overrides)
    return RunManifest(**fields)


class TestRoundTrip:
    def test_write_load_rewrite_is_byte_identical(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(make_manifest(), str(path))
        first = path.read_bytes()
        write_manifest(load_manifest(str(path)), str(path))
        assert path.read_bytes() == first

    def test_load_returns_equal_manifest(self, tmp_path):
        manifest = make_manifest()
        path = tmp_path / "m.json"
        write_manifest(manifest, str(path))
        assert load_manifest(str(path)).to_dict() == manifest.to_dict()

    def test_tampered_file_is_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(make_manifest(), str(path))
        doc = json.loads(path.read_text())
        doc["metrics"]["final_cycle"] = 9999
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            load_manifest(str(path))

    def test_missing_required_field_is_rejected(self):
        doc = make_manifest().to_dict()
        del doc["kind"]
        with pytest.raises(ValueError, match="invalid run manifest"):
            RunManifest.from_dict(doc)

    def test_wrong_schema_tag_is_rejected(self):
        doc = make_manifest().to_dict()
        doc["schema"] = "something/else"
        with pytest.raises(ValueError, match="not a run manifest"):
            RunManifest.from_dict(doc)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert make_manifest().fingerprint() == make_manifest().fingerprint()

    def test_metric_change_changes_fingerprint(self):
        a = make_manifest()
        b = make_manifest(metrics={"final_cycle": 6444, "hit_rate": 0.87})
        assert a.fingerprint() != b.fingerprint()

    def test_environment_is_not_fingerprinted(self):
        a = make_manifest(environment={"host": "ci"})
        b = make_manifest(environment={"host": "laptop", "extra": 1})
        assert a.fingerprint() == b.fingerprint()


class TestSanitisation:
    def test_non_finite_metrics_become_none(self):
        manifest = make_manifest(
            metrics={"nan": float("nan"), "inf": math.inf, "ok": 1.5}
        )
        doc = manifest.to_dict()
        assert doc["metrics"] == {"nan": None, "inf": None, "ok": 1.5}

    def test_written_json_is_strict(self, tmp_path):
        path = tmp_path / "m.json"
        write_manifest(
            make_manifest(metrics={"nan": float("nan")}), str(path)
        )
        # strict parsing: would raise on NaN/Infinity literals
        json.loads(path.read_text(), parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"non-strict JSON constant {name} in manifest")


class TestSchemaAndClassify:
    def test_manifest_document_validates(self):
        assert validate_document(make_manifest().to_dict()) == []

    def test_broken_document_reports_errors(self):
        doc = make_manifest().to_dict()
        doc["artifacts"] = [{"path": "x"}]  # missing sha256/bytes
        assert validate_document(doc)

    def test_classify_recognises_run_manifest(self):
        assert classify(make_manifest().to_dict()) == "run_manifest"


class TestBuildingBlocks:
    def test_artifact_ref_digests_content(self, tmp_path):
        payload = b"hello manifest"
        target = tmp_path / "sub" / "art.bin"
        target.parent.mkdir()
        target.write_bytes(payload)
        ref = artifact_ref(str(target), base_dir=str(tmp_path))
        assert ref == {
            "path": "sub/art.bin",
            "sha256": hashlib.sha256(payload).hexdigest(),
            "bytes": len(payload),
        }

    def test_config_fingerprint_tracks_thetas(self):
        a = config_fingerprint(cohort_config([100, 20, 20, 20]))
        b = config_fingerprint(cohort_config([50, 20, 20, 20]))
        assert a != b
        assert a == config_fingerprint(cohort_config([100, 20, 20, 20]))

    def test_stats_metrics_aggregates_cores(self):
        stats = {
            "final_cycle": 100,
            "execution_time": 101,
            "bus_utilization": 0.5,
            "timer_expiries": 3,
            "writebacks": 2,
            "mode_switches": 0,
            "cores": [
                {"hits": 6, "misses": 2, "max_request_latency": 40,
                 "total_memory_latency": 90},
                {"hits": 2, "misses": 0, "max_request_latency": 10,
                 "total_memory_latency": 20},
            ],
        }
        metrics = stats_metrics(stats)
        assert metrics["hits"] == 8
        assert metrics["misses"] == 2
        assert metrics["hit_rate"] == 0.8
        assert metrics["max_request_latency"] == 40
        assert metrics["total_memory_latency"] == 110

    def test_stats_metrics_empty_run_has_no_hit_rate(self):
        metrics = stats_metrics({"cores": []})
        assert metrics["hit_rate"] is None

    def test_build_manifest_merges_stats_and_metrics(self):
        manifest = build_manifest(
            "simulate", "x",
            stats={"final_cycle": 7, "cores": []},
            metrics={"extra": 1, "final_cycle": 8},
        )
        # explicit metrics win over flattened stats
        assert manifest.metrics["final_cycle"] == 8
        assert manifest.metrics["extra"] == 1
