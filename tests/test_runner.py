"""Tests for the parallel sweep runner and its result cache."""

from dataclasses import replace

import pytest

from repro.params import cohort_config, msi_fcfs_config, pcc_config
from repro.runner import SweepJob, SweepRunner, stats_to_dict
from repro.sim.system import run_simulation
from repro.workloads import splash_traces


@pytest.fixture(scope="module")
def traces():
    return splash_traces("fft", 4, scale=0.3, seed=0)


def named_configs():
    return {
        "cohort": cohort_config([60, 20, 5, 120]),
        "msi": msi_fcfs_config(4),
        "pcc": pcc_config(4),
    }


class TestResultFidelity:
    def test_matches_direct_simulation(self, traces):
        cfg = cohort_config([60] * 4)
        runner = SweepRunner(jobs=1, cache_dir=None)
        result = runner.run_one(cfg, traces)
        stats = run_simulation(cfg, traces)
        assert result["final_cycle"] == stats.final_cycle
        assert result["execution_time"] == stats.execution_time
        for got, core in zip(result["cores"], stats.cores):
            assert got["hits"] == core.hits
            assert got["misses"] == core.misses
            assert got["total_memory_latency"] == core.total_memory_latency

    def test_stats_to_dict_is_json_native(self, traces):
        import json

        stats = run_simulation(cohort_config([60] * 4), traces)
        d = stats_to_dict(stats)
        assert json.loads(json.dumps(d)) == d


class TestParallelDeterminism:
    def test_jobs4_equals_jobs1(self, traces):
        serial = SweepRunner(jobs=1, cache_dir=None)
        parallel = SweepRunner(jobs=4, cache_dir=None)
        a = serial.run_systems(named_configs(), traces)
        b = parallel.run_systems(named_configs(), traces)
        assert a == b
        assert serial.cache_misses == parallel.cache_misses == 3

    def test_record_latencies_cross_process(self, traces):
        cfg = replace(cohort_config([60] * 4), check_coherence=True)
        a = SweepRunner(jobs=1, cache_dir=None).run_one(
            cfg, traces, record_latencies=True
        )
        b = SweepRunner(jobs=2, cache_dir=None).run_one(
            cfg, traces, record_latencies=True
        )
        assert a == b
        assert any(c["request_latencies"] for c in a["cores"])


class TestArrayPayload:
    """The worker task ships trace arrays and rebuilds them in-worker."""

    @pytest.mark.parametrize("record", [False, True])
    def test_execute_matches_inline_simulate(self, traces, record):
        import pickle

        from repro.runner import _execute, _job_payload, _simulate

        job = SweepJob(cohort_config([60, 20, 5, 120]), tuple(traces), record)
        # The pickle round trip is what the process pool does to the task.
        payload = pickle.loads(pickle.dumps(_job_payload(job, "lockstep")))
        stats = _simulate(job.config, job.traces, record, "lockstep")
        assert _execute(payload) == (stats.engine, stats_to_dict(stats))

    def test_payload_carries_arrays_not_lists(self, traces):
        import numpy as np

        from repro.runner import _job_payload

        payload = _job_payload(SweepJob(pcc_config(4), tuple(traces)), "seed")
        for arrays, trace in zip(payload[4], traces):
            assert all(isinstance(a, np.ndarray) for a in arrays)
            assert arrays[2] is trace.addrs

    @pytest.mark.parametrize("field, value", [(0, -1), (1, 7)])
    def test_malformed_trace_is_rejected_in_the_worker(
        self, traces, field, value
    ):
        """A negative gap or a bad op code still fails ``from_arrays``."""
        from repro.runner import _execute, _job_payload

        payload = list(_job_payload(SweepJob(pcc_config(4), tuple(traces)),
                                    "lockstep"))
        arrays = [a.copy() for a in payload[4][0]]
        arrays[field][3] = value
        payload[4] = [tuple(arrays)] + payload[4][1:]
        with pytest.raises(ValueError):
            _execute(tuple(payload))
        runner = SweepRunner(jobs=2, cache_dir=None)
        with pytest.raises(ValueError):
            runner._run_parallel([tuple(payload)])


class TestCache:
    def test_second_run_is_served_from_cache(self, traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        first = SweepRunner(jobs=1, cache_dir=cache)
        a = first.run_systems(named_configs(), traces)
        assert (first.cache_hits, first.cache_misses) == (0, 3)
        second = SweepRunner(jobs=1, cache_dir=cache)
        b = second.run_systems(named_configs(), traces)
        assert (second.cache_hits, second.cache_misses) == (3, 0)
        assert a == b

    def test_in_memory_memo_within_one_runner(self, traces):
        runner = SweepRunner(jobs=1, cache_dir=None)
        cfg = cohort_config([60] * 4)
        a = runner.run_one(cfg, traces)
        b = runner.run_one(cfg, traces)
        assert a == b
        assert (runner.cache_hits, runner.cache_misses) == (1, 1)

    def test_key_depends_on_config_and_traces(self, traces):
        cfg = cohort_config([60] * 4)
        base = SweepJob(cfg, tuple(traces)).digest()
        assert SweepJob(cohort_config([61] + [60] * 3), tuple(traces)).digest() != base
        assert SweepJob(cfg, tuple(traces[:3]) + (traces[0],)).digest() != base
        assert (
            SweepJob(replace(cfg, check_coherence=True), tuple(traces)).digest()
            != base
        )
        assert SweepJob(cfg, tuple(traces), record_latencies=True).digest() != base
        assert SweepJob(cfg, tuple(traces)).digest() == base

    def test_corrupt_cache_entry_is_recomputed(self, traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        cfg = cohort_config([60] * 4)
        first = SweepRunner(jobs=1, cache_dir=cache)
        a = first.run_one(cfg, traces)
        key = SweepJob(cfg, tuple(traces)).digest()
        path = tmp_path / "sweeps" / f"{key}.json"
        path.write_text("{not json")
        second = SweepRunner(jobs=1, cache_dir=cache)
        b = second.run_one(cfg, traces)
        assert a == b
        assert second.cache_misses == 1

    def test_rejects_invalid_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_results_carry_stats_schema_version(self, traces):
        from repro.sim.stats import STATS_SCHEMA_VERSION

        result = SweepRunner(jobs=1, cache_dir=None).run_one(
            cohort_config([60] * 4), traces
        )
        assert result["schema"] == STATS_SCHEMA_VERSION

    def test_digest_depends_on_stats_schema_version(self, traces, monkeypatch):
        """A stats-schema bump must invalidate on-disk cache entries."""
        import repro.runner as runner_mod

        cfg = cohort_config([60] * 4)
        base = SweepJob(cfg, tuple(traces)).digest()
        monkeypatch.setattr(
            runner_mod, "STATS_SCHEMA_VERSION",
            runner_mod.STATS_SCHEMA_VERSION + 1,
        )
        assert SweepJob(cfg, tuple(traces)).digest() != base

    def test_stale_schema_cache_entry_is_not_replayed(self, traces, tmp_path,
                                                      monkeypatch):
        """Entries written under an older schema miss instead of serving
        dicts that lack the new telemetry fields."""
        import repro.runner as runner_mod

        cache = str(tmp_path / "sweeps")
        cfg = cohort_config([60] * 4)
        monkeypatch.setattr(runner_mod, "STATS_SCHEMA_VERSION", 1)
        old = SweepRunner(jobs=1, cache_dir=cache)
        old.run_one(cfg, traces)
        assert old.cache_misses == 1
        monkeypatch.undo()
        new = SweepRunner(jobs=1, cache_dir=cache)
        result = new.run_one(cfg, traces)
        assert new.cache_misses == 1  # the v1 entry did not hit
        assert result["schema"] == runner_mod.STATS_SCHEMA_VERSION

    def test_telemetry_counters(self, traces, tmp_path):
        cache = str(tmp_path / "sweeps")
        runner = SweepRunner(jobs=1, cache_dir=cache)
        runner.run_systems(named_configs(), traces)
        runner.run_systems(named_configs(), traces)
        tel = runner.telemetry()
        assert tel["cache_misses"] == 3
        assert tel["cache_hits"] == 3
        assert tel["cache_hit_rate"] == 0.5
        assert tel["jobs_executed"] == 3
        assert tel["exec_seconds"] > 0.0
        assert tel["parallel_batches"] == 0


class TestWithinBatchDedup:
    def test_duplicate_jobs_in_one_batch_execute_once(self, traces):
        job = SweepJob(cohort_config([60] * 4), tuple(traces))
        runner = SweepRunner(jobs=1, cache_dir=None)
        a, b, c = runner.run([job, job, job])
        assert a == b == c
        assert runner.cache_misses == 1
        assert runner.cache_hits == 2
        assert runner.jobs_executed == 1


class TestCacheStoreFailures:
    def test_unserialisable_result_reraises_and_leaves_no_tmp(self, tmp_path):
        # Regression: a TypeError from json.dump used to be swallowed by
        # an `except OSError` that never matched, leaking the mkstemp
        # temp file and silently dropping the store.
        import os

        cache = str(tmp_path / "sweeps")
        runner = SweepRunner(jobs=1, cache_dir=cache)
        with pytest.raises(TypeError):
            runner._cache_store("0" * 16, {"final_cycle": object()})
        assert [n for n in os.listdir(cache) if n.endswith(".tmp")] == []
        tel = runner.telemetry()
        assert tel["cache_store_failures"] == 1
        assert "TypeError" in tel["cache_store_last_error"]

    def test_os_error_is_swallowed_but_counted(self, tmp_path, monkeypatch):
        import os

        cache = str(tmp_path / "sweeps")
        runner = SweepRunner(jobs=1, cache_dir=cache)

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", exploding_replace)
        runner._cache_store("0" * 16, {"final_cycle": 1})  # must not raise
        tel = runner.telemetry()
        assert tel["cache_store_failures"] == 1
        assert "disk full" in tel["cache_store_last_error"]
        monkeypatch.undo()
        assert [n for n in os.listdir(cache) if n.endswith(".tmp")] == []
        # The in-memory copy still serves this runner.
        assert runner._memory["0" * 16] == {"final_cycle": 1}

    def test_orphan_tmp_swept_at_init(self, tmp_path):
        cache = tmp_path / "sweeps"
        cache.mkdir(parents=True)
        (cache / "deadbeef.tmp").write_text("partial store from a crash")
        (cache / "entry.json").write_text("{}")
        runner = SweepRunner(jobs=1, cache_dir=str(cache))
        assert runner.cache_tmp_swept == 1
        assert runner.telemetry()["cache_tmp_swept"] == 1
        assert not (cache / "deadbeef.tmp").exists()
        assert (cache / "entry.json").exists()


def _race_worker(cache_dir, barrier, out_queue):
    # Module-level so the "fork"/"spawn" child can import it.
    import json

    traces = splash_traces("fft", 4, scale=0.2, seed=0)
    cfg = cohort_config([60, 20, 5, 120])
    runner = SweepRunner(jobs=1, cache_dir=cache_dir)
    barrier.wait(timeout=60)
    result = runner.run_one(cfg, traces)
    out_queue.put(json.dumps(result, sort_keys=True))


class TestCacheContention:
    def test_two_runners_race_on_same_key(self, tmp_path):
        # The exact contention pattern `cohort serve` creates: two runner
        # processes, same cache dir, same job digest, simultaneous runs.
        # Both must succeed and agree byte-for-byte.
        import json
        import multiprocessing

        cache = tmp_path / "sweeps"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        out_queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_worker, args=(str(cache), barrier, out_queue)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        payloads = [out_queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        assert payloads[0] == payloads[1]

        traces = splash_traces("fft", 4, scale=0.2, seed=0)
        cfg = cohort_config([60, 20, 5, 120])
        direct = SweepRunner(jobs=1, cache_dir=None).run_one(cfg, traces)
        assert json.loads(payloads[0]) == direct

        # Exactly one envelope survives, it is valid, and no temp files
        # were left behind by the losing writer.
        files = sorted(cache.glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["result"] == direct
        assert doc["digest"] == files[0].name[: -len(".json")]
        assert list(cache.glob("*.tmp")) == []
        # A fresh runner replays the surviving envelope as a hit.
        reader = SweepRunner(jobs=1, cache_dir=str(cache))
        assert reader.run_one(cfg, traces) == direct
        assert reader.cache_hits == 1 and reader.cache_misses == 0


class TestExperimentIntegration:
    def test_wcml_experiment_parallel_equals_serial(self, traces):
        from repro.experiments.wcml import run_wcml_experiment
        from repro.opt import GAConfig

        ga = GAConfig(population_size=6, generations=3, seed=1)
        kwargs = dict(critical=[True, True, False, False], scale=0.3,
                      ga_config=ga)
        serial = run_wcml_experiment(
            "fft", runner=SweepRunner(jobs=1, cache_dir=None), **kwargs
        )
        parallel = run_wcml_experiment(
            "fft", runner=SweepRunner(jobs=4, cache_dir=None), **kwargs
        )
        assert serial.to_dict() == parallel.to_dict()

    def test_performance_benchmark_parallel_equals_serial(self, traces):
        from repro.experiments.performance import run_performance_benchmark
        from repro.opt import GAConfig

        ga = GAConfig(population_size=6, generations=3, seed=1)
        kwargs = dict(critical=[True] * 4, scale=0.3, ga_config=ga)
        serial = run_performance_benchmark(
            "fft", runner=SweepRunner(jobs=1, cache_dir=None), **kwargs
        )
        parallel = run_performance_benchmark(
            "fft", runner=SweepRunner(jobs=4, cache_dir=None), **kwargs
        )
        assert serial.execution_time == parallel.execution_time
        assert serial.bus_utilization == parallel.bus_utilization
