"""Tests for the simulation-backed GA fitness (repro.opt.simfit)."""

import os

import pytest

from repro.analysis import build_profiles
from repro.opt import GAConfig, GeneticAlgorithm, SimulationFitness, TimerProblem
from repro.params import LatencyParams, cohort_config
from repro.runner import SweepRunner
from repro.workloads import splash_traces


@pytest.fixture(scope="module")
def setting():
    traces = splash_traces("fft", 4, scale=0.2, seed=0)
    config = cohort_config([1] * 4)
    problem = TimerProblem(
        build_profiles(traces, config.l1), LatencyParams(), timed=[True] * 4
    )
    return problem, config, traces


def small_ga(problem, fit):
    return GeneticAlgorithm(
        problem.gene_bounds(), fit.fitness,
        GAConfig(population_size=4, generations=2, seed=0), map_fn=fit,
    )


def usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestWorkerCount:
    def test_ga_is_identical_on_one_and_two_workers(self, setting):
        problem, config, traces = setting
        outcomes = []
        for jobs in (1, 2):
            runner = SweepRunner(jobs=jobs, cache_dir=None)
            fit = SimulationFitness(problem, config, traces, runner=runner)
            result = small_ga(problem, fit).run()
            outcomes.append(
                (result.best_genes, result.best_fitness, runner.jobs_executed)
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] > 0

    def test_default_runner_uses_every_usable_cpu(self, setting):
        problem, config, traces = setting
        fit = SimulationFitness(problem, config, traces)
        assert fit.runner.jobs == usable_cpus()
        assert fit.runner.cache_dir is None
        assert fit.runner.engine == "lockstep"

    def test_runner_override_is_kept(self, setting):
        problem, config, traces = setting
        runner = SweepRunner(jobs=1, cache_dir=None, engine="seed")
        fit = SimulationFitness(problem, config, traces, runner=runner)
        assert fit.runner is runner


class TestMemo:
    def test_revisited_vector_is_not_simulated_again(self, setting):
        problem, config, traces = setting
        fit = SimulationFitness(
            problem, config, traces,
            runner=SweepRunner(jobs=1, cache_dir=None),
        )
        genes = [lo for lo, _ in problem.gene_bounds()]
        first = fit([genes])
        assert fit.runner.jobs_executed == 1
        again = fit([genes, list(genes)])
        assert again == [first[0], first[0]]
        assert fit.runner.jobs_executed == 1
        assert fit.runner.cache_hits == 2
