# Convenience targets for the CoHoRT reproduction.

.PHONY: install test bench bench-throughput examples all-experiments lint clean \
	src-lines

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Simulator throughput only; writes benchmarks/out/BENCH_throughput.json
# so the perf trajectory is tracked across PRs.
bench-throughput:
	pytest benchmarks/test_sim_throughput.py --benchmark-only -s

# The two sizes ROADMAP tracks across changes: lines of Python under
# src/ and the number of tier-1 tests.
src-lines:
	@echo "- src/ lines: $$(find src -name '*.py' -exec cat {} + | wc -l)"
	@echo "- tier-1 tests: $$(PYTHONPATH=src python -m pytest \
		--collect-only -q -o addopts= | grep -c '::')"

examples:
	@for ex in examples/*.py; do \
		echo "== $$ex"; python $$ex > /dev/null || exit 1; \
	done; echo "all examples ok"

all-experiments:
	cohort all -o reproduction_report.txt

clean:
	rm -rf benchmarks/out .pytest_cache .hypothesis \
		$$(find . -name __pycache__ -type d)
