PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-sarif lint-bench test bench fleet-bench report ziggurat-tables

lint:
	$(PYTHON) -m repro lint src/repro --baseline lint-baseline.json

lint-sarif:
	$(PYTHON) -m repro lint src/repro --baseline lint-baseline.json --format sarif > lint.sarif

lint-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_lint.py -s

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Regenerates BENCH_fleet.json: scaling vs --jobs and the /dev/shm
# leak scan.
fleet-bench:
	$(PYTHON) -m pytest benchmarks/test_bench_fleet.py --benchmark-only -s

report:
	$(PYTHON) -m repro report

# Re-derives src/repro/sim/ziggurat.py from the installed numpy; run it
# when tests/test_sim_ziggurat.py reports that numpy's ziggurat changed.
ziggurat-tables:
	$(PYTHON) -m tests.oracles.ziggurat
