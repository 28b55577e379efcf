PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-sarif test report reach ziggurat-tables

lint:
	$(PYTHON) -m repro lint src/repro --baseline lint-baseline.json

lint-sarif:
	$(PYTHON) -m repro lint src/repro --baseline lint-baseline.json --format sarif > lint.sarif

test:
	$(PYTHON) -m pytest tests/

report:
	$(PYTHON) -m repro report

# Lists the src/repro functions that no report, fleet, CLI verb or
# example calls (about 45 s); it never edits the tree.
reach:
	$(PYTHON) -m tests.reach

# Re-derives src/repro/sim/ziggurat.py from the installed numpy; run it
# when tests/test_sim_ziggurat.py reports that numpy's ziggurat changed.
ziggurat-tables:
	$(PYTHON) -m tests.oracles.ziggurat
