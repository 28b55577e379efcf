PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint lint-sarif test report bench bench-pairs reach ziggurat-tables

lint:
	$(PYTHON) -m repro lint src/repro --baseline lint-baseline.json

lint-sarif:
	$(PYTHON) -m repro lint src/repro --baseline lint-baseline.json --format sarif > lint.sarif

test:
	$(PYTHON) -m pytest tests/

report:
	$(PYTHON) -m repro report

# Runs the four benchmark workloads of BENCHMARK.json end to end and
# layer by layer (a few minutes); results go to bench/out/.
bench:
	$(PYTHON) -m bench run --seed 0

# Runs one workload PAIRS times in a parent checkout and in this tree,
# alternating (the parent first on odd pairs), and prints each run's
# result line: the paired method for claiming a gain.
#   make bench-pairs PARENT=<checkout> WORKLOAD=fleet-warm SEED=11 PAIRS=10
WORKLOAD ?= fleet-warm
SEED ?= 0
PAIRS ?= 10
bench-pairs:
	@test -n "$(PARENT)" || { echo "bench-pairs: set PARENT=<checkout>" >&2; exit 2; }
	@for pair in $$(seq 1 $(PAIRS)); do \
	  if [ $$((pair % 2)) -eq 1 ]; then order="parent change"; \
	  else order="change parent"; fi; \
	  for side in $$order; do \
	    if [ $$side = parent ]; then dir="$(PARENT)"; else dir="$(CURDIR)"; fi; \
	    out=$$(cd "$$dir" && PYTHONPATH=src $(PYTHON) -m bench run \
	      --workload $(WORKLOAD) --seed $(SEED) --seconds 25 --trace 0) \
	      || { echo "$$out" >&2; exit 1; }; \
	    echo "pair $$pair $$side: $$(printf '%s\n' "$$out" | tail -n 1)"; \
	  done; \
	done

# Lists the src/repro functions that no report, fleet, CLI verb or
# example calls (about 45 s); it never edits the tree.
reach:
	$(PYTHON) -m tests.reach

# Re-derives src/repro/sim/ziggurat.py from the installed numpy; run it
# when tests/test_sim_ziggurat.py reports that numpy's ziggurat changed.
ziggurat-tables:
	$(PYTHON) -m tests.oracles.ziggurat
