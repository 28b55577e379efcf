PYTHON ?= python
export PYTHONPATH := src

.PHONY: test check report bench bench-pairs reach knobs lines ziggurat-tables

test:
	$(PYTHON) -m pytest tests/

report:
	$(PYTHON) -m repro report

# The byte-identity gate in one command: tier-1, the benchmark's own
# tests, and `report --fast` at --jobs 1 against --jobs 2 with a cold
# and then a warm --cache (every output cmp-equal); about 35 s.
check:
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest bench -q
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(PYTHON) -m repro report --fast --jobs 1 > "$$dir/serial.txt" && \
	$(PYTHON) -m repro report --fast --jobs 2 --cache "$$dir/cache" \
	  > "$$dir/cold.txt" && \
	$(PYTHON) -m repro report --fast --jobs 2 --cache "$$dir/cache" \
	  > "$$dir/warm.txt" && \
	cmp "$$dir/serial.txt" "$$dir/cold.txt" && \
	cmp "$$dir/serial.txt" "$$dir/warm.txt" && \
	echo "check: report --fast is byte-identical at --jobs 1 and 2, cold and warm cache"

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
# example calls (about 15 s); it never edits the tree.
reach:
	$(PYTHON) -m tests.reach

# The parameter census: for every src/repro function the same roots
# and the four benchmark workloads call, the defaulted parameters no
# root ever sets, tagged by who passes them (about 15 s); it never
# edits the tree.
knobs:
	$(PYTHON) -m tests.reach --knobs

# The statement audit: the statements of called src/repro functions
# that the same roots and the four benchmark workloads never run,
# judged by AST statement span (about 20 s); it never edits the tree.
lines:
	$(PYTHON) -m tests.reach --lines

# Re-derives src/repro/sim/ziggurat.py from the installed numpy; run it
# when tests/test_sim_ziggurat.py reports that numpy's ziggurat changed.
ziggurat-tables:
	$(PYTHON) -m tests.oracles.ziggurat
