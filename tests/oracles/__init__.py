"""Reference implementations the production paths are proven against.

Each production layer has one implementation in ``src/repro``; where
that implementation replaced a simpler one, the simple version lives
here, where the equivalence tests use it as the oracle.  The event
kernel has none: production is the plain ``heapq``.


* :mod:`oracles.rl` -- the sparse dict Q-table, dict eligibility
  traces and the learners' table-API updates (the fused dense updates
  must train bit-identically);
* :mod:`oracles.inference` -- per-call ``best_action`` prediction
  (the greedy-policy tables must answer identically);
* :mod:`oracles.fleet` -- one private kernel per home (the shared
  shard kernel must report identically);
* :mod:`oracles.sensing` -- the per-sample node firmware loop (the
  block sampler must emit identical traces, frames and EEPROM);
* :mod:`oracles.ziggurat` -- numpy's normal ziggurat read back from
  its own generator (the literal tables the block sampler decodes raw
  words with must match it bit for bit).

Nothing under ``src/`` imports this package.
"""
