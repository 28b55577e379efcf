"""``python -m pytest bench -q`` imports ``repro`` from this checkout."""

from bench import use_source_tree

use_source_tree()
