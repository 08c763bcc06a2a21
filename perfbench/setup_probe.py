"""Set-up half of one command, in a fresh interpreter.

Imports phasecount, then loads and parses each config, which is everything
a CLI command does before its first ``bench.run_*`` call.  Prints
``time.monotonic()`` at that point; the launching process subtracts its own
reading taken just before the launch.

Usage: python3 setup_probe.py SRC_DIR KIND=CONFIG [KIND=CONFIG ...]
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import phasecount  # noqa: E402,F401
from phasecount import bench, runconfig  # noqa: E402,F401  (bench: the CLI imports it too)

for spec in sys.argv[2:]:
    kind, path = spec.split("=", 1)
    getattr(runconfig, "parse_" + kind.replace("-", "_"))(runconfig.load_config(path))
print(repr(time.monotonic()))
