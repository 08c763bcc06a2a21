"""The host's current speed, measured by a fixed reference kernel.

A shared cloud host can run the same code at speeds up to 1.9x apart, in
states that last from seconds to minutes.  The benchmark runs
:func:`reference` before the first timed pass and after every pass, and
likewise around each set-up probe, and reports times scaled to the speed
at which the kernel takes ``REFERENCE_S``:
``wall * REFERENCE_S / reference time around it``.
The kernel mixes what phasecount spends its time on, interpreter work and
numpy element-wise passes over a 4,097-node grid, and never touches
phasecount, so a change to the program cannot change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's median time on a 2-core Xeon VM; a scaled time is
# the time the pass would have taken at that speed.
REFERENCE_S = 0.028

_GRID = np.linspace(0.0, np.pi, 4097)


def reference() -> float:
    """Run the kernel once; return its wall time in seconds."""
    start = perf_counter()
    total = 0
    for i in range(180_000):
        total += i * i
    acc = 0.0
    for k in range(225):
        acc += float(np.cos(_GRID * (1.0 + k * 1e-3)).sum())
    if total < 0 or acc != acc:  # keeps the work observable
        raise AssertionError("reference kernel broke")
    return perf_counter() - start
