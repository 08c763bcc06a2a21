"""Spans and counts around the calls into each phasecount layer.

A :class:`Tracer` replaces, while it is active, the public functions at the
names their callers look up (``phasecount.bench.sample`` rather than
``phasecount.sampling.sample``, because ``bench`` imported the name).  Each
wrapper records a span ``(name, start, end, parent)`` and bumps counters;
spans stay in memory until the caller writes them out.  Span names are
``<layer>.<function>``, the layer being the phasecount module the function
lives in.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import os
from collections import Counter
from time import perf_counter


def _csv_bytes(counts, args, result):
    counts["bench.csv_bytes"] += os.path.getsize(args[0])


def _pulses(counts, args, result):
    counts["sampling.pulses"] += len(result)


def _table_len(counts, args, result):
    key = "sampling.count_distribution.table_len"
    counts[key] = max(counts[key], len(result))


def _posteriors(counts, args, result):
    from phasecount.bayes import DEFAULT_GRID_SIZE

    grid_size = args[1] if len(args) > 1 else DEFAULT_GRID_SIZE
    counts["bayes.posteriors"] += len(result)
    counts["bayes.posterior_nodes"] += len(result) * grid_size


def _nodes(counts, args, result):
    counts["photonics.fringe_mean.nodes"] += getattr(args[0], "size", 1)


def targets():
    """(module, attribute, span name, counter) for every wrapped function.

    The attribute is looked up on the module by the caller at call time, so
    replacing it there is seen.  fringe_mean is also wrapped in photonics
    itself, where onoff_likelihood and pnrd_likelihood call it.
    """
    from phasecount import bayes, bench, fisher, photonics, runconfig, sampling

    return (
        (runconfig, "load_config", "runconfig.load_config", None),
        (runconfig, "parse_fi_curve", "runconfig.parse_fi_curve", None),
        (runconfig, "parse_simulate", "runconfig.parse_simulate", None),
        (runconfig, "parse_saturate", "runconfig.parse_saturate", None),
        (bench, "run_fi_curve", "bench.run_fi_curve", None),
        (bench, "run_simulate", "bench.run_simulate", None),
        (bench, "run_saturate", "bench.run_saturate", None),
        (bench, "write_csv", "bench.write_csv", _csv_bytes),
        (bench, "write_metadata", "bench.write_metadata", None),
        (bench, "fi_numeric", "fisher.fi_numeric", None),
        (bench, "sample", "sampling.sample", _pulses),
        (sampling, "count_distribution", "sampling.count_distribution", _table_len),
        (bench, "sequential_estimates", "bayes.sequential_estimates", _posteriors),
        *((m, "fringe_mean", "photonics.fringe_mean", _nodes)
          for m in (bayes, sampling, fisher, photonics)),
        *((m, "mixture_component_means", "photonics.mixture_component_means", None)
          for m in (bayes, sampling, fisher)),
        (fisher, "fringe_mean_derivative", "photonics.fringe_mean_derivative", None),
        (fisher, "mixture_interfering_mean_derivative",
         "photonics.mixture_interfering_mean_derivative", None),
        (fisher, "homodyne_mean", "photonics.homodyne_mean", None),
        (sampling, "onoff_likelihood", "photonics.onoff_likelihood", None),
    )


class Tracer:
    """Context manager that wraps every target for its duration."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()
        self._stack = []
        self._originals = []

    def __enter__(self):
        for module, attr, name, counter in targets():
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        return False

    def restored(self) -> bool:
        """True when every wrapped name holds its original function again."""
        return all(getattr(m, a) is f for m, a, f in self._originals)

    def _wrap(self, fn, name, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            counts[calls] += 1
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Calls are single-threaded and nested, so children of one span never
    overlap and their durations can simply be summed.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _), c in zip(spans, child)]
