"""Two traced full-size passes of the benchmark's workloads.

The benchmark wraps phasecount functions by name while it traces a pass
(``perfbench/tracing.py``); a command that raises under the wrappers, a
wrapped name that is missing or not restored, or a pass that counts
differently from the one before, makes the traced run incorrect.  Its own
smoke test traces only the weak fi-curve config and Monte Carlo runs of one
or two trials, so every shipped fi-curve config and the full-size Monte Carlo
workloads are traced here, and each CSV is checked as the benchmark checks
it (``perfbench/workloads.py``): shipped hashes, value ranges and equal
bytes across passes.  Nothing is timed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from phasecount import bench, runconfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _run(commands):
    """Each command as the benchmark runs it, looking every step up by name."""
    for command in commands:
        suffix = command.kind.replace("-", "_")
        run = getattr(runconfig, "parse_" + suffix)(runconfig.load_config(command.config))
        result = getattr(bench, "run_" + suffix)(run)
        bench.write_csv(command.out, result)
        bench.write_metadata(command.out, result)


def _traced_pass(tracing, commands):
    with tracing.Tracer() as tracer:
        _run(commands)
    return tracer


def test_two_traced_full_size_passes(tmp_path, monkeypatch):
    tracing, workloads = _load("tracing", monkeypatch), _load("workloads", monkeypatch)
    workload = workloads.build("fi-curves", 1, PERFBENCH.parent, tmp_path / "fi-curves")
    assert [c.config.stem for c in workload.timed] == list(workloads.FI_CURVE_CONFIGS)
    counts = []
    for _ in range(2):
        tracer = _traced_pass(tracing, workload.timed)
        assert tracer.restored()
        for command in workload.timed:
            digest, _ = workloads.check_output(command)  # raises on a wrong CSV
            assert digest == workloads.SHIPPED_CSV_SHA256[command.config.stem]
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    # one FI call per (parameter set, scheme) column of the three configs
    assert counts[0]["fisher.fi_numeric.calls"] == 12


@pytest.mark.parametrize("name", ["simulate-bright-pnrd", "saturate-desk"])
def test_two_traced_full_size_monte_carlo_passes(name, tmp_path, monkeypatch):
    tracing, workloads = _load("tracing", monkeypatch), _load("workloads", monkeypatch)
    workload = workloads.build(name, 1, PERFBENCH.parent, tmp_path / name)
    _run(workload.warmup)  # untraced, as the benchmark runs it
    for command in workload.warmup:
        workloads.check_output(command)  # the shipped saturate config's hash
    counts, digests = [], []
    for _ in range(2):
        tracer = _traced_pass(tracing, workload.timed)
        assert tracer.restored()
        digests.append([workloads.check_output(command)[0] for command in workload.timed])
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    assert digests[0] == digests[1]
