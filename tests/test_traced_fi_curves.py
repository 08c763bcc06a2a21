"""Two traced full-size passes of the benchmark's fi-curves workload.

The benchmark wraps phasecount functions by name while it traces a pass
(``perfbench/tracing.py``); a command that raises under the wrappers, or a
pass that counts differently from the one before, makes the traced run
incorrect.  Its own smoke test traces only the weak config, so every shipped
fi-curve config is traced here, and each CSV is checked against its shipped
hash and the [0, QFI] bound (``perfbench/workloads.py``).  Nothing is timed.
"""

import importlib.util
import sys
from pathlib import Path

from phasecount import bench, runconfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _traced_pass(tracing, commands):
    """Each command as the benchmark runs it, looking every step up by name."""
    with tracing.Tracer() as tracer:
        for command in commands:
            suffix = command.kind.replace("-", "_")
            run = getattr(runconfig, "parse_" + suffix)(runconfig.load_config(command.config))
            result = getattr(bench, "run_" + suffix)(run)
            bench.write_csv(command.out, result)
            bench.write_metadata(command.out, result)
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
