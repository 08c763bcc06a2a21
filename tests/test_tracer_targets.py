"""The benchmark tracer wraps phasecount functions by the names their callers
look up; every one of those names must exist, or a traced run fails."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module.__name__}.{attr}"
               for module, attr, _, _ in tracing.targets() if not hasattr(module, attr)]
    assert missing == []
