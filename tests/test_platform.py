"""The shipped configs with numpy's AVX-512 kernels switched off.

numpy picks its SIMD kernels at run time, and ``NPY_DISABLE_CPU_FEATURES``
switches some of them off for one process (NEP 38): here it stands in for
an x86-64 CPU without AVX-512.  The recorded bytes hold under AVX-512
dispatch.  With it off, the fi-curve CSVs must keep their recorded SHA-256s;
the saturate and simulate CSVs, whose exp and log kernels give other last
bits there, must stay within 1e-13 relative of the native run.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_traced_fi_curves import _load

ROOT = Path(__file__).resolve().parents[1]
AVX512 = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
RTOL = 1e-13

SHIPPED = {
    "fi_curves_ideal": "fi-curve",
    "fi_curves_imperfect_weak": "fi-curve",
    "fi_curves_imperfect_bright": "fi-curve",
    "experiment_saturate": "saturate",
    "experiment_simulate": "simulate",
}

# runs each shipped config into argv[1] and prints numpy's CPU feature table
_SCRIPT = """
import contextlib, io, json, sys
from numpy._core._multiarray_umath import __cpu_features__
from phasecount import cli
for stem, command in json.loads(sys.argv[2]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", f"{sys.argv[3]}/{stem}.yaml",
                         "--out", f"{sys.argv[1]}/{stem}.csv"])
    assert code == 0, (stem, code)
print(json.dumps(__cpu_features__))
"""


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return {}
    return __cpu_features__


def _run(out: Path, disable: str | None) -> dict:
    out.mkdir()
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(out), json.dumps(SHIPPED),
                           str(ROOT / "configs")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _columns(path: Path):
    header, *lines = path.read_text().splitlines()
    return header, np.array([[float(cell) for cell in line.split(",")] for line in lines])


@pytest.mark.skipif(not any(_cpu_features().get(f) for f in AVX512),
                    reason="numpy reports none of the AVX-512 features here")
def test_shipped_outputs_hold_with_avx512_dispatch_off(tmp_path, monkeypatch):
    shipped_sha256 = _load("workloads", monkeypatch).SHIPPED_CSV_SHA256
    native = _run(tmp_path / "native", None)
    lower = _run(tmp_path / "lower", " ".join(AVX512))
    assert any(native.get(f) for f in AVX512)
    assert not any(lower.get(f) for f in AVX512)  # the switch took
    for stem, command in SHIPPED.items():
        got = tmp_path / "lower" / f"{stem}.csv"
        if command == "fi-curve":
            assert hashlib.sha256(got.read_bytes()).hexdigest() == shipped_sha256[stem], stem
        else:
            want_header, want = _columns(tmp_path / "native" / f"{stem}.csv")
            got_header, values = _columns(got)
            assert got_header == want_header and values.shape == want.shape
            np.testing.assert_allclose(values, want, rtol=RTOL, atol=0.0, err_msg=stem)
    native_saturate = tmp_path / "native" / "experiment_saturate.csv"
    assert (hashlib.sha256(native_saturate.read_bytes()).hexdigest()
            == shipped_sha256["experiment_saturate"])
