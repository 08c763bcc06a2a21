"""The Monte Carlo run spread over forked worker processes.

``bench._monte_carlo`` cuts a run's trials, cell after cell, into one
contiguous slice per worker, the first run in process and each other one in
a forked child (``bench._fan_out``).  The worker count is forced here by
replacing ``bench._worker_count``, its one source.  Every CSV byte must be
the same at any worker count; a child's failure must reach the parent as
its own exception, or as a RuntimeError when the child dies; and no run may
leave a child process behind.
"""

import hashlib
import os
import signal
import threading
import time
import warnings
from pathlib import Path

import pytest
import yaml

from phasecount import bench, cli, runconfig
from phasecount.bayes import LikelihoodTable, PosteriorUnderflowError
from test_equivalence import PNRD_RUNS, SHIPPED_CSV_SHA256, SIMULATE_RUNS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
PARENT = os.getpid()


@pytest.fixture(autouse=True)
def bounded_and_reaped():
    """Fail a test whose waits take over 120 s, or that leaves a child behind."""
    def timeout(signum, frame):
        raise TimeoutError("the test waited over 120 s")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _workers(monkeypatch, count):
    monkeypatch.setattr(bench, "_worker_count", lambda statistics, pulses: count)


def _run(monkeypatch, tmp_path, command, cfg, workers):
    """The CLI's exit code and CSV bytes of ``cfg`` at ``workers`` workers."""
    _workers(monkeypatch, workers)
    path = tmp_path / f"{workers}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / f"{workers}.csv"
    code = cli.main([command, "--config", str(path), "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def _config(stem, **overrides):
    return {**yaml.safe_load((CONFIGS / f"{stem}.yaml").read_text()), **overrides}


# ---------------------------------------------------------------------------
# the bytes do not depend on the worker count
# ---------------------------------------------------------------------------

def test_shipped_saturate_bytes_at_every_worker_count(tmp_path, monkeypatch):
    cfg = _config("experiment_saturate")
    total = 13 * 2 * cfg["trials"]
    # three slices cut inside cells: 866 and 1733 are not multiples of 100
    assert [total * i // 3 % cfg["trials"] for i in (1, 2)] == [66, 33]
    outputs = [_run(monkeypatch, tmp_path, "saturate", cfg, workers) for workers in (1, 2, 3, 4)]
    for code, data in outputs:
        assert code == 0
        assert hashlib.sha256(data).hexdigest() == SHIPPED_CSV_SHA256["experiment_saturate"]


def test_more_workers_than_trials(tmp_path, monkeypatch):
    # 3 trials of one cell: 8 workers asked for, one per trial run
    cfg = _config("experiment_saturate", phi_grid={"values": [1.0]}, pulses=[1000], trials=3)
    forks = []
    fork = bench._fork
    monkeypatch.setattr(bench, "_fork", lambda: forks.append(1) or fork())
    many = _run(monkeypatch, tmp_path, "saturate", cfg, 8)
    assert len(forks) == 2
    assert many == _run(monkeypatch, tmp_path, "saturate", cfg, 1)
    assert many[0] == 0


@pytest.mark.parametrize("command, cfg, sha256", [
    ("simulate", _config("experiment_simulate", **SIMULATE_RUNS["heterodyne"][0]),
     SIMULATE_RUNS["heterodyne"][1]),
    ("simulate", _config("experiment_simulate", **PNRD_RUNS["simulate-mixture"][2]),
     PNRD_RUNS["simulate-mixture"][3]),
], ids=["heterodyne", "visibility-mixture"])
def test_simulate_bytes_at_one_and_two_workers(tmp_path, monkeypatch, command, cfg, sha256):
    for workers in (1, 2):
        code, data = _run(monkeypatch, tmp_path, command, cfg, workers)
        assert code == 0
        assert hashlib.sha256(data).hexdigest() == sha256


# ---------------------------------------------------------------------------
# the size rule and when a run stays in process
# ---------------------------------------------------------------------------

def test_size_rule_sides(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert bench._worker_count(2600, 14_300_000) == 2  # the shipped saturate: forks
    assert bench._worker_count(700, 1_000_000) == 1    # the shipped on/off simulate
    assert bench._worker_count(72, 0) == 1             # simulate-bright-pnrd: exact-law draws
    assert bench._worker_count(10**6, 0) == 8          # no more workers than CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert bench._worker_count(2600, 14_300_000) == 1  # taskset -c 0


def test_shipped_runs_fall_on_their_side_of_the_rule(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    asked = []
    count = bench._worker_count
    monkeypatch.setattr(bench, "_worker_count", lambda *a: asked.append(count(*a)) or 1)
    bright = _config("experiment_simulate", **PNRD_RUNS["simulate-bright"][2])
    bench.run_saturate(runconfig.parse_saturate(_config("experiment_saturate")))
    bench.run_simulate(runconfig.parse_simulate(_config("experiment_simulate")))
    bench.run_simulate(runconfig.parse_simulate({**bright, "trials": 8}))
    assert asked == [2, 1, 1]


@pytest.mark.parametrize("unsafe", ["no fork", "not linux", "python thread"])
def test_stays_in_process_where_a_fork_is_unsafe(monkeypatch, unsafe):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    if unsafe == "no fork":
        monkeypatch.delattr(os, "fork")
    elif unsafe == "not linux":
        monkeypatch.setattr(bench.sys, "platform", "darwin")
    if unsafe != "python thread":
        assert bench._worker_count(2600, 14_300_000) == 1
        return
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert bench._worker_count(2600, 14_300_000) == 1
    finally:
        release.set()
        thread.join()


def test_fork_warning_of_python_3_12_is_handled(tmp_path, monkeypatch):
    # Python 3.12 and later warn at a fork beside other OS threads (numpy's
    # BLAS pool); pyproject makes a DeprecationWarning from phasecount an error
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                      "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
        return fork()
    monkeypatch.setattr(os, "fork", warning_fork)
    cfg = _config("experiment_simulate", **SIMULATE_RUNS["heterodyne"][0])
    code, data = _run(monkeypatch, tmp_path, "simulate", cfg, 2)
    assert code == 0
    assert hashlib.sha256(data).hexdigest() == SIMULATE_RUNS["heterodyne"][1]


# ---------------------------------------------------------------------------
# failures reach the parent, and every child is reaped
# ---------------------------------------------------------------------------

def test_child_exception_is_raised_in_the_parent(tmp_path, monkeypatch, capsys):
    class ChildUnderflow(LikelihoodTable):
        def moments(self, statistics):
            if os.getpid() != PARENT:
                raise PosteriorUnderflowError("posterior normalization underflowed")
            return super().moments(statistics)
    monkeypatch.setattr(bench, "LikelihoodTable", ChildUnderflow)
    run = runconfig.parse_saturate(_config("experiment_saturate", trials=4))
    _workers(monkeypatch, 2)
    with pytest.raises(PosteriorUnderflowError, match="^posterior normalization underflowed$"):
        bench.run_saturate(run)
    code, data = _run(monkeypatch, tmp_path, "saturate", _config("experiment_saturate"), 2)
    assert code == 2
    assert data is None
    assert "numerical check failed: posterior normalization underflowed" in capsys.readouterr().err


def test_child_killed_by_a_signal_is_a_runtime_error(monkeypatch):
    class Killed(LikelihoodTable):
        def __init__(self, *args):
            if os.getpid() != PARENT:
                os.kill(os.getpid(), signal.SIGKILL)
            super().__init__(*args)
    monkeypatch.setattr(bench, "LikelihoodTable", Killed)
    run = runconfig.parse_saturate(_config("experiment_saturate", trials=4))
    _workers(monkeypatch, 3)
    with pytest.raises(RuntimeError, match=r"worker 1 \(pid \d+\) was killed by SIGKILL"):
        bench.run_saturate(run)


def test_exception_that_does_not_pickle_keeps_its_type_and_message():
    class Local(Exception):  # a local class does not pickle
        pass

    def work(first, stop):
        if os.getpid() != PARENT:
            raise Local("no such thing")
        return first

    with pytest.raises(RuntimeError, match="^Local: no such thing$"):
        bench._fan_out(work, [(0, 1), (1, 2)])


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_parent_failure_kills_and_reaps_its_children(error):
    # one child blocked on a full pipe (4 MiB against a 64 KiB buffer), one
    # still working: neither may hold the parent up
    def work(first, stop):
        if os.getpid() == PARENT:
            raise error("parent slice failed")
        if first == 1:
            return bytes(4 << 20)
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(error, match="parent slice failed"):
        bench._fan_out(work, [(0, 1), (1, 2), (2, 3)])
    assert time.monotonic() - start < 30


def test_large_results_do_not_deadlock():
    # each child's result fills its pipe many times over while the parent
    # is still reading the one before
    results = bench._fan_out(lambda first, stop: bytes([first]) * (1 << 20),
                             [(0, 1), (1, 2), (2, 3)])
    assert [len(r) for r in results] == [1 << 20] * 3
    assert [r[0] for r in results] == [0, 1, 2]
