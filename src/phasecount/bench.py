"""Benchmark command implementations: plot-ready CSV datasets.

Each command returns a header plus rows of plain numbers (and set labels),
written as locale-independent CSV with LF line endings so outputs are
byte-reproducible.  A YAML sidecar records everything needed to regenerate
a file: its ``config`` block, written back as a config file and run with
no flags, gives the same CSV bytes (``--seed`` and ``--trials`` included,
as they set config keys).  It also names the PRNG and the seed mixer.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import stat
import sys
import threading
import warnings
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np
import yaml

from . import __version__
from .bayes import LikelihoodTable, require_resolved
from .fisher import Measurement, Scheme, fi_analytic, fi_numeric, measurement, qfi_coherent
from .photonics import born_probability_oracle, count_model, fock_cutoff, pnrd_likelihood
from .runconfig import FiCurveRun, PovmCheckRun, SafeDumper, SaturateRun, SimulateRun
from .sampling import PRNG_IDENTITY, SEED_MIXER_IDENTITY, split_seeds, trial_streams
# Looked up here by perfbench/tracing.py, which wraps them by module and name.
from .bayes import sequential_estimates
from .sampling import sample

POVM_CHECK_TOLERANCE = 1e-8


@dataclass(frozen=True)
class CommandResult:
    header: tuple
    rows: tuple
    metadata: dict


def write_csv(path, result: CommandResult) -> None:
    """Rows hold Python floats, ints and label strings: ``str`` writes a float
    as its shortest round-trip ``repr``, an int in decimal and a label as it is.
    A row whose cell count is not the header's raises before the file is opened."""
    width = len(result.header)
    for i, row in enumerate(result.rows):
        if len(row) != width:
            raise ValueError(f"CSV row {i} has {len(row)} cells, the header {width}")
    lines = [",".join(result.header), *(",".join(map(str, row)) for row in result.rows)]
    rewrite(path, ("\n".join(lines) + "\n").encode("ascii"))


def metadata_path(csv_path) -> str:
    stem, _ = os.path.splitext(os.fspath(csv_path))
    return stem + ".meta.yaml"


def write_metadata(csv_path, result: CommandResult) -> None:
    meta = {
        "tool": "phasecount",
        "version": __version__,
        **result.metadata,
        "output": {
            "csv": os.path.basename(os.fspath(csv_path)),
            "columns": list(result.header),
            "rows": len(result.rows),
        },
    }
    text = yaml.dump(meta, Dumper=SafeDumper, sort_keys=False, default_flow_style=False)
    rewrite(metadata_path(csv_path), text.encode("utf-8"))


def rewrite(path, data: bytes) -> None:
    """Make ``data`` the whole content of the file at ``path``, creating it
    with the mode that ``open(path, "w")`` gives under the process umask.

    A regular file longer than ``data`` is cut to ``len(data)``, and the old
    bytes are then written over; it is never truncated to zero, because ext4
    starts writeback when a file truncated to zero is closed
    (``auto_da_alloc``): ``open(path, "w")`` over an existing 2-60 KB output
    took 97-260 us median against 7-16 us for this (ext4 mounted with
    ``discard``, 2-CPU x86-64 VM).  A write that raises cuts the file to the
    bytes it wrote, so no old byte is left behind them.  ``/dev/null``, FIFOs
    and ttys are never cut, as ``O_TRUNC`` leaves them; a symlink is written
    through.

    Nothing here calls fsync.  Kill window: a process that dies between the cut
    and the end of the write leaves the new length holding old bytes after the
    new ones, where ``open(path, "w")`` leaves a short file.  Crash window:
    since no writeback starts at close, a power loss or OS crash can leave an
    output with its new length but old or mixed data blocks, where truncating
    to zero tends to leave it empty or short.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        if regular and info.st_size > len(data):
            os.ftruncate(fd, len(data))
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(fd, view):]
        except BaseException:
            if regular:
                os.ftruncate(fd, len(data) - len(view))
            raise
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# fi-curve
# ---------------------------------------------------------------------------

def run_fi_curve(run: FiCurveRun) -> CommandResult:
    """Fisher information of each requested scheme over the phase grid.

    Values are emitted raw and normalized by the coherent-state QFI.  The
    ``phi_eval`` column records where displaced counting was actually
    evaluated (it differs from ``phi`` only on the phi = 0 row, where the
    zero surrogate applies).
    """
    names = [f"fi_{scheme.value}" for scheme in run.schemes]
    header = ["phi", "phi_eval", "label", *names, "qfi", *(f"{n}_over_qfi" for n in names)]

    phis = np.array(run.phi_values)
    columns = []  # per set: its rows zipped from its columns, one fi_numeric call per scheme
    for pset in run.sets:
        results = {scheme: fi_numeric(scheme, phis, pset.probe, pset.det, model=pset.model)
                   for scheme in run.schemes}
        displaced = results.get(Scheme.DISPLACED_COUNTING)
        evaluated = phis if displaced is None else displaced.phi_evaluated
        values, qfi = [res.value for res in results.values()], qfi_coherent(pset.probe)
        columns.append(zip(run.phi_values, evaluated.tolist(), repeat(pset.label),
                           *(v.tolist() for v in values), repeat(qfi),
                           *((v / qfi).tolist() for v in values)))  # the bits of Python's /
    rows = tuple(chain.from_iterable(zip(*columns)))  # the sets' rows interleaved per phase

    meta = {
        "command": "fi-curve",
        "config": {
            "phi_grid": run.phi_grid,
            "schemes": [s.value for s in run.schemes],
            "parameter_sets": [p.describe() for p in run.sets],
        },
    }
    return CommandResult(header=tuple(header), rows=rows, metadata=meta)


# ---------------------------------------------------------------------------
# simulate and saturate: the seeded Monte Carlo
# ---------------------------------------------------------------------------

def _monte_carlo(run, scheme: Scheme, cells: list) -> tuple[dict, list]:
    """The numeric FI at each phase and, per cell (phi, pulses, checkpoints),
    the posterior (mean, variance) at each trial's checkpoints, trial after trial.

    The FI of every phase comes first, in one array call, so that a phase
    whose count sum fails (FiConvergenceError), or a posterior the grid
    cannot resolve at the most informative phase and the last checkpoint
    (GridResolutionError), stops the run before any trial is drawn.  Cell
    c's trial t draws stream c*trials + t.  The run resolves one measurement
    kind, whose ``statistic_draw`` gives a trial's sufficient statistics.
    The run's trials, cell after cell, are cut into contiguous slices, one
    per worker (``_worker_count``); each worker seeds its slice's streams in
    array passes and builds a likelihood table of its own, and each cell of
    a slice looks its trials' statistics up in one call, which evaluates the
    posterior once per distinct statistic.  A trial's stream depends only on
    its index and a posterior's moments only on its statistic, so the
    moments do not depend on the number of workers.
    """
    pset = run.params
    phis = list(dict.fromkeys(phi for phi, _, _ in cells))
    fisher = dict(zip(phis, fi_numeric(scheme, np.array(phis), pset.probe, pset.det,
                                       model=pset.model).value.tolist()))
    require_resolved(max(fisher.values()), max(c[-1] for _, _, c in cells), run.grid_size)

    kind = measurement(scheme, pset.probe, pset.det, pset.model)
    trials, total = run.trials, len(cells) * run.trials

    def work(first: int, stop: int) -> list:
        """(cell, moments) of each cell that trials first .. stop - 1 fall in."""
        table = LikelihoodTable(kind, run.grid_size)
        streams = trial_streams(split_seeds(run.seed, first, stop - first))
        chunks = []
        for c in range(first // trials, (stop - 1) // trials + 1):
            draw = kind.statistic_draw(*cells[c])
            count = min(stop, (c + 1) * trials) - max(first, c * trials)
            chunks.append((c, table.moments([s for rng in islice(streams, count)
                                             for s in draw(rng)])))
        return chunks

    # the number-resolving kinds draw their statistics from the exact law, not pulse by pulse
    per_pulse = type(kind).statistic_draw is Measurement.statistic_draw
    workers = min(total, _worker_count(
        trials * sum(len(c) for _, _, c in cells),
        trials * sum(pulses for _, pulses, _ in cells) if per_pulse else 0))
    cuts = [total * i // workers for i in range(workers + 1)]
    moments = [[] for _ in cells]
    for chunks in _fan_out(work, list(zip(cuts, cuts[1:]))):
        for c, chunk in chunks:
            moments[c].extend(chunk)
    return fisher, moments


# The size rule: one worker per _WORKER_UNITS units of work, up to the usable
# CPUs, a unit being one posterior statistic or _PULSES_PER_UNIT pulses of a
# record drawn pulse by pulse; each takes about 15 us in process.  A child
# costs about 4 ms however little it does (the fork, its likelihood table,
# the pipe, the pickles and its exit), and more on a large run, in
# copy-on-write faults and in the posteriors that the slices of one cell
# evaluate each (2-core x86-64 VM).  One-cell on/off simulates break even
# between about 2,000 and 4,000 units on two workers; the shipped saturate,
# 6,091 units, runs 99 ms in process and 67 ms on two.
_WORKER_UNITS = 2048
_PULSES_PER_UNIT = 4096


def _worker_count(statistics: int, pulses: int) -> int:
    """How many processes share a run of ``statistics`` posterior statistics
    and ``pulses`` pulses drawn one by one: one where ``os.fork`` is missing,
    off Linux, or beside another Python thread, which might hold a lock
    across the fork."""
    if not hasattr(os, "fork") or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    units = statistics + pulses // _PULSES_PER_UNIT
    return max(1, min(len(os.sched_getaffinity(0)), units // _WORKER_UNITS))


def _fan_out(work, slices: list) -> list:
    """``work(first, stop)`` of each slice, in order: the first here, each
    other one in a forked child that pickles its result back through a pipe.
    A child's exception is raised here, with its type and message.  Forked,
    not spawned: a spawned worker imports numpy afresh, which takes longer
    than its share of a run."""
    if len(slices) == 1:
        return [work(*slices[0])]
    import signal
    import numpy.random  # the children's trial_streams import it: here, before the forks

    pids, reads, reaped = [], [], set()
    try:
        for first, stop in slices[1:]:
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = _fork()
            except BaseException:
                os.close(write)
                raise
            if pid == 0:
                _child(work, first, stop, write)
            os.close(write)
            pids.append(pid)
        results = [work(*slices[0])]
        for worker, (pid, read) in enumerate(zip(pids, reads), 1):
            with open(read, "rb", closefd=False) as fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            if os.WIFSIGNALED(status):
                name = signal.Signals(os.WTERMSIG(status)).name
                raise RuntimeError(f"Monte Carlo worker {worker} (pid {pid}) was killed by {name}")
            if os.waitstatus_to_exitcode(status) != 0:
                raise RuntimeError(f"Monte Carlo worker {worker} (pid {pid}) exited with "
                                   f"status {os.waitstatus_to_exitcode(status)}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        # On failure a child may still be working, or blocked on a full
        # pipe: its result is not wanted, so it is killed before the wait.
        for read in reads:
            os.close(read)
        for pid in pids:
            if pid not in reaped:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork() -> int:
    with warnings.catch_warnings():
        # Since Python 3.12 a fork warns when the process has other OS
        # threads, as one of them might hold a lock the child needs.  Here
        # they are numpy's idle BLAS pool, which OpenBLAS stops around a fork
        # (pthread_atfork) and the children do not call into; Python
        # threads, which could hold interpreter-level locks, rule the fork
        # out (_worker_count).
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                DeprecationWarning)
        return os.fork()


def _child(work, first: int, stop: int, write: int):
    """In a forked child: run a slice, pickle (True, result) or (False,
    exception) into ``write``, and leave by ``os._exit``, never returning
    into the caller."""
    status = 1
    try:
        try:
            data = pickle.dumps((True, work(first, stop)), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:  # KeyboardInterrupt too: the parent re-raises it
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:  # an exception that does not pickle and unpickle as it is
                data = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
        with open(write, "wb") as fh:
            fh.write(data)
        status = 0
    finally:
        os._exit(status)


def _seeded_metadata(command: str, run, head: dict, tail: dict) -> dict:
    """A seeded command's sidecar: its config keys ``head``, the parameter
    set's less ``label``, ``tail``, then grid_size and seed."""
    params = run.params.describe()
    del params["label"]
    return {
        "command": command,
        "prng": PRNG_IDENTITY,
        "seed_mixer": SEED_MIXER_IDENTITY,
        "config": {**head, **params, **tail, "grid_size": run.grid_size, "seed": run.seed},
    }


def run_simulate(run: SimulateRun) -> CommandResult:
    """Estimator trajectories versus pulse count, with reference bound curves.

    Per checkpoint k: trial 0's estimate and posterior variance,
    across-trial means of both, and the reference curves 1/(k*F) for
    displaced counting at the configured (experimental) parameters, ideal
    displaced counting, ideal homodyne, ideal heterodyne, and the quantum
    bound.  One cell of the seeded Monte Carlo (``_monte_carlo``).
    """
    pset, phi = run.params, run.phi_true
    fisher, (cell,) = _monte_carlo(run, run.scheme, [(phi, run.pulses, run.checkpoints)])
    phi_hat, variance = (np.array(column).reshape(run.trials, -1) for column in zip(*cell))
    bounds = (fisher[phi], *(fi_analytic(s, phi, pset.probe) for s in
                             (Scheme.DISPLACED_COUNTING, Scheme.HOMODYNE, Scheme.HETERODYNE)),
              qfi_coherent(pset.probe))

    header = ("k", "phi_hat_trial", "variance_trial", "phi_hat_mean", "variance_mean",
              "crb_displaced_exp", "crb_displaced_ideal", "crb_homodyne_ideal",
              "crb_heterodyne_ideal", "crb_qfi")
    rows = [(int(k), float(phi_hat[0, j]), float(variance[0, j]),
             float(np.mean(phi_hat[:, j])), float(np.mean(variance[:, j])),
             *(_inverse(k * f) for f in bounds))
            for j, k in enumerate(run.checkpoints)]
    meta = _seeded_metadata(
        "simulate", run, {"scheme": run.scheme.value, "phi_true": phi},
        {"pulses": run.pulses, "trials": run.trials,
         "checkpoints": [int(k) for k in run.checkpoints]})
    return CommandResult(header=header, rows=tuple(rows), metadata=meta)


def _inverse(x: float) -> float:
    return 1.0 / x if x > 0.0 else float("inf")


def run_saturate(run: SaturateRun) -> CommandResult:
    """Across-trial mean of 1/(m*Var) per (phi, m), with FI reference columns:
    the cells of the seeded Monte Carlo (``_monte_carlo``), phase after phase,
    each at one checkpoint, its pulse count."""
    pset = run.params
    header = ("phi", "pulses", "inv_m_var_mean", "variance_mean",
              "fi_displaced_exp", "fi_displaced_ideal", "fi_homodyne_ideal")
    cells = [(phi, m, (m,)) for phi in run.phi_values for m in run.pulses_list]
    fisher, moments = _monte_carlo(run, Scheme.DISPLACED_COUNTING, cells)
    rows = []
    for (phi, m, _), cell in zip(cells, moments):
        variances = [variance for _, variance in cell]
        rows.append((phi, int(m),
                     float(np.mean([1.0 / (m * var) for var in variances])),
                     float(np.mean(variances)),
                     fisher[phi],
                     fi_analytic(Scheme.DISPLACED_COUNTING, phi, pset.probe),
                     fi_analytic(Scheme.HOMODYNE, phi, pset.probe)))
    meta = _seeded_metadata(
        "saturate", run,
        {"phi_grid": run.phi_grid,
         "pulses": [int(m) for m in run.pulses_list]},
        {"trials": run.trials})
    return CommandResult(header=header, rows=tuple(rows), metadata=meta)


# ---------------------------------------------------------------------------
# povm-check
# ---------------------------------------------------------------------------

def _deviations(run: PovmCheckRun, det, phi: float):
    """Yield |model - oracle| for n = 0 .. max_n at ``phi``, up to the first n
    past which both probabilities stay 0."""
    # Past the Fock cutoff plus the largest component mean, each probability
    # stays 0 once it is 0.  Each Poisson pmf of the model falls with n past
    # its mean.  The oracle's element n holds only the dark-count terms
    # nu^l/l! with l >= n - cutoff, which fall with n as l > nu (a part of
    # every mean); once that factor underflows (at l = 1 for nu = 0) it
    # zeroes every element above the cutoff.
    settled = fock_cutoff(phi, run.probe) + max(count_model(run.probe, det, run.model).means(phi))
    for n in range(run.max_n + 1):
        model = pnrd_likelihood(n, phi, run.probe, det, run.model)
        oracle = born_probability_oracle(n, phi, run.probe, det)
        yield abs(model - oracle)
        if model == oracle == 0.0 and n > settled:
            return


def run_povm_check(run: PovmCheckRun) -> tuple[list, float, bool]:
    """Cross-validate the count likelihood against the Fock-space oracle.

    Returns (report lines, max deviation, passed).  The oracle covers no
    mode mismatch, so the check runs at xi = 1, and it works out its own
    Fock cutoff for each state.  The outcomes of a phase past the last
    nonzero probability deviate by 0 and are skipped.  ``np.max`` keeps a
    NaN deviation, which then fails the check (Python's ``max`` may drop it).
    """
    lines = []
    blocks = []
    for det in run.detectors:
        block = float(np.max([deviation for phi in run.phi_values
                              for deviation in _deviations(run, det, phi)]))
        lines.append(f"eta={det.eta:g} nu={det.nu:g}: max |model - oracle| = {block:.3e}")
        blocks.append(block)
    worst = float(np.max(blocks))
    passed = worst < POVM_CHECK_TOLERANCE
    lines.append(f"overall max deviation = {worst:.3e} "
                 f"({'PASS' if passed else 'FAIL'}, tolerance {POVM_CHECK_TOLERANCE:g})")
    return lines, worst, passed
