"""phasecount benchmark: one workload at one seed, closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a phasecount checkout; the program is imported from
the checkout's ``src/``.  Each command goes through the CLI's path --
``runconfig.load_config`` and ``parse_*``, ``bench.run_*``, then
``bench.write_csv`` and ``write_metadata`` -- single-threaded, the next one
starting when the previous one has finished.  A pass is one command, or the
three fi-curve commands back to back.  The last line of stdout is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The lines before it are a readable report.  README.md
next to this file describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import monotonic, perf_counter

import calibrate
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {"run_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "runconfig.parse_s": "s",
    "photonics.fringe_mean.calls": "count",
    "photonics.fringe_mean.nodes": "count",
    "photonics.self_s": "s",
    "fisher.fi_numeric.calls": "count",
    "fisher.fi_numeric.self_s": "s",
    "sampling.sample.calls": "count",
    "sampling.sample.self_s": "s",
    "sampling.pulses": "count",
    "sampling.ns_per_pulse": "ns",
    "sampling.count_distribution.calls": "count",
    "sampling.count_distribution.self_s": "s",
    "sampling.count_distribution.table_len": "count",
    "bayes.sequential_estimates.calls": "count",
    "bayes.sequential_estimates.self_s": "s",
    "bayes.posteriors": "count",
    "bayes.ns_per_posterior_node": "ns",
    "bayes.crb_gap": "ratio",
    "bench.self_s": "s",
    "bench.write_s": "s",
    "bench.csv_bytes": "count",
    "trace.overhead_s": "s",
}
LAYERS = ("runconfig", "bench", "fisher", "sampling", "bayes", "photonics")

SETUP_REPEATS = 9
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2
# The self times of a traced pass's spans must add up to its wall time
# within this slack; the rest is harness code between the calls.
SELF_TIME_SLACK_REL = 0.02
SELF_TIME_SLACK_ABS = 0.005


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to seconds-scale (smoke tests)")
    return parser


def execute(command: workloads.Command):
    """One CLI-equivalent command; returns the parsed run."""
    from phasecount import bench, runconfig

    suffix = command.kind.replace("-", "_")
    run = getattr(runconfig, "parse_" + suffix)(runconfig.load_config(command.config))
    result = getattr(bench, "run_" + suffix)(run)
    bench.write_csv(command.out, result)
    bench.write_metadata(command.out, result)
    return run


class Tally:
    """Counts operations and failures, and remembers each CSV's first hash."""

    def __init__(self):
        self.attempted = 0
        self.errors = []        # one entry per failed operation
        self.self_checks = []   # failed traced-run self-checks
        self.digests = {}
        self.efficiency = None

    def run_pass(self, commands):
        """Run the commands back to back, then check what they wrote.

        Returns (wall seconds, work units), or None when an operation failed.
        """
        work = 0
        start = perf_counter()
        for command in commands:
            self.attempted += 1
            try:
                work += workloads.work_units(command.kind, execute(command))
            except Exception as exc:  # the CLI would exit non-zero here
                traceback.print_exc(file=sys.stderr)
                self.errors.append(f"{command.config.name}: {type(exc).__name__}: {exc}")
                return None
        wall = perf_counter() - start
        ok = True
        for command in commands:
            try:
                digest, efficiency = workloads.check_output(command)
                if self.digests.setdefault(command.out.name, digest) != digest:
                    raise workloads.CheckError(
                        f"{command.out.name}: CSV bytes differ between passes of one config")
            except (workloads.CheckError, OSError, ValueError, KeyError, TypeError) as exc:
                self.errors.append(f"{command.config.name}: {exc}")
                ok = False
                continue
            if efficiency is not None:
                self.efficiency = efficiency
        return (wall, work) if ok else None

    def passes(self, commands, seconds, min_passes, traced=False):
        """Passes until ``seconds`` have gone by, at least ``min_passes`` of
        them, stopping at the first failure.  Returns [(wall, work, tracer,
        reference)], the tracer being None for an untraced pass and the
        reference the mean time of the reference kernel run just before
        and just after the pass."""
        done = []
        before = calibrate.reference()
        deadline = perf_counter() + seconds
        while len(done) < min_passes or perf_counter() < deadline:
            tracer = tracing.Tracer() if traced else None
            with tracer or contextlib.nullcontext():
                outcome = self.run_pass(commands)
            if tracer is not None and not tracer.restored():
                self.self_checks.append("a wrapped name was not restored")
            if outcome is None:
                break
            after = calibrate.reference()
            done.append((*outcome, tracer, (before + after) / 2))
            before = after
        return done

    def measure_setup(self, commands, repeats):
        """Set-up times of ``repeats`` fresh interpreters, each scaled by the
        reference kernel run just before and just after it."""
        specs = [f"{c.kind}={c.config}" for c in commands]
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"), *specs]
        times = []
        before = calibrate.reference()
        for _ in range(repeats):
            self.attempted += 1
            start = monotonic()
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            except subprocess.TimeoutExpired:
                self.errors.append("set-up probe timed out after 120 s")
                continue
            if proc.returncode != 0:
                self.errors.append(f"set-up probe exited {proc.returncode}: "
                                   + " ".join(proc.stderr.strip().splitlines()[-1:]))
                continue
            after = calibrate.reference()
            times.append(scaled(float(proc.stdout.split()[-1]) - start, (before + after) / 2))
            before = after
        return times


def scaled(wall, reference):
    """``wall`` at the host speed where the reference kernel takes REFERENCE_S."""
    return wall * calibrate.REFERENCE_S / reference


def scaled_mean(walls, references) -> float:
    """Total wall time over total reference time, scaled to REFERENCE_S: the
    mean pass time at that speed, each pass weighted by its length."""
    return scaled(sum(walls), sum(references)) if walls else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def pass_profile(wall, tracer):
    """Per-layer times, counts and layer self-time shares of one traced pass."""
    selfs, durations = Counter(), Counter()
    for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        selfs[span[0]] += own
        durations[span[0]] += span[2] - span[1]
    layer = Counter()
    for name, own in selfs.items():
        layer[name.split(".")[0]] += own
    c = tracer.counts
    times = {
        "runconfig.parse_s": layer["runconfig"],
        "photonics.self_s": layer["photonics"],
        "fisher.fi_numeric.self_s": selfs["fisher.fi_numeric"],
        "sampling.sample.self_s": selfs["sampling.sample"],
        "sampling.count_distribution.self_s": selfs["sampling.count_distribution"],
        "bayes.sequential_estimates.self_s": selfs["bayes.sequential_estimates"],
        "bench.self_s": sum(v for k, v in selfs.items() if k.startswith("bench.run_")),
        "bench.write_s": durations["bench.write_csv"] + durations["bench.write_metadata"],
        "sampling.ns_per_pulse":
            1e9 * selfs["sampling.sample"] / c["sampling.pulses"] if c["sampling.pulses"] else 0.0,
        "bayes.ns_per_posterior_node":
            1e9 * selfs["bayes.sequential_estimates"] / c["bayes.posterior_nodes"]
            if c["bayes.posterior_nodes"] else 0.0,
    }
    counts = {
        name: c[name] for name in (
            "photonics.fringe_mean.calls", "photonics.fringe_mean.nodes",
            "fisher.fi_numeric.calls", "sampling.sample.calls", "sampling.pulses",
            "sampling.count_distribution.calls", "sampling.count_distribution.table_len",
            "bayes.sequential_estimates.calls", "bayes.posteriors", "bench.csv_bytes")
    }
    shares = {name: layer[name] / wall for name in LAYERS}
    shares["harness"] = 1.0 - sum(shares.values())
    return times, counts, shares


def self_check_pass(wall, tracer) -> list[str]:
    own = tracing.self_times(tracer.spans)
    problems = []
    if own and min(own) < -1e-6:
        problems.append(f"negative self time {min(own):.3g} s")
    slack = SELF_TIME_SLACK_REL * wall + SELF_TIME_SLACK_ABS
    if abs(sum(own) - wall) > slack:
        problems.append(f"span self times add to {sum(own):.4f} s, pass took {wall:.4f} s "
                        f"(slack {slack:.4f} s)")
    return problems


def summarize_trace(passes, references, run_s, tally):
    """Per-layer metrics and layer shares, averaged over the traced passes;
    runs the self-checks and records what fails.  Self times are raw wall
    seconds; only ``trace.overhead_s`` is scaled, like ``run_s``."""
    profiles = [pass_profile(wall, tracer) for wall, tracer in passes]
    for wall, tracer in passes:
        tally.self_checks.extend(self_check_pass(wall, tracer))
    if any(p[1] != profiles[0][1] for p in profiles[1:]):
        tally.self_checks.append("counts differ between traced passes")
    if not profiles:
        return {}, {}
    metrics = {name: _mean([p[0][name] for p in profiles]) for name in profiles[0][0]}
    metrics.update(profiles[0][1])
    metrics["trace.overhead_s"] = scaled_mean([wall for wall, _ in passes], references) - run_s
    shares = {name: _mean([p[2][name] for p in profiles]) for name in profiles[0][2]}
    return metrics, shares


def provenance(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    revision, dirty = None, None
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if rev.returncode == 0:
            status = subprocess.run(
                ["git", "--no-optional-locks", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
            revision, dirty = rev.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_revision": revision, "git_dirty": dirty,
            "seed": seed, "threads": 1}


def _show(name, value, unit, note=""):
    print(f"{name:40s} {value:>16.6g} {unit:6s} {note}".rstrip())


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    src = ROOT / "src"
    if not (src / "phasecount" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a phasecount checkout: src/phasecount or configs/ is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import phasecount

    if Path(phasecount.__file__).resolve().parent != src / "phasecount":
        print(f"error: phasecount imported from {phasecount.__file__}, not {src}", file=sys.stderr)
        return 2

    workdir = HERE / "work" / f"{args.workload}-seed{args.seed}"
    workload = workloads.build(args.workload, args.seed, ROOT, workdir, tiny=args.tiny)
    tally = Tally()
    stamp = provenance(args.seed)
    print(f"# phasecount benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} closed loop, 1 client, threads=1")
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    setup = []
    if not args.trace:
        setup = tally.measure_setup(workload.timed, 2 if args.tiny else SETUP_REPEATS)
    warm = tally.run_pass(workload.warmup)
    timed, traced = [], []
    if warm is not None:
        if args.trace:
            timed = tally.passes(workload.timed, args.seconds / 2, 1)
            traced = tally.passes(workload.timed, args.seconds / 2, MIN_TRACED_PASSES,
                                    traced=True)
        else:
            timed = tally.passes(workload.timed, args.seconds, MIN_TIMED_PASSES)
    walls = [wall for wall, _, _, _ in timed]
    references = [reference for _, _, _, reference in timed]
    work = timed[-1][1] if timed else 0
    passes = [(wall, tracer) for wall, _, tracer, _ in traced]
    # Scaled to the reference kernel's speed: a shared cloud host drifts
    # between speeds up to 1.9x apart over seconds to minutes (2-core Xeon
    # VM), which moves the raw mean of a run by more than the bound.
    run_s = scaled_mean(walls, references)
    gap = abs(tally.efficiency - 1.0) if tally.efficiency is not None else 0.0

    if args.trace:
        metrics, shares = summarize_trace(passes, [r for *_, r in traced], run_s, tally)
        metrics["bayes.crb_gap"] = gap
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "run_s": run_s,
            "work_per_s": work / run_s if run_s else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": _median(setup),
        }
        units = END_TO_END_UNITS

    failed = len(tally.errors)
    correct = failed == 0 and not tally.self_checks and bool(walls) \
        and (bool(passes) or not args.trace)
    rate_name, work_kind = ("fi_evals_per_s", "FI values") if args.workload == "fi-curves" \
        else ("pulses_per_s", "pulses sampled and estimated")
    notes = {
        "run_s": f"{len(walls)} passes at reference speed; raw wall mean {_mean(walls):.4g} s, "
                 f"median {_median(walls):.4g} s, max {max(walls, default=0.0):.4g} s; "
                 f"host at {calibrate.REFERENCE_S / _mean(references or [1.0]):.3g}x "
                 "reference speed",
        "work_per_s": f"{work_kind} per second, {work} per pass",
        "setup_s": f"median of {len(setup)} fresh interpreters at reference speed",
        "trace.overhead_s": f"{len(passes)} traced passes minus untraced run_s, both scaled",
    }
    for name, unit in units.items():
        _show(name, metrics.get(name, 0.0), unit, notes.get(name, ""))
    _show("error_rate", failed / max(tally.attempted, 1), "ratio",
          f"{failed} failed of {tally.attempted} operations")
    if not args.trace:
        _show(rate_name, metrics["work_per_s"], "1/s", "work_per_s on this workload")
        _show("crb_gap", gap, "ratio", "|efficiency - 1| at the run's seed")
    else:
        print("# self-time share of a traced pass: "
              + " ".join(f"{k}={v:.1%}" for k, v in shares.items()))
        spans = [{"wall": wall, "spans": tracer.spans} for wall, tracer in passes]
        (workdir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    for problem in tally.errors + tally.self_checks:
        print(f"# FAILED: {problem}")

    (workdir / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"provenance": stamp, "workload": args.workload, "pass_walls": walls,
         "pass_references": references, "setup_scaled": setup,
         "errors": tally.errors, "self_checks": tally.self_checks, "crb_gap": gap,
         "metrics": metrics}, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
