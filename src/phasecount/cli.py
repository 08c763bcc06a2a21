"""Command-line harness.

Subcommands
    fi-curve    Fisher-information curves over a phase grid (CSV)
    simulate    estimator trajectories vs pulse count for seeded trials (CSV)
    saturate    mean 1/(m*Var) against the FI per (phi, m) cell (CSV)
    povm-check  cross-validation of the count likelihood vs the Fock oracle

simulate and saturate take --seed and --trials, which set the config's seed
and trials keys before the config is parsed.

Exit codes: 0 success, 1 configuration, usage or output error, 2 numerical-check failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import yaml

from . import bench, runconfig
from .bayes import GridResolutionError, PosteriorUnderflowError
from .fisher import FiConvergenceError
from .photonics import FockTruncationError, ModelMismatchError
from .runconfig import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2

# the seeded commands, the only ones that take --seed and --trials
_SEEDED = ("simulate", "saturate")

# each command's help text, config parser and runner; povm-check prints a report
_COMMANDS = {
    "fi-curve": ("Fisher-information curves over a phase grid",
                 runconfig.parse_fi_curve, bench.run_fi_curve),
    "simulate": ("seeded estimator trajectories vs pulse count",
                 runconfig.parse_simulate, bench.run_simulate),
    "saturate": ("mean 1/(m*Var) vs the Fisher information",
                 runconfig.parse_saturate, bench.run_saturate),
    "povm-check": ("likelihood vs Fock-space oracle cross-check",
                   runconfig.parse_povm_check, None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasecount",
        description="Phase-estimation benchmarks for a displaced-photon-counting receiver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, runner) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML run configuration")
        cmd.add_argument("--out", required=runner is not None,
                         help="optional report path" if runner is None else "output CSV path")
        if name in _SEEDED:
            cmd.add_argument("--seed", type=int, help="set the config's seed key")
            cmd.add_argument("--trials", type=int, help="set the config's trials key")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG

    cfg = None  # until the config is read, an OSError is the config's; then the output's
    try:
        cfg = runconfig.load_config(args.config)
        if args.command in _SEEDED:
            # a flag is its key: the same check, message and sidecar entry
            for key in ("seed", "trials"):
                if getattr(args, key) is not None:
                    cfg[key] = getattr(args, key)
        _, parse, runner = _COMMANDS[args.command]
        run = parse(cfg)
        if runner is None:
            return _povm_check(run, args.out)

        _check_writable(args.out, bench.metadata_path(args.out))
        result = runner(run)
        bench.write_csv(args.out, result)
        bench.write_metadata(args.out, result)
        print(f"wrote {len(result.rows)} rows to {args.out}")
        return EXIT_OK

    except (ConfigError, ModelMismatchError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("configuration error: the run does not fit in memory", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, yaml.YAMLError) as exc:
        print(f"error {'reading configuration' if cfg is None else 'writing output'}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (FockTruncationError, FiConvergenceError, GridResolutionError,
            PosteriorUnderflowError) as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _check_writable(*paths) -> None:
    """Raise, before the run, the OSError that writing an output file raises
    when its path is a directory or its directory is missing."""
    for path in paths:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            os.close(os.open(path, os.O_WRONLY))  # raises it; no O_CREAT, so no file


def _povm_check(run, out_path) -> int:
    if out_path:
        _check_writable(out_path)  # the report has no sidecar
    lines, _, passed = bench.run_povm_check(run)
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if out_path:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.write(report)
    return EXIT_OK if passed else EXIT_NUMERIC


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
