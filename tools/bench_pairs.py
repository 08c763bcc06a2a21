"""Compare two checkouts on one benchmark workload in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W --seeds A-B --seconds S

Each seed runs ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
once in each tree, each run in its own interpreter with the tree as its working
directory; the parent runs first at even seeds and the change at odd ones.
For each end-to-end metric that ``BENCHMARK.json`` (read from the parent tree)
declares, it prints both medians and quartiles, the pairs the change won (ties
count for neither) and a verdict:

- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: either side's quartile distance over its median is wider
  than the bound;
- ``claim met``: the change won at least 9 of every 10 pairs, over at least
  10 pairs, and the medians differ by more than the parent's quartile distance;
- ``no claim``: none of these.

After the pairs it runs ``--trace 1`` once in each tree, at the first seed and
for TRACED_SECONDS, and prints each traced run's ``correct`` and failed count: a
traced run makes self-checks that untraced pairs cannot see.

It exits 1 when a run, traced or not, is not ``correct``, has failed operations
or ends without a result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

CLAIM_SHARE = 0.9
CLAIM_MIN_PAIRS = 10
TRACED_SECONDS = 2


class Summary(NamedTuple):
    metric: str
    unit: str
    parent: tuple  # (q1, median, q3)
    change: tuple
    wins: int
    pairs: int
    verdict: str

    def line(self) -> str:
        def side(q):
            return f"{q[1]:.6g} ({q[0]:.6g}-{q[2]:.6g})"
        return (f"{self.metric:<12} {self.unit:<4} parent {side(self.parent)}  "
                f"change {side(self.change)}  won {self.wins}/{self.pairs}  {self.verdict}")


def parse_result(stdout: str) -> dict:
    """The result object on the last non-empty line of a run's stdout."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("run printed no result line")
    return json.loads(lines[-1])


def run_failures(result: dict) -> list[str]:
    """Why a run's result does not count, empty when it is correct."""
    if "error" in result:
        return [result["error"]]
    problems = []
    if result.get("correct") is not True:
        problems.append("not correct")
    if result.get("failed", 1) != 0:
        problems.append(f"{result.get('failed')} failed of {result.get('attempted')} operations")
    return problems


def _quartiles(values) -> tuple:
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(spec: dict, parent, change) -> Summary:
    """The verdict on one ``BENCHMARK.json`` end-to-end metric from its values in
    paired runs, parent[i] beside change[i]."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign, bound = (1.0 if spec["better"] == "lower" else -1.0), spec["bound"]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pq, cq = _quartiles(parent), _quartiles(change)
    if sign * (cq[1] - pq[1]) > bound * abs(pq[1]):
        word = "worse"
    elif any(q[2] - q[0] > bound * abs(q[1]) for q in (pq, cq)):
        word = "unresolved"
    elif (len(parent) >= CLAIM_MIN_PAIRS and wins >= CLAIM_SHARE * len(parent)
          and sign * (pq[1] - cq[1]) > pq[2] - pq[0]):
        word = "claim met"
    else:
        word = "no claim"
    return Summary(spec["name"], spec["unit"], pq, cq, wins, len(parent), word)


def summarise(pairs, end_to_end) -> list[Summary]:
    """One summary per end-to-end metric from (parent result, change result) pairs."""
    return [verdict(spec, [p["metrics"][spec["name"]]["value"] for p, _ in pairs],
                    [c["metrics"][spec["name"]]["value"] for _, c in pairs])
            for spec in end_to_end]


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _run(tree: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        return {"error": f"exit {proc.returncode}: {exc}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="A-B, inclusive")
    parser.add_argument("--seconds", required=True, type=int)
    args = parser.parse_args(argv)
    end_to_end = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]

    pairs, bad = [], 0
    sides = {"parent": args.parent, "change": args.change}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        result = {side: _run(sides[side], args.workload, seed, args.seconds) for side in order}
        for side in order:
            problems = run_failures(result[side])
            bad += bool(problems)
            values = {k: v["value"] for k, v in result[side].get("metrics", {}).items()}
            print(f"seed {seed} {side:<6} {values} {'; '.join(problems)}", flush=True)
        pairs.append((result["parent"], result["change"]))

    traced_bad = 0
    for side, tree in sides.items():
        result = _run(tree, args.workload, args.seeds[0], TRACED_SECONDS, trace=1)
        problems = run_failures(result)
        traced_bad += bool(problems)
        print(f"traced {side:<6} correct={result.get('correct')} failed={result.get('failed')} "
              f"{'; '.join(problems)}".rstrip(), flush=True)

    if bad:
        print(f"{bad} run(s) did not count; no verdict")
        return 1
    print(f"{args.workload}: {len(pairs)} pairs, {args.seconds} s runs; median (q1-q3)")
    for summary in summarise(pairs, end_to_end):
        print(summary.line())
    if traced_bad:
        print(f"{traced_bad} traced run(s) did not count")
    return int(bool(traced_bad))


if __name__ == "__main__":
    sys.exit(main())
