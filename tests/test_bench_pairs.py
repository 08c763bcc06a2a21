"""tools/bench_pairs.py's verdicts, fed canned benchmark result lines; no
benchmark is launched."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
RUN_S = next(m for m in END_TO_END if m["name"] == "run_s")  # lower is better, bound 0.25
WORK = next(m for m in END_TO_END if m["name"] == "work_per_s")  # higher is better


def _line(run_s, *, correct=True, failed=0):
    metrics = {"run_s": {"value": run_s, "unit": "s"},
               "work_per_s": {"value": 1887 / run_s, "unit": "1/s"},
               "peak_rss_mb": {"value": 40.0, "unit": "MB"},
               "setup_s": {"value": 0.2, "unit": "s"}}
    return ("# report line\n" + json.dumps({"correct": correct, "attempted": 150,
                                            "failed": failed, "metrics": metrics}) + "\n")


def _pairs(parent, change):
    return [(bench_pairs.parse_result(_line(p)), bench_pairs.parse_result(_line(c)))
            for p, c in zip(parent, change)]


PARENT = [0.0324, 0.0321, 0.0327, 0.0322, 0.0325, 0.0323, 0.0326, 0.0320, 0.0324, 0.0325]


def test_a_steady_gain_meets_the_claim_on_both_directions():
    change = [p * 0.94 for p in PARENT]
    by_name = {s.metric: s for s in bench_pairs.summarise(_pairs(PARENT, change), END_TO_END)}
    assert by_name["run_s"].verdict == by_name["work_per_s"].verdict == "claim met"
    assert by_name["run_s"].wins == by_name["work_per_s"].wins == 10
    assert by_name["peak_rss_mb"].verdict == by_name["setup_s"].verdict == "no claim"
    assert by_name["peak_rss_mb"].wins == 0  # ties count for neither side


def test_eight_wins_of_ten_is_no_claim():
    change = [p * 0.94 for p in PARENT[:8]] + [p * 1.01 for p in PARENT[8:]]
    summary = bench_pairs.verdict(RUN_S, PARENT, change)
    assert (summary.wins, summary.pairs, summary.verdict) == (8, 10, "no claim")


def test_a_gap_inside_the_parents_quartiles_is_no_claim():
    change = [p - 1e-5 for p in PARENT]  # wins every pair by less than the spread
    summary = bench_pairs.verdict(RUN_S, PARENT, change)
    assert summary.wins == 10 and summary.verdict == "no claim"


def test_fewer_than_ten_pairs_make_no_claim():
    summary = bench_pairs.verdict(RUN_S, PARENT[:9], [p * 0.9 for p in PARENT[:9]])
    assert summary.wins == 9 and summary.verdict == "no claim"


@pytest.mark.parametrize("spec,factor", [(RUN_S, 1.3), (WORK, 0.7)])
def test_worse_beyond_the_bound(spec, factor):
    assert bench_pairs.verdict(spec, PARENT, [p * factor for p in PARENT]).verdict == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    change = [p * f for p, f in zip(PARENT, [0.8, 1.2] * 5)]
    summary = bench_pairs.verdict(RUN_S, PARENT, change)
    assert summary.verdict == "unresolved"
    assert "unresolved" in summary.line() and "run_s" in summary.line()


def test_quartiles_and_medians():
    summary = bench_pairs.verdict(RUN_S, [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary.parent == summary.change == (2.0, 3.0, 4.0)


@pytest.mark.parametrize("line,problems", [
    (_line(0.03), []),
    (_line(0.03, correct=False), ["not correct"]),
    (_line(0.03, failed=2), ["2 failed of 150 operations"]),
])
def test_runs_that_do_not_count(line, problems):
    assert bench_pairs.run_failures(bench_pairs.parse_result(line)) == problems


def test_a_run_without_a_result_line_does_not_parse():
    assert bench_pairs.run_failures({"error": "exit 2: no result"}) == ["exit 2: no result"]
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")
    with pytest.raises(ValueError):
        bench_pairs.parse_result("Traceback (most recent call last):\n")


def _trees(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree in (parent, change):
        tree.mkdir()
    (parent / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    return parent, change


@pytest.mark.parametrize("traced_change,code,shown", [
    (_line(0.03), 0, "traced change correct=True failed=0"),
    (_line(0.03, correct=False), 1, "traced change correct=False failed=0 not correct"),
    (_line(0.03, correct=False, failed=3), 1,
     "traced change correct=False failed=3 not correct; 3 failed of 150 operations"),
], ids=["both-correct", "change-not-correct", "change-failed-operations"])
def test_each_tree_makes_one_traced_run(tmp_path, monkeypatch, capsys,
                                        traced_change, code, shown):
    parent, change = _trees(tmp_path)
    calls = []

    def run(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name, workload, seed, seconds, trace))
        if trace and tree == change:
            return bench_pairs.parse_result(traced_change)
        return bench_pairs.parse_result(_line(0.03))

    monkeypatch.setattr(bench_pairs, "_run", run)
    argv = [str(parent), str(change), "--workload", "fi-curves", "--seeds", "11-20",
            "--seconds", "4"]
    assert bench_pairs.main(argv) == code
    traced = [c for c in calls if c[4]]
    assert traced == [("parent", "fi-curves", 11, 2, 1), ("change", "fi-curves", 11, 2, 1)]
    assert len(calls) == 22 and all(c[3] == 4 for c in calls if not c[4])
    out = capsys.readouterr().out
    assert "traced parent correct=True failed=0\n" in out
    assert shown + "\n" in out
    assert "run_s" in out  # the pairs' verdicts are printed either way
