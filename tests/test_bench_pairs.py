"""Tests for the summary that tools/bench_pairs.py writes into BENCH files."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "solve_ref.p50", "unit": "ref", "better": "lower",
               "bound": 0.25},
              {"name": "solved_frac", "unit": "frac", "better": "higher",
               "bound": 0.25}]


def run(side, seed, p50, solved=1.0, digest="d", failed=0, trace=0,
        workload="w", second=False):
    return {"side": side, "workload": workload, "seed": seed,
            "second_seed": second, "trace": trace, "incorrect_lines": [],
            "digest.outcomes": digest, "digest.x_out": digest,
            "result": {"correct": True, "attempted": 4, "failed": failed,
                       "metrics": {"solve_ref.p50": {"value": p50},
                                   "solved_frac": {"value": solved}}}}


def test_parse_seeds():
    assert bench_pairs.parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_pairs_wins_and_bounds():
    runs = []
    for seed, (a, b) in enumerate([(10, 8), (12, 9), (11, 11.5), (9, 7)], 1):
        runs += [run("parent", seed, a), run("change", seed, b)]
    runs.append(run("change", 5, 1.0))  # unpaired: left out
    runs += [run("parent", 1, 99.0, trace=1), run("change", 1, 1.0, trace=1)]
    (row,) = bench_pairs.summarize(runs, END_TO_END)
    assert row["seeds"] == [1, 2, 3, 4] and row["pairs"] == 4
    assert row["digests_identical"]
    assert row["failed"] == {"parent": 0, "change": 0}
    p50 = row["metrics"]["solve_ref.p50"]
    assert p50["parent_q1_median_q3"] == [9.75, 10.5, 11.25]
    assert p50["change_q1_median_q3"] == [7.75, 8.5, 9.625]
    assert p50["change_better_pairs"] == 3 and p50["tied_pairs"] == 0
    assert p50["median_gain_over_parent_iqr"] == round(2.0 / 1.5, 3)
    assert p50["within_bound"]
    frac = row["metrics"]["solved_frac"]
    assert frac["tied_pairs"] == 4 and frac["within_bound"]


def test_digest_mismatch_failures_and_regression():
    runs = [run("parent", 1, 10.0), run("change", 1, 13.0, solved=0.5,
                                        digest="e", failed=2),
            run("parent", 1, 10.0, second=True),
            run("change", 1, 10.0, second=True)]
    first, second = bench_pairs.summarize(runs, END_TO_END)
    assert not first["digests_identical"]
    assert first["failed"] == {"parent": 0, "change": 2}
    assert not first["metrics"]["solve_ref.p50"]["within_bound"]
    assert not first["metrics"]["solved_frac"]["within_bound"]
    assert second["second_seed"] and second["digests_identical"]


def test_traces_keep_every_pair():
    # two traced pairs on one seed, the second with the change running
    # first: both survive, each side paired with its same-index run
    runs = [run("parent", 5, 10.0, trace=1), run("change", 5, 8.0, trace=1),
            run("change", 5, 7.0, trace=1), run("parent", 5, 11.0, trace=1),
            run("parent", 5, 99.0), run("change", 5, 98.0),
            run("parent", 6, 12.0, trace=1)]
    got = bench_pairs.traces(runs)
    assert [(pair["parent"]["solve_ref.p50"], pair["change"]["solve_ref.p50"])
            for pair in got["w/seed5"]] == [(10.0, 8.0), (11.0, 7.0)]
    assert got["w/seed6"] == []
