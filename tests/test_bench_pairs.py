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


PARENT_OUTPUT = """workload w: why
case n10-nf7-nfx7-nfz4-rep0/full/0: solved iters=163 tilt=0 time=0.2100s
case n10-nf7-nfx7-nfz4-rep0/three/0: iteration_cap iters=1000 tilt=0 time=1.0000s
case cb2/c0/full: solved iters=12 tilt=3 time=0.0100s
digest.outcomes = aaa
digest.x_out = bbb
INCORRECT: something
{"correct": false, "attempted": 3, "failed": 0, "metrics": {}}
"""

CHANGE_OUTPUT = """workload w: why
case n10-nf7-nfx7-nfz4-rep0/full/0: solved iters=150 tilt=0 time=0.1900s
case n10-nf7-nfx7-nfz4-rep0/three/0: iteration_cap iters=1000 tilt=0 time=0.9000s
case cb2/c0/full: raised iters=0 tilt=0 time=0.0010s -- ValueError: bad
case new/c0/full: solved iters=5 tilt=0 time=0.0010s
digest.outcomes = ccc
digest.x_out = ddd
{"correct": true, "attempted": 4, "failed": 1, "metrics": {}}
"""


def canned(side, text, seed=1):
    return {"side": side, "workload": "w", "seed": seed, "second_seed": False,
            "trace": 0, **bench_pairs.parse_output(text)}


def test_parse_output_keeps_case_lines_digests_and_result():
    got = bench_pairs.parse_output(PARENT_OUTPUT)
    assert got["digest.outcomes"] == "aaa" and got["digest.x_out"] == "bbb"
    assert got["incorrect_lines"] == ["INCORRECT: something"]
    assert [ln.split(":")[0] for ln in got["case_lines"]] == [
        "case n10-nf7-nfx7-nfz4-rep0/full/0",
        "case n10-nf7-nfx7-nfz4-rep0/three/0", "case cb2/c0/full"]
    assert got["result"]["attempted"] == 3
    assert bench_pairs.parse_output("no json")["result"] is None


def test_changed_cases_where_digests_differ():
    runs = [canned("parent", PARENT_OUTPUT), canned("change", CHANGE_OUTPUT),
            canned("parent", PARENT_OUTPUT, seed=2),
            canned("change", PARENT_OUTPUT, seed=2)]
    (row,) = bench_pairs.summarize(runs, END_TO_END)
    assert not row["digests_identical"]
    # seed 2's pair agrees, so only seed 1's changed cases are listed; the
    # capped case kept its status and counts (only its time moved)
    assert row["changed_cases"] == [
        {"seed": 1, "case": "n10-nf7-nfx7-nfz4-rep0/full/0",
         "parent": ["solved", 163, 0], "change": ["solved", 150, 0]},
        {"seed": 1, "case": "cb2/c0/full",
         "parent": ["solved", 12, 3], "change": ["raised", 0, 0]},
        {"seed": 1, "case": "new/c0/full",
         "parent": None, "change": ["solved", 5, 0]},
    ]


def test_identical_digests_list_no_cases():
    runs = [canned("parent", PARENT_OUTPUT), canned("change", PARENT_OUTPUT)]
    (row,) = bench_pairs.summarize(runs, END_TO_END)
    assert row["digests_identical"] and row["changed_cases"] == []
