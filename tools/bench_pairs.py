"""Run the benchmark in alternating parent/change pairs and write BENCH_<tag>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workloads maxquad-highdim --seeds 1-10 --tag TAG \
        [--second-seed] [--trace 0|1] [--out BENCH_TAG.json]

``--workloads`` takes names that the change's ``BENCHMARK.json`` lists,
separated by spaces; any other name exits 2 before a run.
``--parent`` and ``--change`` are two checkouts of the repository; each side
runs its own ``perfbench/run.py`` from its own directory, one run at a time,
for the ``run_seconds`` of the change's ``BENCHMARK.json``.
For every workload and seed the two sides run back to back on the same
seed, and the side that runs first alternates from pair to pair.  Every
run's last-line JSON, both digests, its per-case lines
(``case <label>: <status> iters=... tilt=...``) and any ``INCORRECT`` line
are kept.

The output file is extended, not replaced: runs from earlier invocations
stay, and the summary is recomputed from all of them.  The summary has one
row per (workload, --second-seed) over the untraced runs: each side's
q1/median/q3 of every end-to-end metric in the change's ``BENCHMARK.json``,
the ratio of the medians, the pairs the change won and tied, whether the
digests agreed in every pair, and the failed counts.  Where a pair's digests
differ, ``changed_cases`` lists each case whose status, iteration count or
tilt count differs between its two runs, with both sides.  Traced runs are
listed under ``traces``, parent and change side by side in every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
DIGESTS = ("digest.outcomes", "digest.x_out")
CASE_LINE = re.compile(r"case (\S+): (\S+) iters=(\d+) tilt=(\d+)")


def parse_seeds(text):
    """'1-10' or '1,3,5' (or a mix) to a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace, second_seed):
    """One benchmark run in ``checkout``; returns its record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if second_seed:
        cmd.append("--second-seed")
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    record = {"workload": workload, "seed": seed, "second_seed": second_seed,
              "trace": trace, "returncode": proc.returncode,
              **parse_output(proc.stdout)}
    if record["result"] is None:
        record["stderr_tail"] = proc.stderr.splitlines()[-5:]
    return record


def parse_output(stdout):
    """What a run's report keeps: its ``INCORRECT`` and per-case lines, both
    digests and the last-line JSON (None if the last line is not JSON)."""
    lines = stdout.splitlines()
    record = {"incorrect_lines": [ln for ln in lines
                                  if ln.startswith("INCORRECT")],
              "case_lines": [ln for ln in lines if CASE_LINE.match(ln)]}
    for line in lines:
        name, sep, value = line.partition(" = ")
        if sep and name in DIGESTS:
            record[name] = value.strip()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
    return record


def case_outcomes(run):
    """{label: [status, iterations, tilt count]} from a run's case lines."""
    return {m[1]: [m[2], int(m[3]), int(m[4])]
            for m in map(CASE_LINE.match, run.get("case_lines", []))}


def changed_cases(parent, change):
    """The cases whose outcome differs between two runs of one seed, with
    both sides (None for a case one side did not report)."""
    old, new = case_outcomes(parent), case_outcomes(change)
    labels = list(old) + [label for label in new if label not in old]
    return [{"case": label, "parent": old.get(label), "change": new.get(label)}
            for label in labels if old.get(label) != new.get(label)]


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def metric_value(run, name):
    result = run.get("result")
    if not result or name not in result["metrics"]:
        return None
    return result["metrics"][name]["value"]


def failed(run):
    return run["result"]["failed"] if run["result"] else 0


def summarize(runs, end_to_end):
    """Per-(workload, second_seed) rows over the untraced pairs.

    ``end_to_end`` is the ``end_to_end`` list of BENCHMARK.json.
    """
    pairs = {}
    for run in runs:
        if run["trace"]:
            continue
        key = (run["workload"], run["second_seed"], run["seed"])
        pairs.setdefault(key, {}).setdefault(run["side"], []).append(run)
    rows = {}
    for (workload, second, seed), sides in sorted(pairs.items()):
        if set(sides) != set(SIDES):
            continue
        # every run of one side on a seed pairs with the same-index run of
        # the other side on that seed
        for parent, change in zip(sides["parent"], sides["change"]):
            rows.setdefault((workload, second), []).append(
                (seed, parent, change))
    summary = []
    for (workload, second), matched in rows.items():
        row = {
            "workload": workload,
            "second_seed": second,
            "seeds": sorted({seed for seed, _, _ in matched}),
            "pairs": len(matched),
            "digests_identical": all(
                p.get(d) is not None and p.get(d) == c.get(d)
                for _, p, c in matched for d in DIGESTS),
            "changed_cases": [
                {"seed": seed, **case}
                for seed, p, c in matched
                if any(p.get(d) != c.get(d) for d in DIGESTS)
                for case in changed_cases(p, c)],
            "incorrect_lines": sum(len(p["incorrect_lines"])
                                   + len(c["incorrect_lines"])
                                   for _, p, c in matched),
            "failed": {"parent": sum(failed(p) for _, p, _ in matched),
                       "change": sum(failed(c) for _, _, c in matched)},
            "runs_without_result": sum(r["result"] is None
                                       for _, p, c in matched
                                       for r in (p, c)),
            "metrics": {},
        }
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            got = [(metric_value(p, name), metric_value(c, name))
                   for _, p, c in matched]
            got = [(a, b) for a, b in got if a is not None and b is not None]
            if not got:
                continue
            par = quartiles([a for a, _ in got])
            chg = quartiles([b for _, b in got])
            better = sum((b < a) if lower else (b > a) for a, b in got)
            tied = sum(a == b for a, b in got)
            worse_by = ((chg[1] - par[1]) if lower else (par[1] - chg[1]))
            row["metrics"][name] = {
                "unit": spec["unit"],
                "parent_q1_median_q3": [round(v, 6) for v in par],
                "change_q1_median_q3": [round(v, 6) for v in chg],
                "change_over_parent_median": (round(chg[1] / par[1], 4)
                                              if par[1] else None),
                "change_better_pairs": better,
                "tied_pairs": tied,
                "median_gain_over_parent_iqr": (
                    round(-worse_by / (par[2] - par[0]), 3)
                    if par[2] > par[0] else None),
                "within_bound": (worse_by <= spec["bound"] * abs(par[1])),
            }
        summary.append(row)
    return summary


def traces(runs):
    """Traced runs per (workload, seed): a list of pairs, each the parent's
    and the change's metrics, paired by index as in ``summarize``."""
    sides = {}
    for run in runs:
        if not run["trace"] or not run.get("result"):
            continue
        key = f"{run['workload']}/seed{run['seed']}" + (
            "/second" if run["second_seed"] else "")
        sides.setdefault(key, {}).setdefault(run["side"], []).append(
            {name: m["value"] for name, m in run["result"]["metrics"].items()})
    return {key: [dict(zip(SIDES, pair))
                  for pair in zip(*(got.get(side, []) for side in SIDES))]
            for key, got in sides.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", required=True, nargs="+")
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--second-seed", action="store_true")
    parser.add_argument("--out", type=Path,
                        help="default: BENCH_<tag>.json in the change checkout")
    args = parser.parse_args(argv)
    out = args.out or args.change / f"BENCH_{args.tag}.json"
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    # an unlisted name (say "a,b" as one argument) would make every run
    # exit 2 and fill the file with runs that have no result
    valid = [w["name"] for w in bench["workloads"]]
    unknown = [w for w in args.workloads if w not in valid]
    if unknown:
        parser.error(f"unknown workload {', '.join(map(repr, unknown))}; "
                     f"BENCHMARK.json lists {' '.join(valid)}")
    seconds = bench["run_seconds"]
    data = (json.loads(out.read_text()) if out.exists()
            else {"tag": args.tag, "runs": []})
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True).stdout.strip()
    data["host"] = (f"{os.cpu_count()} CPUs, Python "
                    f"{platform.python_version()}, NumPy {numpy}")
    data["command"] = (f"python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {seconds:g} --trace 0|1 "
                       "[--second-seed], in a checkout of each side")
    data["method"] = ("pairs on the same seed; the side that runs first "
                      "alternates from pair to pair; one run at a time")
    index = len(data["runs"]) // 2
    for workload in args.workloads:
        for seed in args.seeds:
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            index += 1
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                record = run_once(checkout, workload, seed, seconds,
                                  args.trace, args.second_seed)
                record = {"side": side, **record}
                data["runs"].append(record)
                result = record["result"] or {}
                print(f"{workload} seed={seed}"
                      f"{' second' if args.second_seed else ''} "
                      f"trace={args.trace} {side}: "
                      f"correct={result.get('correct')} "
                      f"failed={result.get('failed')} "
                      f"p50={metric_value(record, 'solve_ref.p50')} "
                      f"{record.get('digest.outcomes')} "
                      f"{record.get('digest.x_out')}", flush=True)
            data["summary"] = summarize(data["runs"], bench["end_to_end"])
            data["traces"] = traces(data["runs"])
            out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
