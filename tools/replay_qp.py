"""Replay one workload's prox QP calls through the qp modules of two checkouts.

    python3 tools/replay_qp.py --parent DIR --change DIR --workload dfo-tilt \
        --seed 1 [--cases N] [--rounds R]

Records every ``minimize_simplex_qp`` call that one pass over the workload's
cases makes, solving them one at a time as ``perfbench/run.py`` does: the
cases, instances and oracles are built by the ``perfbench`` of the
``--parent`` checkout, with one BLAS thread.  ``--cases N`` keeps the first
N cases.  The calls stay in memory (each holds its m x m matrix, so the
large bundles of ``maxquad-grow`` take tens of MB per case).

Then it calls ``minimize_simplex_qp`` of each checkout's
``src/proxbundle/qp.py`` on every recorded call, in one process, for
``--rounds`` rounds; the side that runs first alternates from round to
round.  It prints each side's min and median per-call time by bundle size
m (each call timed by its fastest round) and each side's total per round.
It exits 1 unless every call returns a bitwise identical ``(lam,
residual)`` on both sides (or raises the same error), 0 otherwise.

When calls differ, it also prints how many differ at each m, the largest
relative change of the QP objective ``0.5 lam'Q lam + q'lam`` among calls
that return on both sides (change - parent, over the parent's
``0.5 lam'|Q| lam + |q|'lam``, the scale of the objective's rounding
errors, which no cancellation makes tiny), and for each side the number
of calls whose residual ``max_i lam_i |grad_i - min grad|``, recomputed
here from the returned weights, exceeds that call's tol, and the number
that raise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

# one BLAS thread, as perfbench/run.py sets it, before numpy loads: the
# n = 100 instances round differently with more threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

SIDES = ("parent", "change")


def record_calls(checkout, workload, seed, limit):
    """Every (Q, q, lam0, tol, max_iter) that one pass of the workload's
    cases hands to ``minimize_simplex_qp``, copied at the call."""
    sys.path.insert(0, str(checkout / "perfbench"))
    perf = importlib.import_module("run")
    pb = perf.lib.load()  # before workloads, which imports proxbundle
    wl = importlib.import_module("workloads").WORKLOADS[workload]
    cases = wl.cases(seed)[:limit]
    bench = perf.Bench(pb, wl, seed, cases)
    bench.sampler.enabled = False
    instances = bench.set_up()
    calls = []
    real = pb.qp.minimize_simplex_qp

    def recording(Q, q, lam0=None, tol=1e-12, max_iter=50_000):
        calls.append((np.array(Q, dtype=float), np.array(q, dtype=float),
                      None if lam0 is None else np.array(lam0, dtype=float),
                      tol, max_iter))
        return real(Q, q, lam0, tol, max_iter)

    pb.qp.minimize_simplex_qp = recording
    try:
        for case in cases:
            bench.solve(case, instances[case.instance])
    finally:
        pb.qp.minimize_simplex_qp = real
    return len(cases), calls


def load_qp(checkout, side):
    """The checkout's ``qp.py`` as a module of its own."""
    path = checkout / "src" / "proxbundle" / "qp.py"
    spec = importlib.util.spec_from_file_location(f"replay_qp_{side}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(qp, call):
    """The call's ``(lam, residual)``, or its error's type and message."""
    Q, q, lam0, tol, max_iter = call
    try:
        return qp.minimize_simplex_qp(Q, q, lam0=lam0, tol=tol,
                                      max_iter=max_iter)
    except Exception as exc:  # the same error on both sides is identical
        return f"{type(exc).__name__}: {exc}"


def outcome(res):
    """A result as bytes: lam and residual bit for bit, signed zeros
    included, or the error text."""
    if isinstance(res, str):
        return res.encode()
    lam, resid = res
    return (lam.dtype.str.encode() + repr(lam.shape).encode()
            + lam.tobytes() + np.float64(resid).tobytes())


def objective(call, lam):
    """The QP objective at lam and the scale of its rounding errors."""
    Q, q = call[:2]
    a = np.abs(lam)
    return (0.5 * lam @ Q @ lam + q @ lam,
            0.5 * a @ np.abs(Q) @ a + np.abs(q) @ a)


def above_tol(call, res):
    """Whether a returned lam's residual, recomputed, exceeds the call's
    tol."""
    Q, q, _, tol, _ = call
    lam = res[0]
    grad = Q @ lam + q
    return float(np.max(lam * np.abs(grad - grad.min()))) > tol


def report_differences(calls, got, differing):
    """The lines printed when calls differ: counts by m, the largest
    relative objective change and each side's residuals above tol."""
    by_m = {}
    for i in differing:
        m = calls[i][1].size
        by_m[m] = by_m.get(m, 0) + 1
    print("differing calls by m: "
          + ", ".join(f"m = {m}: {n}" for m, n in sorted(by_m.items())))
    largest = None
    for i in differing:
        parent, change = got["parent"][i], got["change"][i]
        if isinstance(parent, str) or isinstance(change, str):
            continue
        f_parent, scale = objective(calls[i], parent[0])
        rel = (objective(calls[i], change[0])[0] - f_parent) / (scale or 1.0)
        if largest is None or abs(rel) > abs(largest):
            largest = rel
    print("largest relative objective change (change - parent): "
          + ("none" if largest is None else f"{largest:.3e}"))
    for side in SIDES:
        results = got[side]
        raised = sum(isinstance(r, str) for r in results)
        above = sum(above_tol(c, r) for c, r in zip(calls, results)
                    if not isinstance(r, str))
        print(f"{side}: {above} of {len(calls)} calls with residual above "
              f"tol, {raised} raised")


def timed_round(qp, calls):
    seconds = []
    minimize = qp.minimize_simplex_qp
    for Q, q, lam0, tol, max_iter in calls:
        start = time.perf_counter()
        try:
            minimize(Q, q, lam0=lam0, tol=tol, max_iter=max_iter)
        except Exception:  # compared in outcome(); timed like any call
            pass
        seconds.append(time.perf_counter() - start)
    return seconds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--cases", type=int, help="keep the first N cases")
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}

    n_cases, calls = record_calls(checkouts["parent"], args.workload,
                                  args.seed, args.cases)
    print(f"{args.workload} seed {args.seed}: {n_cases} cases, "
          f"{len(calls)} minimize_simplex_qp calls recorded", flush=True)
    modules = {side: load_qp(checkouts[side], side) for side in SIDES}

    got = {side: [result(modules[side], c) for c in calls] for side in SIDES}
    differing = [i for i, (a, b) in enumerate(zip(*got.values()))
                 if outcome(a) != outcome(b)]
    for i in differing[:5]:
        print(f"call {i} (m = {calls[i][1].size}) differs")
    print(f"{len(calls) - len(differing)} of {len(calls)} calls identical",
          flush=True)
    if differing:
        report_differences(calls, got, differing)

    times = {side: [] for side in SIDES}
    for rnd in range(args.rounds):
        for side in (SIDES if rnd % 2 == 0 else SIDES[::-1]):
            gc.collect()
            times[side].append(timed_round(modules[side], calls))
    if args.rounds:
        best = {side: np.min(times[side], axis=0) for side in SIDES}
        sizes = np.array([c[1].size for c in calls])
        for m in np.unique(sizes):
            row = [f"m = {m}: {int((sizes == m).sum())} calls"]
            for side in SIDES:
                per_call = best[side][sizes == m] * 1e6
                row.append(f"{side} min {per_call.min():.1f} us "
                           f"median {statistics.median(per_call):.1f} us")
            print("; ".join(row))
        for side in SIDES:
            totals = [sum(r) for r in times[side]]
            print(f"{side} per round: min {min(totals):.4f} s, "
                  f"median {statistics.median(totals):.4f} s")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
