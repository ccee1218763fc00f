"""Command line interface.

Subcommands:
  solve     run the bundle algorithm on a saved problem or a named function
  generate  create a certified max-of-quadratics instance and save it as JSON
  bench     run the benchmark trial matrix and write a CSV
  profile   turn a benchmark CSV into a performance-profile TSV

Exit codes: 0 success, 1 usage error, 2 solve failure, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import (BenchConfig, performance_profile, records_from_csv,
                    records_to_csv, run_trials, summarize)
from .funcs import TEST_FUNCTIONS, get_test_function
from .model import BundleVariant
from .oracles import (make_ball_noise_oracle, make_exact_oracle, make_rng,
                      make_simplex_gradient_oracle)
from .problems import ProblemCertificateError, generate_max_quad, load_problem, save_problem
from .qp import QPConvergenceError
from .solver import SolverConfig, StopReason, run

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SOLVE = 2
EXIT_INVARIANT = 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="proxbundle",
        description="Proximal point computation for convex functions via a "
                    "tilt-corrected bundle method.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one prox subproblem")
    src = p_solve.add_mutually_exclusive_group(required=True)
    src.add_argument("--problem", help="path to a saved problem JSON")
    src.add_argument("--function", choices=sorted(TEST_FUNCTIONS),
                     help="named convex test function")
    p_solve.add_argument("--centre", help="comma-separated prox-centre "
                         "(functions only; default is the standard start)")
    p_solve.add_argument("--r", type=float, default=1.0, help="prox parameter")
    p_solve.add_argument("--stol", type=float, default=1e-3,
                         help="stopping tolerance")
    p_solve.add_argument("--eps", type=float, default=0.0,
                         help="subgradient error bound")
    p_solve.add_argument("--variant", default="full",
                         choices=[v.value for v in BundleVariant])
    p_solve.add_argument("--oracle", default="exact",
                         choices=["exact", "ball", "simplex"])
    p_solve.add_argument("--max-iter", type=int, default=None)
    p_solve.add_argument("--seed", type=int, default=0,
                         help="seed for the ball-noise oracle")

    p_gen = sub.add_parser("generate",
                           help="generate a certified max-of-quadratics problem")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--nf", type=int, required=True)
    p_gen.add_argument("--nf-xstar", type=int, required=True)
    p_gen.add_argument("--nf-z", type=int, required=True)
    p_gen.add_argument("--r", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--sparse", action="store_true")
    p_gen.add_argument("--out", required=True, help="output JSON path")

    p_bench = sub.add_parser("bench", help="run the benchmark trial matrix")
    p_bench.add_argument("--grid", default="low", choices=["low", "high"],
                         help="low: n in {4,10,25}; high: n in {100,200}")
    p_bench.add_argument("--reps", type=int, default=2)
    p_bench.add_argument("--parallel", type=int, default=1)
    p_bench.add_argument("--master-seed", type=int, default=20240)
    p_bench.add_argument("--out", required=True, help="output CSV path")
    p_bench.add_argument("--summary", action="store_true",
                         help="print a per-variant summary table")

    p_prof = sub.add_parser("profile",
                            help="performance profile from a benchmark CSV")
    p_prof.add_argument("--metric", default="iters",
                        choices=["iters", "time"])
    p_prof.add_argument("--in", dest="infile", required=True)
    p_prof.add_argument("--out", required=True, help="output TSV path")
    return parser


def _cmd_solve(args):
    if args.problem:
        if args.centre is not None:
            print("error: --centre applies to --function only; a problem "
                  "file is solved at its own centre z", file=sys.stderr)
            return EXIT_USAGE
        problem = load_problem(args.problem)
        centre = problem.z
        target = problem
        f = None
    else:
        func = get_test_function(args.function)
        if args.centre is not None:
            centre = np.array([float(t) for t in args.centre.split(",")])
            if centre.size != func.dimension:
                print(f"error: {args.function} expects dimension "
                      f"{func.dimension}, got {centre.size}", file=sys.stderr)
                return EXIT_USAGE
        else:
            centre = func.start_point()
        target = func
        f = func

    if args.oracle == "exact":
        oracle = make_exact_oracle(target)
    elif args.oracle == "ball":
        oracle = make_ball_noise_oracle(target, args.eps,
                                        make_rng(args.seed, 1))
    else:
        oracle = make_simplex_gradient_oracle(f if f is not None
                                              else (lambda x: target.evaluate(x)[0]),
                                              eps_declared=args.eps)

    config = SolverConfig(prox_centre=centre, prox_param=args.r,
                          stop_tol=args.stol,
                          variant=BundleVariant(args.variant),
                          max_iterations=args.max_iter, eps=args.eps,
                          record_trace=False)
    result = run(oracle, config)

    print(f"stop_reason: {result.stop_reason.value}")
    print(f"iterations: {result.iterations}")
    print(f"tilt_corrections: {result.tilt_corrections}")
    print(f"f_out: {result.f_out!r}")
    print(f"gap: {result.gap!r}")
    print(f"error_bound: {result.error_bound!r}")
    print(f"delta_max: {result.delta_max!r}")
    print(f"delta_final: {result.delta_final!r}")
    print("x_out: " + ",".join(repr(float(v)) for v in result.x_out))
    if result.stop_reason is not StopReason.TOLERANCE_MET:
        print("warning: iteration cap reached before the stopping test fired",
              file=sys.stderr)
        return EXIT_SOLVE
    return EXIT_OK


def _cmd_generate(args):
    problem = generate_max_quad(args.n, args.nf, args.nf_xstar, args.nf_z,
                                args.r, args.seed, sparse=args.sparse)
    out = args.out
    if os.path.isdir(out):
        name = (f"maxquad-n{args.n}-nf{args.nf}-nfx{args.nf_xstar}"
                f"-nfz{args.nf_z}-seed{args.seed}.json")
        out = os.path.join(out, name)
    save_problem(problem, out)
    print(f"wrote {out} (n={problem.n}, nf={problem.nf}, seed={problem.seed})")
    return EXIT_OK


def _cmd_bench(args):
    ns = (4, 10, 25) if args.grid == "low" else (100, 200)
    config = BenchConfig(ns=ns, reps=args.reps, master_seed=args.master_seed)
    records = run_trials(config, parallelism=args.parallel)
    with open(args.out, "w", newline="") as fh:
        records_to_csv(records, fh)
    solved = sum(rec.solved for rec in records)
    print(f"wrote {args.out}: {len(records)} trials, {solved} solved")
    if args.summary:
        text, _ = summarize(records)
        print(text)
    return EXIT_OK


def _cmd_profile(args):
    with open(args.infile, newline="") as fh:
        records = records_from_csv(fh)
    metric = "iterations" if args.metric == "iters" else "time"
    table = performance_profile(records, metric=metric)
    with open(args.out, "w") as fh:
        fh.write(table.to_tsv())
    print(f"wrote {args.out}: {len(table.solvers)} variants, "
          f"{table.taus.size} ratio points")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handler = {"solve": _cmd_solve, "generate": _cmd_generate,
               "bench": _cmd_bench, "profile": _cmd_profile}[args.command]
    try:
        return handler(args)
    except ProblemCertificateError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except QPConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
