"""Benchmark harness: trial matrices, CSV persistence, performance profiles.

Reproduces the experimental protocol at desk scale: max-of-quadratics
problems over a (n, nf, nf_xstar, nf_z) grid, four bundle variants, three
subgradient error levels, seeded deterministically from a master seed and
the trial coordinates so results are independent of execution order and
parallelism.
"""

from __future__ import annotations

import csv
import io
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .model import BundleVariant
from .oracles import make_ball_noise_oracle, make_rng
from .problems import generate_max_quad
from .solver import SolverConfig, StopReason, default_iteration_cap, run

__all__ = [
    "EPS_LEVELS",
    "TrialRecord",
    "BenchConfig",
    "grid_levels",
    "trial_specs",
    "run_trial",
    "run_trials",
    "records_to_csv",
    "records_from_csv",
    "ProfileTable",
    "performance_profile",
    "summarize",
]

# subgradient error levels, as multiples of the stopping tolerance
EPS_LEVELS = {"0": 0.0, "stol": 1.0, "10stol": 10.0}

@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome.  ``status`` is ``solved``, ``iteration_cap`` or
    ``raised:<ExceptionType>`` (the generator or the solver raised; ``error``
    holds the message); left out, it follows ``solved``.  ``error_bound``
    is the solver's reported bound on the distance to the prox point; NaN
    when the trial raised, or in a file written before the column existed.
    ``records_from_csv`` reads no column that is not a field, so the
    columns of older files that later went away are ignored."""

    problem_id: str
    n: int
    nf: int
    nf_xstar: int
    nf_z: int
    variant: str
    eps_level: str
    seed: int
    solved: bool
    iterations: int
    wall_time: float
    final_distance: float
    tilt_corrections: int
    within_bound: bool
    status: str | None = None
    error: str = ""
    error_bound: float = math.nan

    def __post_init__(self):
        if self.status is None:
            object.__setattr__(self, "status",
                               "solved" if self.solved else "iteration_cap")


# the CSV columns, in TrialRecord's field order
TRIAL_FIELDS = [f.name for f in fields(TrialRecord)]


@dataclass
class BenchConfig:
    ns: tuple = (4, 10, 25)
    reps: int = 2
    r: float = 1.0
    s_tol: float = 1e-3
    master_seed: int = 20240
    variants: tuple = tuple(BundleVariant)
    eps_levels: tuple = ("0", "stol", "10stol")
    sparse_threshold: int = 100  # Hessians are sparse from this dimension up


def grid_levels(n):
    """Distinct values of {1, ceil(n/3), ceil(2n/3), n}."""
    return sorted({1, math.ceil(n / 3), math.ceil(2 * n / 3), n})


def trial_specs(config):
    """Deterministic, canonically ordered list of trial coordinates."""
    specs = []
    for n in config.ns:
        for nf in grid_levels(n):
            for nfx in [v for v in grid_levels(n) if v <= nf]:
                for nfz in [v for v in grid_levels(n) if v <= nf]:
                    for rep in range(config.reps):
                        for variant in config.variants:
                            for eps_level in config.eps_levels:
                                specs.append((n, nf, nfx, nfz, rep,
                                              variant.value, eps_level))
    return specs


def _problem_seed(config, n, nf, nfx, nfz, rep):
    ss = np.random.SeedSequence([config.master_seed, n, nf, nfx, nfz, rep])
    return int(ss.generate_state(1)[0])


def run_trial(config, spec):
    """Run one (problem, variant, eps) combination; never raises.

    If generating the problem or solving it raises, the record is unsolved,
    with status ``raised:<ExceptionType>``, the message in ``error`` and no
    iterations, so a batch is never aborted.
    """
    n, nf, nfx, nfz, rep, variant_name, eps_level = spec
    variant = BundleVariant(variant_name)
    eps = EPS_LEVELS[eps_level] * config.s_tol
    seed = _problem_seed(config, n, nf, nfx, nfz, rep)
    problem_id = f"n{n}-nf{nf}-nfx{nfx}-nfz{nfz}-rep{rep}"
    try:
        problem = generate_max_quad(n, nf, nfx, nfz, config.r, seed,
                                    sparse=n >= config.sparse_threshold)
        noise_rng = make_rng(config.master_seed, n, nf, nfx, nfz, rep,
                             list(BundleVariant).index(variant),
                             list(EPS_LEVELS).index(eps_level), 7)
        oracle = make_ball_noise_oracle(problem, eps, noise_rng)
        solver_config = SolverConfig(prox_centre=problem.z,
                                     prox_param=config.r,
                                     stop_tol=config.s_tol,
                                     variant=variant,
                                     max_iterations=default_iteration_cap(n),
                                     record_trace=False,
                                     eps=eps)
        start = time.perf_counter()
        result = run(oracle, solver_config)
        wall = time.perf_counter() - start
        dist = float(np.linalg.norm(result.x_out - problem.x_star))
        return TrialRecord(problem_id, n, nf, nfx, nfz, variant_name,
                           eps_level, seed,
                           result.stop_reason is StopReason.TOLERANCE_MET,
                           result.iterations, wall, dist,
                           result.tilt_corrections,
                           dist <= config.s_tol + eps / config.r,
                           error_bound=result.error_bound)
    except Exception as exc:
        return TrialRecord(problem_id, n, nf, nfx, nfz, variant_name,
                           eps_level, seed, False, 0, float("nan"),
                           float("inf"), 0, False,
                           status=f"raised:{type(exc).__name__}", error=str(exc))


def run_trials(config, parallelism=1):
    """Run the whole trial matrix; output order is canonical (by coordinates),
    independent of the degree of parallelism."""
    specs = trial_specs(config)
    if parallelism > 1:
        # map() yields results in input order, so output stays canonical
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(run_trial, [config] * len(specs), specs,
                                 chunksize=8))
    return [run_trial(config, spec) for spec in specs]


def records_to_csv(records, stream=None):
    out = stream or io.StringIO()
    writer = csv.writer(out)
    writer.writerow(TRIAL_FIELDS)
    for rec in records:
        writer.writerow([getattr(rec, name) for name in TRIAL_FIELDS])
    return out if stream else out.getvalue()


def records_from_csv(source):
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.DictReader(source)
    # field types are the annotation strings (from __future__ import annotations)
    parsers = {"bool": lambda raw: raw == "True", "int": int, "float": float}
    casts = {f.name: parsers.get(f.type, str) for f in fields(TrialRecord)}
    records = []
    for row in reader:
        kwargs = {}
        for name in TRIAL_FIELDS:
            raw = row.get(name)
            if raw is not None:  # a column older files lack keeps its default
                kwargs[name] = casts[name](raw)
        records.append(TrialRecord(**kwargs))
    return records


@dataclass(frozen=True)
class ProfileTable:
    metric: str
    taus: np.ndarray
    solvers: tuple
    rho: np.ndarray  # shape (len(solvers), len(taus))

    def to_tsv(self):
        lines = ["\t".join(["tau", *self.solvers])]
        for j, tau in enumerate(self.taus):
            lines.append("\t".join([repr(float(tau))]
                                   + [repr(float(self.rho[i, j]))
                                      for i in range(len(self.solvers))]))
        return "\n".join(lines) + "\n"


def performance_profile(records, metric="iterations", n_taus=64):
    """Dolan-More style profile over the bundle variants.

    For each problem (problem id + eps level) the baseline is the best metric
    among solved records; unsolved trials contribute an infinite ratio.
    """
    records = list(records)
    if not records:
        raise ValueError("performance_profile: empty record list")
    if metric not in ("iterations", "time"):
        raise ValueError("metric must be 'iterations' or 'time'")
    attr = "iterations" if metric == "iterations" else "wall_time"

    solvers = tuple(sorted({rec.variant for rec in records}))
    problems = sorted({(rec.problem_id, rec.eps_level) for rec in records})
    ratios = {s: [] for s in solvers}
    for key in problems:
        group = [rec for rec in records
                 if (rec.problem_id, rec.eps_level) == key]
        best = min((getattr(rec, attr) for rec in group if rec.solved),
                   default=None)
        for s in solvers:
            mine = [rec for rec in group if rec.variant == s]
            if not mine or not mine[0].solved or best is None or best <= 0:
                ratios[s].append(np.inf)
            else:
                ratios[s].append(getattr(mine[0], attr) / best)

    finite = [r for rs in ratios.values() for r in rs if np.isfinite(r)]
    top = max(finite) if finite else 1.0
    taus = np.geomspace(1.0, max(top, 1.0) * 1.0000001, n_taus)
    rho = np.empty((len(solvers), n_taus))
    for i, s in enumerate(solvers):
        arr = np.array(ratios[s])
        for j, tau in enumerate(taus):
            rho[i, j] = np.mean(arr <= tau)
    return ProfileTable(metric, taus, solvers, rho)


def summarize(records):
    """Per-variant averages of wall time, iterations and tilt-corrections,
    split by dimension class.  Returns (text table, csv string).

    ``bound_honest_fraction`` is the share of solved trials whose reported
    ``error_bound`` is at least their ``final_distance`` (NaN when none
    solved)."""
    records = list(records)
    if not records:
        raise ValueError("summarize: empty record list")
    rows = []
    for variant in sorted({rec.variant for rec in records}):
        for dim_class, pred in (("low", lambda r: r.n <= 25),
                                ("high", lambda r: r.n > 25)):
            sel = [r for r in records if r.variant == variant and pred(r)]
            if not sel:
                continue
            solved = [r for r in sel if r.solved]
            rows.append({
                "variant": variant,
                "dim_class": dim_class,
                "trials": len(sel),
                "solved_fraction": sum(r.solved for r in sel) / len(sel),
                "mean_wall_time": float(np.nanmean([r.wall_time for r in sel])),
                # a trial that raised ran no iterations worth averaging
                "mean_iterations": float(np.mean(
                    [r.iterations for r in sel
                     if not r.status.startswith("raised:")] or [np.nan])),
                "mean_tilt_corrections": float(np.mean([r.tilt_corrections
                                                        for r in sel])),
                "bound_honest_fraction": (
                    sum(r.error_bound >= r.final_distance for r in solved)
                    / len(solved) if solved else math.nan),
            })
    header = ["variant", "dim_class", "trials", "solved_fraction",
              "mean_wall_time", "mean_iterations", "mean_tilt_corrections",
              "bound_honest_fraction"]
    widths = [max(len(h), 14) for h in header]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        cells = [str(row["variant"]), row["dim_class"], str(row["trials"]),
                 f"{row['solved_fraction']:.3f}", f"{row['mean_wall_time']:.4f}",
                 f"{row['mean_iterations']:.1f}",
                 f"{row['mean_tilt_corrections']:.4f}",
                 f"{row['bound_honest_fraction']:.3f}"]
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    text = "\n".join(lines)

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=header)
    writer.writeheader()
    writer.writerows(rows)
    return text, buf.getvalue()
