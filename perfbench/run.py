"""proxbundle benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds every input of the workload from the seed, then solves the
workload's cases one at a time, in shuffled passes, until ``--seconds`` have
gone by; the first pass always completes, the last may be partial, and each
case's time is its median over the passes that reached it.  Between solves
the set-up is repeated, spread over the whole run (``setup_s`` is the
median).  Every pass and every set-up must be bitwise the same, and the
outputs are checked against the problem's guarantee.

``--trace 0`` reports the end-to-end metrics, with solve times in refs
(see ``Sampler``) and, on ``in seconds:`` lines, in seconds.
``--trace 1`` makes one untraced pass, then sets up and solves once more
with the tracer installed, and reports the per-layer metrics and the
tracing overhead; the span dump goes to ``perfbench/out/``.
``--second-seed`` maps the seed into a stream disjoint from the development
seeds, to check a claim on unseen inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

# One BLAS thread, set before numpy loads: a run measures one solve at a
# time, and multithreaded BLAS made set-up times depend on the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import lib  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_MIN_REPEATS = 3
# share of the run's time spent repeating the set-up between solves
SETUP_SHARE = 0.15
# seconds between reference timings while a solve or a set-up runs
SAMPLE_INTERVAL = 0.02
# reference_prox can spend 40 s in one stalled QP call (ROADMAP QP item)
REFERENCE_BUDGET_S = 5.0
TAIL_BEYOND = 10
END_TO_END = ("solve_ref.p50", "solve_ref.tail", "outer_iters", "solved_frac",
              "setup_s")
UNITS = {"solve_ref.p50": "ref", "solve_ref.tail": "ref", "outer_iters": "iter",
         "solved_frac": "frac", "setup_s": "s"}
PER_LAYER = {
    "qp.prox_s": "s", "qp.prox_calls": "count", "qp.fallbacks": "count",
    "qp.slowest_s": "s", "qp.m_mean": "planes", "qp.m_p90": "planes",
    "qp.minimize_calls": "count", "qp.project_per_minimize": "ratio",
    "model.bundle_build_s": "s", "model.eval_s": "s",
    "model.eval_per_iter": "ratio", "model.plane_values_per_iter": "ratio",
    "model.aggregate_s": "s", "model.select_s": "s", "model.tilt_s": "s",
    "model.tilt_corrections": "count",
    "oracles.s": "s", "oracles.calls": "count", "oracles.f_evals": "count",
    "problems.evaluate_s": "s", "problems.generate_s": "s",
    "problems.check_s": "s", "problems.reference_s": "s",
    "funcs.eval_s": "s", "funcs.calls": "count",
    "solver.self_s": "s", "solver.iters": "count",
    "share.solver": "frac", "share.model": "frac", "share.qp": "frac",
    "share.oracles": "frac", "share.problems": "frac", "share.funcs": "frac",
    "trace.overhead_frac": "frac",
}


@dataclass(frozen=True)
class Outcome:
    status: str  # solved | iteration_cap | raised:<type> | setup_failed
    iterations: int
    tilt_corrections: int
    x_out: bytes
    f_out: float
    seconds: float
    ref: float  # mean reference timing while it ran; nan when not sampled
    message: str = ""

    def key(self):
        return (self.status, self.iterations, self.tilt_corrections, self.x_out)

    @property
    def failed(self):
        return self.status.startswith("raised:") or self.status == "setup_failed"


class ReferenceBudgetExceeded(Exception):
    pass


_REFERENCE_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16) / 16.0


def reference_seconds():
    """Time one fixed computation that does not touch the library.

    The mix matches the solver's: small NumPy calls and interpreted
    arithmetic.  See ``Sampler`` for how its timings are used.
    """
    start = time.perf_counter()
    v = np.ones(16)
    acc = 0.0
    for _ in range(150):
        w = _REFERENCE_MATRIX @ v + 1.0
        v = w / math.sqrt(float(w @ w))
        acc += float(v[0])
    for k in range(20000):
        acc += k
    return time.perf_counter() - start


class Sampler:
    """Measures a piece of work together with the host's speed while it runs.

    On the 2-vCPU Xeon host the bounds were set on, speed changed by up to
    1.6x from one second to the next, and its mean over 20 s by 1.4x within
    minutes.  Process CPU time slowed alike, so this is contention for the
    core, not preemption.  Reference timings taken before, after, and every
    SAMPLE_INTERVAL during the work (from a SIGALRM handler, between
    bytecodes) follow those swings: the work's time divided by their mean
    spread half as much over repeats as the raw time did.  The time the
    handler spends is taken out of the work's time.
    """

    def __init__(self):
        self.enabled = True
        self.samples = []
        self._stolen = 0.0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self._stolen += time.perf_counter() - start

    def run(self, fn, *args):
        """Returns (fn's result, its own seconds, mean reference timing
        while it ran); the mean is nan when the sampler is disabled."""
        if not self.enabled:
            start = time.perf_counter()
            result = fn(*args)
            return result, time.perf_counter() - start, math.nan
        first = len(self.samples)
        self._sample()
        stolen = self._stolen
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        own = elapsed - (self._stolen - stolen)
        self._sample()
        return result, own, statistics.fmean(self.samples[first:])


class Bench:
    """One run of one workload."""

    def __init__(self, pb, workload, seed, cases, second_seed=False):
        import workloads

        self.pb = pb
        self.wl = workload
        self.seed = seed
        self.centre_seed = workloads.DFO_CENTRE_SEED
        if second_seed:
            self.centre_seed = workloads.second_seed(self.centre_seed)
        self.cases = cases
        self.W = workloads
        self.instance_keys = list(dict.fromkeys(c.instance for c in cases))
        self.sampler = Sampler()
        self.setup_times = []  # (own seconds, mean reference timing)
        self._setup_prints = set()

    # -- set-up -----------------------------------------------------------

    def set_up(self):
        """Build every instance; a failure is kept in place of the instance."""
        pb, W, wl = self.pb, self.W, self.wl
        instances = {}
        for key in self.instance_keys:
            try:
                if wl.n is None:
                    fn = pb.funcs.get_test_function(key[0])
                    z = W.dfo_centre(self.centre_seed, *key)
                    fn(z)  # raises outside the function's domain
                    instances[key] = (fn, z)
                else:
                    instances[key] = pb.problems.generate_max_quad(
                        *key[:4], W.R, wl.problem_seed(self.seed, key),
                        sparse=wl.sparse())
            except Exception as exc:  # reported per case as setup_failed
                instances[key] = exc
        return instances

    def fingerprint(self, instances):
        h = hashlib.sha256()
        for key in self.instance_keys:
            inst = instances[key]
            h.update(repr(key).encode())
            if isinstance(inst, Exception):
                h.update(repr(inst).encode())
            elif self.wl.n is None:
                h.update(inst[1].tobytes())
            else:
                h.update(inst.z.tobytes() + inst.x_star.tobytes())
                for q in inst.quadratics:
                    h.update(q.A.tobytes() + q.b.tobytes() + q.center.tobytes()
                             + repr(q.c).encode())
        return h.hexdigest()

    def timed_set_up(self):
        """Set up once, recording its time and its instances' fingerprint."""
        built, seconds, ref = self.sampler.run(self.set_up)
        self.setup_times.append((seconds, ref))
        self._setup_prints.add(self.fingerprint(built))
        return built

    def setup_seconds(self):
        """Median set-up time, rescaled to the host's uncontended speed:
        each repeat's time over the reference timing while it ran, times
        the run's fastest reference timing."""
        return (statistics.median(s / ref for s, ref in self.setup_times)
                * min(self.sampler.samples))

    def set_ups_agree(self):
        return len(self._setup_prints) == 1

    # -- solving ----------------------------------------------------------

    def solve(self, case, inst):
        pb, W = self.pb, self.W
        if isinstance(inst, Exception):
            return Outcome("setup_failed", 0, 0, b"", math.nan, 0.0, math.nan,
                           f"{type(inst).__name__}: {inst}")
        if self.wl.n is None:
            fn, z = inst
            oracle = pb.oracles.make_simplex_gradient_oracle(fn)
        else:
            z = inst.z
            oracle = pb.oracles.make_ball_noise_oracle(
                inst, case.eps, pb.oracles.make_rng(*case.noise_stream))
        config = pb.solver.SolverConfig(
            prox_centre=z, prox_param=W.R, stop_tol=W.S_TOL,
            variant=case.variant,
            max_iterations=pb.solver.default_iteration_cap(z.size),
            record_trace=False, eps=case.eps)

        def attempt():
            try:
                return pb.solver.run(oracle, config)
            except Exception as exc:  # counted and printed as a failed solve
                return exc

        result, seconds, ref = self.sampler.run(attempt)
        if isinstance(result, Exception):
            return Outcome(f"raised:{type(result).__name__}", 0, 0, b"",
                           math.nan, seconds, ref, str(result))
        solved = result.stop_reason is pb.solver.StopReason.TOLERANCE_MET
        return Outcome("solved" if solved else "iteration_cap",
                       result.iterations, result.tilt_corrections,
                       result.x_out.tobytes(), result.f_out, seconds, ref)

    def order(self, number):
        """A seeded case order that differs per pass, so that cases of one
        shape do not share one stretch of host speed."""
        order = list(range(len(self.cases)))
        random.Random(f"{self.seed}/{number}").shuffle(order)
        return order

    def measure(self, seconds):
        """Set up, then solve in passes until ``seconds`` have gone by since
        the set-up started.  The first pass always completes; a later pass
        stops at the deadline, leaving None for the cases it did not reach.
        After each solve, the set-up is repeated until set-ups have taken
        SETUP_SHARE of the time so far.  Returns the instances and the
        passes, each a list of outcomes in case order."""
        start = time.perf_counter()
        deadline = start + seconds
        instances = self.timed_set_up()
        setup_total = time.perf_counter() - start
        passes = []
        while not passes or time.perf_counter() < deadline:
            outcomes = [None] * len(self.cases)
            for i in self.order(len(passes)):
                if passes and time.perf_counter() >= deadline:
                    break
                case = self.cases[i]
                outcomes[i] = self.solve(case, instances[case.instance])
                while setup_total < SETUP_SHARE * (time.perf_counter() - start):
                    begin = time.perf_counter()
                    self.timed_set_up()
                    setup_total += time.perf_counter() - begin
            passes.append(outcomes)
        while len(self.setup_times) < SETUP_MIN_REPEATS:
            self.timed_set_up()
        return instances, passes

    def traced_pass(self, instances, tracer):
        """Solve every case once, each inside a root span of the tracer.
        No timer samples the host's speed inside the spans; a reference
        timing just before and just after each solve gives its ref."""
        self.sampler.enabled = False
        outcomes = [None] * len(self.cases)
        for i in self.order(0):
            case = self.cases[i]
            before = reference_seconds()
            out = tracer.root(self.solve, case, instances[case.instance])
            outcomes[i] = replace(out, ref=(before + reference_seconds()) / 2)
        return outcomes

    def check(self, case, inst, outcome):
        """Problems with one outcome, as text; None when it is correct.

        Max-quad: a solved case lies within s_tol + eps/r of the certified
        prox point.  Test functions: a solved case's prox merit is at most
        f(z) + r s_tol^2, which the stopping test implies because the model
        interpolates f at z.  Both: x_out is finite and f_out is f(x_out).
        """
        W = self.W
        if outcome.failed:
            return None
        x = np.frombuffer(outcome.x_out, dtype=float)
        if not np.all(np.isfinite(x)):
            return "x_out is not finite"
        solved = outcome.status == "solved"
        if self.wl.n is None:
            fn, z = inst
            f_x, f_z = fn(x), fn(z)
        else:
            f_x = inst.evaluate(x)[0]
        if f_x != outcome.f_out:
            return f"f_out {outcome.f_out!r} differs from f(x_out) {f_x!r}"
        if self.wl.n is None:
            merit = f_x + 0.5 * W.R * float((x - z) @ (x - z))
            slack = 1e-9 * (1.0 + abs(f_z))
            if solved and merit > f_z + W.R * W.S_TOL ** 2 + slack:
                return f"prox merit {merit!r} above f(z) + r s_tol^2"
            return None
        if solved and not self.bound_held(case, inst, outcome):
            return "distance to x_star exceeds s_tol + eps/r"
        return None

    def bound_held(self, case, inst, outcome):
        x = np.frombuffer(outcome.x_out, dtype=float)
        return float(np.linalg.norm(x - inst.x_star)) <= self.W.S_TOL + case.eps / self.W.R

    def references(self, instances):
        """reference_prox on one seed-rotated instance, under a time budget.

        Returns (label, outcome text, whether it is a correctness failure).
        """
        keys = [k for k in self.instance_keys
                if not isinstance(instances[k], Exception)]
        if self.wl.n is None or not keys:
            return None
        key = keys[self.seed % len(keys)]

        def expire(signum, frame):
            raise ReferenceBudgetExceeded()

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_BUDGET_S)
        start = time.perf_counter()
        try:
            self.pb.problems.reference_prox(instances[key])
            text, bad = "agrees with x_star", False
        except ReferenceBudgetExceeded:
            text, bad = f"stopped at the {REFERENCE_BUDGET_S:g} s budget", False
        except self.pb.problems.ProblemCertificateError as exc:
            text, bad = f"ProblemCertificateError: {exc}", True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return key, f"{text} in {time.perf_counter() - start:.3f} s", bad


def digests(cases, outcomes):
    """Exact digest of (case, status, iterations, tilt count) and bitwise
    digest of x_out, over the cases in order."""
    exact, bits = hashlib.sha256(), hashlib.sha256()
    for case, out in zip(cases, outcomes):
        exact.update(f"{case.label}|{out.status}|{out.iterations}|"
                     f"{out.tilt_corrections}\n".encode())
        bits.update(out.x_out)
    return exact.hexdigest()[:16], bits.hexdigest()[:16]


def in_refs(outcomes):
    """Total solve time of a pass, in refs."""
    return sum(o.seconds / o.ref for o in outcomes if o.status != "setup_failed")


def tail_percentile(count):
    """The highest whole percentile with at least TAIL_BEYOND samples
    beyond it; the median when there are too few samples for any."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / count)))


def percentile(values, p):
    return float(np.percentile(np.asarray(values), p))


def report(line):
    print(line, flush=True)


def end_to_end(passes, setup_s, reference):
    """End-to-end metrics.  Each solve's time is in refs: its seconds over
    the mean reference timing while it ran (see ``Sampler``)."""
    first = passes[0]
    timed = [i for i, out in enumerate(first) if out.status != "setup_failed"]
    per_case = [statistics.median(p[i].seconds / p[i].ref for p in passes if p[i])
                for i in timed]
    raw = [statistics.median(p[i].seconds for p in passes if p[i]) for i in timed]
    returned = [out for out in first if not out.failed]
    p_tail = tail_percentile(len(per_case))
    seconds = {"solves_per_s": len(raw) / sum(raw),
               "solve_s.p50": statistics.median(raw),
               "solve_s.tail": percentile(raw, p_tail)}
    tail = percentile(per_case, p_tail)
    beyond = sum(t > tail for t in per_case)
    report(f"tail is p{p_tail} over {len(per_case)} per-case medians "
           f"({beyond} beyond it)")
    # printed, not a bounded metric: one stalled QP call (6-10 s, against a
    # median solve of 0.2 s) moved it by 30% on 3 of 7 maxquad-grow seeds
    report(f"throughput: {len(per_case) / sum(per_case) * 1e3!r} solves per kref")
    report(f"reference timing: mean {statistics.fmean(reference) * 1e3:.4f} ms, "
           f"fastest {min(reference) * 1e3:.4f} ms, over {len(reference)} samples")
    for name, value in seconds.items():
        report(f"in seconds: {name} = {value!r}")
    return {
        "solve_ref.p50": statistics.median(per_case),
        "solve_ref.tail": tail,
        "outer_iters": statistics.fmean(o.iterations for o in returned),
        "solved_frac": sum(o.status == "solved" for o in first) / len(first),
        "setup_s": setup_s,
    }


def per_layer(tracer, traced, untraced, iterations):
    st = tracer.stats["solve"]
    setup = tracer.stats["setup"]
    ref = tracer.stats["reference"]
    sizes = st.bundle_sizes
    root_s = st.time("bench.solve")
    f_evals = (st.count("problems.MaxQuadProblem.evaluate")
               + st.count("funcs.TestFunction.__call__")
               + st.count("funcs.TestFunction.evaluate"))
    oracle_names = ("oracles.ball_noise_oracle", "oracles.exact_oracle",
                    "oracles.simplex_gradient_oracle")
    minimize_calls = st.count("qp.minimize_simplex_qp")
    metrics = {
        "qp.prox_s": st.time("qp.prox_of_model"),
        "qp.prox_calls": st.count("qp.prox_of_model"),
        "qp.fallbacks": st.raises("qp.prox_of_model"),
        "qp.slowest_s": st.max_time("qp.prox_of_model"),
        "qp.m_mean": statistics.fmean(sizes) if sizes else 0.0,
        "qp.m_p90": percentile(sizes, 90) if sizes else 0.0,
        "qp.minimize_calls": minimize_calls,
        "qp.project_per_minimize": (st.count("qp.project_simplex") / minimize_calls
                                    if minimize_calls else 0.0),
        "model.bundle_build_s": st.time("model.Bundle.__init__"),
        "model.eval_s": st.time("model.eval_model"),
        "model.eval_per_iter": st.count("model.eval_model") / iterations,
        "model.plane_values_per_iter": st.count("model.Bundle.plane_values") / iterations,
        "model.aggregate_s": st.time("model.make_aggregate"),
        "model.select_s": st.time("model.select_bundle"),
        "model.tilt_s": st.time("model.tilt_correct"),
        "model.tilt_corrections": st.tilt_corrections,
        "oracles.s": sum(st.time(n) for n in oracle_names),
        "oracles.calls": sum(st.count(n) for n in oracle_names),
        "oracles.f_evals": f_evals,
        "problems.evaluate_s": st.time("problems.MaxQuadProblem.evaluate"),
        "problems.generate_s": setup.time("problems.generate_max_quad"),
        "problems.check_s": setup.time("problems.check_problem"),
        "problems.reference_s": ref.time("problems.reference_prox"),
        "funcs.eval_s": st.layer_entry_time.get("funcs", 0.0),
        "funcs.calls": st.layer_entry_calls.get("funcs", 0),
        "solver.self_s": st.layer_self("solver"),
        "solver.iters": iterations,
    }
    for layer in ("solver", "model", "qp", "oracles", "problems", "funcs"):
        metrics[f"share.{layer}"] = st.layer_self(layer) / root_s
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def run(workload_name, seed, seconds, trace, second_seed=False, limit=None,
        write_spans=True):
    """One benchmark run; prints the report and returns the result object.

    ``second_seed`` maps the seed, and the fixed dfo-tilt centre seed, into
    streams that no development run uses.
    """
    pb = lib.load()
    import tracer as tracing
    import workloads

    if second_seed:
        mapped = workloads.second_seed(seed)
        report(f"second-seed mode: seed {seed} maps to seed {mapped}")
        seed = mapped
    wl = workloads.WORKLOADS[workload_name]
    cases = wl.cases(seed)[:limit]
    bench = Bench(pb, wl, seed, cases, second_seed)
    report(f"workload {wl.name}: {wl.why}")
    report(f"seed {seed}, {len(cases)} cases, closed loop, one solve at a time")
    for ex in wl.exclusions:
        report(f"excluded: {ex.cases} -- {ex.reason}; measured cost: {ex.cost}")

    problems = []
    # a traced run needs one untraced pass only, for the overhead
    instances, passes = bench.measure(0.0 if trace else seconds)
    if not bench.set_ups_agree():
        problems.append("repeated set-ups built different instances")
    first = passes[0]
    for p in passes[1:]:
        if any(o and o.key() != f.key() for o, f in zip(p, first)):
            problems.append("a repeated pass returned different outputs")
    for case, out in zip(cases, first):
        fault = bench.check(case, instances[case.instance], out)
        if fault:
            problems.append(f"{case.label}: {fault}")

    for case, out in zip(cases, first):
        extra = f" -- {out.message}" if out.message else ""
        report(f"case {case.label}: {out.status} iters={out.iterations} "
               f"tilt={out.tilt_corrections} time={out.seconds:.4f}s{extra}")
    attempted = len(first)
    failed = sum(o.failed for o in first)
    counts = {s: sum(o.status == s for o in first)
              for s in sorted({o.status for o in first})}
    report(f"outcomes: {counts}; failed_frac = {failed / attempted:.4f} "
           f"({failed}/{attempted})")
    if wl.n is not None:
        solved = [(c, o) for c, o in zip(cases, first) if o.status == "solved"]
        held = sum(bench.bound_held(c, instances[c.instance], o) for c, o in solved)
        report(f"bound_held_frac = {held / len(solved) if solved else 1.0:.4f} "
               f"({held}/{len(solved)} solved cases within s_tol + eps/r)")
    exact, bits = digests(cases, first)
    report(f"digest.outcomes = {exact}")
    report(f"digest.x_out = {bits}")
    reached = sum(o is not None for o in passes[-1])
    report(f"passes = {len(passes)} (the last reached {reached} of "
           f"{len(cases)} cases); set-up repeats = {len(bench.setup_times)}")

    if not trace:
        metrics = end_to_end(passes, bench.setup_seconds(),
                             bench.sampler.samples)
        names = END_TO_END
        units = UNITS
    else:
        untraced = in_refs(first)
        tr = tracing.Tracer(pb)
        tr.install()
        try:
            with tr.phase("setup"):
                traced_instances = bench.set_up()
            with tr.phase("reference"):
                ref = bench.references(traced_instances)
            with tr.phase("solve"):
                traced_pass = bench.traced_pass(traced_instances, tr)
        finally:
            tr.uninstall()
        leftover = tr.still_wrapped()
        if leftover:
            problems.append(f"tracer left wrapped: {leftover}")
        if bench.fingerprint(traced_instances) != bench.fingerprint(instances):
            problems.append("the traced set-up built different instances")
        if [o.key() for o in traced_pass] != [o.key() for o in first]:
            problems.append("the traced pass returned different outputs")
        if ref is not None:
            key, text, bad = ref
            report(f"reference_prox on {key}: {text}")
            if bad:
                problems.append(f"reference_prox on {key}: {text}")
        iterations = sum(o.iterations for o in traced_pass)
        metrics = per_layer(tr, in_refs(traced_pass),
                            untraced, max(iterations, 1))
        report(f"tracer wrapped {tr.wrapped_count()} bindings and recorded "
               f"{tr.span_count()} spans")
        if write_spans:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"spans-{wl.name}-seed{seed}.npz"
            tr.write(path)
            report(f"spans written to {path.relative_to(lib.ROOT)}")
        names = list(PER_LAYER)
        units = PER_LAYER

    for problem in problems:
        report(f"INCORRECT: {problem}")
    for name in names:
        report(f"metric {name} = {metrics[name]!r} {units[name]}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--second-seed", action="store_true",
                        help="map --seed into a stream disjoint from the "
                             "development seeds")
    args = parser.parse_args(argv)
    try:
        lib.load()
    except lib.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.second_seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
