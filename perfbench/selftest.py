"""Self-tests for the benchmark itself.

    python3 perfbench/selftest.py

The file name keeps it out of the library's pytest collection.
"""

import contextlib
import io
import json
import sys
import time
import unittest

import lib

pb = lib.load()

import run  # noqa: E402  (needs the library on sys.path)
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def benchmark_json():
    with open(lib.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


class TestInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                cases = wl.cases(SEED)
                self.assertEqual(cases, wl.cases(SEED))
                bench = run.Bench(pb, wl, SEED, cases[:4])
                first = bench.fingerprint(bench.set_up())
                self.assertEqual(first, bench.fingerprint(bench.set_up()))
                other = run.Bench(pb, wl, SEED + 1, wl.cases(SEED + 1)[:4],
                                  second_seed=wl.n is None)
                self.assertNotEqual(first, other.fingerprint(other.set_up()))

    def test_second_seed_is_a_fixed_different_stream(self):
        self.assertEqual(workloads.second_seed(SEED), workloads.second_seed(SEED))
        self.assertNotEqual(workloads.second_seed(SEED), SEED)
        self.assertNotEqual(workloads.second_seed(SEED),
                            workloads.second_seed(SEED + 1))

    def test_exclusions_partition_the_full_slice(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                keys = wl.full_slice(SEED)
                for ex in wl.exclusions:
                    self.assertTrue(any(ex.matches(k) for k in keys),
                                    f"{ex.cases} matches nothing")
                kept = [k for k in keys
                        if not any(ex.matches(k) for ex in wl.exclusions)]
                self.assertTrue(kept)
                cases = wl.cases(SEED)
                if wl.n is None:
                    self.assertEqual({(c.instance[0], c.variant.value)
                                      for c in cases}, set(kept))
                else:
                    self.assertEqual({c.instance for c in cases},
                                     {k[:5] for k in kept})

    def test_max_quad_cases_are_the_bench_trials(self):
        wl = workloads.WORKLOADS["maxquad-grow"]
        case = wl.cases(SEED)[0]
        bench = run.Bench(pb, wl, SEED, [case])
        outcome = bench.solve(case, bench.set_up()[case.instance])
        spec = case.instance + (case.variant.value, case.eps_level)
        record = pb.bench.run_trial(wl._bench_config(SEED), spec)
        self.assertEqual(record.iterations, outcome.iterations)
        self.assertEqual(record.solved, outcome.status == "solved")
        self.assertEqual(record.tilt_corrections, outcome.tilt_corrections)

    def test_known_failure_is_counted_not_swallowed(self):
        # excluded from dfo-tilt for its cost (about 24 s); solved here at
        # the start point to show how a raising solve is accounted
        wl = workloads.WORKLOADS["dfo-tilt"]
        case = workloads.Case("max10/almost-active", ("max10", 0),
                              pb.model.BundleVariant.ALMOST_ACTIVE, "0", None)
        fn = pb.funcs.get_test_function("max10")
        outcome = run.Bench(pb, wl, SEED, [case]).solve(case, (fn, fn.start_point()))
        self.assertEqual(outcome.status, "raised:QPConvergenceError")
        self.assertTrue(outcome.failed)
        self.assertIn("did not reach residual", outcome.message)


class TestTracer(unittest.TestCase):
    def bindings(self):
        return {(mod_name, key): value
                for mod_name, mod in sys.modules.items()
                if mod_name == "proxbundle" or mod_name.startswith("proxbundle.")
                for key, value in vars(mod).items() if callable(value)}

    def test_uninstall_restores_every_binding(self):
        before = self.bindings()
        methods = {(cls, attr): getattr(getattr(pb, layer), cls).__dict__[attr]
                   for layer, pairs in tracing.METHODS.items()
                   for cls, attr in pairs}
        tr = tracing.Tracer(pb)
        tr.install()
        try:
            self.assertIsNot(pb.solver.prox_of_model, before[("proxbundle.solver",
                                                              "prox_of_model")])
            self.assertIsNot(pb.model.Bundle.__init__,
                             methods[("Bundle", "__init__")])
            self.assertGreater(tr.wrapped_count(), 50)
        finally:
            tr.uninstall()
        self.assertEqual(tr.still_wrapped(), [])
        after = self.bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        for (cls, attr), original in methods.items():
            layer = next(lay for lay, pairs in tracing.METHODS.items()
                         if (cls, attr) in pairs)
            self.assertIs(getattr(getattr(pb, layer), cls).__dict__[attr], original)


class TestSmoke(unittest.TestCase):
    def test_tiny_runs_finish_in_seconds_and_name_every_metric(self):
        spec = benchmark_json()
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in ("maxquad-grow", "dfo-tilt"):
            for trace, expected in ((False, e2e), (True, layers)):
                with self.subTest(workload=name, trace=trace):
                    start = time.perf_counter()
                    result = quiet(run.run, name, SEED, 0.0, trace, limit=3,
                                   write_spans=False)
                    self.assertLess(time.perf_counter() - start, 30.0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["attempted"], 3)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, expected)

    def test_printed_metric_names_are_declared(self):
        spec = benchmark_json()
        declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.run("dfo-tilt", SEED, 0.0, False, limit=2)
        printed = {line.split()[1] for line in out.getvalue().splitlines()
                   if line.startswith("metric ")}
        self.assertTrue(printed)
        self.assertLessEqual(printed, declared)

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in benchmark_json()["workloads"]]
        self.assertEqual(names, list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
