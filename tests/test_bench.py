"""Tests for the benchmark harness: trial grid, CSV, profiles, summaries."""

import math
from dataclasses import replace

import numpy as np
import pytest

from proxbundle import bench, solver
from proxbundle.bench import (BenchConfig, TrialRecord, grid_levels,
                              performance_profile, records_from_csv,
                              records_to_csv, run_trial, run_trials,
                              summarize, trial_specs)
from proxbundle.model import BundleVariant


def tiny_config(**overrides):
    base = dict(ns=(2,), reps=1, variants=(BundleVariant.FULL,),
                eps_levels=("0",), master_seed=11)
    base.update(overrides)
    return BenchConfig(**base)


def record(problem_id="p", variant="full", eps_level="0", solved=True,
           iterations=10, wall_time=0.1, final_distance=1e-4,
           tilt_corrections=0, within_bound=True, error_bound=1e-3, **status):
    return TrialRecord(problem_id, 4, 3, 2, 2, variant, eps_level, 1,
                       solved, iterations, wall_time, final_distance,
                       tilt_corrections, within_bound,
                       error_bound=error_bound, **status)


class TestGridLevels:
    def test_quarter_points(self):
        assert grid_levels(4) == [1, 2, 3, 4]
        assert grid_levels(10) == [1, 4, 7, 10]
        assert grid_levels(25) == [1, 9, 17, 25]

    def test_collapses_duplicates(self):
        assert grid_levels(1) == [1]
        assert grid_levels(2) == [1, 2]


class TestTrialSpecs:
    def test_count_matches_grid_formula(self):
        cfg = tiny_config(ns=(4,), reps=2,
                          variants=tuple(BundleVariant),
                          eps_levels=("0", "stol", "10stol"))
        levels = grid_levels(4)
        problems = sum(sum(1 for a in levels if a <= nf) ** 2
                       for nf in levels)
        assert len(trial_specs(cfg)) == problems * 2 * 4 * 3

    def test_order_is_deterministic(self):
        cfg = tiny_config(ns=(4, 10))
        assert trial_specs(cfg) == trial_specs(cfg)


class TestRunTrial:
    def test_solved_record_fields(self):
        cfg = tiny_config()
        spec = trial_specs(cfg)[0]
        rec = run_trial(cfg, spec)
        assert rec.solved
        assert rec.n == 2
        assert rec.variant == "full"
        assert rec.eps_level == "0"
        assert rec.iterations >= 1
        assert rec.wall_time > 0
        assert math.isfinite(rec.final_distance)

    def test_exact_oracle_solved_implies_within_bound(self):
        cfg = tiny_config(ns=(2, 3))
        for rec in run_trials(cfg):
            if rec.solved:
                assert rec.within_bound
                assert rec.final_distance <= cfg.s_tol + 1e-8

    def test_failure_recorded_not_raised(self):
        # nf = 0 is rejected by the generator; the record carries the error
        cfg = tiny_config()
        rec = run_trial(cfg, (2, 0, 0, 0, 0, "full", "0"))
        assert not rec.solved
        assert rec.status == "raised:ValueError"
        assert rec.error
        assert rec.problem_id == "n2-nf0-nfx0-nfz0-rep0"
        assert rec.iterations == 0
        assert rec.final_distance == float("inf")

    def test_status_of_solved_and_capped_trials(self):
        rec = run_trial(tiny_config(), (2, 2, 1, 1, 0, "full", "0"))
        assert rec.status == "solved" and rec.error == ""
        assert record(solved=False).status == "iteration_cap"


class TestRunTrials:
    def test_parallelism_does_not_change_results(self):
        # identical up to wall-clock timing, which is inherently noisy
        def strip_time(recs):
            return [(r.problem_id, r.n, r.nf, r.nf_xstar, r.nf_z, r.variant,
                     r.eps_level, r.seed, r.solved, r.iterations,
                     r.final_distance, r.tilt_corrections, r.within_bound)
                    for r in recs]

        cfg = tiny_config(eps_levels=("0", "stol"))
        serial = strip_time(run_trials(cfg, parallelism=1))
        parallel = strip_time(run_trials(cfg, parallelism=2))
        assert serial == parallel


class TestCsv:
    def test_round_trip(self):
        cfg = tiny_config()
        records = run_trials(cfg)
        back = records_from_csv(records_to_csv(records))
        assert back == records

    def test_header_line_is_pinned(self):
        # the columns follow TrialRecord's field order; files written
        # earlier are read by these names
        assert records_to_csv([]) == (
            "problem_id,n,nf,nf_xstar,nf_z,variant,eps_level,seed,solved,"
            "iterations,wall_time,final_distance,tilt_corrections,"
            "within_bound,status,error,loosened_10x,loosened_100x,"
            "error_bound\r\n")

    def test_status_and_error_round_trip(self):
        recs = [record(), record(solved=False),
                record(solved=False, iterations=0, status="raised:ValueError",
                       error="ValueError: nf must be >= 1")]
        assert records_from_csv(records_to_csv(recs)) == recs

    def test_loosened_prox_round_trip(self):
        recs = [record(), record(loosened_10x=3, loosened_100x=1)]
        text = records_to_csv(recs)
        assert text.splitlines()[0].endswith(
            ",loosened_10x,loosened_100x,error_bound")
        back = records_from_csv(text)
        assert back == recs
        assert (back[1].loosened_10x, back[1].loosened_100x) == (3, 1)
        assert isinstance(back[1].loosened_100x, int)

    def test_csv_without_loosened_columns_reads_defaults(self):
        lines = records_to_csv([record()]).splitlines()
        cut = len(",loosened_10x,loosened_100x,error_bound")
        old = "\n".join([lines[0][:-cut],
                         lines[1][:-len(",0,0,0.001")]]) + "\n"
        (rec,) = records_from_csv(old)
        assert math.isnan(rec.error_bound)
        assert replace(rec, error_bound=1e-3) == record()

    def test_csv_without_error_bound_reads_nan(self):
        lines = records_to_csv([record(loosened_10x=2)]).splitlines()
        old = "\n".join([lines[0][:-len(",error_bound")],
                         lines[1][:-len(",0.001")]]) + "\n"
        (rec,) = records_from_csv(old)
        assert math.isnan(rec.error_bound) and rec.loosened_10x == 2

    def test_trial_records_loosened_prox(self, monkeypatch):
        # the count the solver reports, here forced to a nonzero value
        monkeypatch.setattr(bench, "run", lambda oracle, config: replace(
            solver.run(oracle, config), loosened_prox=(2, 1)))
        rec = run_trial(tiny_config(), (2, 2, 1, 1, 0, "full", "0"))
        assert (rec.loosened_10x, rec.loosened_100x) == (2, 1)

    def test_trial_records_the_reported_bound(self):
        # rep 0, full bundle, exact oracle of BenchConfig(ns=(4, 10),
        # reps=1, master_seed=1): two solves stop with a reported bound of 0
        # although they end 1.1e-3 and 2.2e-4 from x_star, the first of them
        # outside s_tol; the second reports a bound that holds
        config = BenchConfig(ns=(4, 10), reps=1, master_seed=1)
        recs = [run_trial(config, (*shape, 0, "full", "0"))
                for shape in ((10, 10, 7, 10), (10, 7, 7, 4), (10, 10, 10, 7))]
        assert [rec.status for rec in recs] == ["solved"] * 3
        assert [rec.error_bound == 0.0 for rec in recs] == [True, False, True]
        assert [round(rec.final_distance, 6) for rec in recs] == [
            1.122e-3, 3.26e-4, 2.22e-4]
        assert [rec.error_bound < rec.final_distance for rec in recs] == [
            True, False, True]
        assert [rec.within_bound for rec in recs] == [False, True, True]
        _, csv_out = summarize(recs)
        row = dict(zip(*(line.split(",") for line in csv_out.splitlines())))
        assert float(row["bound_honest_fraction"]) == pytest.approx(1 / 3)

    def test_types_restored(self):
        back = records_from_csv(records_to_csv([record()]))
        rec = back[0]
        assert isinstance(rec.n, int)
        assert isinstance(rec.solved, bool)
        assert isinstance(rec.wall_time, float)
        assert isinstance(rec.within_bound, bool)


class TestPerformanceProfile:
    def test_single_solver_all_solved_is_one(self):
        recs = [record(problem_id=f"p{i}", iterations=5 + i)
                for i in range(4)]
        prof = performance_profile(recs)
        assert np.all(prof.rho == 1.0)

    def test_rho_monotone_and_in_range(self):
        rng = np.random.default_rng(0)
        recs = []
        for i in range(10):
            for v in ("full", "three"):
                recs.append(record(problem_id=f"p{i}", variant=v,
                                   solved=bool(rng.random() < 0.8),
                                   iterations=int(rng.integers(1, 100))))
        prof = performance_profile(recs)
        assert prof.rho.min() >= 0.0 and prof.rho.max() <= 1.0
        for row in prof.rho:
            assert np.all(np.diff(row) >= 0.0)

    def test_twice_slower_solver_jumps_at_two(self):
        recs = []
        for i in range(5):
            recs.append(record(problem_id=f"p{i}", variant="full",
                               iterations=10))
            recs.append(record(problem_id=f"p{i}", variant="three",
                               iterations=20))
        prof = performance_profile(recs)
        i_three = prof.solvers.index("three")
        below = prof.taus < 2.0
        assert np.all(prof.rho[i_three, below] == 0.0)
        assert prof.rho[i_three, -1] == 1.0

    def test_unsolved_fraction_caps_endpoint(self):
        recs = [record(problem_id=f"p{i}", solved=i < 6, iterations=10)
                for i in range(10)]
        prof = performance_profile(recs)
        assert prof.rho[0, -1] == pytest.approx(0.6)

    def test_time_metric_and_tsv(self):
        recs = [record(problem_id=f"p{i}", wall_time=0.1 * (i + 1))
                for i in range(3)]
        prof = performance_profile(recs, metric="time")
        tsv = prof.to_tsv()
        assert tsv.splitlines()[0] == "tau\tfull"
        assert len(tsv.splitlines()) == len(prof.taus) + 1

    def test_failed_trial_adds_no_problem(self):
        # the raised trial counts against its variant on its own problem
        recs = [record(problem_id="p0", variant="full", iterations=10),
                record(problem_id="p0", variant="three", solved=False,
                       iterations=0, status="raised:QPConvergenceError",
                       error="QPConvergenceError: stalled"),
                record(problem_id="p1", variant="full", iterations=10),
                record(problem_id="p1", variant="three", iterations=10)]
        prof = performance_profile(recs)
        i_three = prof.solvers.index("three")
        assert prof.rho[i_three, -1] == pytest.approx(0.5)
        assert prof.rho[prof.solvers.index("full"), -1] == 1.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            performance_profile([])
        with pytest.raises(ValueError):
            performance_profile([record()], metric="speed")


class TestSummarize:
    def test_single_record_reports_itself(self):
        rec = record(iterations=17, wall_time=0.25, tilt_corrections=3)
        text, csv_out = summarize([rec])
        assert "full" in text
        assert "17.0" in text
        line = csv_out.strip().splitlines()[1]
        assert line.startswith("full,low,1,1.0")

    def test_dimension_classes_split(self):
        low = record(problem_id="a")
        high = TrialRecord("b", 50, 3, 2, 2, "full", "0", 1, True, 5, 0.1,
                           1e-4, 0, True)
        _, csv_out = summarize([low, high])
        lines = csv_out.strip().splitlines()
        assert any(",low," in ln for ln in lines[1:])
        assert any(",high," in ln for ln in lines[1:])

    def test_raised_trials_left_out_of_mean_iterations(self):
        recs = [record(iterations=20),
                record(solved=False, iterations=0, status="raised:ValueError",
                       error="ValueError: bad")]
        _, csv_out = summarize(recs)
        row = csv_out.strip().splitlines()[1].split(",")
        assert row[:4] == ["full", "low", "2", "0.5"]
        assert float(row[5]) == 20.0

    def test_bound_honest_fraction_counts_solved_trials(self):
        recs = [record(final_distance=1e-4, error_bound=1e-3),
                record(final_distance=1e-4, error_bound=0.0),
                record(final_distance=1e-4, error_bound=1e-4),
                record(solved=False, final_distance=1.0, error_bound=0.0),
                record(problem_id="q", variant="three", solved=False)]
        _, csv_out = summarize(recs)
        header, *rows = (line.split(",") for line in csv_out.splitlines())
        honest = {row[0]: row[header.index("bound_honest_fraction")]
                  for row in rows}
        assert float(honest["full"]) == 2 / 3
        assert math.isnan(float(honest["three"]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])
