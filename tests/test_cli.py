"""End-to-end tests for the command line interface."""

import json
import os

import pytest

from proxbundle import cli
from proxbundle.bench import BenchConfig, run_trials
from proxbundle.model import BundleVariant
from proxbundle.problems import (ProblemCertificateError, generate_max_quad,
                                 problem_to_dict)
from proxbundle.solver import run


class TestSolve:
    def test_named_function_exact_oracle(self, capsys):
        code = cli.main(["solve", "--function", "cb2"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "stop_reason: tolerance-met" in out
        assert "loosened_prox_10x_100x: 0 0" in out
        assert "x_out:" in out

    def test_records_no_trace(self, monkeypatch, capsys):
        # solve prints only the result's fields, so it records no trace
        configs = []

        def recording_run(oracle, config):
            configs.append(config)
            return run(oracle, config)

        monkeypatch.setattr(cli, "run", recording_run)
        assert cli.main(["solve", "--function", "cb2"]) == cli.EXIT_OK
        assert [c.record_trace for c in configs] == [False]

    def test_saved_problem(self, tmp_path, capsys):
        path = str(tmp_path / "p.json")
        assert cli.main(["generate", "--n", "3", "--nf", "2",
                         "--nf-xstar", "1", "--nf-z", "1",
                         "--seed", "5", "--out", path]) == cli.EXIT_OK
        capsys.readouterr()
        code = cli.main(["solve", "--problem", path])
        assert code == cli.EXIT_OK
        assert "tolerance-met" in capsys.readouterr().out

    def test_centre_with_problem_file_is_refused(self, tmp_path, capsys):
        # a problem file is solved at its own z; --centre used to be ignored
        path = str(tmp_path / "p.json")
        assert cli.main(["generate", "--n", "3", "--nf", "2",
                         "--nf-xstar", "1", "--nf-z", "1",
                         "--seed", "5", "--out", path]) == cli.EXIT_OK
        capsys.readouterr()
        code = cli.main(["solve", "--problem", path, "--centre", "5,5,5"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert "--centre applies to --function only" in captured.err
        assert "stop_reason" not in captured.out

    def test_prints_the_model_prox_gaps(self, capsys):
        assert cli.main(["solve", "--function", "cb2"]) == cli.EXIT_OK
        lines = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        assert float(lines["delta_final"]) <= float(lines["delta_max"])

    def test_ball_oracle_with_eps(self, capsys):
        code = cli.main(["solve", "--function", "cb2", "--oracle", "ball",
                         "--eps", "1e-3", "--seed", "3"])
        assert code == cli.EXIT_OK

    def test_simplex_oracle(self, capsys):
        code = cli.main(["solve", "--function", "cb2", "--oracle", "simplex",
                         "--eps", "0.5"])
        assert code in (cli.EXIT_OK, cli.EXIT_SOLVE)

    def test_custom_centre_and_variant(self, capsys):
        code = cli.main(["solve", "--function", "cb2",
                         "--centre", "2.0,2.0", "--variant", "active"])
        assert code == cli.EXIT_OK

    def test_iteration_cap_exit_code(self, capsys):
        code = cli.main(["solve", "--function", "maxexp", "--max-iter", "1"])
        assert code == cli.EXIT_SOLVE
        assert "warning" in capsys.readouterr().err

    def test_nan_stop_tol(self, capsys):
        code = cli.main(["solve", "--function", "cb2", "--stol", "nan"])
        assert code == cli.EXIT_USAGE
        assert "stop_tol" in capsys.readouterr().err

    def test_wrong_centre_dimension(self, capsys):
        code = cli.main(["solve", "--function", "cb2", "--centre", "1,2,3"])
        assert code == cli.EXIT_USAGE

    def test_empty_centre_is_refused(self, capsys):
        # an empty --centre used to solve from the start point and exit 0
        code = cli.main(["solve", "--function", "cb2", "--centre", ""])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "iterations" not in captured.out

    def test_certificate_error_exit_code(self, monkeypatch, tmp_path, capsys):
        def bad_load(path):
            raise ProblemCertificateError("tampered ground truth")
        monkeypatch.setattr(cli, "load_problem", bad_load)
        path = str(tmp_path / "x.json")
        open(path, "w").write("{}")
        code = cli.main(["solve", "--problem", path])
        assert code == cli.EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err


class TestMalformedProblemFile:
    """``solve --problem`` exits with a usage error on a file it cannot read
    as a problem, and with an invariant violation on one whose ground truth
    fails its certificate, instead of a traceback or a solve."""

    @staticmethod
    def solve_edited(tmp_path, edit):
        data = problem_to_dict(generate_max_quad(3, 3, 2, 1, 1.0, 5))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(edit(data)))
        return cli.main(["solve", "--problem", str(path)])

    @pytest.mark.parametrize("field, edit", [
        ("'z'", lambda d: {k: v for k, v in d.items() if k != "z"}),
        ("'center'", lambda d: dict(d, quadratics=[
            {k: v for k, v in q.items() if k != "center"}
            for q in d["quadratics"]])),
    ], ids=["z", "center"])
    def test_missing_field_is_named(self, tmp_path, capsys, field, edit):
        assert self.solve_edited(tmp_path, edit) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "missing field" in err and field in err

    def test_top_level_list(self, tmp_path, capsys):
        assert self.solve_edited(tmp_path, lambda d: [d]) == cli.EXIT_USAGE
        assert "not a proxbundle" in capsys.readouterr().err

    def test_pieces_not_objects(self, tmp_path, capsys):
        code = self.solve_edited(tmp_path, lambda d: dict(d, quadratics="AAA"))
        assert code == cli.EXIT_USAGE
        assert "malformed problem file" in capsys.readouterr().err

    def test_shifted_x_star_fails_its_certificate(self, tmp_path, capsys):
        def shift(d):
            return dict(d, x_star=[v + 0.1 for v in d["x_star"]])

        assert self.solve_edited(tmp_path, shift) == cli.EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err

    def test_active_set_out_of_range_fails_its_certificate(self, tmp_path,
                                                           capsys):
        code = self.solve_edited(tmp_path,
                                 lambda d: dict(d, active_at_xstar=[7]))
        assert code == cli.EXIT_INVARIANT
        assert "expected [7]" in capsys.readouterr().err


class TestGenerate:
    def test_writes_loadable_json(self, tmp_path, capsys):
        path = str(tmp_path / "prob.json")
        code = cli.main(["generate", "--n", "4", "--nf", "3",
                         "--nf-xstar", "2", "--nf-z", "2",
                         "--seed", "9", "--out", path])
        assert code == cli.EXIT_OK
        data = json.load(open(path))
        assert data["format"] == "proxbundle-maxquad"

    def test_directory_out_autonames(self, tmp_path, capsys):
        code = cli.main(["generate", "--n", "2", "--nf", "1",
                         "--nf-xstar", "1", "--nf-z", "1",
                         "--seed", "4", "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        expected = tmp_path / "maxquad-n2-nf1-nfx1-nfz1-seed4.json"
        assert expected.exists()

    def test_invalid_parameters(self, tmp_path, capsys):
        code = cli.main(["generate", "--n", "2", "--nf", "1",
                         "--nf-xstar", "2", "--nf-z", "1",
                         "--seed", "0", "--out", str(tmp_path / "x.json")])
        assert code == cli.EXIT_USAGE


class TestBenchAndProfile:
    def test_pipeline(self, tmp_path, monkeypatch, capsys):
        # swap in a miniature grid so the pipeline runs in seconds
        tiny = BenchConfig(ns=(2,), reps=1, variants=(BundleVariant.FULL,
                                                      BundleVariant.THREE),
                           eps_levels=("0",), master_seed=77)
        monkeypatch.setattr(
            cli, "run_trials",
            lambda config, parallelism=1: run_trials(tiny, parallelism))
        csv_path = str(tmp_path / "bench.csv")
        code = cli.main(["bench", "--out", csv_path, "--summary"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert os.path.exists(csv_path)
        assert "solved" in out
        assert "variant" in out  # summary table header

        tsv_path = str(tmp_path / "profile.tsv")
        code = cli.main(["profile", "--metric", "iters",
                         "--in", csv_path, "--out", tsv_path])
        assert code == cli.EXIT_OK
        header = open(tsv_path).readline().strip().split("\t")
        assert header[0] == "tau"
        assert set(header[1:]) == {"full", "three"}

    def test_profile_time_metric(self, tmp_path, monkeypatch, capsys):
        tiny = BenchConfig(ns=(2,), reps=1, variants=(BundleVariant.FULL,),
                           eps_levels=("0",))
        monkeypatch.setattr(
            cli, "run_trials",
            lambda config, parallelism=1: run_trials(tiny, parallelism))
        csv_path = str(tmp_path / "b.csv")
        assert cli.main(["bench", "--out", csv_path]) == cli.EXIT_OK
        tsv_path = str(tmp_path / "p.tsv")
        assert cli.main(["profile", "--metric", "time", "--in", csv_path,
                         "--out", tsv_path]) == cli.EXIT_OK

    def test_profile_missing_input(self, tmp_path, capsys):
        code = cli.main(["profile", "--in", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "o.tsv")])
        assert code == cli.EXIT_USAGE


class TestUsage:
    def test_no_command(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == cli.EXIT_USAGE

    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK
