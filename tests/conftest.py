"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from proxbundle import problems


@pytest.fixture
def generate_with_one_blas_thread(tmp_path):
    """A function that calls ``generate_max_quad(*args, **kwargs)`` in a
    subprocess with one BLAS thread, as ``perfbench/run.py`` builds
    instances, and loads the instance back.  At n = 100 the Hessian
    products ``B.T @ B`` round differently with one BLAS thread than with
    several, so an instance built this way is the same whatever the thread
    count of the test run."""

    def generate(*args, **kwargs):
        path = tmp_path / "instance.json"
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        src = str(Path(problems.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import sys; from proxbundle.problems import "
                "generate_max_quad, save_problem; save_problem("
                "generate_max_quad(*eval(sys.argv[1]), **eval(sys.argv[2])), "
                "sys.argv[3])")
        subprocess.run([sys.executable, "-c", code, repr(args), repr(kwargs),
                        str(path)], env=env, check=True)
        return problems.load_problem(path)

    return generate
