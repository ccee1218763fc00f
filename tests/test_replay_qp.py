"""Tests for tools/replay_qp.py on a two-case slice of the benchmark."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "replay_qp.py"
SLICE = ("--workload", "dfo-tilt", "--seed", "1", "--cases", "2",
         "--rounds", "2")


def replay(parent, change):
    return subprocess.run(
        [sys.executable, str(TOOL), "--parent", str(parent),
         "--change", str(change), *SLICE],
        capture_output=True, text=True, timeout=300)


def test_one_checkout_replays_bitwise():
    proc = replay(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    recorded = int(lines[0].split(", ")[1].split()[0])
    assert recorded > 0
    assert f"{recorded} of {recorded} calls identical" in lines
    (m3,) = [line for line in lines if line.startswith("m = 3: ")]
    assert "; parent min " in m3 and "; change min " in m3
    assert m3.count(" median ") == 2


def mutant(tmp_path, body):
    """A checkout whose qp.py wraps the real minimize_simplex_qp as
    ``_exact`` in a function with the given body."""
    qp = tmp_path / "src" / "proxbundle" / "qp.py"
    qp.parent.mkdir(parents=True)
    shutil.copy(ROOT / "src" / "proxbundle" / "qp.py", qp)
    with qp.open("a") as f:
        f.write("\n_exact = minimize_simplex_qp\n\n\n"
                "def minimize_simplex_qp(*args, **kwargs):\n" + body)
    return tmp_path


def line_after(lines, prefix):
    (line,) = [line for line in lines if line.startswith(prefix)]
    return line[len(prefix):]


def test_a_changed_result_fails(tmp_path):
    # a qp.py whose weights differ by one ulp in the first entry
    change = mutant(tmp_path, "    lam, resid = _exact(*args, **kwargs)\n"
                              "    lam = lam.copy()\n"
                              "    lam[0] = np.nextafter(lam[0], 2.0)\n"
                              "    return lam, resid\n")
    proc = replay(ROOT, change)
    assert proc.returncode == 1, proc.stderr
    assert "differs" in proc.stdout
    lines = proc.stdout.splitlines()
    recorded = int(lines[0].split(", ")[1].split()[0])
    by_m = line_after(lines, "differing calls by m: ").split(", ")
    assert sum(int(item.split(": ")[1]) for item in by_m) == recorded
    rel = float(line_after(
        lines, "largest relative objective change (change - parent): "))
    assert 0.0 < abs(rel) < 1e-12
    for side in ("parent", "change"):
        assert line_after(lines, f"{side}: ") == (
            f"0 of {recorded} calls with residual above tol, 0 raised")


def test_residuals_and_errors_are_counted(tmp_path):
    # three-plane calls raise, the others return the uniform weights
    change = mutant(tmp_path,
                    "    q = np.asarray(args[1])\n"
                    "    if q.size == 3:\n"
                    "        raise RuntimeError('three planes')\n"
                    "    _exact(*args, **kwargs)\n"
                    "    return np.full(q.size, 1.0 / q.size), 0.0\n")
    proc = replay(ROOT, change)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    recorded = int(lines[0].split(", ")[1].split()[0])
    m3 = int(line_after(lines, "m = 3: ").split()[0])
    assert m3 > 0
    assert line_after(lines, "parent: ") == (
        f"0 of {recorded} calls with residual above tol, 0 raised")
    above, rest = line_after(lines, "change: ").split(" of ")
    assert int(above) > 0
    assert rest == (f"{recorded} calls with residual above tol, "
                    f"{m3} raised")
    # the uniform weights are no better than the parent's minimizer
    assert float(line_after(
        lines, "largest relative objective change (change - parent): ")) > 0
