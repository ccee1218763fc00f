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


def test_a_changed_result_fails(tmp_path):
    # a qp.py whose weights differ by one ulp in the first entry
    qp = tmp_path / "src" / "proxbundle" / "qp.py"
    qp.parent.mkdir(parents=True)
    shutil.copy(ROOT / "src" / "proxbundle" / "qp.py", qp)
    with qp.open("a") as f:
        f.write("\n_exact = minimize_simplex_qp\n\n\n"
                "def minimize_simplex_qp(*args, **kwargs):\n"
                "    lam, resid = _exact(*args, **kwargs)\n"
                "    lam = lam.copy()\n"
                "    lam[0] = np.nextafter(lam[0], 2.0)\n"
                "    return lam, resid\n")
    proc = replay(ROOT, tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "differs" in proc.stdout
