import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_three_lines_experiment_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "three_lines_experiment.py"),
         "--mesh", "3", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "5 classes" in proc.stdout
    assert "t1 =   1/9: threshold = 8/9 (" in proc.stdout
    assert "d_H(A_3, LCT region) = 1/9 " in proc.stdout
    assert (tmp_path / "regions_k3.csv").exists()
