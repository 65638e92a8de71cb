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
    # the script and ``charp raster`` share one CSV writer
    cli_csv = tmp_path / "cli.csv"
    from charp.cli import main
    assert main(["raster", "--p", "3", "--vars", "x,y", "--pair", "x+y:0",
                 "--pair", "x*y:0", "--T", "1", "--depth", "3",
                 "--out", str(cli_csv)]) == 0
    assert (tmp_path / "regions_k3.csv").read_bytes() == cli_csv.read_bytes()


def test_xi_identity_sweep_runs():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "xi_identity_sweep.py"),
         "--seed", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if "False" in line]
    assert "  GL_2(F_5): 480 elements, 230400 pairs, ok = True, 5 xi terms" \
        in proc.stdout
    assert "GL_2(F_5) x10000: ok = True, xi evaluated on 480 distinct " \
        "matrices, 5 xi terms" in proc.stdout
    assert "GL_3(F_3) x1000: ok = True, xi evaluated on 1820 distinct " \
        "matrices, 21 xi terms" in proc.stdout
    assert "  GL_3(F_101): refused, BudgetExceeded: more than 200,000 " \
        "admissible 3 x 3 matrices for p = 101, over the xi term budget" \
        in proc.stdout
    assert "verified for all odd primes up to 101 (25 primes)" in proc.stdout
