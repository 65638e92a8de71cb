import json

import pytest

from charp.cli import COMMANDS, main
from work_counts import count_automaton_moves


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "xi", "--p", "3", "--n", "2", "--exhaustive")
        assert code == 0
        assert "48/48 pass" in out
        assert "xi evaluated on 48 distinct matrices" in out

    def test_xi_json_reports_distinct(self, capsys):
        code, out, _ = run(capsys, "xi", "--p", "5", "--n", "2", "--random",
                           "2000", "--seed", "0", "--json")
        result = json.loads(out)["result"]
        assert code == 0 and result["ok"]
        assert (result["checked"], result["pairs"]) == (2000, 1999)
        assert 0 < result["distinct"] <= 480

    @pytest.mark.parametrize("argv", [
        ["xi", "--p", "4", "--n", "2", "--exhaustive"],
        ["xi-comb", "--p", "4", "--n", "2"],
        ["xi-comb", "--p", "4", "--n", "2", "--matrix", "3,0,0,3"],
        ["xi", "--p", "1", "--n", "2", "--exhaustive"],
        ["xi", "--p", "3", "--n", "-1", "--exhaustive"],
        ["xi", "--p", "5", "--n", "0", "--random", "5"],
        ["xi", "--p", "5", "--n", "2", "--random", "-3"],
        ["xi", "--p", "5", "--n", "2", "--random", "0"],
        ["xi-comb", "--p", "5", "--n", "0"],
    ])
    def test_xi_bad_group_is_usage(self, capsys, argv):
        # a non-prime p, n < 1 or an empty sample is a usage error, not a
        # failed verification and not a vacuous pass
        code, out, err = run(capsys, *argv)
        assert code == 1, (out, err)
        assert "verification" not in err and "pass" not in out

    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "nonsense")
        assert code == 1
        assert "usage error" in err

    def test_bad_flag_value(self, capsys):
        code, _, err = run(capsys, "tau", "--p", "9", "--vars", "x,y",
                           "--pair", "x:1/2")
        assert code == 1

    def test_zero_denominator_is_usage(self, capsys):
        code, _, err = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "x:1/0")
        assert code == 1 and "verification" not in err

    def test_exponent_overflow_is_usage(self, capsys):
        code, _, err = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "x^9223372036854775807*x:1")
        assert code == 1 and "verification" not in err

    def test_threshold_error_reported(self, capsys):
        # fixed slice not F-regular at the free exponent 0
        code, _, err = run(capsys, "fpt", "--p", "3", "--vars", "x,y",
                           "--fixed", "x*y:2", "--free", "x+y",
                           "--depth", "2")
        assert code == 1
        assert "F-regular" in err

    @pytest.mark.parametrize("argv", [
        ["fpt", "--p", "3", "--vars", "x,y", "--free", "x*y", "--fixed",
         "x+y:1/3", "--depth", "-1"],
        ["staircase", "--p", "3", "--depth", "-1"],
        ["staircase", "--p", "3", "--terms", "-2"],
    ])
    def test_negative_size_is_usage(self, capsys, argv):
        # fpt used to end in a TypeError traceback, staircase --depth -1 in
        # a RecursionError, and --terms -2 printed a sum of -2 terms
        code, out, err = run(capsys, *argv)
        assert code == 1 and err.startswith("error:") and not out, (out, err)

    def test_svg_needs_two_parameters(self, capsys, tmp_path):
        code, _, err = run(capsys, "raster", "--p", "3", "--vars", "x,y",
                           "--pair", "x*y:0", "--T", "1", "--depth", "1",
                           "--out", str(tmp_path / "r.csv"),
                           "--svg", str(tmp_path / "r.svg"))
        assert code == 1

    def test_svg_check_comes_before_the_raster(self, capsys, tmp_path):
        # the check used to run after the raster, leaving r.csv behind
        code, _, err = run(capsys, "raster", "--p", "3", "--vars", "x,y",
                           "--pair", "x*y:0", "--T", "1", "--depth", "5",
                           "--out", str(tmp_path / "r.csv"),
                           "--svg", str(tmp_path / "r.svg"))
        assert code == 1 and "two-parameter" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        "--p 3 --vars x,y --pair x+y:0 --pair x*y:0",  # ignored without --svg
        "--p 2 --vars x,y --pair x+y:0 --pair x*y:0 --svg r.svg",
        "--p 3 --vars x,y --pair x*y:0 --pair x+y:0 --svg r.svg",
        "--p 3 --vars x,y --pair x+y:0 --pair x^2*y:0 --svg r.svg",
        "--p 3 --vars x,y,z --pair x+y:0 --pair x*y:0 --svg r.svg",
        "--p 3 --vars x,y --laurent --pair x+y:0 --pair x*y:0 --svg r.svg",
    ])
    def test_staircase_check_comes_before_the_raster(self, capsys, tmp_path,
                                                    monkeypatch, flags):
        # at --p 2 the raster used to write r.csv before the overlay failed
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, "raster", "--staircase", "--T", "1",
                           "--depth", "5", "--out", "r.csv", *flags.split())
        assert code == 1 and "--staircase requires" in err
        assert not list(tmp_path.iterdir())

    def test_staircase_accepts_the_three_lines(self, capsys, tmp_path):
        # any names for the two variables, any order of the terms
        code, out, _ = run(capsys, "raster", "--p", "5", "--vars", "u,v",
                           "--pair", "v+u:0", "--pair", "u*v:0", "--T", "1",
                           "--depth", "1", "--out", str(tmp_path / "r.csv"),
                           "--svg", str(tmp_path / "r.svg"), "--staircase")
        assert code == 0 and "<polyline" in (tmp_path / "r.svg").read_text()

    @pytest.mark.parametrize("argv", [
        ["jumps", "--p", "3", "--vars", "x,y", "--free", "x*y", "--T", "1",
         "--depth", "40"],
        ["jumps", "--p", "3", "--vars", "x,y", "--free", "x*y", "--T", "1",
         "--depth", "13"],
        ["jumps", "--p", "3", "--vars", "x,y", "--free", "x*y", "--T", "1",
         "--depth", "1000000000"],
        ["raster", "--p", "3", "--vars", "x,y", "--pair", "x+y:0", "--pair",
         "x*y:0", "--T", "1", "--depth", "7", "--out", "r.csv"],
    ])
    def test_raster_over_the_cell_budget_is_refused(self, capsys, tmp_path,
                                                    monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 1 and "exceeds the budget" in err
        assert not list(tmp_path.iterdir())

    def test_xi_exhaustive_over_budget_is_usage(self, capsys):
        code, _, err = run(capsys, "xi", "--p", "3", "--n", "3",
                           "--exhaustive")
        assert code == 1 and "126,157,824 pairs" in err

    def test_removed_no_op_flags(self, capsys, tmp_path):
        for argv in (["staircase", "--p", "3", "--seed", "1"],
                     ["tau", "--p", "3", "--vars", "x,y", "--pair", "x:1",
                      "--manifest", str(tmp_path / "m.json")],
                     ["xi", "--p", "3", "--n", "2", "--exhaustive",
                      "--laurent"]):
            code, _, err = run(capsys, *argv)
            assert code == 1 and "usage error" in err, argv


class TestTau:
    def test_three_lines_pair(self, capsys):
        code, out, _ = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "x+y:1/3", "--pair", "x*y:2/3")
        assert code == 0
        assert "tau = {x, y}" in out

    def test_period_five_chain(self, capsys):
        # fpt(x^2+y^3) = 2/3 at p = 3, so tau is the unit ideal at 7/11
        code, out, _ = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "x^2+y^3:7/11")
        assert code == 0
        assert "tau = {1}" in out

    def test_twisted_period_three_chain(self, capsys):
        # ord_13(3) = 3 is longer than the two steps the old twisted chain
        # waited; tau((x^2+y^3)^(4/13)) under kappa o x is (1)
        code, out, _ = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "x^2+y^3:4/13", "--alg", "1:x")
        assert code == 0
        assert "tau = {1}" in out
        # 17/13 = 1 + 4/13: the old chain printed {x*y^3 + x^3, y^4 + x^2*y}
        code, out, _ = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "x^2+y^3:17/13", "--alg", "1:x")
        assert code == 0
        assert "tau = {y^3 + x^2}" in out

    def test_removed_conf_flag(self, capsys):
        code, _, err = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "x^2+y^3:7/11", "--conf", "6")
        assert code == 1 and "usage error" in err

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                           "--pair", "x*y:5/9", "--json")
        doc = json.loads(out)
        assert set(doc) == {"p", "vars", "command", "result", "hash"}
        assert doc["p"] == 3 and doc["vars"] == ["x", "y"]
        assert doc["result"]["basis"] == ["1"]


class TestFpt:
    def test_worked_value(self, capsys):
        code, out, _ = run(capsys, "fpt", "--p", "3", "--vars", "x,y",
                           "--fixed", "x+y:1/3", "--free", "x*y",
                           "--depth", "6")
        assert code == 0
        assert "candidate = 2/3" in out

    def test_threshold_below_the_bracket_top(self, capsys):
        # tau is (1) at 29/64 and (x, y) at 15/32, so the threshold sits
        # strictly inside the depth-4 bracket
        code, out, _ = run(capsys, "fpt", "--p", "2", "--vars", "x,y",
                           "--free", "x^3+y^7", "--depth", "4")
        assert code == 0
        assert "interval = [7/16, 1/2]" in out
        assert "candidate = 15/32" in out


class TestNonPrincipalIdeals:
    """--pair, --fixed and --free take an ideal as comma-separated
    generators."""

    def test_tau(self, capsys):
        # Howald: tau((x, y^2)^(3/2)) = (x, y), and (x+y)^(1/3) adds nothing
        for extra in ([], ["--pair", "x+y:1/3"]):
            code, out, _ = run(capsys, "tau", "--p", "3", "--vars", "x,y",
                               "--pair", "x,y^2:3/2", *extra)
            assert code == 0 and "tau = {x, y}" in out

    def test_raster_matches_the_library(self, capsys, tmp_path):
        import charp as ch
        out = tmp_path / "r.csv"
        code, text, _ = run(capsys, "raster", "--p", "3", "--vars", "x,y",
                            "--pair", "x,y^2:0", "--pair", "x+y:0", "--T",
                            "1", "--depth", "2", "--out", str(out))
        assert code == 0 and "cells = 100" in text
        R = ch.RingCtx(("x", "y"), ch.PrimeModulus(3))
        ras = ch.constancy_raster([ch.Ideal(R, [R.poly("x"), R.poly("y^2")]),
                                   ch.Ideal(R, [R.poly("x+y")])], 1, 2)
        assert out.read_text() == ch.raster_csv(ras)

    def test_jumps(self, capsys):
        # (x, y^2) jumps at its log canonical threshold 3/2 and at 2
        code, out, _ = run(capsys, "jumps", "--p", "3", "--vars", "x,y",
                           "--free", "x,y^2", "--T", "2", "--depth", "2")
        assert code == 0
        starts = [row.split(",")[0] for row in out.splitlines()[1:]]
        assert starts == ["0", "14/9", "2"]
        code, out, _ = run(capsys, "jumps", "--p", "3", "--vars", "x,y",
                           "--fixed", "x,y:1/2", "--free", "x+y", "--T", "2",
                           "--depth", "2")
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == \
            ["0", "1", "2"]

    def test_pullback_check(self, capsys):
        code, out, _ = run(capsys, "pullback-check", "--p", "3", "--base",
                           "t,u", "--fiber", "x", "--pair", "t,u^2:3/2")
        assert code == 0
        assert "extended tau  = {t, u}" in out and "AGREE" in out

    def test_fpt_of_the_maximal_ideal(self, capsys):
        # Howald: fpt((x, y)) = 2, the Skoda bound #gens
        argv = ["fpt", "--p", "3", "--vars", "x,y", "--free", "x,y"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "candidate = 2" in out.splitlines()
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["result"]["candidate"] == "2"

    def test_fpt_of_the_zero_ideal(self, capsys):
        # tau is (1) at 0 and the zero ideal from 1/9 on, as ``jumps`` says
        code, out, _ = run(capsys, "fpt", "--p", "3", "--vars", "x,y",
                           "--free", "0")
        assert code == 0 and "candidate = 0" in out.splitlines()
        code, out, _ = run(capsys, "jumps", "--p", "3", "--vars", "x,y",
                           "--free", "0", "--T", "1", "--depth", "2")
        assert code == 0
        assert [row.split(",")[:2] for row in out.splitlines()[1:]] == \
            [["0", "0"], ["1/9", "1"]]

    def test_fpt_of_a_zero_fixed_ideal_is_refused(self, capsys):
        code, out, err = run(capsys, "fpt", "--p", "3", "--vars", "x,y",
                             "--fixed", "0:1/2", "--free", "x,y")
        assert code == 1 and not out and "not F-regular" in err


class TestDecompose:
    def test_absolute(self, capsys):
        code, out, _ = run(capsys, "decompose", "--p", "3", "--vars", "x,y",
                           "--e", "1", "--poly", "(x+y)^3")
        assert code == 0
        assert "(0,0): x + y" in out

    def test_relative(self, capsys):
        code, out, _ = run(capsys, "decompose", "--p", "3", "--vars", "t,x",
                           "--base", "t", "--e", "1", "--poly", "t*x^5")
        assert code == 0
        assert "(2): (x) (x) F*(t)" in out


class TestRaster:
    def test_csv_row_count_and_determinism(self, capsys, tmp_path):
        out_csv = str(tmp_path / "r.csv")
        out_svg = str(tmp_path / "r.svg")
        manifest = str(tmp_path / "m.json")
        argv = ["raster", "--p", "3", "--vars", "x,y", "--pair", "x+y:0",
                "--pair", "x*y:0", "--T", "1", "--depth", "2",
                "--out", out_csv, "--svg", out_svg, "--staircase",
                "--manifest", manifest]
        assert run(capsys, *argv)[0] == 0
        rows = open(out_csv).read().strip().splitlines()
        assert len(rows) == 101  # header + (3^2+1)^2 cells
        assert rows[0] == "t1_num,t1_den,t2_num,t2_den,class_hash"
        first = open(out_csv).read(), open(out_svg).read(), \
            json.load(open(manifest))
        assert run(capsys, *argv)[0] == 0
        second = open(out_csv).read(), open(out_svg).read(), \
            json.load(open(manifest))
        assert first[0] == second[0] and first[1] == second[1]
        m1, m2 = first[2], second[2]
        m1.pop("wall_clock_s"), m2.pop("wall_clock_s")
        assert m1 == m2
        assert "manifest_hash" in m1 and m1["artifacts"]

    def test_twisted_algebra(self, capsys, tmp_path):
        out_csv = tmp_path / "r.csv"
        code, out, _ = run(capsys, "raster", "--p", "3", "--vars", "x,y",
                           "--pair", "x+y:0", "--pair", "x*y:0", "--T", "1",
                           "--depth", "1", "--alg", "1:x", "--out", str(out_csv))
        assert code == 0
        assert "cells = 16" in out and "classes = 7" in out
        assert len(out_csv.read_text().splitlines()) == 17

    def test_hash_collision_is_verification_failure(self, capsys, tmp_path,
                                                     monkeypatch):
        from charp import Ideal
        monkeypatch.setattr(Ideal, "content_hash", lambda self: "0" * 16)
        code, _, err = run(capsys, "raster", "--p", "3", "--vars", "x,y",
                           "--pair", "x+y:0", "--pair", "x*y:0", "--T", "1",
                           "--depth", "1", "--out", str(tmp_path / "r.csv"))
        assert code == 2 and "verification failure" in err

    def test_removed_jobs_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "raster", "--p", "3", "--vars", "x,y",
                           "--pair", "x*y:0", "--T", "1", "--depth", "1",
                           "--out", str(tmp_path / "r.csv"), "--jobs", "2")
        assert code == 1 and "usage error" in err


BENCH_RASTER = ["raster", "--p", "3", "--vars", "x,y", "--pair", "x+y:0",
                "--pair", "x*y:0", "--T", "1", "--depth", "4", "--out",
                "regions.csv", "--svg", "regions.svg", "--staircase", "--json"]


def sha256(path):
    import hashlib
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRasterBytes:
    """The three-lines raster's bytes, pinned from the Fraction-based writer
    and the per-cell digit table they replaced."""

    def test_mesh_3_4(self, capsys, tmp_path, monkeypatch):
        # the benchmark's command line, so the manifest records the same
        # command
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.argv", ["charp", *BENCH_RASTER])
        code, out, _ = run(capsys, *BENCH_RASTER)
        assert code == 0
        assert json.loads(out)["result"]["cells"] == 82 ** 2
        assert sha256(tmp_path / "regions.csv") == \
            "52cec39bd9d70fca993dc68b13e44baf8efd403809997fa961bb758c3d426e43"
        assert sha256(tmp_path / "regions.svg") == \
            "bf20bfb92166f66ac5b4c53339b134b7c5db14380841a94dfb909191f939d6f1"
        manifest = json.loads((tmp_path / "regions.csv.manifest.json")
                              .read_text())
        assert manifest["manifest_hash"] == "a9f590870e49f65d"

    def test_mesh_3_5(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = list(BENCH_RASTER)
        argv[argv.index("--depth") + 1] = "5"
        assert run(capsys, *argv)[0] == 0
        assert sha256(tmp_path / "regions.csv") == \
            "762067b25530a1b6ea6a8a5b7a89a334ec0dfb417ed142799cbf6c0ecde69a11"
        assert sha256(tmp_path / "regions.svg") == \
            "392b788be786de14a0c8b677aa663e08206dbb1ae5781f883f48d3612173a45d"

    def test_work_counts(self, capsys, tmp_path, monkeypatch):
        # one carry move per (digit-sum vector, state) and level, not one per
        # cell, and no Fraction coordinates; the store starts empty, as a
        # move that an earlier walk memoised takes no step
        from charp import regions
        calls = count_automaton_moves(monkeypatch)
        real_coord, calls["coord"] = regions.RasterGrid.coord, 0

        def coord(*a):
            calls["coord"] += 1
            return real_coord(*a)

        monkeypatch.setattr(regions.RasterGrid, "coord", coord)
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *BENCH_RASTER)[0] == 0
        assert 0 < calls["step"] <= 100 and 0 < calls["carry"] <= 100
        assert calls["coord"] == 0
        # the jumps runs are read off the same flat table
        assert run(capsys, "jumps", "--p", "3", "--vars", "x,y", "--free",
                   "x*y", "--T", "1", "--depth", "5")[0] == 0
        assert calls["coord"] == 0


class TestArtifacts:
    def test_manifest_records_the_argv_main_parsed(self, capsys, tmp_path,
                                                   monkeypatch):
        # not the interpreter's command line, which a caller of main owns
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("sys.argv", ["python", "-c", "unrelated"])
        argv = ["staircase", "--p", "3", "--depth", "2", "--svg", "s.svg"]
        assert run(capsys, *argv)[0] == 0
        manifest = json.loads((tmp_path / "s.svg.manifest.json").read_text())
        assert manifest["command"] == " ".join(argv)

    @pytest.mark.parametrize("argv,files", [
        (["raster", "--p", "3", "--vars", "x,y", "--pair", "x+y:0",
          "--pair", "x*y:0", "--T", "1", "--depth", "2", "--out", "r.csv",
          "--svg", "r.svg", "--staircase"], ["r.csv", "r.svg"]),
        (["jumps", "--p", "3", "--vars", "x,y", "--free", "x*y", "--T", "1",
          "--depth", "2", "--out", "j.csv"], ["j.csv"]),
        (["staircase", "--p", "3", "--depth", "2", "--svg", "s.svg"],
         ["s.svg"])], ids=["raster", "jumps", "staircase"])
    def test_artifact_hashes_are_file_hashes(self, capsys, tmp_path,
                                             monkeypatch, argv, files):
        import hashlib
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv, "--manifest", "m.json")[0] == 0
        artifacts = json.loads((tmp_path / "m.json").read_text())["artifacts"]
        assert sorted(artifacts) == files
        for path, digest in artifacts.items():
            data = (tmp_path / path).read_bytes()
            assert digest == hashlib.blake2b(data, digest_size=8).hexdigest()

    def test_raster_holds_no_whole_artifact(self, capsys, tmp_path,
                                            monkeypatch):
        # the CSV and SVG are written row by row: at mesh 3^-5 (1.8 MB and
        # 4.2 MB of text) the command's traced peak stays within 1 MB of
        # the raster's own
        monkeypatch.chdir(tmp_path)
        argv = list(BENCH_RASTER)
        argv[argv.index("--depth") + 1] = "5"
        alone, command = peaks(capsys, monkeypatch, argv,
                               ["x+y", "x*y"], 1, 5)
        assert command <= alone + 1_000_000

    def test_one_parameter_raster_holds_no_whole_artifact(
            self, capsys, tmp_path, monkeypatch):
        # a one-parameter raster is a single grid row of 65,611 cells here
        # (1.8 MB of CSV), written in runs of the last axis; written whole
        # it took a traced peak of 10.3 MB against the raster's 1.19 MB
        monkeypatch.chdir(tmp_path)
        argv = ["raster", "--p", "3", "--vars", "x,y", "--pair", "x^2+y^3:0",
                "--T", "10", "--depth", "8", "--out", "line.csv"]
        alone, command = peaks(capsys, monkeypatch, argv, ["x^2+y^3"], 10, 8)
        assert command <= alone + 1_000_000


def peaks(capsys, monkeypatch, argv, family, T, depth):
    """The traced peaks of ``constancy_raster`` of the principal family
    alone and of the command ``argv`` that writes it, each from an empty
    automaton store, after one warm-up run of the command."""
    import tracemalloc
    import charp as ch
    from charp import cartier
    R = ch.RingCtx(("x", "y"), ch.PrimeModulus(3))
    family = [ch.Ideal(R, [R.poly(f)]) for f in family]

    def peak(task):
        monkeypatch.setattr(cartier, "_tau_cache", {})
        tracemalloc.start()
        try:
            task()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert run(capsys, *argv)[0] == 0  # warm-up: imports, module caches
    alone = peak(lambda: ch.constancy_raster(family, T, depth))
    command = peak(lambda: main(argv))
    capsys.readouterr()
    return alone, command


def test_hashes_stable_across_hash_seeds(tmp_path):
    # content hashes and JSON output must not depend on interpreter hash
    # randomization; the child imports charp from this checkout's src/
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    outs = set()
    for seed in ("0", "1", "42"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "charp.cli", "tau", "--p", "3",
             "--vars", "x,y", "--pair", "x+y:1/3", "--pair", "x*y:2/3",
             "--json"],
            capture_output=True, text=True, env=env, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1


class TestVerificationCommands:
    def test_xi_comb(self, capsys):
        code, out, _ = run(capsys, "xi-comb", "--p", "3", "--n", "3")
        assert code == 0
        assert "21/21" in out

    def test_xi_random_seeded(self, capsys):
        a = run(capsys, "xi", "--p", "5", "--n", "2", "--random", "200",
                "--seed", "4")
        b = run(capsys, "xi", "--p", "5", "--n", "2", "--random", "200",
                "--seed", "4")
        assert a == b and a[0] == 0

    def test_basis_change(self, capsys):
        code, out, _ = run(capsys, "basis-change", "--p", "3", "--laurent",
                           "--old", "x", "--new", "x^-1")
        assert code == 0
        assert "xi = x^-4" in out
        assert "det J = 2*x^-2" in out

    def test_pullback_check(self, capsys):
        code, out, _ = run(capsys, "pullback-check", "--p", "3", "--base", "t",
                           "--fiber", "x,y", "--pair", "t*(t+1):2/3")
        assert code == 0
        assert "AGREE" in out

    def test_pullback_check_twisted_period_three(self, capsys):
        # both sides used to agree on the wrong ideal {t, u}
        code, out, _ = run(capsys, "pullback-check", "--p", "3", "--base",
                           "t,u", "--fiber", "x", "--pair", "t^2+u^3:4/13",
                           "--alg", "1:t")
        assert code == 0
        assert "extended tau  = {1}" in out
        assert "pulled-back tau = {1}" in out
        assert "AGREE" in out

    def test_sigma_and_bracket_root(self, capsys):
        code, out, _ = run(capsys, "sigma", "--p", "3", "--vars", "x,y",
                           "--alg", "1:x^3")
        assert code == 0 and "sigma = {x}" in out
        code, out, _ = run(capsys, "bracket-root", "--p", "3", "--vars", "x,y",
                           "--e", "1", "--ideal", "x^5*y^2")
        assert code == 0 and "root = {x}" in out

    def test_staircase(self, capsys):
        code, out, _ = run(capsys, "staircase", "--p", "3", "--depth", "1",
                           "--terms", "1")
        assert code == 0
        assert "(1/3, 2/3)" in out
        assert "partial flat-series sum (1 terms) = 1/2" in out

    def test_jumps_csv(self, capsys, tmp_path):
        path = str(tmp_path / "j.csv")
        code, _, _ = run(capsys, "jumps", "--p", "3", "--vars", "x,y",
                         "--free", "x*y", "--T", "1", "--depth", "2",
                         "--out", path)
        assert code == 0
        rows = open(path).read().strip().splitlines()
        assert rows[0] == "t_start,t_end,class_hash"
        assert len(rows) == 3  # two runs

    def test_jumps_hash_collision_is_verification_failure(self, capsys,
                                                           monkeypatch):
        from charp import Ideal
        monkeypatch.setattr(Ideal, "content_hash", lambda self: "0" * 16)
        code, _, err = run(capsys, "jumps", "--p", "3", "--vars", "x,y",
                           "--free", "x*y", "--T", "1", "--depth", "2")
        assert code == 2 and "verification failure" in err


# the help of the parent parser at COLUMNS=80, which the one-width formatter
# must reproduce byte for byte
TOP_HELP = """\
usage: charp [-h]
             {tau,fpt,jumps,raster,decompose,bracket-root,sigma,pullback-check,xi,xi-comb,basis-change,staircase}
             ...

Command-line front end: exact inputs (rationals as NUM/DEN), deterministic
CSV/SVG/JSON artifacts, and reproducible run manifests. Exit codes: 0 success,
1 usage error, 2 verification failure.

positional arguments:
  {tau,fpt,jumps,raster,decompose,bracket-root,sigma,pullback-check,xi,xi-comb,basis-change,staircase}

options:
  -h, --help            show this help message and exit
"""

RASTER_HELP = """\
usage: charp raster [-h] --p P --vars VARS [--laurent] [--json]
                    [--manifest MANIFEST] --pair PAIR [--alg ALG] --T T
                    --depth DEPTH --out OUT [--svg SVG] [--staircase]

options:
  -h, --help           show this help message and exit
  --p P
  --vars VARS          comma-separated
  --laurent
  --json
  --manifest MANIFEST
  --pair PAIR
  --alg ALG
  --T T
  --depth DEPTH
  --out OUT
  --svg SVG
  --staircase
"""


class TestParser:
    def test_terminal_size_asked_once(self, monkeypatch):
        import shutil
        from charp.cli import build_parser
        calls = []
        real = shutil.get_terminal_size

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        build_parser()
        assert len(calls) == 1

    @pytest.mark.parametrize("argv, want", [
        (["--help"], TOP_HELP), (["raster", "--help"], RASTER_HELP)])
    def test_help_bytes(self, monkeypatch, capsys, argv, want):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("argv", [["--help"]] + [
        [name, *tail] for name in COMMANDS
        for tail in (["--help"], ["--no-such-flag"], ["--p", "x"])]
        + [["tua", "--vars", "raster"]])
    def test_one_command_parser_matches_full(self, monkeypatch, capsys,
                                             argv):
        # main registers only the invoked subcommand's parser; the help
        # bytes, the exit code and the message must be those of the parser
        # with every subcommand built
        from charp import cli
        monkeypatch.setenv("COLUMNS", "80")
        real = cli.build_parser
        built = []

        def outcome():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        monkeypatch.setattr(cli, "build_parser",
                            lambda only=None: built.append(only) or real(only))
        one = outcome()
        monkeypatch.setattr(cli, "build_parser", lambda only=None: real())
        assert one == outcome()
        assert one[0] == (0 if "--help" in argv else 1)
        assert built == [argv[0] if argv[0] in COMMANDS else None]
        if argv[0] == "tua":  # a misspelt command is offered every command
            assert "invalid choice: 'tua'" in one[2]
            assert all(repr(name) in one[2] for name in COMMANDS)
