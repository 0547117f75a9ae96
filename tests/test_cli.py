import pytest

from topt import checks
from topt.cli import main

CONFIG = """
[domain]
width = 2.0
height = 1.0
nx = 8
ny = 4

[supports]
fix = 0.0 0.0 0.0 1.0 xy

[loads]
load = 1 2.0 0.5 0.0 -1.0 1.0

[constraints]
displacement = 1 2.0 0.5 0.0 -1.0 1.5

[optimizer]
track_condition = off
"""


def write_config(tmp_path, text=CONFIG):
    path = tmp_path / "problem.ini"
    path.write_text(text)
    return path


class TestRunCommand:
    def test_feasible_run_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        for name in ("density.pgm", "result.vtk", "history.csv", "summary.txt"):
            assert (out / name).exists()
        assert "final volume fraction" in capsys.readouterr().out

    def test_infeasible_exit_two(self, tmp_path):
        cfg = write_config(tmp_path, CONFIG.replace("1.5", "0.9"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_config_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONFIG + "\n[what]\nx = 1\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_rigid_body_mode_exit_one(self, tmp_path, capsys):
        # three x-fixed DOFs on one vertical line leave y translation free
        cfg = write_config(tmp_path, CONFIG.replace("0.0 0.0 0.0 1.0 xy", "0.0 0.0 0.0 0.5 x"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_bad_optimizer_setting_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONFIG + "gamma0 = 0\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gamma0" in err and "Traceback" not in err

    @pytest.mark.parametrize("old, new, where", [
        ("load = 1 ", "load = 1.7 ", "[loads] load"),
        ("displacement = 1 ", "displacement = 1.5 ", "[constraints] displacement"),
        ("[optimizer]", "stress = 0.5 1000.0\n[optimizer]", "[constraints] stress"),
        ("[optimizer]", "compliance = 2.5 1.5\n[optimizer]", "[constraints] compliance"),
        ("[optimizer]", "stress = 1 1000.0 8.5\n[optimizer]", "[constraints] stress"),
    ], ids=["load-case", "displacement-case", "stress-case", "compliance-case",
            "stress-exponent"])
    def test_non_integral_number_exit_one(self, tmp_path, capsys, old, new, where):
        cfg = write_config(tmp_path, CONFIG.replace(old, new, 1))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert err.count("\n") == 1 and where in err

    def test_mesh_scale_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--mesh-scale", "2"])
        assert code == 0


class TestBenchCommand:
    def test_bench_writes_config_and_outputs(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "l-bracket-single", "--out", str(out)])
        assert code == 0
        assert (out / "config.ini").exists()
        assert (out / "summary.txt").exists()

    def test_unknown_benchmark(self, tmp_path, capsys):
        code = main(["bench", "nope", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "l-bracket-single" in capsys.readouterr().err


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 3
        assert "FAIL" not in out

    def test_failed_check_exit_one(self, monkeypatch, capsys):
        monkeypatch.setattr(checks, "tau_gap", lambda rng, trials, max_n: 2.0)
        code = main(["verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("FAIL") == 1 and out.count("PASS") == 2
        assert "FAIL  tau cut volume exactness" in out
