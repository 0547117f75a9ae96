import contextlib
import io
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from topt import checks, cli
from topt.cli import main

from conftest import CROSS_CASE_DOC

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

    @pytest.mark.parametrize("written", ["filter"])
    def test_filter_flag_over_document_key(self, tmp_path, monkeypatch, written):
        # --filter replaces the document's setting
        class Stop(Exception):
            pass

        def stop(problem):
            raise Stop(problem.config)
        monkeypatch.setattr(cli.optimizer, "run", stop)
        cfg = write_config(tmp_path, CONFIG + f"{written} = off\n")
        with pytest.raises(Stop) as stopped:
            main(["run", "--config", str(cfg), "--filter", "--out", str(tmp_path / "o")])
        config, = stopped.value.args
        assert config.filter and not config.track_condition

    @pytest.mark.parametrize("line", ["filter_enabled = on", "multiplier_rule = paper"])
    def test_retired_optimizer_key_exit_one(self, tmp_path, capsys, line):
        # every [optimizer] key is an OptimizerConfig field; these two are not
        cfg = write_config(tmp_path, CONFIG + line + "\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        key = line.split()[0]
        assert (code, capsys.readouterr().err) == (
            1, f"error: unknown key {key!r} in [optimizer]\n")

    def test_round_off_reference_exit_one(self, tmp_path, capsys):
        # at the tip's mid-plane node, case 2 (along x) moves nothing along
        # y by symmetry: the reference is round-off, of either sign
        text = CROSS_CASE_DOC.replace("2.0 1.0", "2.0 0.5")
        assert text.count("2.0 0.5") == 3
        code = main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: constraint point_displacement (case 2) has initial "
                              "value ") and err.count("\n") == 1 and "round-off" in err

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
        assert "singular" in err and "rigid-body" in err
        assert "Traceback" not in err

    def test_rigid_body_mode_in_factorization_exit_one(self, tmp_path, capsys):
        # y held along the left edge leaves x translation free; the banded
        # Cholesky meets a non-positive pivot before any residual is checked
        cfg = write_config(tmp_path, CONFIG.replace("0.0 0.0 0.0 1.0 xy", "0.0 0.0 0.0 1.0 y"))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: singular stiffness system: factorization failed")
        assert err.count("\n") == 1 and "rigid-body" in err

    def test_bad_optimizer_setting_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, CONFIG + "gamma0 = 0\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "gamma0" in err and "Traceback" not in err

    @pytest.mark.parametrize("budget", [0, -3])
    def test_fea_budget_below_one_exit_one(self, tmp_path, capsys, monkeypatch, budget):
        # rejected while the document is read, before any analysis
        monkeypatch.setattr(cli.optimizer, "run", None)
        cfg = write_config(tmp_path, CONFIG + f"max_total_fea = {budget}\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"error: [optimizer]: max_total_fea must be at least 1, got {budget}\n"

    @pytest.mark.parametrize("old, new, where", [
        ("load = 1 ", "load = 1.7 ", "[loads] load"),
        ("displacement = 1 ", "displacement = 1.5 ", "[constraints] displacement"),
        ("[optimizer]", "stress = 0.5 1000.0\n[optimizer]", "[constraints] stress"),
        ("[optimizer]", "compliance = 2.5 1.5\n[optimizer]", "[constraints] compliance"),
        ("[optimizer]", "stress = 1 1000.0 8.5\n[optimizer]", "[constraints] stress"),
        ("-1.0 1.5", "-1.0 -1.5", "[constraints] displacement"),
        ("[optimizer]", "stress = 1 1000.0 7\n[optimizer]", "[constraints] stress"),
        ("[optimizer]", "stress = 1 1000.0 0\n[optimizer]", "[constraints] stress"),
        ("[optimizer]", "compliance = 1 0\n[optimizer]", "[constraints] compliance"),
    ], ids=["load-case", "displacement-case", "stress-case", "compliance-case",
            "stress-exponent", "displacement-bound", "stress-odd-exponent",
            "stress-zero-exponent", "compliance-bound"])
    def test_non_integral_number_exit_one(self, tmp_path, capsys, old, new, where):
        cfg = write_config(tmp_path, CONFIG.replace(old, new, 1))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert err.count("\n") == 1 and where in err

    @pytest.mark.parametrize("text, where", [
        (CONFIG + "[material]\ne = 2e11x\n", "[material] e"),
        (CONFIG + "[material]\nnu = 0.3.3\n", "[material] nu"),
        (CONFIG.replace("0.0 0.0 0.0 1.0 xy", "0.0 0.0 0.0 1.O xy"), "[supports] fix"),
        (CONFIG.replace("width = 2.0", "width = abc"), "[domain] width"),
        (CONFIG.replace("nx = 8", "nx = 8.5"), "[domain] nx"),
    ], ids=["material-e", "material-nu", "supports-fix", "domain-width", "domain-nx"])
    def test_bad_number_names_key(self, tmp_path, capsys, text, where):
        cfg = write_config(tmp_path, text)
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1
        assert err.count("\n") == 1 and where in err

    @pytest.mark.parametrize("value, where", [
        ("nu = nan", "[material] nu: "), ("nu = 0.7", "[material] nu: "),
        ("nu = -0.1", "[material] nu: "), ("e = -1", "[material] e: "),
        ("e = 0", "[material] e: "), ("e = -1\nnu = 0.7", "[material] e: "),
    ], ids=["nu-nan", "nu-high", "nu-negative", "e-negative", "e-zero", "both"])
    def test_material_out_of_range_names_key(self, tmp_path, capsys, value, where):
        cfg = write_config(tmp_path, CONFIG + f"\n[material]\n{value}\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {where}") and err.count("\n") == 1

    @pytest.mark.parametrize("old, new, where", [
        ("width = 2.0", "width = inf", "[domain] width"),
        ("height = 1.0", "height = inf", "[domain] height"),
        ("[supports]", "[material]\ne = inf\n\n[supports]", "[material] e"),
        ("[supports]", "[material]\ne = 1e308\n\n[supports]", "[material] e"),
        ("-1.0 1.5", "-1.0 nan", "[constraints] displacement"),
        ("-1.0 1.5", "-1.0 inf", "[constraints] displacement"),
        ("displacement = 1 2.0", "displacement = 1 nan", "[constraints] displacement"),
        ("displacement = 1 2.0", "displacement = 1 2.5", "[constraints] displacement"),
        ("load = 1 2.0", "load = 1 nan", "[loads] load"),
        ("load = 1 2.0", "load = 1 2.5", "[loads] load"),
        ("ny = 4", "ny = 4\nmask = nan 0.4 1.0 1.0", "[domain] mask"),
        ("0.0 -1.0 1.0", "0.0 -1.0 nan", "[loads] load"),
        ("0.0 -1.0 1.0", "0.0 -1.0 inf", "[loads] load"),
    ], ids=["width-inf", "height-inf", "e-inf", "e-overflow", "bound-nan", "bound-inf",
            "constraint-point-nan", "constraint-point-outside", "load-point-nan",
            "load-point-outside", "mask-nan", "load-magnitude-nan", "load-magnitude-inf"])
    def test_non_finite_input_names_key(self, tmp_path, capsys, old, new, where):
        # rejected before any array work, so numpy has nothing to warn about
        cfg = write_config(tmp_path, CONFIG.replace(old, new, 1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1 and caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and where in err

    def test_load_on_fixed_dofs_exit_one(self, tmp_path, capsys):
        # the tip is held along the load's direction: the load does no work
        text = CONFIG.replace("0.0 1.0 xy", "0.0 1.0 xy ; 2.0 0.5 2.0 0.5 y").replace(
            "displacement = 1 2.0 0.5 0.0 -1.0 1.5", "compliance = 1 1.5")
        code = main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: load case 1 does no work") and err.count("\n") == 1

    def test_cancelling_loads_exit_one(self, tmp_path, capsys):
        # a compliance bound on a case whose two loads cancel: a zero force
        # vector is no load case's multiple, and the case does no work
        text = CONFIG.replace("0.0 -1.0 1.0", "0.0 -1.0 1.0 ; 1 2.0 0.5 0.0 1.0 1.0").replace(
            "displacement = 1 2.0 0.5 0.0 -1.0 1.5", "compliance = 1 1.5")
        code = main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: load case 1 does no work") and err.count("\n") == 1

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


class TestOutOfMemory:
    @pytest.mark.parametrize("detail", [
        "", "Unable to allocate 14.6 TiB for an array with shape (2000002000001, 4) "
            "and data type int64"], ids=["empty", "numpy"])
    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_one_line_exit_one(self, tmp_path, capsys, monkeypatch, command, detail):
        # raised where the document becomes a mesh; nothing large is allocated
        def exhausted(*args, **kwargs):
            raise MemoryError(detail)
        monkeypatch.setattr(cli, "build_problem", exhausted)
        args = (["run", "--config", str(write_config(tmp_path))] if command == "run"
                else ["bench", "l-bracket-single"])
        code = main([*args, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert detail in err


def _numbers_blanked(text):
    return re.sub(r"\d+(?:\.\d+)?(?:e[+-]\d+)?", "#", text)


class TestErrorPrecedence:
    """Supports that leave a rigid-body mode fail the first analysis with
    that analysis's line alone, under a modulus near the top of the float
    range too: nothing else is raised or warned, and the condition estimate
    is never reached. Which pivot fails and the residual's size are
    round-off, so the line is matched up to its numbers."""

    # a warning is shown, or raised as an error (as under python -W error)
    @pytest.mark.parametrize("action", ["always", "error"])
    @pytest.mark.parametrize("edit, line", [
        ({}, "factorization failed (234-th leading minor not positive definite)"),
        # the factorization does not fail; the residual check does
        ({"e = 200000000000.0": "e = 1e300"}, "relative residual 2.960e+00 exceeds 1e-08"),
    ], ids=["rigid-body-mode", "overflowing-bound"])
    def test_first_analysis_error_alone(self, tmp_path, capsys, edit, line, action):
        text = LBRACKET.replace("fix = 0.0 1.0 0.4 1.0 xy", "fix = 0.0 1.0 0.4 1.0 x")
        for old, new in edit.items():
            text = text.replace(old, new)
        assert "track_condition = on" in text
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert (code, out, caught) == (1, "", [])
        expected = (f"error: singular stiffness system: {line}; the supports likely "
                    "leave a rigid-body mode\n")
        assert _numbers_blanked(err) == _numbers_blanked(expected)


class TestHugeModulus:
    """A modulus near the top of the float range: the condition estimate's
    norms rescale where their sums of squares overflow or underflow."""

    def test_finite_condition_nothing_warned(self, tmp_path, capsys):
        runs = {}
        for e in ("200000000000.0", "1e300"):
            text = LBRACKET.replace("e = 200000000000.0", f"e = {e}")
            out = tmp_path / e
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # as under python -W error
                code = main(["run", "--config", str(write_config(tmp_path, text)),
                             "--out", str(out)])
            assert (code, capsys.readouterr().err) == (0, "")
            rows = (out / "history.csv").read_text().splitlines()
            conds = [row.split(",")[-1] for row in rows[1:]]
            runs[e] = [float(c) for c in conds if c], (out / "density.pgm").read_bytes()
        big, small = runs["1e300"], runs["200000000000.0"]
        assert len(big[0]) == len(small[0]) > 1 and all(map(math.isfinite, big[0]))
        assert big[0][0] == pytest.approx(small[0][0], rel=1e-11)
        assert big[1] == small[1]


class TestOverRangeModulus:
    """A modulus whose stiffness bound 4E/(1 - nu^2) overflows is refused
    in one line naming the key, before any array work warns."""

    @pytest.mark.parametrize("e", ["5e307", "1e308", "1.7e308"])
    def test_one_line_naming_e(self, tmp_path, capsys, e):
        # the L-bracket at h = 10, where the element stiffness stays finite
        text = LBRACKET.replace("nu = 0.33", "nu = 0.0").replace("e = 200000000000.0", f"e = {e}")
        for old, new in [("width = 1.0", "width = 120.0"), ("height = 1.0", "height = 120.0"),
                         ("mask = 0.4 0.4 1.0 1.0", "mask = 48.0 48.0 120.0 120.0"),
                         ("fix = 0.0 1.0 0.4 1.0 xy", "fix = 0.0 120.0 48.0 120.0 xy"),
                         ("1 1.0 0.2 0.0 -1.0", "1 120.0 24.0 0.0 -1.0")]:
            assert old in text
            text = text.replace(old, new)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            code = main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: [material] e: ") and err.count("\n") == 1


def _scaled_lbracket(s, e):
    """The L-bracket document with modulus ``e`` and every length times ``s``."""
    text = LBRACKET.replace("e = 200000000000.0", f"e = {e}")
    for old, new in [("width = 1.0", f"width = {s!r}"), ("height = 1.0", f"height = {s!r}"),
                     ("mask = 0.4 0.4 1.0 1.0", f"mask = {0.4 * s!r} {0.4 * s!r} {s!r} {s!r}"),
                     ("fix = 0.0 1.0 0.4 1.0 xy", f"fix = 0.0 {s!r} {0.4 * s!r} {s!r} xy"),
                     ("1 1.0 0.2 0.0 -1.0", f"1 {s!r} {0.2 * s!r} 0.0 -1.0")]:
        assert old in text
        text = text.replace(old, new)
    return text


class TestTinyLengths:
    """Lengths near the bottom of the float range give the unit-size
    design, or one line naming the element size where the element
    stiffness overflows through that size alone."""

    def test_unit_size_design(self, tmp_path, capsys):
        # squared distances fall below 1e-300: a tie slack that is not
        # relative would put the load and the constraint on node 1
        runs = []
        for s in (1.0, 1e-150):
            cfg, out = write_config(tmp_path, _scaled_lbracket(s, 1.0)), tmp_path / repr(s)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # as under python -W error
                code = main(["run", "--config", str(cfg), "--out", str(out)])
            assert (code, capsys.readouterr().err) == (0, "")
            rows = [row.split(",") for row in (out / "history.csv").read_text().splitlines()]
            vf = rows[0].index("achieved_vf")
            runs.append(([row[vf] for row in rows[1:]], (out / "density.pgm").read_bytes()))
        assert runs[1] == runs[0] and len(runs[0][0]) > 1

    def test_element_size_named(self, tmp_path, capsys):
        # the default modulus: 2/h overflows, not the modulus
        text = _scaled_lbracket(1.2e-160, 200000000000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith("error: [domain] width/nx: element size 1e-161 ")
        assert err.count("\n") == 1


class TestHugeLengths:
    def test_element_size_named(self, tmp_path, capsys):
        # lengths near 1e160: node location squares finitely, and (h/2)^2
        # overflows to inf, which the element-stiffness check names
        text = _scaled_lbracket(1.2e160, 200000000000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under python -W error
            code = main(["run", "--config", str(write_config(tmp_path, text)),
                         "--out", str(tmp_path / "o")])
        assert (code, capsys.readouterr()) == (1, ("", (
            "error: [domain] width/nx: element size 1.0000000000000001e+159 gives a "
            "non-finite element stiffness\n")))


class TestOffMeshPoints:
    @pytest.mark.parametrize("old, new, where", [
        ("load = 1 1.0 0.2 0.0 -1.0 1.0", "load = 1 0.8 0.8 0.0 -1.0 1.0", "[loads] load"),
        ("displacement = 1 1.0 0.2 0.0 -1.0 1.5", "displacement = 1 0.8 0.8 0.0 -1.0 1.5",
         "[constraints] displacement"),
    ], ids=["load", "displacement"])
    def test_point_in_mask_names_key(self, tmp_path, capsys, old, new, where):
        # inside the bounding box, in the masked square: the nearest node,
        # on the hole's edge, is 4.6 elements away
        cfg = write_config(tmp_path, LBRACKET.replace(old, new))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {where}: point (0.8, 0.8) lies off the mesh")
        assert err.count("\n") == 1


class TestStressFreeStart:
    def test_names_the_pinned_patches(self, tmp_path, capsys):
        # one element, pinned around the support and the load: the p-norm
        # covers no element, so no displacement is to blame
        text = (LBRACKET.replace("nx = 12", "nx = 1").replace("ny = 12", "ny = 1")
                .replace("mask = 0.4 0.4 1.0 1.0\n", "")
                .replace("fix = 0.0 1.0 0.4 1.0 xy", "fix = 0.0 0.0 0.0 1.0 xy"))
        code = main(["run", "--config", str(write_config(tmp_path, text)),
                     "--out", str(tmp_path / "o")])
        assert (code, capsys.readouterr()) == (1, ("", (
            "error: constraint pnorm_stress (case 1) has non-positive initial value 0.0; "
            "no element outside the patches pinned around supports, loads and monitored "
            "points carries stress\n")))


def _tiny_mitchell():
    """The mitchell-multi document with every length times 2^-480."""
    w, h = 2.0 ** -479, 2.0 ** -480
    return f"""[domain]
width = {w!r}
height = {h!r}
nx = 64
ny = 32

[material]
e = 200000000000.0
nu = 0.33

[supports]
fix = 0.0 0.0 0.0 0.0 xy ; {w!r} 0.0 {w!r} 0.0 xy

[loads]
load = 1 {h!r} 0.0 0.0 -1.0 1.0 ; 2 {h!r} 0.0 1.0 0.0 1.0

[constraints]
displacement = 1 {h!r} 0.0 0.0 -1.0 1.5 ; 2 {h!r} 0.0 1.0 0.0 1.5
stress = 1 1.5 8 ; 2 1.5 8
"""


class TestFloatingPointErrors:
    """An overflow, invalid operation or division by zero ends the run in
    one line naming the innermost topt function, whether numpy's warnings
    are shown or raised: here the norm of a p-norm adjoint's right-hand
    side overflows."""

    # a warning is shown, or raised as an error (as under python -W error)
    @pytest.mark.parametrize("action", ["always", "error"])
    def test_one_line_nothing_warned(self, tmp_path, capsys, action):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = main(["run", "--config", str(write_config(tmp_path, _tiny_mitchell())),
                         "--out", str(tmp_path / "o")])
        out, err = capsys.readouterr()
        assert (code, out, caught) == (1, "", [])
        assert err.startswith("error: topt.") and "overflow" in err and err.count("\n") == 1


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


@st.composite
def _small_problems(draw):
    """A config document of a random small problem: at most 12 x 6
    elements, random masks, support boxes, load points and bounds, and a
    budget of at most 60 FEA solves."""
    nx, ny = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    h = draw(st.sampled_from([0.25, 0.5, 1.0]))  # elements are square
    width, height = nx * h, ny * h

    def coordinate(n):
        # mostly on a node line, sometimes anywhere, rarely a little outside
        kind = draw(st.integers(0, 7))
        if kind > 1:
            return draw(st.integers(0, n)) * h
        return draw(st.floats(0.0, n * h) if kind else st.floats(-0.1 * n * h, 1.1 * n * h))

    def x():
        return coordinate(nx)

    def y():
        return coordinate(ny)

    def box():
        x0, x1, y0, y1 = sorted([x(), x()]) + sorted([y(), y()])
        return f"{x0!r} {y0!r} {x1!r} {y1!r}"

    def mask():
        # a hole between node lines, or rarely any box (maybe degenerate)
        if not draw(st.integers(0, 3)):
            return box()
        x0, x1 = sorted(draw(st.lists(st.integers(0, nx), min_size=2, max_size=2, unique=True)))
        y0, y1 = sorted(draw(st.lists(st.integers(0, ny), min_size=2, max_size=2, unique=True)))
        return f"{x0 * h!r} {y0 * h!r} {x1 * h!r} {y1 * h!r}"

    def support():
        # often a whole side, which holds the rigid-body modes
        side = draw(st.sampled_from([None, "left", "right", "bottom"]))
        edge = {None: box(), "left": f"0.0 0.0 0.0 {height!r}",
                "right": f"{width!r} 0.0 {width!r} {height!r}",
                "bottom": f"0.0 0.0 {width!r} 0.0"}[side]
        return f"{edge} {draw(st.sampled_from(['x', 'y', 'xy', 'xy', 'xy']))}"

    def direction():
        dx, dy = draw(st.sampled_from([(0.0, -1.0), (1.0, 0.0), (0.6, 0.8), (-1.0, 1.0)]))
        return f"{dx!r} {dy!r}"

    def entries(make, min_size):
        return " ; ".join(make() for _ in range(draw(st.integers(min_size, 2))))

    cases = draw(st.sampled_from([[1], [1, 2]]))
    case = st.sampled_from(cases)
    bound = st.sampled_from([0.5, 1.0, 1.01, 1.1, 1.5, 3.0, 1000.0])
    lines = ["[domain]", f"width = {width!r}", f"height = {height!r}", f"nx = {nx}", f"ny = {ny}"]
    if not draw(st.integers(0, 3)):
        lines.append("mask = " + entries(mask, 1))
    lines += ["[supports]", "fix = " + entries(support, 1)]
    loads = [f"{c} {x()!r} {y()!r} {direction()} {draw(st.sampled_from([1.0, 2.5, -1.0]))!r}"
             for c in cases]
    lines += ["[loads]", "load = " + " ; ".join(loads)]
    constraints = [
        ("displacement", lambda: f"{draw(case)} {x()!r} {y()!r} {direction()} {draw(bound)!r}"),
        ("stress", lambda: f"{draw(case)} {draw(bound)!r}"),
        ("compliance", lambda: f"{draw(case)} {draw(bound)!r}"),
    ]
    lines.append("[constraints]")
    constrained = False
    for key, make in constraints:
        if draw(st.booleans()):
            lines.append(f"{key} = " + entries(make, 1))
            constrained = True
    lines += ["[optimizer]", f"max_total_fea = {draw(st.integers(1, 60))}",
              f"max_inner_iters = {draw(st.integers(1, 5))}",
              f"track_condition = {draw(st.sampled_from(['on', 'off']))}",
              f"filter = {draw(st.sampled_from(['on', 'off']))}"]
    # without a constraint a run needs a target; rarely it gets neither
    if not constrained and draw(st.integers(0, 7)) or draw(st.booleans()):
        lines.append(f"target_vf = {draw(st.sampled_from([0.3, 0.6, 0.9, 1.0]))!r}")
    return "\n".join(lines) + "\n"


class TestRandomProblems:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_small_problems())
    def test_documented_exit(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "problem.ini"
            cfg.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
        else:
            assert err == "" and out.startswith("problem: ")


LBRACKET = """[domain]
width = 1.0
height = 1.0
nx = 12
ny = 12
mask = 0.4 0.4 1.0 1.0

[material]
e = 200000000000.0
nu = 0.33

[supports]
fix = 0.0 1.0 0.4 1.0 xy

[loads]
load = 1 1.0 0.2 0.0 -1.0 1.0

[constraints]
displacement = 1 1.0 0.2 0.0 -1.0 1.5
stress = 1 1000.0 8

[optimizer]
delta_v = 0.1
max_inner_iters = 2
max_total_fea = 12
filter = on
track_condition = on
"""

# extreme and malformed replacements for one value token
_TOKENS = ["nan", "inf", "-inf", "0", "-1", "1e308", "1e-308", "-0.0", "3", "0.5", "2",
           "1e400", "x", "xy", "on", ";", "", "0.4 0.4", "1 2", "1000000000"]


@st.composite
def _mutated_lbrackets(draw):
    """The 12 x 12 L-bracket document with one or two edits: one or two of
    its value tokens replaced, or a line or a section duplicated or dropped."""
    lines = LBRACKET.splitlines()
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(["field", "field", "field", "line", "section"]))
        if kind == "field":
            fields = [(i, k) for i, line in enumerate(lines) if " = " in line
                      for k in range(len(line.split(" = ", 1)[1].split()))]
            i, k = draw(st.sampled_from(fields))
            key, value = lines[i].split(" = ", 1)
            tokens = value.split()
            tokens[k] = draw(st.sampled_from(_TOKENS))
            lines[i] = f"{key} = {' '.join(tokens)}"
        elif kind == "line":
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [lines[i]] * draw(st.sampled_from([0, 2]))
        else:
            heads = [i for i, line in enumerate(lines) if line.startswith("[")] + [len(lines)]
            s = draw(st.integers(0, len(heads) - 2))
            block = lines[heads[s]:heads[s + 1]]
            lines[heads[s]:heads[s + 1]] = block * draw(st.sampled_from([0, 2]))
    return "\n".join(lines) + "\n"


class TestMutatedDocuments:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(_mutated_lbrackets())
    def test_documented_exit(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "problem.ini"
            cfg.write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["run", "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2)
        if code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1 and out == ""
        else:
            assert err == "" and out.startswith("problem: ")
        # no value of a document may be NaN, wherever it stands
        values = [t for line in text.splitlines() if " = " in line
                  for t in line.split(" = ", 1)[1].split()]
        assert code == 1 or "nan" not in values
