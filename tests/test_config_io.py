import dataclasses
import io
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topt import config as config_module, fem, optimizer, outputs
from topt.config import (ConfigError, band_bytes_bound, build_problem, parse_problem,
                         parse_problem_config, serialize_problem, serialize_problem_config,
                         with_overrides)
from topt.mesh import TopologyState, active_submesh
from topt.optimizer import OptimizationResult, OptimizerConfig
from topt.problems import BUILTIN_NAMES, builtin_config, builtin_problem, scale_loads
from topt.sensitivity import KIND_DISPLACEMENT

from _oracles import support_dofs_by_loop, write_density_pgm_per_pixel, write_vtk_at_once

MINIMAL = """
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
"""


class TestParse:
    def test_minimal_defaults(self):
        p = parse_problem(MINIMAL)
        assert p.material.E == 2e11
        assert p.material.nu == 0.33
        assert p.config.delta_v == 0.025
        assert p.mesh.n_elements == 32
        assert len(p.constraints) == 1
        assert p.constraints[0].node >= 0

    def test_unknown_key_named(self):
        bad = MINIMAL + "\n[optimizer]\nbogus_key = 3\n"
        with pytest.raises(ConfigError, match="bogus_key"):
            parse_problem(bad)

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="extras"):
            parse_problem(MINIMAL + "\n[extras]\nx = 1\n")

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_default_section_is_unknown(self, first):
        # not configparser's defaults, whose keys every section would show
        default = "[DEFAULT]\nnu = 0.3\n"
        text = default + MINIMAL if first else MINIMAL + default
        with pytest.raises(ConfigError, match=r"^unknown section \[DEFAULT\]$"):
            parse_problem_config(text)

    def test_missing_case_semantic_error(self):
        bad = MINIMAL.replace("displacement = 1", "displacement = 3")
        with pytest.raises(ConfigError, match="load case 3"):
            parse_problem(bad)

    def test_parse_error_reported(self):
        with pytest.raises(ConfigError):
            parse_problem("[domain\nwidth = 1")

    def test_optimizer_overrides(self):
        text = MINIMAL + "\n[optimizer]\ndelta_v = 0.05\nfilter = on\nmax_total_fea = 30\n"
        p = parse_problem(text)
        assert p.config.delta_v == 0.05
        assert p.config.filter
        assert p.config.max_total_fea == 30 and type(p.config.max_total_fea) is int

    @pytest.mark.parametrize("first, second", [("filter = on", "filter_enabled = off"),
                                               ("filter_enabled = off", "filter = on")])
    def test_filter_under_both_names_rejected(self, first, second):
        # the setting has one name; the other is an unknown key in either order
        text = MINIMAL + f"\n[optimizer]\n{first}\n{second}\n"
        with pytest.raises(ConfigError, match=r"unknown key 'filter_enabled' in \[optimizer\]"):
            parse_problem(text)

    def test_filter_override_replaces_document_value(self):
        cfg = parse_problem_config(MINIMAL + "\n[optimizer]\nfilter = off\n")
        for value in (True, False):
            over = with_overrides(cfg, filter=value)
            assert over.optimizer == (("filter", "on" if value else "off"),)
            assert build_problem(over).config.filter is value

    def test_optimizer_keys_are_the_fields(self):
        # each key is read by its field's type; a key no field has is refused
        # also where a config is built without being parsed
        assert config_module._SECTION_KEYS["optimizer"] == {
            f.name for f in dataclasses.fields(OptimizerConfig)}
        cfg = parse_problem_config(MINIMAL)
        p = build_problem(replace(cfg, optimizer=(
            ("target_vf", "0.5"), ("max_inner_iters", "7"), ("track_condition", "off"))))
        assert (p.config.target_vf, p.config.max_inner_iters, p.config.track_condition) == (
            0.5, 7, False)
        with pytest.raises(ConfigError, match="unknown key 'multiplier_rule' in"):
            build_problem(replace(cfg, optimizer=(("multiplier_rule", "paper"),)))

    def test_bad_optimizer_number_names_key(self):
        with pytest.raises(ConfigError, match=r"\[optimizer\] max_inner_iters: "):
            parse_problem(MINIMAL + "\n[optimizer]\nmax_inner_iters = 1.5\n")

    def test_mesh_scale(self):
        p = parse_problem(MINIMAL, mesh_scale=2)
        assert p.mesh.n_elements == 128

    def test_direction_normalized(self):
        text = MINIMAL.replace("0.0 -1.0 1.0", "0.0 -2.5 1.0")
        p = parse_problem(text)
        assert p.boundary.point_loads[0].direction == (0.0, -1.0)

    def test_support_box_must_hit(self):
        bad = MINIMAL.replace("fix = 0.0 0.0 0.0 1.0 xy", "fix = 9 9 9.1 9.1 xy")
        with pytest.raises(ConfigError, match="support box"):
            parse_problem(bad)


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        cfg = parse_problem_config(MINIMAL)
        text = serialize_problem_config(cfg)
        again = parse_problem_config(text)
        assert again == cfg

    def test_builtin_configs_round_trip(self):
        for name in BUILTIN_NAMES:
            cfg = builtin_config(name)
            assert parse_problem_config(serialize_problem_config(cfg),
                                        name=cfg.name) == cfg

    def test_serialize_problem(self):
        p = parse_problem(MINIMAL)
        text = serialize_problem(p)
        q = parse_problem(text)
        assert np.array_equal(q.mesh.nodes, p.mesh.nodes)
        assert np.array_equal(q.mesh.elements, p.mesh.elements)
        assert np.array_equal(q.mesh.element_grid, p.mesh.element_grid)
        assert q.material == p.material
        assert q.boundary.fixed_dofs == p.boundary.fixed_dofs
        assert q.boundary.point_loads == p.boundary.point_loads
        assert q.constraints == p.constraints
        assert q.config == p.config

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_scaled_loads_serialize_scaled(self, name):
        scaled = scale_loads(builtin_problem(name), 10.0)
        assert {p.magnitude for p in scaled.boundary.point_loads} == {10.0}
        again = parse_problem(serialize_problem(scaled), name=name)
        assert again.boundary.point_loads == scaled.boundary.point_loads


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COMPONENT = st.floats(-1e6, 1e6, allow_nan=False)
_DIRECTION = st.tuples(_COMPONENT, _COMPONENT).filter(lambda d: math.hypot(*d) > 0)
_EXPONENT = st.sampled_from(["", " 4", " 8"])  # the p-exponent is optional
# an integral case may be written as an int or a float
_CASE = st.builds(lambda c, dot: f"{c}.0" if dot else str(c), st.integers(1, 4), st.booleans())
_OPTIMIZER_VALUES = {
    "delta_v": _FINITE.map(repr),
    "max_inner_iters": st.integers(1, 50).map(str),
    "filter": st.sampled_from(["on", "off", "true", "0"]),
    "track_condition": st.sampled_from(["on", "off"]),
}


@st.composite
def _documents(draw):
    """Configuration text with arbitrary numbers, directions and entry counts."""
    def num():
        return repr(draw(_FINITE))

    def entries(make, min_size=0):
        return " ; ".join(make() for _ in range(draw(st.integers(min_size, 3))))

    def direction():
        return "{!r} {!r}".format(*draw(_DIRECTION))

    lines = ["[domain]", f"width = {num()}", f"height = {num()}",
             f"nx = {draw(st.integers(1, 99))}", f"ny = {draw(st.integers(1, 99))}"]
    masks = entries(lambda: " ".join(num() for _ in range(4)))
    if masks:
        lines.append(f"mask = {masks}")
    lines += ["[material]", f"e = {num()}", f"nu = {num()}"]
    lines += ["[supports]", "fix = " + entries(
        lambda: f"{num()} {num()} {num()} {num()} {draw(st.sampled_from(['x', 'Y', 'xy']))}",
        min_size=1)]
    lines += ["[loads]", "load = " + entries(
        lambda: f"{draw(_CASE)} {num()} {num()} {direction()} {num()}", min_size=1)]
    constraints = {
        "displacement": entries(lambda: f"{draw(_CASE)} {num()} {num()} {direction()} {num()}"),
        "stress": entries(lambda: f"{draw(_CASE)} {num()}{draw(_EXPONENT)}"),
        "compliance": entries(lambda: f"{draw(_CASE)} {num()}"),
    }
    if any(constraints.values()):
        lines.append("[constraints]")
        lines += [f"{key} = {value}" for key, value in constraints.items() if value]
    keys = draw(st.lists(st.sampled_from(sorted(_OPTIMIZER_VALUES)), unique=True))
    if keys:
        lines.append("[optimizer]")
        lines += [f"{key} = {draw(_OPTIMIZER_VALUES[key])}" for key in keys]
    return "\n".join(lines) + "\n"


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_documents())
    def test_generated_documents_round_trip(self, text):
        cfg = parse_problem_config(text)
        assert parse_problem_config(serialize_problem_config(cfg)) == cfg

    def test_unit_direction_kept_verbatim(self):
        # (0.3, 1) normalized; its hypot is 1 - 1 ulp, and dividing by it
        # again moved the direction in its last digit on every parse
        unit = "0.2873478855663454 0.9578262852211513"
        text = MINIMAL.replace("load = 1 2.0 0.5 0.0 -1.0", f"load = 1 2.0 0.5 {unit}")
        load = parse_problem_config(text).loads[0]
        assert (load.dx, load.dy) == (0.2873478855663454, 0.9578262852211513)


class TestReadmeExample:
    def test_parses_round_trips_and_sets_every_key(self):
        # the README's example as written, and with its commented-out
        # `key = value` lines switched on; the second sets every key of the
        # table, so the README and the table cannot drift apart
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        [block] = re.findall(r"^```ini\n(.*?)^```$", readme, re.S | re.M)
        switched_on = re.sub(r"^# (\w+ = )", r"\1", block, flags=re.M)
        for text in (block, switched_on):
            cfg = parse_problem_config(text)
            assert parse_problem_config(serialize_problem_config(cfg)) == cfg
            build_problem(cfg)
        assert set(re.findall(r"^(\w+) = ", switched_on, re.M)) >= set(config_module._KEYS)


class TestBuiltinProblems:
    def test_l_bracket_single(self):
        p = builtin_problem("l-bracket-single")
        assert p.mesh.n_elements == 1936
        kinds = [c.kind for c in p.constraints]
        assert kinds == ["point_displacement", "pnorm_stress"]
        assert p.constraints[0].bound == 1.5
        assert p.constraints[1].bound == 1000.0

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_support_dofs_match_node_loop(self, name, scale):
        cfg = builtin_config(name)
        p = build_problem(cfg, mesh_scale=scale)
        assert p.boundary.fixed_dofs == support_dofs_by_loop(cfg, p.mesh)
        assert all(type(n) is int for n, _ in p.boundary.fixed_dofs)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_constraints_handed_over_unchanged(self, name):
        # the document's constraints reach the run as they are, with only
        # their nodes resolved, and every displacement node is monitored
        cfg = builtin_config(name)
        p = build_problem(cfg)
        assert [replace(c, node=-1) for c in p.constraints] == list(cfg.constraints)
        assert all(c.node in p.boundary.monitor_nodes
                   for c in p.constraints if c.kind == KIND_DISPLACEMENT)

    def test_mitchell_element_count(self):
        p = builtin_problem("mitchell-multi")
        assert p.mesh.n_elements == 2048
        assert len(p.boundary.load_cases()) == 2

    def test_unknown_name_lists_menu(self):
        with pytest.raises(ValueError) as err:
            builtin_problem("unknown")
        for name in BUILTIN_NAMES:
            assert name in str(err.value)

    def test_bound_overrides(self):
        p = builtin_problem("l-bracket-single", delta_max=2.0, sigma_max=1.1)
        assert p.constraints[0].bound == 2.0
        assert p.constraints[1].bound == 1.1


class TestBandPreflight:
    """A grid whose stiffness band cannot fit in physical memory is refused
    before the mesh is built."""

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_bound_holds_the_full_domain_band(self, name, scale):
        p = builtin_problem(name, mesh_scale=scale)
        active = active_submesh(p.mesh, TopologyState.full(p.mesh), p.boundary)
        bands = fem.assemble(active, p.material)._build_blocks()[0]
        nx, ny = p.mesh.grid_shape
        assert sum(band.nbytes for band in bands) <= band_bytes_bound(nx, ny)

    def test_scale_four_lbracket_bound(self):
        assert band_bytes_bound(220, 220) == 348_529_376  # one band: 180 MB; the blocks: 114 MB

    @pytest.mark.parametrize("cfg, scale", [
        (builtin_config("l-bracket-single"), 64),
        (parse_problem_config(MINIMAL.replace("nx = 8", "nx = 2000000")
                              .replace("ny = 4", "ny = 1000000")), 1),
    ], ids=["l-bracket-scale-64", "huge-grid"])
    def test_refused_naming_keys_and_scale(self, monkeypatch, cfg, scale):
        monkeypatch.setattr(config_module, "_physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(config_module, "build_mesh", None)  # never reached
        with pytest.raises(ConfigError) as err:
            build_problem(cfg, mesh_scale=scale)
        message = str(err.value)
        assert message.startswith(f"[domain] nx = {cfg.nx} and ny = {cfg.ny} at mesh "
                                  f"scale {scale} give a stiffness band of up to ")
        assert message.endswith(" more than the 8 GiB of physical memory")

    def test_unknown_memory_is_not_checked(self, monkeypatch):
        monkeypatch.setattr(config_module, "_physical_memory", lambda: None)
        assert build_problem(builtin_config("l-bracket-single")).mesh.n_elements == 1936


@pytest.fixture(scope="module")
def small_result():
    text = MINIMAL + "\n[optimizer]\ntrack_condition = off\n"
    p = parse_problem(text, name="io-test")
    res = optimizer.run(p)
    return p, res


class TestOutputs:

    def test_files_written(self, small_result, tmp_path):
        p, res = small_result
        paths = outputs.write_outputs(p, res, tmp_path)
        for path in paths:
            assert path.exists() and path.stat().st_size > 0

    def test_pgm_shape_and_values(self, small_result, tmp_path):
        p, res = small_result
        outputs.write_outputs(p, res, tmp_path)
        lines = (tmp_path / "density.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        nx, ny = map(int, lines[1].split())
        assert (nx, ny) == p.mesh.grid_shape
        pixels = [int(v) for row in lines[3:] for v in row.split()]
        assert len(pixels) == nx * ny
        assert set(pixels) <= {0, 255}
        assert pixels.count(255) == res.topology.count()

    def test_all_solid_pgm_all_255(self, tmp_path):
        from topt.mesh import TopologyState
        from topt.optimizer import OptimizationResult
        p = parse_problem(MINIMAL)
        res = OptimizationResult(
            topology=TopologyState.full(p.mesh), history=[], feasible=True,
            message="t", fea_count=0, constraint_values=[1.0],
            rel_compliance=[1.0])
        outputs.write_density_pgm(p, res, tmp_path / "d.pgm")
        lines = (tmp_path / "d.pgm").read_text().splitlines()
        pixels = {int(v) for row in lines[3:] for v in row.split()}
        assert pixels == {255}

    def test_history_rows(self, small_result, tmp_path):
        p, res = small_result
        outputs.write_outputs(p, res, tmp_path)
        lines = (tmp_path / "history.csv").read_text().splitlines()
        assert lines[0].startswith("step,target_vf,achieved_vf,rel_compliance,g_1")
        assert len(lines) == 1 + len(res.history)

    @pytest.mark.parametrize("constraints, optimizer_keys, columns", [
        ("displacement = 1 2.0 0.5 0.0 -1.0 1.5\ncompliance = 1 3.0\n", "",
         ["g_1", "g_2", "mu_1", "mu_2", "gamma_1", "gamma_2"]),
        ("", "target_vf = 0.8\n", []),
    ], ids=["two-constraints", "target-vf-only"])
    def test_history_header_has_one_column_set_per_constraint(
            self, tmp_path, constraints, optimizer_keys, columns):
        text = (MINIMAL.split("[constraints]")[0] + "[constraints]\n" + constraints
                + "\n[optimizer]\ntrack_condition = off\nmax_total_fea = 6\n" + optimizer_keys)
        p = parse_problem(text)
        res = optimizer.run(p)
        assert len(res.constraint_values) == len(p.constraints) == len(columns) // 3
        outputs.write_history_csv(res, tmp_path / "history.csv")
        header, *rows = (tmp_path / "history.csv").read_text().splitlines()
        assert header.split(",") == (["step", "target_vf", "achieved_vf", "rel_compliance"]
                                     + columns + ["fea_count", "cond_estimate"])
        assert rows and all(len(row.split(",")) == len(header.split(",")) for row in rows)

    def test_history_cells_are_plain_numbers(self, small_result, tmp_path):
        p, res = small_result
        outputs.write_outputs(p, res, tmp_path)
        header, *rows = (tmp_path / "history.csv").read_text().splitlines()
        for row in rows:
            cells = row.split(",")
            assert len(cells) == len(header.split(","))
            for cell in cells:
                if cell:
                    float(cell)

    def test_vtk_structure(self, small_result, tmp_path):
        p, res = small_result
        outputs.write_outputs(p, res, tmp_path)
        text = (tmp_path / "result.vtk").read_text()
        assert text.startswith("# vtk DataFile Version 2.0")
        assert f"POINTS {p.mesh.n_nodes} double" in text
        assert f"CELLS {p.mesh.n_elements} {5 * p.mesh.n_elements}" in text
        assert f"CELL_DATA {p.mesh.n_elements}" in text
        for name in ("density", "von_mises", "T_L"):
            assert f"SCALARS {name} double 1" in text

    def test_vtk_points_are_plain_numbers(self, small_result, tmp_path):
        p, res = small_result
        outputs.write_outputs(p, res, tmp_path)
        lines = (tmp_path / "result.vtk").read_text().splitlines()
        start = lines.index(f"POINTS {p.mesh.n_nodes} double") + 1
        points = lines[start:start + p.mesh.n_nodes]
        assert lines[start + p.mesh.n_nodes].startswith("CELLS ")
        parsed = [[float(tok) for tok in line.split()] for line in points]
        assert all(len(xyz) == 3 for xyz in parsed)
        assert [xyz[:2] for xyz in parsed] == p.mesh.nodes.tolist()

    @pytest.mark.parametrize("case", ["scale-1", "scale-2", "no-analysis-no-field"])
    def test_vtk_blocks_equal_one_shot(self, builtin_run, tmp_path, case):
        # written a block of lines at a time, the bytes are those of every
        # line joined and written at once
        if case == "scale-1":
            p, res = builtin_run("l-bracket-single")
        else:
            p = builtin_problem("l-bracket-single", mesh_scale=2 if case == "scale-2" else 1)
            rng = np.random.default_rng(7)
            solid = rng.random(p.mesh.n_elements) < 0.6
            analysis = (fem.analyze(p.mesh, p.boundary, p.material, TopologyState.full(p.mesh))
                        if case == "scale-2" else None)
            res = OptimizationResult(
                topology=TopologyState(solid), history=[], feasible=True, message="t",
                fea_count=0, analysis=analysis,
                field=rng.normal(size=p.mesh.n_elements) if case == "scale-2" else None)
        assert p.mesh.n_nodes > outputs._BLOCK or case != "scale-2"
        outputs.write_vtk(p, res, tmp_path / "blocks.vtk")
        write_vtk_at_once(p, res, tmp_path / "at_once.vtk")
        assert (tmp_path / "blocks.vtk").read_bytes() == (tmp_path / "at_once.vtk").read_bytes()

    def test_vtk_special_values_equal_one_shot(self, tmp_path):
        # each value's text is made once, keyed by its bits: both zeros, NaNs
        # of either sign and another payload, both infinities, the smallest
        # subnormal, both notations of repr and its longest texts (24
        # characters), each occurring many times
        p = builtin_problem("l-bracket-single")
        payload = np.array([0x7FF8000000000001]).view(np.float64)[0]
        values = np.array([-0.0, 0.0, np.nan, -np.nan, payload, np.inf, -np.inf, 5e-324,
                           -5e-324, 1e16, 1e-5, 1e-4, 0.1, 1 / 3, 2.0**53, -7.25,
                           -2.2250738585072014e-308, -1.7976931348623157e308])
        rng = np.random.default_rng(3)
        n = p.mesh.n_elements
        res = OptimizationResult(
            topology=TopologyState(rng.random(n) < 0.5), history=[], feasible=True,
            message="t", fea_count=0, field=rng.choice(values, n),
            analysis=SimpleNamespace(vonmises=[rng.choice(values, n)]))
        outputs.write_vtk(p, res, tmp_path / "blocks.vtk")
        write_vtk_at_once(p, res, tmp_path / "at_once.vtk")
        text = (tmp_path / "blocks.vtk").read_bytes()
        assert text == (tmp_path / "at_once.vtk").read_bytes()
        lines = set(text.decode().splitlines())
        assert {"-0.0", "0.0", "nan", "inf", "-inf", "5e-324", "1e+16", "1e-05",
                "-2.2250738585072014e-308"} <= lines

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.floats(width=64), min_size=1, max_size=300),
           st.integers(1, 2 * outputs._BLOCK + 3), st.sampled_from([1, 2]))
    def test_rows_are_repr_per_value(self, values, n_rows, width):
        # the drawn values recur, cyclically, over rows spanning several blocks
        data = np.resize(np.array(values), (n_rows, width))
        line = "%s %s 0.0" if width == 2 else "%s"
        fh = io.BytesIO()
        outputs._write_rows(fh, data if width == 2 else data[:, 0], line.encode())
        assert fh.getvalue().decode() == "".join(line % tuple(map(repr, row)) + "\n"
                                        for row in data.tolist())

    @pytest.mark.parametrize("scale", [1, 2])
    @pytest.mark.parametrize("design", ["full", "random"])
    def test_pgm_equals_per_pixel(self, tmp_path, scale, design):
        # the masked L-bracket: masked cells are void in both
        p = builtin_problem("l-bracket-single", mesh_scale=scale)
        topo = (TopologyState.full(p.mesh) if design == "full" else
                TopologyState(np.random.default_rng(scale).random(p.mesh.n_elements) < 0.5))
        res = OptimizationResult(topology=topo, history=[], feasible=True, message="t",
                                 fea_count=0)
        outputs.write_density_pgm(p, res, tmp_path / "lookup.pgm")
        write_density_pgm_per_pixel(p, res, tmp_path / "per_pixel.pgm")
        assert (tmp_path / "lookup.pgm").read_bytes() == (tmp_path / "per_pixel.pgm").read_bytes()

    def test_writing_keeps_the_peak(self, tmp_path):
        # the scale-2 artifacts are written without raising the peak: at most
        # 3 MiB is allocated above the problem and result they come from
        p = builtin_problem("l-bracket-single", mesh_scale=2)
        analysis = fem.analyze(p.mesh, p.boundary, p.material, TopologyState.full(p.mesh))
        analysis.system.release()
        rng = np.random.default_rng(5)
        res = OptimizationResult(
            topology=TopologyState(rng.random(p.mesh.n_elements) < 0.6), history=[],
            feasible=True, message="t", fea_count=1, analysis=analysis,
            field=rng.normal(size=p.mesh.n_elements),
            constraint_values=[1.0, 1.0], rel_compliance=[1.0])
        tracemalloc.start()
        try:
            outputs.write_outputs(p, res, tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20

    def test_summary_mentions_bounds(self, small_result, tmp_path):
        p, res = small_result
        outputs.write_outputs(p, res, tmp_path)
        text = (tmp_path / "summary.txt").read_text()
        assert "final volume fraction" in text
        assert "1.5" in text

    def test_byte_determinism(self, small_result, tmp_path):
        p, res = small_result
        a = tmp_path / "a"
        b = tmp_path / "b"
        outputs.write_outputs(p, res, a)
        outputs.write_outputs(p, res, b)
        for name in ("density.pgm", "result.vtk", "history.csv", "summary.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_full_pipeline_determinism(self, tmp_path):
        text = MINIMAL + "\n[optimizer]\ntrack_condition = off\n"
        blobs = []
        for tag in ("x", "y"):
            p = parse_problem(text)
            res = optimizer.run(p)
            out = tmp_path / tag
            outputs.write_outputs(p, res, out)
            blobs.append((out / "history.csv").read_bytes()
                         + (out / "density.pgm").read_bytes())
        assert blobs[0] == blobs[1]
