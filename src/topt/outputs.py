"""Output artifacts: density image, VTK field dump, history, summary.

All writers are deterministic: identical results produce byte-identical
files. Numbers are written with ``repr`` so no precision is lost.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import ProblemSpec
from .optimizer import OptimizationResult
from .sensitivity import KIND_DISPLACEMENT, KIND_PNORM_STRESS

ACTIVE_MARGIN = 0.02  # |g| below this counts as an active constraint


def write_density_pgm(problem: ProblemSpec, result: OptimizationResult, path: Path) -> None:
    """ASCII PGM (P2), one pixel per grid cell, 255 solid / 0 void, top row
    first. Masked (non-design) cells are written as void."""
    mesh = problem.mesh
    nx, ny = mesh.grid_shape
    grid = np.zeros((ny, nx), dtype=int)
    gi, gj = mesh.element_grid[:, 0], mesh.element_grid[:, 1]
    grid[gj, gi] = np.where(result.topology.solid, 255, 0)
    lines = ["P2", f"{nx} {ny}", "255"]
    lines += [" ".join(map(str, row)) for row in grid[::-1].tolist()]
    path.write_text("\n".join(lines) + "\n")


def write_vtk(problem: ProblemSpec, result: OptimizationResult, path: Path) -> None:
    """Legacy ASCII VTK unstructured grid with density, von Mises (envelope
    over load cases), and the final combined level-set as cell data."""
    mesh = problem.mesh
    lines = [
        "# vtk DataFile Version 2.0",
        f"topt result: {problem.name}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
    ]
    lines += [f"{x!r} {y!r} 0.0" for x, y in mesh.nodes.tolist()]
    lines.append(f"CELLS {mesh.n_elements} {5 * mesh.n_elements}")
    lines += ["4 %d %d %d %d" % tuple(quad) for quad in mesh.elements.tolist()]
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines += ["9"] * mesh.n_elements

    density = result.topology.solid.astype(float)
    if result.analysis is not None and result.analysis.vonmises:
        vm = np.maximum.reduce(result.analysis.vonmises)
    else:
        vm = np.zeros(mesh.n_elements)
    t_l = result.field if result.field is not None else np.zeros(mesh.n_elements)

    lines.append(f"CELL_DATA {mesh.n_elements}")
    for name, data in (("density", density), ("von_mises", vm), ("T_L", t_l)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines += map(repr, data.tolist())
    path.write_text("\n".join(lines) + "\n")


def write_history_csv(result: OptimizationResult, path: Path) -> None:
    m = len(result.references)
    header = (["step", "target_vf", "achieved_vf", "rel_compliance"]
              + [f"g_{i + 1}" for i in range(m)]
              + [f"mu_{i + 1}" for i in range(m)]
              + [f"gamma_{i + 1}" for i in range(m)]
              + ["fea_count", "cond_estimate"])
    rows = [",".join(header)]
    for rec in result.history:
        cells = [str(rec.step), repr(rec.target_vf), repr(rec.achieved_vf),
                 repr(rec.max_rel_compliance)]
        cells += [repr(v) for v in rec.g]
        cells += [repr(v) for v in rec.mu]
        cells += [repr(v) for v in rec.gamma]
        cells.append(str(rec.fea_count))
        cells.append("" if rec.cond_estimate is None else repr(rec.cond_estimate))
        rows.append(",".join(cells))
    path.write_text("\n".join(rows) + "\n")


def _constraint_label(spec) -> str:
    if spec.kind == KIND_DISPLACEMENT:
        return (f"displacement ({spec.direction[0]:g},{spec.direction[1]:g}) "
                f"@ ({spec.point.x:g},{spec.point.y:g}) [case {spec.case}]")
    if spec.kind == KIND_PNORM_STRESS:
        return f"p-norm stress (p={spec.p_exponent}) [case {spec.case}]"
    return f"compliance [case {spec.case}]"


def write_summary(problem: ProblemSpec, result: OptimizationResult, path: Path) -> None:
    lines = [
        f"problem: {problem.name}",
        f"status: {'feasible' if result.feasible else 'INFEASIBLE'} ({result.message})",
        f"final volume fraction: {result.topology.volume_fraction!r}",
        f"fea solves: {result.fea_count}",
        "rel compliance per case: " + " ".join(repr(v) for v in result.rel_compliance),
        "",
        f"{'constraint':58s} {'bound':>10s} {'achieved':>12s} {'active':>7s}",
    ]
    for spec, value in zip(problem.constraints, result.constraint_values):
        g = value - spec.bound
        active = "yes" if abs(g) <= ACTIVE_MARGIN else "no"
        lines.append(f"{_constraint_label(spec):58s} {spec.bound:>10g} "
                     f"{value:>12.4f} {active:>7s}")
    path.write_text("\n".join(lines) + "\n")


def write_outputs(problem: ProblemSpec, result: OptimizationResult,
                  out_dir: str | Path) -> list[Path]:
    """Write all artifacts into ``out_dir``; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "density.pgm", out / "result.vtk", out / "history.csv",
             out / "summary.txt"]
    write_density_pgm(problem, result, paths[0])
    write_vtk(problem, result, paths[1])
    write_history_csv(result, paths[2])
    write_summary(problem, result, paths[3])
    return paths
