"""Built-in benchmark problems.

Geometry follows the standard configurations: the L-bracket is a unit
square with the top-right 0.6 x 0.6 region removed, clamped along the top
edge of the vertical arm and loaded at the mid-height of the horizontal
arm's tip; the cantilever is a 2 x 1 rectangle clamped on the left edge and
loaded at the middle of the right edge (point 'a') with a secondary point
of interest 'q' at the middle of the top edge; the Mitchell bridge is a
2 x 1 rectangle pinned at its bottom corners and loaded at the middle of
the bottom edge. Mesh densities are the closest square-element grids to
2000 elements (1936 for the L-bracket, 2048 for the 2 x 1 domains); the
multi-load variants add a horizontal load case at the same load node.
"""

from __future__ import annotations

from dataclasses import replace

from .config import LoadEntry, ProblemConfig, ProblemSpec, SupportBox, build_problem
from .mesh import BoundarySpec, Point2, Rect
from .sensitivity import KIND_DISPLACEMENT, KIND_PNORM_STRESS, ConstraintSpec

BUILTIN_NAMES = ("l-bracket-single", "l-bracket-multi", "cantilever-single",
                 "cantilever-multi", "mitchell-multi")

DOWN = (0.0, -1.0)
RIGHT = (1.0, 0.0)


def _disp(case, x, y, d, bound):
    return ConstraintSpec(KIND_DISPLACEMENT, case, bound, point=Point2(x, y), direction=d)


def _stress(case, bound):
    return ConstraintSpec(KIND_PNORM_STRESS, case, bound)


def builtin_config(name: str, delta_max: float | None = None,
                   sigma_max: float | None = None) -> ProblemConfig:
    """Configuration of one built-in benchmark; ``delta_max`` / ``sigma_max``
    override every displacement / stress bound."""
    if name not in BUILTIN_NAMES:
        raise ValueError(f"unknown problem {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    d = 1.5 if delta_max is None else delta_max
    s = 1.5 if sigma_max is None else sigma_max

    if name == "l-bracket-single":
        return ProblemConfig(
            name=name, width=1.0, height=1.0, nx=55, ny=55,
            masks=(Rect(0.4, 0.4, 1.0, 1.0),),
            supports=(SupportBox(0.0, 1.0, 0.4, 1.0, "xy"),),
            loads=(LoadEntry(1, 1.0, 0.2, *DOWN, 1.0),),
            constraints=(
                _disp(1, 1.0, 0.2, DOWN, d),
                _stress(1, 1000.0 if sigma_max is None else sigma_max),
            ))
    if name == "l-bracket-multi":
        return ProblemConfig(
            name=name, width=1.0, height=1.0, nx=55, ny=55,
            masks=(Rect(0.4, 0.4, 1.0, 1.0),),
            supports=(SupportBox(0.0, 1.0, 0.4, 1.0, "xy"),),
            loads=(LoadEntry(1, 1.0, 0.2, *DOWN, 1.0),
                   LoadEntry(2, 1.0, 0.2, *RIGHT, 1.0)),
            constraints=(
                _disp(1, 1.0, 0.2, DOWN, d),
                _disp(2, 1.0, 0.2, RIGHT, d),
                _stress(1, s),
                _stress(2, s),
            ))
    if name == "cantilever-single":
        return ProblemConfig(
            name=name, width=2.0, height=1.0, nx=64, ny=32,
            supports=(SupportBox(0.0, 0.0, 0.0, 1.0, "xy"),),
            loads=(LoadEntry(1, 2.0, 0.5, *DOWN, 1.0),),
            constraints=(
                _disp(1, 2.0, 0.5, DOWN, d),   # point 'a'
                _disp(1, 1.0, 1.0, DOWN, d),   # point 'q'
            ))
    if name == "cantilever-multi":
        return ProblemConfig(
            name=name, width=2.0, height=1.0, nx=64, ny=32,
            supports=(SupportBox(0.0, 0.0, 0.0, 1.0, "xy"),),
            loads=(LoadEntry(1, 2.0, 0.5, *DOWN, 1.0),
                   LoadEntry(2, 2.0, 0.5, *RIGHT, 1.0)),
            constraints=(
                _disp(1, 2.0, 0.5, DOWN, d),
                _disp(2, 2.0, 0.5, RIGHT, d),
            ))
    # mitchell-multi
    return ProblemConfig(
        name=name, width=2.0, height=1.0, nx=64, ny=32,
        supports=(SupportBox(0.0, 0.0, 0.0, 0.0, "xy"),
                  SupportBox(2.0, 0.0, 2.0, 0.0, "xy")),
        loads=(LoadEntry(1, 1.0, 0.0, *DOWN, 1.0),
               LoadEntry(2, 1.0, 0.0, *RIGHT, 1.0)),
        constraints=(
            _disp(1, 1.0, 0.0, DOWN, d),
            _disp(2, 1.0, 0.0, RIGHT, d),
            _stress(1, s),
            _stress(2, s),
        ))


def builtin_problem(name: str, delta_max: float | None = None,
                    sigma_max: float | None = None, mesh_scale: int = 1) -> ProblemSpec:
    return build_problem(builtin_config(name, delta_max=delta_max, sigma_max=sigma_max),
                         mesh_scale=mesh_scale)


def scale_loads(problem: ProblemSpec, factor: float) -> ProblemSpec:
    """Copy of the problem with every point-load magnitude multiplied by
    ``factor``, in its configuration source too (used to exercise
    load-scale invariance)."""
    boundary = BoundarySpec(
        fixed_dofs=set(problem.boundary.fixed_dofs),
        point_loads=[replace(p, magnitude=p.magnitude * factor)
                     for p in problem.boundary.point_loads],
        monitor_nodes=set(problem.boundary.monitor_nodes),
    )
    source = None if problem.source is None else replace(problem.source, loads=tuple(
        replace(e, magnitude=e.magnitude * factor) for e in problem.source.loads))
    return ProblemSpec(name=problem.name, mesh=problem.mesh,
                       boundary=boundary, material=problem.material,
                       constraints=list(problem.constraints), config=problem.config,
                       source=source)
