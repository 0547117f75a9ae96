"""Problem configuration: INI-style parsing, serialization, and building.

The file format is flat key-value sections; comments go on their own lines
and start with '#'. Multiple entries of one kind are separated by ';'.
Unknown sections or keys are rejected.

    [domain]
    width = 1.0
    height = 1.0
    nx = 55
    ny = 55
    # masked rectangles: xmin ymin xmax ymax
    mask = 0.4 0.4 1.0 1.0

    [material]
    e = 2e11
    nu = 0.33

    [supports]
    # box (xmin ymin xmax ymax) plus the fixed directions
    fix = 0.0 1.0 0.4 1.0 xy

    [loads]
    # case x y dx dy magnitude
    load = 1 1.0 0.2 0.0 -1.0 1.0

    [constraints]
    # displacement: case x y dx dy bound
    displacement = 1 1.0 0.2 0.0 -1.0 1.5
    # stress: case bound [p-exponent];  compliance: case bound
    stress = 1 1000.0 8

    [optimizer]
    delta_v = 0.025
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields as dc_fields, replace

import numpy as np

from .fem import Material
from .mesh import (BoundarySpec, DomainSpec, Mesh, Point2, PointLoad, Rect,
                   build_mesh, locate_node)
from .optimizer import OptimizerConfig
from .sensitivity import (KIND_COMPLIANCE, KIND_DISPLACEMENT, KIND_PNORM_STRESS,
                          ConstraintSpec)


class ConfigError(ValueError):
    """Malformed or semantically invalid configuration document."""


@dataclass(frozen=True)
class SupportBox:
    xmin: float
    ymin: float
    xmax: float
    ymax: float
    directions: str  # "x", "y", or "xy"


@dataclass(frozen=True)
class LoadEntry:
    case: int
    x: float
    y: float
    dx: float
    dy: float
    magnitude: float


@dataclass(frozen=True)
class ConstraintEntry:
    kind: str
    case: int
    bound: float
    x: float = 0.0
    y: float = 0.0
    dx: float = 0.0
    dy: float = 0.0
    p: int = 8


@dataclass(frozen=True)
class ProblemConfig:
    """Serializable mirror of one configuration document."""

    width: float
    height: float
    nx: int
    ny: int
    masks: tuple[Rect, ...] = ()
    e_modulus: float = 2e11
    nu: float = 0.33
    supports: tuple[SupportBox, ...] = ()
    loads: tuple[LoadEntry, ...] = ()
    constraints: tuple[ConstraintEntry, ...] = ()
    optimizer: tuple[tuple[str, str], ...] = ()  # raw key-value overrides
    name: str = "problem"


@dataclass
class ProblemSpec:
    """Everything the optimizer needs: mesh, material, loads, constraints."""

    name: str
    mesh: Mesh
    boundary: BoundarySpec
    material: Material
    constraints: list[ConstraintSpec]
    config: OptimizerConfig = field(default_factory=OptimizerConfig)
    source: ProblemConfig | None = None

    def __post_init__(self):
        if not self.boundary.point_loads:
            raise ValueError("a problem needs at least one point load")
        cases = set(self.boundary.load_cases())
        for c in self.constraints:
            if c.case not in cases:
                raise ValueError(f"constraint references load case {c.case}, "
                                 f"defined cases are {sorted(cases)}")
        self.boundary.validate(self.mesh.n_nodes)


def finalize_problem(name: str, mesh: Mesh, boundary: BoundarySpec,
                     material: Material, constraints: list[ConstraintSpec],
                     config: OptimizerConfig,
                     source: ProblemConfig | None = None) -> ProblemSpec:
    """Resolve constraint points to nodes and register them as monitored."""
    resolved = [c.resolved(mesh) for c in constraints]
    for c in resolved:
        if c.kind == KIND_DISPLACEMENT:
            boundary.monitor_nodes.add(c.node)
    return ProblemSpec(name=name, mesh=mesh, boundary=boundary, material=material,
                       constraints=resolved, config=config, source=source)


_OPTIMIZER_KEYS = {f.name for f in dc_fields(OptimizerConfig)} | {"filter"}
_INT_KEYS = {"max_inner_iters", "max_total_fea"}
_BOOL_KEYS = {"filter_enabled", "filter", "track_condition"}
_STR_KEYS = {"multiplier_rule"}


def _floats(text: str, n: int, where: str) -> list[float]:
    parts = text.split()
    if len(parts) != n:
        raise ConfigError(f"{where}: expected {n} values, got {len(parts)} in {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _entries(value: str) -> list[str]:
    return [e.strip() for e in value.split(";") if e.strip()]


def _unit(dx: float, dy: float, where: str) -> tuple[float, float]:
    """Unit vector along (dx, dy). A vector already of unit length to within
    a few ulp is kept verbatim, so the normalized values of a document parse
    back unchanged after serialization."""
    norm = math.hypot(dx, dy)
    if norm == 0 or not math.isfinite(norm):
        raise ConfigError(f"{where}: direction vector must be nonzero and finite")
    if abs(norm - 1.0) <= 4 * math.ulp(1.0):
        return (dx, dy)
    return (dx / norm, dy / norm)


def _case(value: float | str, where: str) -> int:
    """Load case number; a non-integral value is an error, not truncated."""
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if not number.is_integer():
        raise ConfigError(f"{where}: load case must be an integer, got {value!r}")
    return int(number)


def parse_problem_config(text: str, name: str = "problem") -> ProblemConfig:
    """Parse a configuration document; errors carry line numbers where the
    underlying INI reader provides them."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse error: {exc}") from exc

    known_sections = {"domain", "material", "supports", "loads", "constraints", "optimizer"}
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section [{section}]")
    for required in ("domain", "supports", "loads"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    dom = parser["domain"]
    for key in dom:
        if key not in {"width", "height", "nx", "ny", "mask"}:
            raise ConfigError(f"unknown key {key!r} in [domain]")
    try:
        width, height = float(dom["width"]), float(dom["height"])
        nx, ny = int(dom["nx"]), int(dom["ny"])
    except KeyError as exc:
        raise ConfigError(f"[domain] is missing key {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"[domain]: {exc}") from exc
    masks = tuple(Rect(*_floats(e, 4, "[domain] mask"))
                  for e in _entries(dom.get("mask", "")))

    e_mod, nu = 2e11, 0.33
    if parser.has_section("material"):
        mat = parser["material"]
        for key in mat:
            if key not in {"e", "nu"}:
                raise ConfigError(f"unknown key {key!r} in [material]")
        if "e" in mat:
            [e_mod] = _floats(mat["e"], 1, "[material] e")
        if "nu" in mat:
            [nu] = _floats(mat["nu"], 1, "[material] nu")

    sup = parser["supports"]
    for key in sup:
        if key != "fix":
            raise ConfigError(f"unknown key {key!r} in [supports]")
    supports = []
    for e in _entries(sup.get("fix", "")):
        parts = e.split()
        if len(parts) != 5:
            raise ConfigError(f"[supports] fix: expected 'xmin ymin xmax ymax dirs', got {e!r}")
        box = _floats(" ".join(parts[:4]), 4, "[supports] fix")
        dirs = parts[4].lower()
        if dirs not in {"x", "y", "xy"}:
            raise ConfigError(f"[supports] fix: directions must be x, y, or xy, got {dirs!r}")
        supports.append(SupportBox(*box, directions=dirs))
    if not supports:
        raise ConfigError("[supports] defines no fixed region")

    lod = parser["loads"]
    for key in lod:
        if key != "load":
            raise ConfigError(f"unknown key {key!r} in [loads]")
    loads = []
    for e in _entries(lod.get("load", "")):
        case, x, y, dx, dy, mag = _floats(e, 6, "[loads] load")
        dx, dy = _unit(dx, dy, "[loads] load")
        loads.append(LoadEntry(case=_case(case, "[loads] load"), x=x, y=y, dx=dx, dy=dy,
                               magnitude=mag))
    if not loads:
        raise ConfigError("[loads] defines no point load")

    constraints = []
    if parser.has_section("constraints"):
        con = parser["constraints"]
        for key in con:
            if key not in {"displacement", "stress", "compliance"}:
                raise ConfigError(f"unknown key {key!r} in [constraints]")
        for e in _entries(con.get("displacement", "")):
            case, x, y, dx, dy, bound = _floats(e, 6, "[constraints] displacement")
            dx, dy = _unit(dx, dy, "[constraints] displacement")
            constraints.append(ConstraintEntry(
                kind=KIND_DISPLACEMENT, case=_case(case, "[constraints] displacement"),
                bound=bound, x=x, y=y, dx=dx, dy=dy))
        for e in _entries(con.get("stress", "")):
            parts = e.split()
            if len(parts) not in (2, 3):
                raise ConfigError(f"[constraints] stress: expected 'case bound [p]', got {e!r}")
            try:
                bound = float(parts[1])
                p = int(parts[2]) if len(parts) == 3 else 8
            except ValueError as exc:
                raise ConfigError(f"[constraints] stress: {exc}") from exc
            constraints.append(ConstraintEntry(
                kind=KIND_PNORM_STRESS, case=_case(parts[0], "[constraints] stress"),
                bound=bound, p=p))
        for e in _entries(con.get("compliance", "")):
            case, bound = _floats(e, 2, "[constraints] compliance")
            constraints.append(ConstraintEntry(
                kind=KIND_COMPLIANCE, case=_case(case, "[constraints] compliance"), bound=bound))

    optimizer: list[tuple[str, str]] = []
    if parser.has_section("optimizer"):
        for key, value in parser["optimizer"].items():
            if key not in _OPTIMIZER_KEYS:
                raise ConfigError(f"unknown key {key!r} in [optimizer]")
            optimizer.append((key, value))

    return ProblemConfig(width=width, height=height, nx=nx, ny=ny, masks=masks,
                         e_modulus=e_mod, nu=nu, supports=tuple(supports),
                         loads=tuple(loads), constraints=tuple(constraints),
                         optimizer=tuple(optimizer), name=name)


def _optimizer_config(overrides: tuple[tuple[str, str], ...]) -> OptimizerConfig:
    if {"filter", "filter_enabled"} <= {key for key, _ in overrides}:
        raise ConfigError("[optimizer]: filter and filter_enabled name one setting; "
                          "set only one of them")
    kwargs = {}
    for key, value in overrides:
        if key == "filter":
            key = "filter_enabled"
        if key in _BOOL_KEYS:
            v = value.strip().lower()
            if v not in {"on", "off", "true", "false", "1", "0"}:
                raise ConfigError(f"[optimizer] {key}: expected on/off, got {value!r}")
            kwargs[key] = v in {"on", "true", "1"}
        elif key in _STR_KEYS:
            kwargs[key] = value.strip()
        else:
            try:
                kwargs[key] = int(value) if key in _INT_KEYS else float(value)
            except ValueError as exc:
                raise ConfigError(f"[optimizer] {key}: {exc}") from exc
    try:
        return OptimizerConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[optimizer]: {exc}") from exc


def build_problem(cfg: ProblemConfig, mesh_scale: int = 1) -> ProblemSpec:
    """Materialize a configuration into a runnable problem."""
    if mesh_scale < 1:
        raise ConfigError("mesh scale must be a positive integer")
    try:
        domain = DomainSpec(width=cfg.width, height=cfg.height,
                            nx=cfg.nx * mesh_scale, ny=cfg.ny * mesh_scale,
                            masked_regions=cfg.masks)
        mesh, boundary = build_mesh(domain)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    tol = 1e-9 * max(cfg.width, cfg.height)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    for box in cfg.supports:
        hits = np.flatnonzero((box.xmin - tol <= x) & (x <= box.xmax + tol)
                              & (box.ymin - tol <= y) & (y <= box.ymax + tol))
        if len(hits) == 0:
            raise ConfigError(f"support box {box} matches no node")
        for n in hits.tolist():
            boundary.fix_node(n, box.directions)

    for entry in cfg.loads:
        node = locate_node(mesh, Point2(entry.x, entry.y))
        boundary.point_loads.append(
            PointLoad(case=entry.case, node=node,
                      direction=(entry.dx, entry.dy), magnitude=entry.magnitude))

    constraints = []
    for c in cfg.constraints:
        if c.kind == KIND_DISPLACEMENT:
            constraints.append(ConstraintSpec(
                kind=c.kind, case=c.case, bound=c.bound,
                point=Point2(c.x, c.y), direction=(c.dx, c.dy)))
        elif c.kind == KIND_PNORM_STRESS:
            constraints.append(ConstraintSpec(kind=c.kind, case=c.case,
                                              bound=c.bound, p_exponent=c.p))
        else:
            constraints.append(ConstraintSpec(kind=c.kind, case=c.case, bound=c.bound))

    material = Material(E=cfg.e_modulus, nu=cfg.nu)
    opt = _optimizer_config(cfg.optimizer)
    try:
        return finalize_problem(cfg.name, mesh, boundary, material, constraints, opt,
                                source=cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_problem(text: str, name: str = "problem", mesh_scale: int = 1) -> ProblemSpec:
    return build_problem(parse_problem_config(text, name=name), mesh_scale=mesh_scale)


def serialize_problem_config(cfg: ProblemConfig) -> str:
    """Canonical text form; parse_problem_config round-trips it exactly."""
    lines = ["[domain]",
             f"width = {cfg.width!r}",
             f"height = {cfg.height!r}",
             f"nx = {cfg.nx}",
             f"ny = {cfg.ny}"]
    if cfg.masks:
        masks = " ; ".join(f"{m.xmin!r} {m.ymin!r} {m.xmax!r} {m.ymax!r}" for m in cfg.masks)
        lines.append(f"mask = {masks}")
    lines += ["", "[material]", f"e = {cfg.e_modulus!r}", f"nu = {cfg.nu!r}"]
    lines += ["", "[supports]",
              "fix = " + " ; ".join(
                  f"{b.xmin!r} {b.ymin!r} {b.xmax!r} {b.ymax!r} {b.directions}"
                  for b in cfg.supports)]
    lines += ["", "[loads]",
              "load = " + " ; ".join(
                  f"{p.case} {p.x!r} {p.y!r} {p.dx!r} {p.dy!r} {p.magnitude!r}"
                  for p in cfg.loads)]
    disp = [c for c in cfg.constraints if c.kind == KIND_DISPLACEMENT]
    stress = [c for c in cfg.constraints if c.kind == KIND_PNORM_STRESS]
    comp = [c for c in cfg.constraints if c.kind == KIND_COMPLIANCE]
    if disp or stress or comp:
        lines += ["", "[constraints]"]
        if disp:
            lines.append("displacement = " + " ; ".join(
                f"{c.case} {c.x!r} {c.y!r} {c.dx!r} {c.dy!r} {c.bound!r}" for c in disp))
        if stress:
            lines.append("stress = " + " ; ".join(
                f"{c.case} {c.bound!r} {c.p}" for c in stress))
        if comp:
            lines.append("compliance = " + " ; ".join(
                f"{c.case} {c.bound!r}" for c in comp))
    if cfg.optimizer:
        lines += ["", "[optimizer]"]
        lines += [f"{k} = {v}" for k, v in cfg.optimizer]
    return "\n".join(lines) + "\n"


def serialize_problem(problem: ProblemSpec) -> str:
    if problem.source is None:
        raise ConfigError(f"problem {problem.name!r} carries no configuration source")
    return serialize_problem_config(problem.source)


def with_overrides(cfg: ProblemConfig, **optimizer_overrides) -> ProblemConfig:
    """Config copy with optimizer keys replaced (values stringified)."""
    table = dict(cfg.optimizer)
    for key, value in optimizer_overrides.items():
        if value is None:
            continue
        if isinstance(value, bool):
            table[key] = "on" if value else "off"
        else:
            table[key] = repr(value)
    return replace(cfg, optimizer=tuple(sorted(table.items())))
