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
import os
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import get_type_hints

import numpy as np

from .fem import Material, element_stiffness, lambda_max_bound
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
    constraints: tuple[ConstraintSpec, ...] = ()  # nodes unresolved (-1)
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
                     material: Material, constraints: Iterable[ConstraintSpec],
                     config: OptimizerConfig,
                     source: ProblemConfig | None = None) -> ProblemSpec:
    """Check each constraint, resolve its point to a node, and register that
    node as monitored; errors name the constraint's configuration key."""
    resolved = []
    for c in constraints:
        with _named(f"[constraints] {_CONSTRAINT_KEYS[c.kind]}"):
            resolved.append(c.resolved(mesh))
    boundary.monitor_nodes.update(c.node for c in resolved if c.kind == KIND_DISPLACEMENT)
    return ProblemSpec(name=name, mesh=mesh, boundary=boundary, material=material,
                       constraints=resolved, config=config, source=source)


_CONSTRAINT_KEYS = {KIND_DISPLACEMENT: "displacement", KIND_PNORM_STRESS: "stress",
                    KIND_COMPLIANCE: "compliance"}
# each [optimizer] key is a field, read by its type: bool as on/off, int as
# int, and anything else (an optional float included) as float
_OPTIMIZER_TYPES = get_type_hints(OptimizerConfig)
_SECTION_KEYS = {
    "domain": {"width", "height", "nx", "ny", "mask"},
    "material": {"e", "nu"},
    "supports": {"fix"},
    "loads": {"load"},
    "constraints": set(_CONSTRAINT_KEYS.values()),
    "optimizer": set(_OPTIMIZER_TYPES),
}


@contextmanager
def _named(where: str):
    """Re-raise a ValueError of the block as a ConfigError naming ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _floats(text: str, n: int, where: str) -> list[float]:
    parts = text.split()
    if len(parts) != n:
        raise ConfigError(f"{where}: expected {n} values, got {len(parts)} in {text!r}")
    with _named(where):
        return [float(p) for p in parts]


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
    with _named(where):
        number = float(value)
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

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("domain", "supports", "loads"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    dom = parser["domain"]
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
        if "e" in mat:
            [e_mod] = _floats(mat["e"], 1, "[material] e")
        if "nu" in mat:
            [nu] = _floats(mat["nu"], 1, "[material] nu")

    supports = []
    for e in _entries(parser["supports"].get("fix", "")):
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

    loads = []
    for e in _entries(parser["loads"].get("load", "")):
        case, x, y, dx, dy, mag = _floats(e, 6, "[loads] load")
        dx, dy = _unit(dx, dy, "[loads] load")
        if not math.isfinite(mag):
            raise ConfigError(f"[loads] load: magnitude must be finite, got {mag!r}")
        loads.append(LoadEntry(case=_case(case, "[loads] load"), x=x, y=y, dx=dx, dy=dy,
                               magnitude=mag))
    if not loads:
        raise ConfigError("[loads] defines no point load")

    # range checks wait for the build step (ConstraintSpec.resolved)
    constraints = []
    con = parser["constraints"] if parser.has_section("constraints") else {}
    where = "[constraints] displacement"
    for e in _entries(con.get("displacement", "")):
        case, x, y, dx, dy, bound = _floats(e, 6, where)
        with _named(where):
            point = Point2(x, y)
        constraints.append(ConstraintSpec(KIND_DISPLACEMENT, _case(case, where), bound,
                                          point=point, direction=_unit(dx, dy, where)))
    where = "[constraints] stress"
    for e in _entries(con.get("stress", "")):
        parts = e.split()
        if len(parts) not in (2, 3):
            raise ConfigError(f"{where}: expected 'case bound [p]', got {e!r}")
        with _named(where):
            bound = float(parts[1])
            p = int(parts[2]) if len(parts) == 3 else 8
        constraints.append(ConstraintSpec(KIND_PNORM_STRESS, _case(parts[0], where), bound,
                                          p_exponent=p))
    where = "[constraints] compliance"
    for e in _entries(con.get("compliance", "")):
        case, bound = _floats(e, 2, where)
        constraints.append(ConstraintSpec(KIND_COMPLIANCE, _case(case, where), bound))

    optimizer = tuple(parser["optimizer"].items()) if parser.has_section("optimizer") else ()

    return ProblemConfig(width=width, height=height, nx=nx, ny=ny, masks=masks,
                         e_modulus=e_mod, nu=nu, supports=tuple(supports),
                         loads=tuple(loads), constraints=tuple(constraints),
                         optimizer=optimizer, name=name)


def _optimizer_config(overrides: tuple[tuple[str, str], ...]) -> OptimizerConfig:
    kwargs = {}
    for key, value in overrides:
        kind = _OPTIMIZER_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r} in [optimizer]")
        if kind is bool:
            v = value.strip().lower()
            if v not in {"on", "off", "true", "false", "1", "0"}:
                raise ConfigError(f"[optimizer] {key}: expected on/off, got {value!r}")
            kwargs[key] = v in {"on", "true", "1"}
        else:
            with _named(f"[optimizer] {key}"):
                kwargs[key] = int(value) if kind is int else float(value)
    try:
        return OptimizerConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[optimizer]: {exc}") from exc


def band_bytes_bound(nx: int, ny: int) -> int:
    """Bytes of the full domain's stiffness band on an nx-by-ny grid, at
    most: the sweep along the shorter side is always a candidate order, and
    its DOF band is kd = 2 min(nx, ny) + 5 over 2 (nx + 1)(ny + 1) DOFs."""
    return 8 * 2 * (nx + 1) * (ny + 1) * (2 * min(nx, ny) + 6)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the host does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def build_problem(cfg: ProblemConfig, mesh_scale: int = 1) -> ProblemSpec:
    """Materialize a configuration into a runnable problem."""
    if mesh_scale < 1:
        raise ConfigError("mesh scale must be a positive integer")
    try:
        domain = DomainSpec(width=cfg.width, height=cfg.height,
                            nx=cfg.nx * mesh_scale, ny=cfg.ny * mesh_scale,
                            masked_regions=cfg.masks)
    except ValueError as exc:
        raise ConfigError(f"[domain] {exc}") from exc
    band, memory = band_bytes_bound(domain.nx, domain.ny), _physical_memory()
    if memory is not None and band > memory:
        raise ConfigError(
            f"[domain] nx = {cfg.nx} and ny = {cfg.ny} at mesh scale {mesh_scale} give a "
            f"stiffness band of up to {band / 2**30:.4g} GiB, more than the "
            f"{memory / 2**30:.4g} GiB of physical memory")
    try:
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
        with _named("[loads] load"):
            node = locate_node(mesh, Point2(entry.x, entry.y))
        boundary.point_loads.append(
            PointLoad(case=entry.case, node=node,
                      direction=(entry.dx, entry.dy), magnitude=entry.magnitude))

    with _named("[material] e"):  # the modulus alone, with the default ratio
        Material(E=cfg.e_modulus)
    with _named("[material] nu"):
        material = Material(E=cfg.e_modulus, nu=cfg.nu)
    if not math.isfinite(lambda_max_bound(material)):
        raise ConfigError(f"[material] e: {cfg.e_modulus!r} with nu = {cfg.nu!r} puts the "
                          "stiffness bound 4E/(1 - nu^2) beyond the float range")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(element_stiffness(material, mesh.h)).all()
    if not finite:
        raise ConfigError(f"[material] e = {cfg.e_modulus!r} gives a non-finite element stiffness")
    opt = _optimizer_config(cfg.optimizer)
    try:
        return finalize_problem(cfg.name, mesh, boundary, material, cfg.constraints, opt,
                                source=cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_problem(text: str, name: str = "problem", mesh_scale: int = 1) -> ProblemSpec:
    return build_problem(parse_problem_config(text, name=name), mesh_scale=mesh_scale)


def _constraint_text(c: ConstraintSpec) -> str:
    """One [constraints] entry, without its key."""
    if c.kind == KIND_DISPLACEMENT:
        return (f"{c.case} {c.point.x!r} {c.point.y!r} {c.direction[0]!r} "
                f"{c.direction[1]!r} {c.bound!r}")
    if c.kind == KIND_PNORM_STRESS:
        return f"{c.case} {c.bound!r} {c.p_exponent}"
    return f"{c.case} {c.bound!r}"


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
    if cfg.constraints:
        lines += ["", "[constraints]"]
    for kind, key in _CONSTRAINT_KEYS.items():
        entries = [_constraint_text(c) for c in cfg.constraints if c.kind == kind]
        if entries:
            lines.append(f"{key} = " + " ; ".join(entries))
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
