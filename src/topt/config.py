"""Problem configuration: INI-style parsing, serialization, and building.

The README's "Configuration format" describes the document with an example.
``_KEYS`` defines each of its keys but those of ``[optimizer]``, which are
the fields of ``OptimizerConfig``.
"""

from __future__ import annotations

import configparser
import math
import os
from collections.abc import Callable, Iterable
from contextlib import contextmanager
from dataclasses import MISSING, astuple, dataclass, field, fields, replace
from inspect import signature
from typing import Any, get_type_hints

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
    directions: str

    def __post_init__(self):
        if self.directions not in {"x", "y", "xy"}:
            raise ValueError(f"directions must be x, y, or xy, got {self.directions!r}")


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


@contextmanager
def _named(where: str):
    """Re-raise a ValueError of the block as a ConfigError naming ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _unit(dx: float, dy: float) -> tuple[float, float]:
    """Unit vector along (dx, dy). A vector already of unit length to within
    a few ulp is kept verbatim, so the normalized values of a document parse
    back unchanged after serialization."""
    norm = math.hypot(dx, dy)
    if norm == 0 or not math.isfinite(norm):
        raise ValueError("direction vector must be nonzero and finite")
    if abs(norm - 1.0) <= 4 * math.ulp(1.0):
        return (dx, dy)
    return (dx / norm, dy / norm)


def _case(text: str) -> int:
    """Load case number; a non-integral value is an error, not truncated."""
    number = float(text)
    if not number.is_integer():
        raise ValueError(f"load case must be an integer, got {text!r}")
    return int(number)


def _load(case, x, y, dx, dy, magnitude) -> LoadEntry:
    dx, dy = _unit(dx, dy)
    if not math.isfinite(magnitude):
        raise ValueError(f"magnitude must be finite, got {magnitude!r}")
    return LoadEntry(case, x, y, dx, dy, magnitude)


def _displacement(case, x, y, dx, dy, bound) -> ConstraintSpec:
    return ConstraintSpec(KIND_DISPLACEMENT, case, bound, point=Point2(x, y),
                          direction=_unit(dx, dy))


@dataclass(frozen=True)
class _Key:
    """One document key: its section, the ``ProblemConfig`` field it fills
    and one parser per value. A key of ';'-separated entries also has the
    entry's constructor, whose trailing arguments with defaults are optional
    values, and the inverse giving back an entry's values; ``kind`` picks
    out this key's entries where keys share a field."""

    section: str
    field: str
    parsers: tuple[Callable[[str], Any], ...]
    make: Callable[..., Any] | None = None
    values: Callable[[Any], tuple] = astuple
    kind: str | None = None

    def parse(self, text: str, where: str) -> Any:
        """One entry, or the one value of a key without a constructor."""
        parts, most = text.split(), len(self.parsers)
        least = most if self.make is None else sum(
            p.default is p.empty for p in signature(self.make).parameters.values())
        if not least <= len(parts) <= most:
            count = most if least == most else f"{least} or {most}"
            raise ConfigError(f"{where}: expected {count} values, got {len(parts)} in {text!r}")
        with _named(where):
            values = [convert(part) for convert, part in zip(self.parsers, parts)]
            return values[0] if self.make is None else self.make(*values)


# parsing checks the syntax; the ranges wait for the build step
_KEYS = {
    "width": _Key("domain", "width", (float,)),
    "height": _Key("domain", "height", (float,)),
    "nx": _Key("domain", "nx", (int,)),
    "ny": _Key("domain", "ny", (int,)),
    "mask": _Key("domain", "masks", (float,) * 4, Rect),
    "e": _Key("material", "e_modulus", (float,)),
    "nu": _Key("material", "nu", (float,)),
    "fix": _Key("supports", "supports", (float,) * 4 + (str.lower,), SupportBox),
    "load": _Key("loads", "loads", (_case,) + (float,) * 5, _load),
    "displacement": _Key("constraints", "constraints", (_case,) + (float,) * 5, _displacement,
                         lambda c: (c.case, c.point.x, c.point.y, *c.direction, c.bound),
                         KIND_DISPLACEMENT),
    "stress": _Key("constraints", "constraints", (_case, float, int), lambda case, bound, p=8:
                   ConstraintSpec(KIND_PNORM_STRESS, case, bound, p_exponent=p),
                   lambda c: (c.case, c.bound, c.p_exponent), KIND_PNORM_STRESS),
    "compliance": _Key("constraints", "constraints", (_case, float),
                       lambda case, bound: ConstraintSpec(KIND_COMPLIANCE, case, bound),
                       lambda c: (c.case, c.bound), KIND_COMPLIANCE),
}
_REQUIRED = {f.name for f in fields(ProblemConfig) if f.default is MISSING}
_CONSTRAINT_KEYS = {spec.kind: key for key, spec in _KEYS.items() if spec.kind}
# each [optimizer] key is a field, read by its type: bool as on/off, int as
# int, and anything else (an optional float included) as float
_OPTIMIZER_TYPES = get_type_hints(OptimizerConfig)
_SECTION_KEYS = {spec.section: {k for k, s in _KEYS.items() if s.section == spec.section}
                 for spec in _KEYS.values()} | {"optimizer": set(_OPTIMIZER_TYPES)}


def parse_problem_config(text: str, name: str = "problem") -> ProblemConfig:
    """Parse a configuration document; errors carry line numbers where the
    underlying INI reader provides them."""
    # a default section no header can spell: [DEFAULT] is an unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
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

    kwargs = {"name": name}
    for key, spec in _KEYS.items():
        where = f"[{spec.section}] {key}"
        if not parser.has_option(spec.section, key):
            if spec.field in _REQUIRED:
                raise ConfigError(f"[{spec.section}] is missing key {key!r}")
        elif spec.make is None:
            kwargs[spec.field] = spec.parse(parser[spec.section][key], where)
        else:
            kwargs[spec.field] = kwargs.get(spec.field, ()) + tuple(
                spec.parse(e.strip(), where) for e in parser[spec.section][key].split(";")
                if e.strip())
    if not kwargs.get("supports"):
        raise ConfigError("[supports] defines no fixed region")
    if not kwargs.get("loads"):
        raise ConfigError("[loads] defines no point load")
    if parser.has_section("optimizer"):
        kwargs["optimizer"] = tuple(parser["optimizer"].items())
    return ProblemConfig(**kwargs)


def _on_off(text: str) -> bool:
    value = text.strip().lower()
    if value not in {"on", "off", "true", "false", "1", "0"}:
        raise ValueError(f"expected on/off, got {text!r}")
    return value in {"on", "true", "1"}


def _optimizer_config(overrides: tuple[tuple[str, str], ...]) -> OptimizerConfig:
    kwargs = {}
    for key, value in overrides:
        kind = _OPTIMIZER_TYPES.get(key)
        if kind is None:
            raise ConfigError(f"unknown key {key!r} in [optimizer]")
        with _named(f"[optimizer] {key}"):
            kwargs[key] = {bool: _on_off, int: int}.get(kind, float)(value)
    try:
        return OptimizerConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[optimizer]: {exc}") from exc


def band_bytes_bound(nx: int, ny: int) -> int:
    """Bytes of the full domain's stiffness bands on an nx-by-ny grid, at
    most: the sweep along the shorter side is always a candidate order, and
    its DOF band is kd = 2 min(nx, ny) + 5 over 2 (nx + 1)(ny + 1) DOFs.
    A mesh numbered in blocks instead holds fewer doubles than its best one
    band, n (kd + 1): the blocks are chosen only when the sum of n_k kd_k^2
    is below n kd^2, and the n_k sum to n, so by Cauchy-Schwarz the sum of
    n_k kd_k is at most sqrt(n sum n_k kd_k^2) < n kd. (The junction's band
    already covers its Schur update, whose interfaces are a run of its
    first front.)"""
    return 8 * 2 * (nx + 1) * (ny + 1) * (2 * min(nx, ny) + 6)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the host does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _finite_stiffness(material: Material, h: float) -> bool:
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.isfinite(element_stiffness(material, h)).all())


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
    if not _finite_stiffness(material, mesh.h):
        # ke does not depend on h, but forming it takes 2/h and (h/2)^2
        where = (f"[domain] width/nx: element size {mesh.h!r}" if _finite_stiffness(material, 1.0)
                 else f"[material] e = {cfg.e_modulus!r}")
        raise ConfigError(f"{where} gives a non-finite element stiffness")
    opt = _optimizer_config(cfg.optimizer)
    try:
        return finalize_problem(cfg.name, mesh, boundary, material, cfg.constraints, opt,
                                source=cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_problem(text: str, name: str = "problem", mesh_scale: int = 1) -> ProblemSpec:
    return build_problem(parse_problem_config(text, name=name), mesh_scale=mesh_scale)


def serialize_problem_config(cfg: ProblemConfig) -> str:
    """Canonical text form; parse_problem_config round-trips it exactly."""
    sections: dict[str, list[str]] = {}
    for key, spec in _KEYS.items():
        value = getattr(cfg, spec.field)
        entries = ([(value,)] if spec.make is None else
                   [spec.values(e) for e in value if getattr(e, "kind", None) == spec.kind])
        if entries:
            sections.setdefault(spec.section, []).append(f"{key} = " + " ; ".join(
                " ".join(v if isinstance(v, str) else repr(v) for v in entry)
                for entry in entries))
    sections["optimizer"] = [f"{k} = {v}" for k, v in cfg.optimizer]
    return "\n\n".join(f"[{section}]\n" + "\n".join(lines)
                       for section, lines in sections.items() if lines) + "\n"


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
