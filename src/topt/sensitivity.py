"""Adjoint problems and per-element topological sensitivity fields.

Sign convention. The closed-form sensitivity

    T = -4/(1+nu) * sigma(u):eps(lambda) + (1-3nu)/(1-nu^2) * tr sigma(u) * tr eps(lambda)

with the adjoint defined by K lambda = -dQ/du makes the compliance field
(lambda = -u) positive where removing material hurts most; that orientation
is pinned by the hole-drilling oracle in the test suite. Constraint fields
handed to the augmented-Lagrangian combination are the derivatives of the
*margin* (bound - raw/reference), i.e. the negated, reference-scaled
sensitivity of the raw quantity: they are negative on constraint-critical
elements, so the combination ``T_obj - sum c_i T_gi`` raises exactly those
elements above the constant volume field and the threshold cut keeps them.

Adjoints. ``constant_adjoints`` resolves each constraint's adjoint once per
run: lambda = c * u_j when -dQ/du is c times load case j's force vector (the
compliance and a displacement at a point of force application), else a
constant right-hand side solved once per analysis (a remote displacement),
else None, a right-hand side built from each analysis (p-norm stress).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fem
from .mesh import BoundarySpec, Mesh, Point2, locate_node

PROTECTED_VALUE = 2.0

KIND_DISPLACEMENT = "point_displacement"
KIND_PNORM_STRESS = "pnorm_stress"
KIND_COMPLIANCE = "compliance"
CONSTRAINT_KINDS = (KIND_DISPLACEMENT, KIND_PNORM_STRESS, KIND_COMPLIANCE)


@dataclass(frozen=True)
class ConstraintSpec:
    """One inequality constraint, bounded relative to its initial value. A
    configuration holds it unchecked with node -1; ``resolved`` checks it."""

    kind: str
    case: int
    bound: float
    point: Point2 | None = None
    direction: tuple[float, float] | None = None
    p_exponent: int = 8
    node: int = -1  # set by resolved()

    def __post_init__(self):
        if self.kind not in CONSTRAINT_KINDS:
            raise ValueError(f"unknown constraint kind {self.kind!r}")

    def resolved(self, mesh: Mesh) -> "ConstraintSpec":
        """Checked copy, with a displacement constraint's node located at its
        point. Parsing checks syntax only; the value ranges are checked here."""
        if not 0 < self.bound < np.inf:
            raise ValueError(f"constraint bound must be positive and finite, got {self.bound}")
        if self.kind == KIND_PNORM_STRESS and (self.p_exponent < 2 or self.p_exponent % 2):
            raise ValueError(f"p exponent must be even and >= 2, got {self.p_exponent}")
        if self.kind != KIND_DISPLACEMENT:
            return self
        if self.point is None or self.direction is None:
            raise ValueError("displacement constraints need a point and direction")
        if abs(np.hypot(*self.direction) - 1.0) > 1e-9:
            raise ValueError(f"constraint direction {self.direction} is not a unit vector")
        return replace(self, node=locate_node(mesh, self.point))


def normalize_and_protect(values: np.ndarray,
                          protected: np.ndarray | None = None) -> np.ndarray:
    """Scale so max|T| over non-protected elements is 1, then pin protected
    elements to +2 (strictly above any normalized value). An all-zero field
    is returned as an equal copy."""
    free = values if protected is None else values[~protected]
    peak = np.max(np.abs(free)) if free.size else 0.0
    out = values / peak if peak != 0.0 else values.copy()
    if protected is not None:
        out[protected] = PROTECTED_VALUE
    return out


def protected_elements(mesh: Mesh, boundary: BoundarySpec) -> np.ndarray:
    """Elements pinned solid: the patch around every loaded, fixed, and
    monitored node. Point loads and point constraints are singular sites;
    keeping their patches out of the ranking prevents the spike from
    dominating the field and the cut from ever exposing them."""
    nodes = [*boundary.fixed_nodes(), *boundary.loaded_nodes(), *boundary.monitor_nodes]
    return np.isin(mesh.elements, nodes).any(axis=1)


def topo_sensitivity(s: np.ndarray, e: np.ndarray, nu: float) -> np.ndarray:
    """Closed-form 2-D topological sensitivity from the primal stress ``s``
    and the adjoint strain ``e``, both (n_elements, 3) tensor components
    (zero wherever either is zero, i.e. on void elements)."""
    contraction = s[:, 0] * e[:, 0] + s[:, 1] * e[:, 1] + 2.0 * s[:, 2] * e[:, 2]
    traces = (s[:, 0] + s[:, 1]) * (e[:, 0] + e[:, 1])
    return -4.0 / (1.0 + nu) * contraction + (1.0 - 3.0 * nu) / (1.0 - nu * nu) * traces


def adjoint_rhs_point_displacement(mesh: Mesh, boundary: BoundarySpec,
                                   node: int, direction: tuple[float, float]) -> np.ndarray:
    """Right-hand side -dQ/du for Q = direction . u(node)."""
    rhs = np.zeros(mesh.n_dofs)
    live = False
    for d, comp in enumerate(direction):
        if comp == 0.0:
            continue
        if (node, d) in boundary.fixed_dofs:
            continue
        rhs[2 * node + d] = -comp
        live = True
    if not live:
        raise ValueError(f"constraint point at node {node} is fixed in the constrained "
                         "direction; the constraint is vacuous")
    return rhs


def _pnorm(s: np.ndarray, p: int) -> tuple[float, np.ndarray]:
    """Global p-norm of the positive entries of ``s`` and their mask,
    computed in scaled form so large exponents cannot overflow."""
    live = s > 0.0
    if not live.any():
        return 0.0, live
    t = s[live]
    m = t.max()
    return float(m * np.sum((t / m) ** p) ** (1.0 / p)), live


def pnorm_stress(vonmises: np.ndarray, include: np.ndarray, p: int) -> float:
    """Global p-norm of the included elements' von Mises stresses."""
    return _pnorm(vonmises[include], p)[0]


def adjoint_rhs_pnorm(active, stress: np.ndarray, material: fem.Material,
                      p: int, include: np.ndarray) -> tuple[np.ndarray, bool]:
    """Right-hand side -d(sigma_PN)/du via the chain rule through the
    per-element von Mises stress at the centroid, from the primal ``stress``.

    The aggregate covers the same elements as ``pnorm_stress`` (included,
    with positive stress); a fully zero stress state returns a zero vector
    with the degenerate flag set.
    """
    mesh = active.mesh
    rhs = np.zeros(mesh.n_dofs)

    ids = active.element_ids[include[active.element_ids]]
    sig = stress[ids]
    s = fem.von_mises(sig)
    sigma_pn, live = _pnorm(s, p)
    if sigma_pn == 0.0:
        return rhs, True
    ids, sig, s = ids[live], sig[live], s[live]

    # d(sigma_PN)/ds_e, bounded in [0, 1] because sigma_PN >= max s
    w = (s / sigma_pn) ** (p - 1)
    # ds/dsigma in (xx, yy, xy) tensor components
    g = np.empty_like(sig)
    g[:, 0] = (2.0 * sig[:, 0] - sig[:, 1]) / (2.0 * s)
    g[:, 1] = (2.0 * sig[:, 1] - sig[:, 0]) / (2.0 * s)
    g[:, 2] = 3.0 * sig[:, 2] / s
    Bc = fem.centroid_b_matrix(mesh.h)
    C = material.constitutive()
    per_dof = (w[:, None] * g) @ C @ Bc  # (n, 8): w * (B^T C^T g) transposed out
    np.add.at(rhs, mesh.edofs[ids].ravel(), -per_dof.ravel())
    return rhs, False


def _load_multiple(rhs: np.ndarray, f: np.ndarray) -> float | None:
    """Factor c with rhs == c * f exactly (same nonzero pattern, one ratio),
    or None when rhs is not an exact multiple of the force vector f."""
    nz = np.flatnonzero(rhs)
    if not nz.size or not np.array_equal(nz, np.flatnonzero(f)):
        return None
    ratio = rhs[nz] / f[nz]
    if np.all(ratio == ratio[0]):
        return float(ratio[0])
    return None


Adjoint = tuple[int, float] | np.ndarray | None  # (j, c), a right-hand side, or None


def constant_adjoints(constraints: list[ConstraintSpec], mesh: Mesh, boundary: BoundarySpec,
                      cases: list[int]) -> list[Adjoint]:
    """Each constraint's adjoint, resolved once per run; j indexes ``cases``.
    The constraint's own case is tried first, then the cases in order. Equal
    right-hand sides to solve share one array, hence one solve."""
    loads = [fem.load_vector(mesh, boundary, case) for case in cases]
    shared: dict[bytes, np.ndarray] = {}
    table: list[Adjoint] = []
    for spec in constraints:
        own = cases.index(spec.case)
        if spec.kind == KIND_COMPLIANCE:
            rhs = -loads[own]
        elif spec.kind == KIND_DISPLACEMENT:
            rhs = adjoint_rhs_point_displacement(mesh, boundary, spec.node, spec.direction)
        else:
            table.append(None)
            continue
        for j in (own, *(k for k in range(len(cases)) if k != own)):
            c = _load_multiple(rhs, loads[j])
            if c is not None:
                table.append((j, c))
                break
        else:
            table.append(shared.setdefault(rhs.tobytes(), rhs))
    return table


@dataclass
class ConstraintFields:
    """Per-constraint normalized level-set fields plus solve bookkeeping."""

    fields: list[np.ndarray]
    adjoint_solves: int


def constraint_raw(analysis: fem.Analysis, spec: ConstraintSpec,
                   case_index: dict[int, int], include: np.ndarray) -> float:
    """Raw physical value of one constraint on an analyzed topology."""
    i = case_index[spec.case]
    if spec.kind == KIND_DISPLACEMENT:
        u = analysis.displacements[i]
        dx, dy = spec.direction
        return float(dx * u[2 * spec.node] + dy * u[2 * spec.node + 1])
    if spec.kind == KIND_PNORM_STRESS:
        return pnorm_stress(analysis.vonmises[i], include, spec.p_exponent)
    return analysis.compliances[i]


def constraint_fields(analysis: fem.Analysis, constraints: list[ConstraintSpec],
                      adjoints: list[Adjoint], references: list[float],
                      material: fem.Material, include: np.ndarray,
                      case_index: dict[int, int]) -> ConstraintFields:
    """Build the margin-sensitivity field of every constraint from its entry
    of ``constant_adjoints``: a scaled load case's strain, or a solve's."""
    mesh = analysis.active.mesh
    # adjoint strain by id of the right-hand side, held so that no id is reused
    solved: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    fields: list[np.ndarray] = []
    for spec, adjoint, ref in zip(constraints, adjoints, references):
        stress = analysis.tensors[case_index[spec.case]].stress
        if isinstance(adjoint, tuple):
            j, c = adjoint
            strain = c * analysis.tensors[j].strain
        else:
            rhs = adjoint
            if rhs is None:
                rhs, degenerate = adjoint_rhs_pnorm(analysis.active, stress, material,
                                                    spec.p_exponent, include)
                if degenerate:
                    fields.append(np.zeros(mesh.n_elements))
                    continue
            if id(rhs) not in solved:
                lam = fem.solve(analysis.system, rhs)
                solved[id(rhs)] = rhs, fem.recover(analysis.active, lam, material).strain
            strain = solved[id(rhs)][1]
        raw = topo_sensitivity(stress, strain, material.nu)
        fields.append(normalize_and_protect(-raw / ref))
    return ConstraintFields(fields=fields, adjoint_solves=len(solved))


def compliance_field(analysis: fem.Analysis, material: fem.Material) -> np.ndarray:
    """Summed compliance sensitivity over all load cases (each normalized),
    used as the level-set for unconstrained pareto tracing."""
    total = np.zeros(analysis.active.mesh.n_elements)
    for tensors in analysis.tensors:
        t = topo_sensitivity(tensors.stress, -1.0 * tensors.strain, material.nu)
        total += normalize_and_protect(t)
    return total
