"""Oracle checks shared by ``topt verify`` and the acceptance suite; each
returns one error measure for the caller to hold against its tolerance."""

from __future__ import annotations

import numpy as np

from . import fem, levelset, sensitivity
from .mesh import DomainSpec, Point2, PointLoad, TopologyState, build_mesh, locate_node


def patch_2x2() -> fem.Analysis:
    """Full-domain analysis of a 2x2-element unit patch: clamped left edge,
    unit downward load at the middle of the right edge."""
    mesh, boundary = build_mesh(DomainSpec(1.0, 1.0, 2, 2))
    for n in np.flatnonzero(mesh.nodes[:, 0] == 0.0):
        boundary.fix_node(int(n), "xy")
    tip = locate_node(mesh, Point2(1.0, 0.5))
    boundary.point_loads.append(PointLoad(1, tip, (0.0, -1.0), 1.0))
    return fem.analyze(mesh, boundary, fem.Material(), TopologyState.full(mesh))


def compliance_adjoint_error(analysis: fem.Analysis) -> float:
    """Relative max-norm gap in the identity lambda = -u, where lambda solves
    the compliance adjoint K lambda = -f of the first load case."""
    u = analysis.displacements[0]
    lam = fem.solve(analysis.system, -analysis.loads[0])
    return float(np.max(np.abs(lam + u)) / np.max(np.abs(u)))


def pnorm_fd_gradient(analysis: fem.Analysis, material: fem.Material, include: np.ndarray,
                      p: int, dofs: np.ndarray, step: float) -> np.ndarray:
    """Central finite differences of the first case's p-norm stress with
    respect to the selected DOFs."""
    def pnorm(dof: int, delta: float) -> float:
        u = analysis.displacements[0].copy()
        u[dof] += delta
        tensors = fem.recover(analysis.active, u, material)
        return sensitivity.pnorm_stress(fem.von_mises(tensors.stress), include, p)

    return np.array([(pnorm(dof, step) - pnorm(dof, -step)) / (2.0 * step) for dof in dofs])


def pnorm_rhs_error(analysis: fem.Analysis, material: fem.Material, p: int) -> float:
    """Relative max-norm gap between the p-norm adjoint right-hand side and
    central finite differences over the free DOFs; inf on a degenerate
    (stress-free) state."""
    include = np.ones(analysis.active.mesh.n_elements, dtype=bool)
    rhs, degenerate = sensitivity.adjoint_rhs_pnorm(
        analysis.active, analysis.tensors[0].stress, material, p, include)
    if degenerate:
        return np.inf
    dofs = analysis.active.free_dofs
    step = 1e-6 * np.linalg.norm(analysis.displacements[0])
    fd = pnorm_fd_gradient(analysis, material, include, p, dofs, step)
    return float(np.max(np.abs(-rhs[dofs] - fd)) / np.max(np.abs(fd)))


def tau_gap(rng: np.random.Generator, trials: int, max_n: int) -> float:
    """Worst distance, in elements, between the volume of the tau cut and its
    target over random normal fields of 10 to max_n - 1 elements."""
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(10, max_n))
        field = rng.normal(size=n)
        target = float(rng.uniform(0.01, 1.0))
        topo = levelset.extract_domain(field, levelset.find_tau(field, target))
        worst = max(worst, abs(topo.volume_fraction - target) * n)
    return worst
