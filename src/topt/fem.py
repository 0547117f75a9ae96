"""Plane-stress 4-node quadrilateral finite element analysis.

Void elements are removed from the assembly entirely (no ersatz stiffness)
and fixed DOFs are eliminated by reduction, so the assembled matrix is
symmetric positive definite and its condition number is physically
meaningful. Assembly sums element matrices through the per-mesh slot table
of ``Mesh.stiffness_pattern``, in its nested-dissection order, and a matrix
is factored in the order it is given. Stress and strain are recovered at
element centroids, one value per element; the shear entries stored in
tensor fields are the *tensor* components (eps_xy = gamma_xy / 2, sigma_xy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import ActiveMesh, BoundarySpec, Mesh, TopologyState, active_submesh

RESIDUAL_TOL = 1e-8
_GAUSS = 1.0 / np.sqrt(3.0)


class SingularSystemError(RuntimeError):
    """Stiffness matrix is singular (insufficient supports)."""


class SolveError(RuntimeError):
    """Linear solve failed the residual contract or produced non-finite values."""


@dataclass(frozen=True)
class Material:
    """Isotropic plane-stress material, unit thickness."""

    E: float = 2e11
    nu: float = 0.33

    def __post_init__(self):
        if self.E <= 0:
            raise ValueError(f"Young's modulus must be positive, got {self.E}")
        if not 0 <= self.nu < 0.5:
            raise ValueError(f"Poisson ratio must lie in [0, 0.5), got {self.nu}")

    def constitutive(self) -> np.ndarray:
        """3x3 plane-stress matrix mapping (exx, eyy, gxy) to (sxx, syy, sxy)."""
        E, nu = self.E, self.nu
        return E / (1 - nu * nu) * np.array([
            [1.0, nu, 0.0],
            [nu, 1.0, 0.0],
            [0.0, 0.0, (1 - nu) / 2],
        ])


@dataclass
class TensorField:
    """Per-element centroid stress/strain in (xx, yy, xy) tensor components."""

    stress: np.ndarray  # (n_elements, 3)
    strain: np.ndarray  # (n_elements, 3)


def _b_matrix(xi: float, eta: float, h: float) -> np.ndarray:
    """Strain-displacement matrix (engineering shear row) for a square element."""
    dxi = 0.25 * np.array([-(1 - eta), (1 - eta), (1 + eta), -(1 + eta)])
    deta = 0.25 * np.array([-(1 - xi), -(1 + xi), (1 + xi), (1 - xi)])
    dx = dxi * (2.0 / h)
    dy = deta * (2.0 / h)
    B = np.zeros((3, 8))
    B[0, 0::2] = dx
    B[1, 1::2] = dy
    B[2, 0::2] = dy
    B[2, 1::2] = dx
    return B


def centroid_b_matrix(h: float) -> np.ndarray:
    return _b_matrix(0.0, 0.0, h)


def element_stiffness(material: Material, h: float) -> np.ndarray:
    """8x8 stiffness of one square bilinear quad, 2x2 Gauss quadrature (exact)."""
    C = material.constitutive()
    det_j = (h / 2.0) ** 2
    K = np.zeros((8, 8))
    for xi in (-_GAUSS, _GAUSS):
        for eta in (-_GAUSS, _GAUSS):
            B = _b_matrix(xi, eta, h)
            K += B.T @ C @ B * det_j
    return 0.5 * (K + K.T)


class SystemMatrix:
    """Reduced SPD stiffness matrix with a cached sparse LU factorization.

    The matrix is factored in the order it is given, which ``assemble`` makes
    the nested-dissection order of the mesh; SuperLU's default threshold
    pivoting may still move a pivot off the diagonal. The factor is made on
    first use of ``lu`` and lives until ``release()``; ``lu`` then factors
    again on demand, to the same result. The condition estimate stays cached.
    """

    def __init__(self, matrix: sp.csr_matrix, active: ActiveMesh):
        self.matrix = matrix
        self.active = active
        self.n = matrix.shape[0]
        self._lu = None
        self._condition = None

    @property
    def lu(self):
        if self._lu is None:
            try:
                # K is exactly symmetric, so its CSR transpose is K in CSC
                self._lu = spla.splu(self.matrix.T, permc_spec="NATURAL",
                                     options={"SymmetricMode": True})
            except RuntimeError as exc:  # factorization hit an exact zero pivot
                raise SingularSystemError(f"stiffness factorization failed: {exc}") from exc
        return self._lu

    def release(self) -> None:
        """Drop the factorization; a SuperLU factor can hold far more memory
        than its L and U entries."""
        self._lu = None

    def condition(self, start: np.ndarray | None = None) -> tuple[float, bool, np.ndarray]:
        """``condition_estimate`` with default settings, computed once: later
        calls return the first result whatever their start.

        ``start`` and the returned lowest mode are full-mesh DOF vectors, zero
        off the free set, so a mode carries over to a system on other DOFs.
        """
        if self._condition is None:
            dofs = self.active.free_dofs
            estimate, converged, low = condition_estimate(
                self, start=None if start is None else start[dofs])
            mode = np.zeros(self.active.mesh.n_dofs)
            mode[dofs] = low
            self._condition = (estimate, converged, mode)
        return self._condition


def assemble(active: ActiveMesh, material: Material) -> SystemMatrix:
    """Assemble the reduced stiffness matrix over the active elements.

    Rows and columns follow ``active.free_dofs``. Each entry sums its element
    contributions in element order, so the matrix is exactly symmetric, and
    only nonzero entries are stored.
    """
    if len(active.element_ids) == 0:
        raise ValueError("cannot assemble an empty active mesh")
    mesh = active.mesh
    pattern = mesh.stiffness_pattern()
    ke = element_stiffness(material, mesh.h)
    slots = pattern.slots[active.element_ids].ravel()
    vals = np.bincount(slots, weights=np.tile(ke.ravel(), len(active.element_ids)),
                       minlength=len(pattern.cols))
    # reduced index of each rank, -1 when eliminated
    red = np.full(mesh.n_dofs, -1, dtype=np.intc)
    red[active.free_dofs] = np.arange(active.n_free, dtype=np.intc)
    red = red[pattern.dof_order]
    free = red >= 0
    cols = red[pattern.cols]
    # entries no active element touches are zero, as are exact cancellations
    keep = (vals != 0.0) & np.repeat(free, np.diff(pattern.indptr)) & (cols >= 0)
    kept = np.flatnonzero(keep)
    # eliminated rows keep no entry, so each free row starts where its rank's row did
    indptr = np.searchsorted(kept, pattern.indptr[np.append(np.flatnonzero(free), mesh.n_dofs)])
    K = sp.csr_matrix((vals[kept], cols[kept], indptr), shape=(active.n_free, active.n_free))
    return SystemMatrix(K, active)


def solve(system: SystemMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve K u = f; returns the full-mesh DOF vector (zeros off the free set).

    The accepted solution satisfies ||Ku - f|| / ||f|| <= 1e-8. A residual
    failure on a factorizable matrix raises ``SolveError`` naming a singular
    system, since with a direct solver that is the only way the contract can
    break: the supports leave a rigid-body mode.
    """
    mesh = system.active.mesh
    r = rhs[system.active.free_dofs]
    u_full = np.zeros(mesh.n_dofs)
    fnorm = np.linalg.norm(r)
    if fnorm == 0.0:
        return u_full
    x = system.lu.solve(r)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solution contains non-finite values (singular system)")
    residual = np.linalg.norm(system.matrix @ x - r) / fnorm
    if residual > RESIDUAL_TOL:
        raise SolveError(f"singular stiffness system: relative residual {residual:.3e} "
                         f"exceeds {RESIDUAL_TOL}; the supports likely leave a rigid-body mode")
    u_full[system.active.free_dofs] = x
    return u_full


def load_vector(mesh: Mesh, boundary: BoundarySpec, case: int) -> np.ndarray:
    """Nodal force vector for one load case, normalized by the case's largest
    point-load magnitude (all downstream quantities are relative, and the
    normalization makes the pipeline exactly invariant to load scaling)."""
    f = np.zeros(mesh.n_dofs)
    loads = [p for p in boundary.point_loads if p.case == case]
    if not loads:
        raise ValueError(f"no point loads defined for load case {case}")
    scale = max(abs(p.magnitude) for p in loads)
    if scale == 0.0:
        raise ValueError(f"load case {case} has zero magnitude")
    for p in loads:
        m = p.magnitude / scale
        f[2 * p.node] += m * p.direction[0]
        f[2 * p.node + 1] += m * p.direction[1]
    return f


def recover(active: ActiveMesh, u: np.ndarray, material: Material) -> TensorField:
    """Centroid strain/stress on active elements; zero on void elements."""
    mesh = active.mesh
    Bc = centroid_b_matrix(mesh.h)
    C = material.constitutive()
    strain = np.zeros((mesh.n_elements, 3))
    stress = np.zeros((mesh.n_elements, 3))
    if len(active.element_ids):
        ue = u[active.edofs]                       # (n_active, 8)
        eng = ue @ Bc.T                            # (exx, eyy, gxy)
        sig = eng @ C.T                            # (sxx, syy, sxy)
        eng[:, 2] *= 0.5                           # tensor shear strain
        strain[active.element_ids] = eng
        stress[active.element_ids] = sig
    return TensorField(stress=stress, strain=strain)


def von_mises(stress: np.ndarray) -> np.ndarray:
    """Von Mises equivalent of plane-stress tensors in (xx, yy, xy) layout."""
    s = np.asarray(stress, dtype=float)
    sxx, syy, sxy = s[..., 0], s[..., 1], s[..., 2]
    return np.sqrt(np.maximum(sxx * sxx - sxx * syy + syy * syy + 3.0 * sxy * sxy, 0.0))


def compliance(loads: np.ndarray, u: np.ndarray) -> float:
    return float(np.dot(loads, u))


def condition_estimate(system: SystemMatrix, tol: float = 1e-4, max_iters: int = 500,
                       start: np.ndarray | None = None) -> tuple[float, bool, np.ndarray]:
    """Estimate lambda_max/lambda_min by power and inverse power iteration.

    Each step applies the operator once: the product that gives the
    Rayleigh quotient of the current vector is the next step's iterate, so
    a run of k steps costs k + 1 applications per operator.

    The power iteration for lambda_max starts from ``1 + i/n``. The inverse
    iteration for lambda_min starts from ``start`` (a vector over the
    system's rows), typically the lowest mode of a nearby system, or from
    ``1 + i/n`` when ``start`` is None, zero or not finite.

    Returns (estimate, converged, low_mode), low_mode being the unit
    approximation to the lowest eigenvector. When the iteration cap is hit
    the value is a lower bound and converged is False.
    """
    n = system.n
    if n == 1:
        return 1.0, True, np.ones(1)
    cold = 1.0 + np.arange(n) / n

    def dominant(apply, v):
        norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            v, norm = cold, np.linalg.norm(cold)
        v = v / norm
        w = apply(v)
        lam = 0.0
        for _ in range(max_iters):
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0, True, v
            v = w / nw
            w = apply(v)
            lam_new = float(v @ w)
            if abs(lam_new - lam) <= tol * abs(lam_new):
                return lam_new, True, v
            lam = lam_new
        return lam, False, v

    lam_max, ok_max, _ = dominant(lambda v: system.matrix @ v, cold)
    inv_min, ok_min, low_mode = dominant(system.lu.solve, cold if start is None else start)
    if inv_min <= 0.0:
        raise SingularSystemError("inverse power iteration found a non-positive eigenvalue")
    return lam_max * inv_min, ok_max and ok_min, low_mode


@dataclass
class Analysis:
    """FEA results of one topology state, for every load case."""

    topology: TopologyState
    active: ActiveMesh
    system: SystemMatrix
    loads: list[np.ndarray]          # normalized nodal force vectors, per case
    displacements: list[np.ndarray]  # full-mesh DOF vectors, per case
    tensors: list[TensorField]       # per case
    vonmises: list[np.ndarray]       # (n_elements,) per case, zero on void
    compliances: list[float]         # per case
    n_solves: int


def analyze(mesh: Mesh, boundary: BoundarySpec, material: Material,
            topo: TopologyState, cases: list[int] | None = None) -> Analysis:
    """Assemble and solve every load case on the given topology."""
    if cases is None:
        cases = boundary.load_cases()
    active = active_submesh(mesh, topo, boundary)
    system = assemble(active, material)
    loads, disp, tensors, vms, comps = [], [], [], [], []
    for case in cases:
        f = load_vector(mesh, boundary, case)
        u = solve(system, f)
        t = recover(active, u, material)
        loads.append(f)
        disp.append(u)
        tensors.append(t)
        vms.append(von_mises(t.stress))
        comps.append(compliance(f, u))
    return Analysis(topology=topo, active=active, system=system, loads=loads,
                    displacements=disp, tensors=tensors, vonmises=vms,
                    compliances=comps, n_solves=len(cases))
