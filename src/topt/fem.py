"""Plane-stress 4-node quadrilateral finite element analysis.

Void elements are removed from the assembly entirely (no ersatz stiffness)
and fixed DOFs are eliminated by reduction, so the assembled matrix is
symmetric positive definite and its condition number is physically
meaningful. When a system is first factored, its elements' lower triangles
are summed, through the DOF ranks of ``Mesh.stiffness_pattern``, straight
into LAPACK's lower band in the mesh's narrowest-band order, and the band is
factored in place by LAPACK's banded Cholesky on one BLAS thread, so the
factor's bytes do not depend on the thread count. Products with K are made
element by element. Stress and strain are recovered at element centroids,
one value per element; the shear entries stored in tensor fields are the
*tensor* components (eps_xy = gamma_xy / 2, sigma_xy).
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded, cholesky_banded

from .mesh import ActiveMesh, BoundarySpec, Mesh, TopologyState, active_submesh

RESIDUAL_TOL = 1e-8
_CHUNK = 512  # elements scattered into the band at a time
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


@functools.lru_cache(maxsize=8)
def element_stiffness(material: Material, h: float) -> np.ndarray:
    """8x8 stiffness of one square bilinear quad, 2x2 Gauss quadrature (exact),
    symmetric bit for bit. Computed once per material and size, so the array
    is read-only."""
    C = material.constitutive()
    det_j = (h / 2.0) ** 2
    K = np.zeros((8, 8))
    for xi in (-_GAUSS, _GAUSS):
        for eta in (-_GAUSS, _GAUSS):
            B = _b_matrix(xi, eta, h)
            K += B.T @ C @ B * det_j
    K = 0.5 * (K + K.T)
    K.flags.writeable = False
    return K


@functools.cache
def _openblas_threads() -> tuple:
    """(setter, getter) of the thread count of each OpenBLAS that numpy and
    scipy bundle; empty where they were built against another BLAS."""
    found = []
    for package in (np, scipy):
        pattern = os.path.join(os.path.dirname(package.__file__), os.pardir,
                               f"{package.__name__}.libs", "libscipy_openblas*")
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for suffix in ("64_", ""):
                setter = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
                getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if setter is not None and getter is not None:
                    setter.argtypes, getter.restype = [ctypes.c_int], ctypes.c_int
                    found.append((setter, getter))
    return tuple(found)


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread and restore the counts after. A
    threaded factorization or dot product sums in another order, so its bytes
    would depend on the thread count (and on two cores pbtrf is slower too)."""
    threads = _openblas_threads()
    before = [getter() for _, getter in threads]
    for setter, _ in threads:
        setter(1)
    try:
        yield
    finally:
        for (setter, _), count in zip(threads, before):
            setter(count)


class BandCholesky:
    """Banded Cholesky factor of an SPD matrix (LAPACK ``pbtrf``), made in
    place in the band it is given."""

    def __init__(self, band: np.ndarray):
        try:
            with one_blas_thread():
                self.band = cholesky_banded(band, lower=True, overwrite_ab=True,
                                            check_finite=False)
        except np.linalg.LinAlgError as exc:  # a pivot was not positive
            raise SingularSystemError(
                f"singular stiffness system: factorization failed ({exc}); "
                "the supports likely leave a rigid-body mode") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        with one_blas_thread():
            return cho_solve_banded((self.band, True), rhs, check_finite=False)


class SystemMatrix:
    """Reduced SPD stiffness matrix of the active elements in the order of
    ``active.free_dofs``. Products with K are made element by element, so the
    matrix is held only as a factor: the first use of ``factor`` builds
    LAPACK's lower band and factors it in place, without pivoting. The factor
    lives until ``release()``; ``factor`` then builds and factors the band
    again, to the same result. The condition estimate stays cached."""

    def __init__(self, active: ActiveMesh, ke: np.ndarray):
        self.active = active
        self.ke = ke
        self.n = len(active.free_dofs)
        self._factor = None
        self._condition = None

    def _build_band(self) -> np.ndarray:
        """``ab[i - j, j] = K[i, j]`` for ``0 <= i - j <= kd``, Fortran order,
        kd being the largest ``i - j`` of an element's pair of free DOFs. Each
        entry sums its element terms in element order, scattered ``_CHUNK``
        elements at a time so that no index table spans every element."""
        pattern = self.active.mesh.stiffness_pattern()
        red = np.full(self.active.mesh.n_dofs, -1)
        red[self.active.free_dofs] = np.arange(self.n)
        red = red[pattern.dof_order]  # reduced index of each rank, -1 if eliminated
        r8 = red[pattern.ranks[self.active.element_ids]]
        # widest span of one element's free DOFs, 0 if none has two
        kd = max(0, int((r8.max(axis=1) - np.where(r8 < 0, self.n, r8).min(axis=1)).max()))
        # red is monotone in rank, so the pair (a, b) enters at (max, min) of
        # its reduced indices, with ke[a, b], which is bitwise ke[b, a]. (i, j)
        # is at j * kd + i of the flat band; eliminated pairs land past its end
        a, b = np.tril_indices(8)
        weights = np.tile(self.ke[a, b], min(_CHUNK, len(r8)))
        end = self.n * (kd + 1)
        flat = np.zeros(end + 1)
        for start in range(0, len(r8), _CHUNK):
            ra, rb = r8[start:start + _CHUNK, a], r8[start:start + _CHUNK, b]
            at = np.minimum(ra, rb)
            eliminated = at < 0
            at *= kd
            at += np.maximum(ra, rb, out=ra)
            at[eliminated] = end
            # np.add.at adds in index order: each entry's terms in element order
            np.add.at(flat, at.ravel(), weights[:at.size])
        return flat[:end].reshape((kd + 1, self.n), order="F")

    def product(self, x: np.ndarray) -> np.ndarray:
        """K x for a vector over the free DOFs, summed over the active elements."""
        dofs, edofs = self.active.free_dofs, self.active.edofs
        u = np.zeros(self.active.mesh.n_dofs)
        u[dofs] = x
        return np.bincount(edofs.ravel(), weights=(u[edofs] @ self.ke).ravel(),
                           minlength=len(u))[dofs]

    @property
    def factor(self) -> BandCholesky:
        if self._factor is None:
            self._factor = BandCholesky(self._build_band())
        return self._factor

    def release(self) -> None:
        """Drop the factor: n * (kd + 1) doubles."""
        self._factor = None

    def condition(self, lam_max: float,
                  start: np.ndarray | None = None) -> tuple[float, bool, np.ndarray]:
        """``condition_estimate`` with default settings, computed once: later
        calls return the first result whatever their arguments.

        ``start`` and the returned lowest mode are full-mesh DOF vectors, zero
        off the free set, so a mode carries over to a system on other DOFs.
        """
        if self._condition is None:
            dofs = self.active.free_dofs
            estimate, converged, low = condition_estimate(
                self, lam_max, start=None if start is None else start[dofs])
            mode = np.zeros(self.active.mesh.n_dofs)
            mode[dofs] = low
            self._condition = (estimate, converged, mode)
        return self._condition


def assemble(active: ActiveMesh, material: Material) -> SystemMatrix:
    """The reduced stiffness system of the active elements; its band is built
    when it is first factored."""
    if len(active.element_ids) == 0:
        raise ValueError("cannot assemble an empty active mesh")
    return SystemMatrix(active, element_stiffness(material, active.mesh.h))


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
    x = system.factor.solve(r)
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("solution contains non-finite values (singular system)")
    residual = np.linalg.norm(system.product(x) - r) / fnorm
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
    ue = u[active.edofs]                           # (n_active, 8)
    eng = ue @ Bc.T                                # (exx, eyy, gxy)
    sig = eng @ C.T                                # (sxx, syy, sxy)
    eng[:, 2] *= 0.5                               # tensor shear strain
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


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``, or ``max|x| * ||x / max|x|||`` when the sum of
    squares over- or underflows (a modulus near the float range's ends)."""
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(x)
        if 0.0 < norm < np.inf:
            return norm
        scale = np.max(np.abs(x))
        return scale * np.linalg.norm(x / scale) if 0.0 < scale < np.inf else scale


def lambda_max_bound(system: SystemMatrix) -> float:
    """Upper bound on the largest eigenvalue of a system's matrix: the Lanczos
    Ritz value theta plus its residual ||Kv - theta v||, from the fixed start
    1 + i/n (ARPACK's default start is random). By Weyl monotonicity and Cauchy
    interlacing, the full domain's bound holds for every topology of a run."""
    n = system.n
    if n == 1:
        return float(system.product(np.ones(1))[0])
    K = spla.LinearOperator((n, n), matvec=system.product, dtype=float)
    with one_blas_thread():  # ARPACK's threaded BLAS is slower here, and sums in another order
        theta, v = spla.eigsh(K, k=1, which="LA", tol=1e-4, v0=1.0 + np.arange(n) / n)
        return float(theta[0] + _norm(system.product(v[:, 0]) - theta[0] * v[:, 0]))


def condition_estimate(system: SystemMatrix, lam_max: float, tol: float = 1e-4,
                       max_iters: int = 500,
                       start: np.ndarray | None = None) -> tuple[float, bool, np.ndarray]:
    """Estimate lambda_max/lambda_min from an upper bound ``lam_max`` (see
    ``lambda_max_bound``) and inverse power iteration, one solve per step.

    The iteration starts from ``start`` (a vector over the system's rows),
    typically the lowest mode of a nearby system, or from ``1 + i/n`` when
    ``start`` is None, zero or not finite. Returns (estimate, converged,
    low_mode), low_mode being the unit approximation to the lowest
    eigenvector; converged is False when the iteration cap is hit.
    """
    if start is None or not 0.0 < _norm(start) < np.inf:
        start = 1.0 + np.arange(system.n) / system.n
    inv_min, converged = 0.0, False
    with one_blas_thread():  # norms and dot products too
        w = system.factor.solve(start / _norm(start))
        for _ in range(max_iters):
            v = w / _norm(w)
            w = system.factor.solve(v)
            previous, inv_min = inv_min, float(v @ w)
            if abs(inv_min - previous) <= tol * abs(inv_min):
                converged = True
                break
    if inv_min <= 0.0:
        raise SingularSystemError("inverse power iteration found a non-positive eigenvalue")
    return lam_max * inv_min, converged, v


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


def analyze(mesh: Mesh, boundary: BoundarySpec, material: Material,
            topo: TopologyState, cases: list[int] | None = None,
            system: SystemMatrix | None = None) -> Analysis:
    """Assemble, unless given the topology's ``system``, and solve every load
    case on the given topology."""
    if cases is None:
        cases = boundary.load_cases()
    if system is None:
        system = assemble(active_submesh(mesh, topo, boundary), material)
    active = system.active
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
                    compliances=comps)
