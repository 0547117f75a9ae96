"""Plane-stress 4-node quadrilateral finite element analysis.

Void elements are removed from the assembly entirely (no ersatz stiffness)
and fixed DOFs are eliminated by reduction, so the assembled matrix is
symmetric positive definite and its condition number is physically
meaningful. When a system is first factored, its elements' lower triangles
are summed straight into LAPACK's lower band, in the order of the free DOFs
(the mesh's narrowest-band ``Mesh.dof_order``), and the band is factored in
place by LAPACK's banded Cholesky (``dpbtrf``, solves by ``dpbtrs``, both
called directly) on one BLAS thread, so the factor's bytes do not depend on
the thread count. Products with K are made element by element. Stress and
strain are recovered at element centroids, one value per element; the shear
entries stored in tensor fields are the *tensor* components
(eps_xy = gamma_xy / 2, sigma_xy).
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
import scipy.sparse.linalg as spla  # not called here; perfbench/spans.py wraps fem.spla
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .mesh import ActiveMesh, BoundarySpec, Mesh, TopologyState, active_submesh

RESIDUAL_TOL = 1e-8
_CHUNK = 512  # elements scattered into the band at a time
_PAIRS = np.tril_indices(8)  # (a, b) of each element DOF pair with a >= b
_GAUSS = 1.0 / np.sqrt(3.0)


class SingularSystemError(RuntimeError):
    """Stiffness matrix is singular (insufficient supports): its factorization,
    a solve's residual or its solution gave it away."""


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
    det_j = np.float64(h / 2.0) ** 2  # inf, not OverflowError, at huge h
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
    place in the band it is given. LAPACK is called straight through scipy's
    float64 wrappers, without ``cholesky_banded``'s per-call checks."""

    def __init__(self, band: np.ndarray):
        with one_blas_thread():
            self.band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info > 0:  # a pivot was not positive
            raise SingularSystemError(
                f"singular stiffness system: factorization failed ({info}-th leading "
                "minor not positive definite); the supports likely leave a rigid-body mode")
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal pbtrf")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        with one_blas_thread():
            x, info = dpbtrs(self.band, rhs, lower=1)
        if info < 0:
            raise ValueError(f"illegal value in {-info}-th argument of internal pbtrs")
        return x


class SystemMatrix:
    """Reduced SPD stiffness matrix of the active elements in the order of
    ``active.free_dofs``. Products with K are made element by element, so the
    matrix is held only as a factor: the first use of ``factor`` builds
    LAPACK's lower band and factors it in place, without pivoting; once the
    factor is dropped, ``factor`` builds it again, to the same result. Systems
    sharing a ``holder`` list share one band buffer: one that builds its band
    takes the buffer, if it fits, from the one holding it and drops that one's
    factor. A run's share one, so its bands live in the first, its largest."""

    def __init__(self, active: ActiveMesh, ke: np.ndarray, holder: list | None = None):
        self.active = active
        self.ke = ke
        self.n = len(active.free_dofs)
        self._holder = holder  # [the system holding the buffer], or empty
        self._storage = None  # the buffer the band was built in
        self._factor = None
        self._condition = None

    def _build_band(self) -> np.ndarray:
        """``ab[i - j, j] = K[i, j]`` for ``0 <= i - j <= kd``, Fortran order,
        kd being the largest ``i - j`` of an element's pair of free DOFs. Each
        entry sums its element terms in element order, scattered ``_CHUNK``
        elements at a time so that no index table spans every element."""
        red = np.full(self.active.mesh.n_dofs, -1)  # -1 if eliminated
        red[self.active.free_dofs] = np.arange(self.n)
        # one contiguous row per element DOF: each reduction and each pair
        # table takes whole rows
        rT = np.ascontiguousarray(red[self.active.edofs.T])
        # widest span of one element's free DOFs, 0 if none has two
        kd = max(0, int((np.maximum.reduce(rT)
                         - np.minimum.reduce(np.where(rT < 0, self.n, rT))).max()))
        # the pair (a, b) enters at (max, min) of its reduced indices, with
        # ke[a, b], which is bitwise ke[b, a]. (i, j) is at j * kd + i of the
        # flat band; eliminated pairs land past its end
        a, b = _PAIRS
        n_elements = rT.shape[1]
        weights = np.tile(self.ke[a, b], min(_CHUNK, n_elements))
        end = self.n * (kd + 1)
        # take the buffer from the system holding it and drop, directly, its
        # factor, which lives there: kept, it would read the new band
        last = self._holder.pop() if self._holder else self
        flat, last._factor, last._storage = last._storage, None, None
        flat = self._storage = flat if flat is not None and len(flat) > end else np.empty(end + 1)
        if self._holder is not None:
            self._holder.append(self)
        flat[:end + 1] = 0.0
        for start in range(0, n_elements, _CHUNK):
            ra, rb = rT[a, start:start + _CHUNK], rT[b, start:start + _CHUNK]
            at = np.minimum(ra, rb)
            eliminated = at < 0
            at *= kd
            at += np.maximum(ra, rb, out=ra)
            at[eliminated] = end
            # element-major, pair-minor: np.add.at adds in index order, so
            # each entry's terms in element order
            np.add.at(flat, at.T.ravel(), weights[:at.size])
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
        """Drop the factor and its storage, n * (kd + 1) doubles."""
        self._factor = self._storage = None

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


def assemble(active: ActiveMesh, material: Material, holder: list | None = None) -> SystemMatrix:
    """The reduced stiffness system of the active elements; its band is built
    when it is first factored, in the buffer of ``holder``'s system if it fits."""
    if len(active.element_ids) == 0:
        raise ValueError("cannot assemble an empty active mesh")
    return SystemMatrix(active, element_stiffness(material, active.mesh.h), holder)


def solve(system: SystemMatrix, rhs: np.ndarray) -> np.ndarray:
    """Solve K u = f; returns the full-mesh DOF vector (zeros off the free set).

    The accepted solution satisfies ||Ku - f|| / ||f|| <= 1e-8. A residual
    failure on a factorizable matrix raises ``SingularSystemError``, since
    with a direct solver that is the only way the contract can break: the
    supports leave a rigid-body mode.
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
        raise SingularSystemError(
            f"singular stiffness system: relative residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL}; the supports likely leave a rigid-body mode")
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


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)``, or ``max|x| * ||x / max|x|||`` when the sum of
    squares over- or underflows (a modulus near the float range's ends)."""
    with np.errstate(over="ignore", under="ignore"):
        norm = np.linalg.norm(x)
        if 0.0 < norm < np.inf:
            return norm
        scale = np.max(np.abs(x))
        return scale * np.linalg.norm(x / scale) if 0.0 < scale < np.inf else scale


def lambda_max_bound(material: Material) -> float:
    """Upper bound on the largest eigenvalue of every system of the material,
    whatever its topology, supports or element size: 4E/(1 - nu^2), the top
    of the spectrum of the infinite lattice of unit-thickness square
    elements.

    Extended by zero off its free DOFs, a vector x gives x^T K x as a sum of
    element energies x_e^T ke x_e, each non-negative, over a subset of the
    lattice's elements, so lambda_max(K) <= lambda_max(K_lattice). The
    lattice's spectrum is the range of its 2 x 2 Bloch symbol
    S(theta) = P(theta)^H ke P(theta), theta in [-pi, pi]^2. The top of S is
    reached at theta = (pi, 0) and (0, pi): the zigzag modes u_x (or u_y)
    = +-1 node by node, whose strain eps_xx (or eps_yy) = 2/h is uniform, so
    each element stores (E/(1 - nu^2)) (2/h)^2 h^2 per node of unit ||x||^2
    (checked on a theta grid for nu across [0, 0.5)). The built-in problems'
    full domains sit 0.19-0.32% below it at mesh scale 1, 0.05-0.09% at 2.
    """
    return 4.0 * float(material.E) / (1.0 - float(material.nu) ** 2)


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
            topo: TopologyState, holder: list | None = None) -> Analysis:
    """Assemble and solve every load case on the given topology; the system
    shares the band buffer of the others built with ``holder``."""
    system = assemble(active_submesh(mesh, topo, boundary), material, holder)
    active = system.active
    loads, disp, tensors, vms, comps = [], [], [], [], []
    for case in boundary.load_cases():
        f = load_vector(mesh, boundary, case)
        u = solve(system, f)
        t = recover(active, u, material)
        loads.append(f)
        disp.append(u)
        tensors.append(t)
        vms.append(von_mises(t.stress))
        comps.append(float(np.dot(f, u)))
    return Analysis(topology=topo, active=active, system=system, loads=loads,
                    displacements=disp, tensors=tensors, vonmises=vms,
                    compliances=comps)
