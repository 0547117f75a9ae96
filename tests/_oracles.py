"""Independent oracles the tests check the implementation against.

Each oracle takes a route disjoint from the production code: the element
stiffness comes from the published closed-form coefficient vector, the
topological sensitivity is checked against literal hole drilling with
re-solves, eigenvalues against dense decompositions, and the array-based
grid operations against the per-element loops they replaced. The condition
estimate is checked against the power iteration it replaced, which applied
each operator twice per step.
"""

import numpy as np

from topt import fem
from topt.mesh import TopologyState


def closed_form_ke(E: float, nu: float) -> np.ndarray:
    """Plane-stress stiffness of a square bilinear quad from the classic
    published coefficient vector (thickness 1, any element size); node order
    counter-clockwise from the bottom-left corner, DOFs interleaved."""
    k = np.array([1 / 2 - nu / 6, 1 / 8 + nu / 8, -1 / 4 - nu / 12, -1 / 8 + 3 * nu / 8,
                  -1 / 4 + nu / 12, -1 / 8 - nu / 8, nu / 6, 1 / 8 - 3 * nu / 8])
    KE = np.array([
        [k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[7]],
        [k[1], k[0], k[7], k[6], k[5], k[4], k[3], k[2]],
        [k[2], k[7], k[0], k[5], k[6], k[3], k[4], k[1]],
        [k[3], k[6], k[5], k[0], k[7], k[2], k[1], k[4]],
        [k[4], k[5], k[6], k[7], k[0], k[1], k[2], k[3]],
        [k[5], k[4], k[3], k[2], k[1], k[0], k[7], k[6]],
        [k[6], k[3], k[4], k[1], k[2], k[7], k[0], k[5]],
        [k[7], k[2], k[1], k[4], k[3], k[6], k[5], k[0]],
    ])
    return E / (1 - nu * nu) * KE


def hole_drilling(mesh, boundary, material, elements) -> np.ndarray:
    """Compliance change per unit area from literally removing one element at
    a time and re-solving."""
    full = TopologyState.full(mesh)
    base = fem.analyze(mesh, boundary, material, full)
    j0 = base.compliances[0]
    out = np.empty(len(elements))
    for idx, e in enumerate(elements):
        solid = np.ones(mesh.n_elements, dtype=bool)
        solid[e] = False
        topo = TopologyState(solid=solid,
                             volume_fraction=(mesh.n_elements - 1) / mesh.n_elements)
        a = fem.analyze(mesh, boundary, material, topo)
        out[idx] = (a.compliances[0] - j0) / mesh.element_area
    return out


def interior_elements(mesh) -> np.ndarray:
    """Elements none of whose nodes lie on the mesh outline."""
    x0, y0, x1, y1 = mesh.bounding_box()
    on_edge = (np.isclose(mesh.nodes[:, 0], x0) | np.isclose(mesh.nodes[:, 0], x1)
               | np.isclose(mesh.nodes[:, 1], y0) | np.isclose(mesh.nodes[:, 1], y1))
    keep = ~on_edge[mesh.elements].any(axis=1)
    return np.flatnonzero(keep)


def spearman(a: np.ndarray, b: np.ndarray) -> float:
    from scipy.stats import spearmanr
    return float(spearmanr(a, b).statistic)


def flood_fill_support_connected(mesh, solid, fixed_nodes) -> np.ndarray:
    """Mask of solid elements edge-connected to a component holding a fixed
    node, by a depth-first flood fill over the element grid."""
    nx, ny = mesh.grid_shape
    grid = np.full((nx, ny), -1, dtype=np.int64)
    gi, gj = mesh.element_grid[:, 0], mesh.element_grid[:, 1]
    grid[gi, gj] = np.arange(mesh.n_elements)
    solid_ids = np.flatnonzero(solid)

    seeds = set()
    for n in fixed_nodes:
        for e in mesh.node_elements(int(n)):
            if solid[e]:
                seeds.add(int(e))
    reach = np.zeros(mesh.n_elements, dtype=bool)
    stack = sorted(seeds)
    reach[stack] = True
    while stack:
        e = stack.pop()
        i, j = gi[e], gj[e]
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = i + di, j + dj
            if 0 <= ni < nx and 0 <= nj < ny:
                ne = grid[ni, nj]
                if ne >= 0 and solid[ne] and not reach[ne]:
                    reach[ne] = True
                    stack.append(ne)
    out = np.zeros(mesh.n_elements, dtype=bool)
    out[solid_ids] = reach[solid_ids]
    return out


def incidence_by_loop(mesh) -> tuple[np.ndarray, np.ndarray]:
    """Node-to-element incidence in CSR form (indptr, indices), filled one
    element at a time."""
    counts = np.zeros(mesh.n_nodes, dtype=np.int64)
    np.add.at(counts, mesh.elements.ravel(), 1)
    indptr = np.zeros(mesh.n_nodes + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    cursor = indptr[:-1].copy()
    for e in range(mesh.n_elements):
        for n in mesh.elements[e]:
            indices[cursor[n]] = e
            cursor[n] += 1
    return indptr, indices


def condition_estimate_two_apply(system, tol: float = 1e-4,
                                 max_iters: int = 500) -> tuple[float, bool]:
    """Estimate lambda_max/lambda_min by power and inverse power iteration.

    Returns (estimate, converged). When the iteration cap is hit the value
    is a lower bound and converged is False.
    """
    n = system.n
    if n == 1:
        return 1.0, True

    def dominant(apply):
        v = 1.0 + np.arange(n) / n
        v /= np.linalg.norm(v)
        lam = 0.0
        for _ in range(max_iters):
            w = apply(v)
            nw = np.linalg.norm(w)
            if nw == 0.0:
                return 0.0, True
            v = w / nw
            lam_new = float(v @ apply(v))
            if abs(lam_new - lam) <= tol * abs(lam_new):
                return lam_new, True
            lam = lam_new
        return lam, False

    lam_max, ok_max = dominant(lambda v: system.matrix @ v)
    inv_min, ok_min = dominant(system.lu.solve)
    if inv_min <= 0.0:
        raise fem.SingularSystemError("inverse power iteration found a non-positive eigenvalue")
    return lam_max * inv_min, ok_max and ok_min
