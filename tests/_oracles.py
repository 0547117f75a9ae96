"""Independent oracles the tests check the implementation against.

Each oracle takes a route disjoint from the production code: the element
stiffness comes from the published closed-form coefficient vector, the
topological sensitivity is checked against literal hole drilling with
re-solves, eigenvalues against dense decompositions, and the array-based
grid operations against the per-element loops they replaced. The condition
estimate is checked against the power iteration it replaced, which applied
each operator twice per step. The skin extension, the connectivity repair,
the protected patch and the support-box matching are checked against the
grid-rolling, grid-walking, set-based and per-node versions they replaced.
The field normalization and the augmented-Lagrangian combination are checked
against their first form, which always copied the field before changing it.
"""

from collections import deque

import numpy as np
import scipy.sparse as sp

from topt import fem
from topt.mesh import TopologyState, _support_connected


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


def assemble_coo(active, material) -> sp.csr_matrix:
    """Reduced stiffness matrix with rows and columns in ascending free-DOF
    order, from COO triplets summed by the CSR conversion and symmetrized."""
    ke = fem.element_stiffness(material, active.mesh.h)
    reduced_index = np.full(active.mesh.n_dofs, -1, dtype=np.int64)
    reduced_index[np.sort(active.free_dofs)] = np.arange(active.n_free)
    red = reduced_index[active.edofs]  # (n_active, 8)

    rows = np.repeat(red, 8, axis=1).ravel()
    cols = np.tile(red, (1, 8)).ravel()
    vals = np.tile(ke.ravel(), len(active.element_ids))
    keep = (rows >= 0) & (cols >= 0)
    K = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])),
                      shape=(active.n_free, active.n_free)).tocsr()
    # duplicate summation order differs between (i,j) and (j,i); symmetrize
    # so K - K^T is exactly zero
    K = (K + K.T) * 0.5
    return K.tocsr()


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
        a = fem.analyze(mesh, boundary, material, TopologyState(solid=solid))
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


def normalize_and_protect_copying(values, protected=None):
    """Normalization as first written: copy, divide by the peak over
    unprotected elements, then pin the protected elements to +2."""
    if protected is None:
        protected = np.zeros(len(values), dtype=bool)
    out = values.copy()
    free = ~protected
    peak = np.max(np.abs(out[free])) if free.any() else 0.0
    if peak != 0.0:
        out = out / peak
    out[protected] = 2.0
    return out


def combine_level_sets_copying(t_obj, constraints):
    """T_obj - sum c_i T_gi over the (field, g, mu, gamma) tuples whose
    coefficient c = mu - gamma g is positive, on a copy, then normalized."""
    values = t_obj.copy()
    for field, g, mu, gamma in constraints:
        c = mu - gamma * g
        if c > 0.0:
            values = values - c * field
    return normalize_and_protect_copying(values)


def extend_into_skin_rolled(field, mesh, solid, weight: float = 1.0):
    """Skin extension on the structured grid: each neighbour is a rolled copy
    of the grid with the wrapped-around border zeroed."""
    nx, ny = mesh.grid_shape
    gi, gj = mesh.element_grid[:, 0], mesh.element_grid[:, 1]
    vals = np.zeros((nx, ny))
    present = np.zeros((nx, ny), dtype=bool)
    solid_grid = np.zeros((nx, ny), dtype=bool)
    vals[gi, gj] = field
    present[gi, gj] = True
    solid_grid[gi, gj] = solid

    nbr_sum = np.zeros((nx, ny))
    nbr_cnt = np.zeros((nx, ny))
    src = np.where(solid_grid, vals, 0.0)
    for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        ok = _rolled_ok(solid_grid, axis, shift)
        nbr_sum += np.roll(src, shift, axis=axis) * ok
        nbr_cnt += ok

    skin = present & ~solid_grid & (nbr_cnt > 0)
    out_grid = vals.copy()
    ext = (nbr_sum[skin] + (4.0 - nbr_cnt[skin]) * vals[skin]) / 4.0
    out_grid[skin] = vals[skin] + weight * (ext - vals[skin])
    return out_grid[gi, gj]


def _rolled_ok(mask: np.ndarray, axis: int, shift: int) -> np.ndarray:
    """Shifted copy of ``mask`` with the wrapped-around border zeroed."""
    rolled = np.roll(mask, shift, axis=axis).astype(float)
    index = [slice(None), slice(None)]
    index[axis] = 0 if shift == 1 else -1
    rolled[tuple(index)] = 0.0
    return rolled


def repair_connectivity_grid(mesh, topo, previous, boundary):
    """Connectivity repair walking the structured grid: breadth-first over
    the previous solid set from the first orphaned load or monitor node to
    the support-connected part, then the path and its face neighbours are
    restored."""
    nx, ny = mesh.grid_shape
    grid = np.full((nx, ny), -1, dtype=np.int64)
    gi, gj = mesh.element_grid[:, 0], mesh.element_grid[:, 1]
    grid[gi, gj] = np.arange(mesh.n_elements)
    fixed_nodes = np.unique([n for n, _ in boundary.fixed_dofs])
    must_carry = sorted(boundary.loaded_nodes() | boundary.monitor_nodes)

    solid = topo.solid.copy()
    changed = False
    for _ in range(len(must_carry)):
        connected = _support_connected(mesh, solid, fixed_nodes)
        orphans = [n for n in must_carry
                   if not any(connected[e] for e in mesh.node_elements(n))]
        if not orphans:
            break
        node = orphans[0]
        seeds = [int(e) for e in mesh.node_elements(node) if previous.solid[e]]
        parent = {e: -1 for e in seeds}
        queue = deque(seeds)
        goal = -1
        while queue:
            e = queue.popleft()
            if connected[e]:
                goal = e
                break
            i, j = gi[e], gj[e]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < nx and 0 <= nj < ny:
                    ne = grid[ni, nj]
                    if ne >= 0 and previous.solid[ne] and ne not in parent:
                        parent[int(ne)] = e
                        queue.append(int(ne))
        if goal < 0:
            break
        e = goal
        while e >= 0:
            if not solid[e]:
                solid[e] = True
                changed = True
            i, j = gi[e], gj[e]
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if 0 <= ni < nx and 0 <= nj < ny:
                    ne = grid[ni, nj]
                    if ne >= 0 and previous.solid[ne] and not solid[ne]:
                        solid[ne] = True
                        changed = True
            e = parent[e]
    if not changed:
        return topo
    return TopologyState(solid=solid)


def protected_elements_by_set(mesh, boundary) -> np.ndarray:
    """Elements touching a loaded, fixed or monitored node, one node at a
    time."""
    nodes = set(boundary.loaded_nodes()) | set(boundary.monitor_nodes)
    nodes |= {n for n, _ in boundary.fixed_dofs}
    mask = np.zeros(mesh.n_elements, dtype=bool)
    for n in sorted(nodes):
        mask[mesh.node_elements(n)] = True
    return mask


def support_dofs_by_loop(cfg, mesh) -> set[tuple[int, int]]:
    """Fixed DOFs of every support box, matching one node at a time."""
    tol = 1e-9 * max(cfg.width, cfg.height)
    dofs = set()
    for box in cfg.supports:
        for n in range(mesh.n_nodes):
            x, y = mesh.nodes[n]
            if box.xmin - tol <= x <= box.xmax + tol and box.ymin - tol <= y <= box.ymax + tol:
                for d in box.directions:
                    dofs.add((n, 0 if d == "x" else 1))
    return dofs
