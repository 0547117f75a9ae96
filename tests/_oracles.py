"""Independent oracles the tests check the implementation against.

Each oracle takes a route disjoint from the production code: the element
stiffness comes from the published closed-form coefficient vector, the
topological sensitivity is checked against literal hole drilling with
re-solves, eigenvalues against dense decompositions, the assembled band
against COO triplets summed entry by entry and against the one-shot
``bincount`` that built it before the chunked scatter, and the array-based
grid operations against the per-element loops they replaced. The condition
estimate's inverse iteration is checked against the loop it replaced, which
solved twice per step. The skin extension, the connectivity repair,
the protected patch and the support-box matching are checked against the
grid-rolling, grid-walking, set-based and per-node versions they replaced.
The field normalization and the augmented-Lagrangian combination are checked
against their first form, which always copied the field before changing it,
the block-by-block VTK writer against the one that held every line and
called ``repr`` for every value, and the PGM writer against the one that
called ``str`` for every pixel.
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
    order, from COO triplets. Each entry sums its element terms in element
    order, one term per pass (scipy's conversion sums duplicates in an
    unspecified order), so K - K^T is exactly zero; exact cancellations are
    not stored."""
    ke = fem.element_stiffness(material, active.mesh.h)
    n = len(active.free_dofs)
    reduced_index = np.full(active.mesh.n_dofs, -1, dtype=np.int64)
    reduced_index[np.sort(active.free_dofs)] = np.arange(n)
    red = reduced_index[active.edofs]  # (n_active, 8)

    rows = np.repeat(red, 8, axis=1).ravel()
    cols = np.tile(red, (1, 8)).ravel()
    vals = np.tile(ke.ravel(), len(active.element_ids))
    keep = (rows >= 0) & (cols >= 0)
    key, vals = rows[keep] * n + cols[keep], vals[keep]
    order = np.argsort(key, kind="stable")  # an entry's terms stay in element order
    key, vals = key[order], vals[order]
    entries, first, entry = np.unique(key, return_index=True, return_inverse=True)
    term = np.arange(len(key)) - first[entry]  # position of a term within its entry
    sums = np.zeros(len(entries))
    for k in range(term.max(initial=-1) + 1):
        sums[entry[term == k]] += vals[term == k]
    K = sp.csr_matrix((sums, np.divmod(entries, n)), shape=(n, n))
    K.eliminate_zeros()
    return K


def lower_band(matrix: sp.csr_matrix) -> np.ndarray:
    """LAPACK's lower band storage of a symmetric CSR matrix with sorted
    columns: ``ab[i - j, j] = K[i, j]`` for ``0 <= i - j <= kd``, Fortran
    order, where kd is the largest ``i - j`` of a stored entry."""
    n = matrix.shape[0]
    start = matrix.indptr[:-1]
    kd = int((np.arange(n) - matrix.indices[start]).max())  # first column is a row's least
    rows = np.repeat(np.arange(n), np.diff(matrix.indptr))
    lower = np.flatnonzero(matrix.indices <= rows)
    flat = np.zeros(n * (kd + 1))
    flat[matrix.indices[lower].astype(np.intp) * kd + rows[lower]] = matrix.data[lower]
    return flat.reshape((kd + 1, n), order="F")


def band_by_bincount(system) -> np.ndarray:
    """A system's lower band from one ``bincount`` over the 36 lower pairs of
    every active element at once, as assembly scattered it before it went
    chunk by chunk: ``ab[i - j, j] = K[i, j]``, Fortran order, each entry's
    element terms summed in element order."""
    pattern = system.active.mesh.stiffness_pattern()
    red = np.full(system.active.mesh.n_dofs, -1)
    red[system.active.free_dofs] = np.arange(system.n)
    r8 = red[pattern.dof_order][pattern.ranks[system.active.element_ids]]
    kd = max(0, int((r8.max(axis=1) - np.where(r8 < 0, system.n, r8).min(axis=1)).max()))
    a, b = np.tril_indices(8)
    end = system.n * (kd + 1)
    at = np.minimum(r8[:, a], r8[:, b])
    eliminated = at < 0
    at = at * kd + np.maximum(r8[:, a], r8[:, b])
    at[eliminated] = end
    flat = np.bincount(at.ravel(), weights=np.tile(system.ke[a, b], len(r8)),
                       minlength=end + 1)
    return flat[:end].reshape((kd + 1, system.n), order="F")


def write_vtk_at_once(problem, result, path) -> None:
    """``result.vtk`` from every line held at once and written as one joined
    text, as the writer did before it went block by block."""
    mesh = problem.mesh
    lines = [
        "# vtk DataFile Version 2.0",
        f"topt result: {problem.name}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_nodes} double",
    ]
    lines += [f"{x!r} {y!r} 0.0" for x, y in mesh.nodes.tolist()]
    lines.append(f"CELLS {mesh.n_elements} {5 * mesh.n_elements}")
    lines += ["4 %d %d %d %d" % tuple(quad) for quad in mesh.elements.tolist()]
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines += ["9"] * mesh.n_elements

    density = result.topology.solid.astype(float)
    if result.analysis is not None and result.analysis.vonmises:
        vm = np.maximum.reduce(result.analysis.vonmises)
    else:
        vm = np.zeros(mesh.n_elements)
    t_l = result.field if result.field is not None else np.zeros(mesh.n_elements)

    lines.append(f"CELL_DATA {mesh.n_elements}")
    for name, data in (("density", density), ("von_mises", vm), ("T_L", t_l)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines += map(repr, data.tolist())
    path.write_text("\n".join(lines) + "\n")


def write_density_pgm_per_pixel(problem, result, path) -> None:
    """``density.pgm`` from an integer grid, ``str`` called for every pixel,
    as the writer did before it looked pixels up."""
    mesh = problem.mesh
    nx, ny = mesh.grid_shape
    grid = np.zeros((ny, nx), dtype=int)
    gi, gj = mesh.element_grid[:, 0], mesh.element_grid[:, 1]
    grid[gj, gi] = np.where(result.topology.solid, 255, 0)
    lines = ["P2", f"{nx} {ny}", "255"]
    lines += [" ".join(map(str, row)) for row in grid[::-1].tolist()]
    path.write_text("\n".join(lines) + "\n")


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
        out[idx] = (a.compliances[0] - j0) / mesh.h ** 2
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


def condition_estimate_two_apply(system, lam_max: float, tol: float = 1e-4,
                                 max_iters: int = 500) -> tuple[float, bool]:
    """Estimate lambda_max/lambda_min from the bound ``lam_max`` and inverse
    power iteration.

    Returns (estimate, converged). When the iteration cap is hit converged
    is False.
    """
    v = 1.0 + np.arange(system.n) / system.n
    v /= np.linalg.norm(v)
    inv_min = 0.0
    for _ in range(max_iters):
        w = system.factor.solve(v)
        v = w / np.linalg.norm(w)
        new = float(v @ system.factor.solve(v))
        if abs(new - inv_min) <= tol * abs(new):
            return lam_max * new, True
        inv_min = new
    return lam_max * inv_min, False


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
