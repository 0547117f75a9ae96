"""Structured quadrilateral meshes over rectangular domains with region masks.

Conventions used throughout the package:

* Nodes are numbered row-major over the structured grid (x fastest), then
  compacted so that only nodes referenced by at least one element remain.
* Each element stores its 4 node indices counter-clockwise starting at the
  bottom-left corner.
* A degree of freedom (DOF) is ``2 * node + d`` with ``d = 0`` for x and
  ``d = 1`` for y.
* All elements are squares of side ``h``; the optimizer relies on the
  one-value-per-element layout for volume bookkeeping.
* ``Mesh.neighbours[e]`` lists the face neighbours of the element in grid
  cell (i, j) in the column order (i+1, j), (i-1, j), (i, j+1), (i, j-1),
  with -1 off the grid or in a masked cell. Element adjacency is read from
  this table only; the grid itself is used for labelling and for images.
* The stiffness matrix is numbered in the narrowest-band DOF order
  ``Mesh.dof_order``: free DOFs are listed in that order, and a matrix is
  factored in the order it is given.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import ndimage, sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

X, Y = 0, 1


class MeshError(ValueError):
    """Invalid domain description or degenerate mesh request."""


class TopologyError(RuntimeError):
    """A topology state cannot carry the applied loads."""


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise MeshError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, used for masked (removed) regions."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float


@dataclass(frozen=True)
class DomainSpec:
    """Rectangular design domain discretized into nx-by-ny square elements."""

    width: float
    height: float
    nx: int
    ny: int
    masked_regions: tuple[Rect, ...] = ()

    def __post_init__(self):
        for name in ("width", "height"):
            if not np.isfinite(getattr(self, name)):
                raise MeshError(f"{name} must be finite, got {getattr(self, name)!r}")
        for r in self.masked_regions:
            if not np.isfinite([r.xmin, r.ymin, r.xmax, r.ymax]).all():
                raise MeshError(f"mask {r} has a non-finite coordinate")
        if self.nx < 1 or self.ny < 1:
            raise MeshError(f"element counts must be >= 1, got nx={self.nx} ny={self.ny}")
        if self.width <= 0 or self.height <= 0:
            raise MeshError("width and height must be positive")
        hx = self.width / self.nx
        hy = self.height / self.ny
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise MeshError(f"elements must be square: width/nx={hx} != height/ny={hy}")
        slack = 1e-12 * max(self.width, self.height)
        for r in self.masked_regions:
            if r.xmin >= r.xmax or r.ymin >= r.ymax:
                raise MeshError(f"mask {r} is degenerate")
            if (r.xmin < -slack or r.ymin < -slack
                    or r.xmax > self.width + slack or r.ymax > self.height + slack):
                raise MeshError(f"mask {r} lies outside the domain bounding box")

    @property
    def element_size(self) -> float:
        return self.width / self.nx


@dataclass(frozen=True)
class PointLoad:
    case: int
    node: int
    direction: tuple[float, float]  # unit 2-vector
    magnitude: float


@dataclass
class BoundarySpec:
    """Fixed DOFs, point loads, and monitored (constraint-point) nodes."""

    fixed_dofs: set[tuple[int, int]] = field(default_factory=set)  # (node, X|Y)
    point_loads: list[PointLoad] = field(default_factory=list)
    monitor_nodes: set[int] = field(default_factory=set)

    def fix_node(self, node: int, directions: str = "xy") -> None:
        for d in directions:
            self.fixed_dofs.add((node, X if d == "x" else Y))

    def load_cases(self) -> list[int]:
        return sorted({p.case for p in self.point_loads})

    def loaded_nodes(self) -> set[int]:
        return {p.node for p in self.point_loads}

    def fixed_nodes(self) -> np.ndarray:
        """Nodes with at least one fixed DOF, ascending."""
        return np.unique(np.array([n for n, _ in self.fixed_dofs], dtype=np.int64))

    def validate(self, n_nodes: int) -> None:
        if len(self.fixed_dofs) < 3:
            raise MeshError("need at least 3 fixed DOFs to remove rigid-body modes")
        for node in self.fixed_nodes().tolist():
            if not 0 <= node < n_nodes:
                raise MeshError(f"fixed node {node} out of range")
        for p in self.point_loads:
            if not 0 <= p.node < n_nodes:
                raise MeshError(f"load node {p.node} out of range")
            nx_, ny_ = p.direction
            if abs(np.hypot(nx_, ny_) - 1.0) > 1e-9:
                raise MeshError(f"load direction {p.direction} is not a unit vector")
            if (p.node, X) in self.fixed_dofs and (p.node, Y) in self.fixed_dofs:
                raise MeshError(f"load applied to fully fixed node {p.node}")


class Mesh:
    """Immutable structured quad mesh (possibly with masked regions removed).

    Attributes
    ----------
    nodes : (n_nodes, 2) float array of coordinates.
    elements : (n_elements, 4) int array, CCW node indices.
    element_grid : (n_elements, 2) int array of (column i, row j) grid cells.
    grid_shape : (nx, ny) of the underlying structured grid.
    neighbours : (n_elements, 4) int array of face neighbours, -1 where
        there is none (column order in the module docstring).
    h : element side length.
    """

    def __init__(self, nodes, elements, element_grid, grid_shape, h):
        self.nodes = np.asarray(nodes, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.element_grid = np.asarray(element_grid, dtype=np.int64)
        self.grid_shape = tuple(grid_shape)
        self.h = float(h)
        # mesh DOF layout: 2 per node
        self.n_nodes = len(self.nodes)
        self.n_elements = len(self.elements)
        self.n_dofs = 2 * self.n_nodes
        # element -> 8 mesh DOFs, node-interleaved (ux0, uy0, ux1, ...)
        ed = np.empty((self.n_elements, 8), dtype=np.int64)
        ed[:, 0::2] = 2 * self.elements
        ed[:, 1::2] = 2 * self.elements + 1
        self.edofs = ed
        self.neighbours = self._build_neighbours()
        self._cone_filters: dict[float, tuple[sparse.csr_matrix, np.ndarray]] = {}
        self._connected_memo: tuple[bytes, np.ndarray | None] = (b"", None)
        for a in (self.nodes, self.elements, self.element_grid, self.edofs, self.neighbours):
            a.flags.writeable = False

    def _build_neighbours(self):
        nx, ny = self.grid_shape
        gi, gj = self.element_grid[:, 0] + 1, self.element_grid[:, 1] + 1
        grid = np.full((nx + 2, ny + 2), -1, dtype=np.int64)  # one cell of -1 all round
        grid[gi, gj] = np.arange(self.n_elements)
        return np.column_stack([grid[gi + 1, gj], grid[gi - 1, gj],
                                grid[gi, gj + 1], grid[gi, gj - 1]])

    def node_elements(self, node: int) -> np.ndarray:
        """Elements incident to a node (sorted by element index)."""
        return np.flatnonzero(self.elements.ravel() == node) // 4  # slot -> element

    def cone_filter(self, radius: float) -> tuple[sparse.csr_matrix, np.ndarray]:
        """Cone weights ``H[e, f] = max(0, 1 - |c_e - c_f| / radius)`` over
        element centroids and their row sums ``Hs``, built once per radius.
        Neighbours are looked up at the grid offsets within the radius, as in
        Andreassen et al., "Efficient topology optimization in MATLAB using
        88 lines of code" (2011)."""
        if radius not in self._cone_filters:
            n, (nx, ny) = self.n_elements, self.grid_shape
            reach = radius / self.h * (1 + 1e-9)  # in cells; the slack covers round-off
            pi, pj = min(int(reach), nx - 1), min(int(reach), ny - 1)
            di, dj = np.meshgrid(np.arange(-pi, pi + 1), np.arange(-pj, pj + 1))
            near = di * di + dj * dj <= reach * reach
            grid = np.full((nx + 2 * pi, ny + 2 * pj), -1)  # pi, pj cells of -1 all round
            gi, gj = self.element_grid[:, 0] + pi, self.element_grid[:, 1] + pj
            grid[gi, gj] = np.arange(n)
            candidates = grid[gi[:, None] + di[near], gj[:, None] + dj[near]]
            i, k = np.nonzero(candidates >= 0)
            j = candidates[i, k]
            centroids = self.nodes[self.elements].mean(axis=1)
            dx, dy = (np.take(centroids, i, 0) - np.take(centroids, j, 0)).T
            d = np.sqrt(dx * dx + dy * dy)  # np.linalg.norm(c_i - c_j), bit for bit
            within = d <= radius
            H = sparse.csr_matrix((np.maximum(0.0, 1.0 - d[within] / radius),
                                   (i[within], j[within])), shape=(n, n))
            Hs = np.asarray(H.sum(axis=1)).ravel()
            for a in (H.data, H.indices, H.indptr, Hs):
                a.flags.writeable = False
            self._cone_filters[radius] = (H, Hs)
        return self._cone_filters[radius]

    def band_orders(self) -> list[np.ndarray]:
        """Candidate node orders for a narrow stiffness band: reverse
        Cuthill-McKee on the element node graph (Cuthill & McKee, 1969), and
        the nodes sorted by x then y and by y then x."""
        pairs = np.stack([np.repeat(self.elements, 4, axis=1).ravel(),
                          np.tile(self.elements, 4).ravel()])
        graph = sparse.csr_matrix((np.ones(pairs.shape[1], dtype=np.int8), pairs),
                                  shape=(self.n_nodes, self.n_nodes))
        x, y = self.nodes[:, 0], self.nodes[:, 1]
        return [reverse_cuthill_mckee(graph, symmetric_mode=True).astype(np.int64),
                np.lexsort((y, x)), np.lexsort((x, y))]

    def node_band(self, nodes: np.ndarray) -> int:
        """Largest rank distance between two nodes of one element when the
        nodes are listed as ``nodes``; the DOF band is twice this plus one."""
        rank = np.argsort(nodes)[self.elements]
        return int((rank.max(axis=1) - rank.min(axis=1)).max())

    @cached_property
    def dof_order(self) -> np.ndarray:
        """The mesh DOFs in band order, built on first use: the nodes in the
        first of ``band_orders`` with the narrowest band, each node's x DOF
        right before its y DOF."""
        nodes = min(self.band_orders(), key=self.node_band)
        order = (2 * nodes[:, None] + [X, Y]).ravel()
        order.flags.writeable = False
        return order

    def bounding_box(self) -> tuple[float, float, float, float]:
        return (self.nodes[:, 0].min(), self.nodes[:, 1].min(),
                self.nodes[:, 0].max(), self.nodes[:, 1].max())


@dataclass
class TopologyState:
    """Solid/void characteristic set over the mesh elements."""

    solid: np.ndarray  # (n_elements,) bool

    @classmethod
    def full(cls, mesh: Mesh) -> "TopologyState":
        return cls(solid=np.ones(mesh.n_elements, dtype=bool))

    def count(self) -> int:
        return int(self.solid.sum())

    @property
    def volume_fraction(self) -> float:
        return self.count() / len(self.solid)


def build_mesh(spec: DomainSpec) -> tuple[Mesh, BoundarySpec]:
    """Build the structured grid, dropping masked cells and unused nodes.

    Deterministic: a given spec always produces bit-identical arrays. A cell
    is masked when its centroid falls inside any masked rectangle.
    """
    nx, ny = spec.nx, spec.ny
    h = spec.element_size

    gx = np.arange(nx + 1) * h
    gy = np.arange(ny + 1) * h
    full_nodes = np.column_stack([np.tile(gx, ny + 1), np.repeat(gy, nx + 1)])

    ii, jj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    ii = ii.T.ravel()  # row-major over cells: j outer, i inner
    jj = jj.T.ravel()
    cx = (ii + 0.5) * h
    cy = (jj + 0.5) * h
    keep = np.ones(len(ii), dtype=bool)
    for r in spec.masked_regions:
        keep &= ~((cx >= r.xmin) & (cx <= r.xmax) & (cy >= r.ymin) & (cy <= r.ymax))
    if not keep.any():
        raise MeshError("masked regions cover the whole domain")

    ii, jj = ii[keep], jj[keep]
    n0 = jj * (nx + 1) + ii
    elements_full = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])

    referenced = np.zeros(len(full_nodes), dtype=bool)
    referenced[elements_full] = True
    used = np.flatnonzero(referenced)
    remap = np.full(len(full_nodes), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return (
        Mesh(
            nodes=full_nodes[used],
            elements=remap[elements_full],
            element_grid=np.column_stack([ii, jj]),
            grid_shape=(nx, ny),
            h=h,
        ),
        BoundarySpec(),
    )


def locate_node(mesh: Mesh, p: Point2) -> int:
    """Index of the node nearest to p; ties broken by lowest index. A point
    farther than half an element diagonal from every node is in no element."""
    x0, y0, x1, y1 = mesh.bounding_box()
    slack = 1e-9 * max(x1 - x0, y1 - y0)
    if not (x0 - slack <= p.x <= x1 + slack and y0 - slack <= p.y <= y1 + slack):
        raise MeshError(f"point ({p.x}, {p.y}) outside mesh bounding box")
    # offsets scaled by a power of two, exactly, so huge lengths square finitely
    scale = 2.0 ** -np.frexp(max(x1 - x0, y1 - y0))[1]
    d2 = ((mesh.nodes[:, 0] - p.x) * scale) ** 2 + ((mesh.nodes[:, 1] - p.y) * scale) ** 2
    dmin = d2.min()
    if dmin > 0.5 * (mesh.h * scale) ** 2 * (1.0 + 1e-9):
        raise MeshError(f"point ({p.x}, {p.y}) lies off the mesh: its nearest node is "
                        f"{np.sqrt(dmin) / scale:.3g} away, more than half an element diagonal")
    ties = np.flatnonzero(d2 <= dmin * (1.0 + 1e-12))
    return int(ties.min())


class ActiveMesh:
    """Solid-element submesh with DOF bookkeeping for the reduced system.

    Elements in solid components that are not edge-connected to any fixed
    node are excluded (they would make the stiffness matrix singular).
    """

    def __init__(self, mesh: Mesh, element_ids, free_dofs):
        self.mesh = mesh
        self.element_ids = element_ids          # active (analyzed) elements
        self.free_dofs = free_dofs              # mesh DOF ids, in band order
        self.edofs = mesh.edofs[element_ids]


def _support_connected(mesh: Mesh, solid: np.ndarray, fixed_nodes: np.ndarray) -> np.ndarray:
    """Mask of solid elements edge-connected to a component holding a fixed node."""
    gi, gj = mesh.element_grid[:, 0], mesh.element_grid[:, 1]
    grid = np.zeros(mesh.grid_shape, dtype=bool)
    grid[gi, gj] = solid
    labels = ndimage.label(grid)[0][gi, gj]  # default cross = shared edges
    at_support = np.zeros(mesh.n_nodes, dtype=bool)
    at_support[np.asarray(fixed_nodes, dtype=np.int64)] = True
    seeds = solid & at_support[mesh.elements].any(axis=1)
    supported = np.zeros(labels.max() + 1, dtype=bool)
    supported[labels[seeds]] = True  # void is label 0, never a seed
    return supported[labels]


def _connected_and_orphans(mesh: Mesh, solid: np.ndarray,
                           boundary: BoundarySpec) -> tuple[np.ndarray, list[int]]:
    """Support-connected mask of ``solid``, and the loaded or monitored nodes
    (ascending) that touch no element of it; the mask is read-only, memoized per mesh."""
    fixed = boundary.fixed_nodes()
    key = solid.tobytes() + fixed.tobytes()  # solid's length is fixed
    if mesh._connected_memo[0] != key:
        mesh._connected_memo = (key, _support_connected(mesh, solid, fixed))
        mesh._connected_memo[1].flags.writeable = False
    connected = mesh._connected_memo[1]
    orphans = [n for n in sorted(boundary.loaded_nodes() | boundary.monitor_nodes)
               if not connected[mesh.node_elements(n)].any()]
    return connected, orphans


def repair_connectivity(mesh: Mesh, topo: TopologyState, previous: TopologyState,
                        boundary: BoundarySpec) -> TopologyState:
    """Re-attach orphaned load/monitor nodes after a cut.

    A rank-based cut can sever the (often unstressed, hence low-sensitivity)
    path that keeps a loaded or monitored node connected; removing that last
    link is a discontinuous event the first-order field cannot see. The
    repair walks the previous topology -- which was connected -- and restores
    a shortest element path from the node back to the support-connected
    structure.
    """
    solid = topo.solid.copy()
    for _ in range(len(boundary.loaded_nodes() | boundary.monitor_nodes)):
        connected, orphans = _connected_and_orphans(mesh, solid, boundary)
        if not orphans:
            break
        seeds = [int(e) for e in mesh.node_elements(orphans[0]) if previous.solid[e]]
        # breadth-first over the previous solid set toward the connected part
        parent = {e: -1 for e in seeds}
        queue = deque(seeds)
        goal = -1
        while queue:
            e = queue.popleft()
            if connected[e]:
                goal = e
                break
            for ne in mesh.neighbours[e].tolist():
                if ne >= 0 and previous.solid[ne] and ne not in parent:
                    parent[ne] = e
                    queue.append(ne)
        if goal < 0:
            break  # nothing to restore from; let active_submesh report it
        e = goal
        while e >= 0:
            # restore the path element and, to widen the bridge (a
            # single-element path is a near-mechanism), its previous-solid
            # face neighbours
            block = [f for f in (e, *mesh.neighbours[e].tolist()) if f >= 0]
            solid[block] |= previous.solid[block]
            e = parent[e]
    if np.array_equal(solid, topo.solid):
        return topo
    return TopologyState(solid=solid)


def active_submesh(mesh: Mesh, topo: TopologyState, boundary: BoundarySpec) -> ActiveMesh:
    """Derive the analyzable submesh for a topology state.

    Raises TopologyError when a loaded or monitored node has no attached
    solid element connected to the supports.
    """
    if len(topo.solid) != mesh.n_elements:
        raise ValueError("topology length does not match element count")
    if not topo.solid.any():
        raise TopologyError("empty topology")

    connected, orphans = _connected_and_orphans(mesh, topo.solid, boundary)
    element_ids = np.flatnonzero(connected)
    if len(element_ids) == 0:
        raise TopologyError("no solid element is connected to the supports")
    if orphans:
        raise TopologyError(f"node {orphans[0]} carries a load or constraint but touches no solid element")

    active_nodes = np.zeros(mesh.n_nodes, dtype=bool)
    active_nodes[mesh.elements[element_ids].ravel()] = True
    fixed_mask = np.zeros(mesh.n_dofs, dtype=bool)
    fixed_mask[[2 * n + d for n, d in boundary.fixed_dofs]] = True
    order = mesh.dof_order
    free_dofs = order[(np.repeat(active_nodes, 2) & ~fixed_mask)[order]]
    return ActiveMesh(mesh, element_ids, free_dofs)
