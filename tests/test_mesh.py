import numpy as np
import pytest

from topt import config, fem
from topt.mesh import (BoundarySpec, DomainSpec, MeshError, Point2, PointLoad,
                       Rect, TopologyError, TopologyState, active_submesh,
                       build_mesh, locate_node, repair_connectivity)
from topt.mesh import _support_connected
from topt.problems import builtin_config, builtin_problem

from _oracles import (flood_fill_support_connected, incidence_by_loop,
                      repair_connectivity_grid)
from conftest import make_cantilever, topology_draws


class TestBuildMesh:
    def test_unit_square_2x2(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 2, 2))
        assert mesh.n_elements == 4
        assert mesh.n_nodes == 9
        assert mesh.h == 0.5
        assert mesh.element_area == 0.25

    def test_l_shape_mask(self):
        spec = DomainSpec(1.0, 1.0, 10, 10, masked_regions=(Rect(0.4, 0.4, 1.0, 1.0),))
        mesh, _ = build_mesh(spec)
        assert mesh.n_elements == 64

    def test_zero_element_count_rejected(self):
        with pytest.raises(MeshError):
            DomainSpec(1.0, 1.0, 0, 2)

    def test_non_square_elements_rejected(self):
        with pytest.raises(MeshError):
            DomainSpec(2.0, 1.0, 10, 10)

    def test_full_mask_rejected(self):
        spec = DomainSpec(1.0, 1.0, 4, 4, masked_regions=(Rect(0.0, 0.0, 1.0, 1.0),))
        with pytest.raises(MeshError):
            build_mesh(spec)

    def test_deterministic(self):
        spec = DomainSpec(1.0, 1.0, 10, 10, masked_regions=(Rect(0.4, 0.4, 1.0, 1.0),))
        a, _ = build_mesh(spec)
        b, _ = build_mesh(spec)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.elements, b.elements)
        assert np.array_equal(a.element_grid, b.element_grid)

    def test_connectivity_ccw_and_manifold(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 5, 5))
        quads = mesh.nodes[mesh.elements]
        # shoelace area positive for counter-clockwise quads
        x, y = quads[..., 0], quads[..., 1]
        area = 0.5 * np.sum(x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y, axis=1)
        assert np.allclose(area, mesh.element_area)
        # each interior edge shared by exactly two elements
        edges = {}
        for quad in mesh.elements:
            for a, b in zip(quad, np.roll(quad, -1)):
                key = (min(a, b), max(a, b))
                edges[key] = edges.get(key, 0) + 1
        assert set(edges.values()) <= {1, 2}

    def test_masked_nodes_dropped(self):
        spec = DomainSpec(1.0, 1.0, 10, 10, masked_regions=(Rect(0.4, 0.4, 1.0, 1.0),))
        mesh, _ = build_mesh(spec)
        assert np.all(np.unique(mesh.elements) == np.arange(mesh.n_nodes))

    def test_incidence_matches_element_loop(self):
        spec = DomainSpec(1.0, 1.0, 10, 10, masked_regions=(Rect(0.4, 0.4, 1.0, 1.0),))
        mesh, _ = build_mesh(spec)
        indptr, indices = incidence_by_loop(mesh)
        assert np.array_equal(mesh._node_elements[0], indptr)
        assert np.array_equal(mesh._node_elements[1], indices)
        for n in range(mesh.n_nodes):
            assert np.all(np.diff(mesh.node_elements(n)) > 0)


class TestNeighbours:
    @staticmethod
    def _by_dict(mesh):
        """Face neighbours looked up cell by cell in a dict over the grid."""
        cell = {(int(i), int(j)): e for e, (i, j) in enumerate(mesh.element_grid)}
        return np.array([[cell.get((i + di, j + dj), -1)
                          for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))]
                         for i, j in mesh.element_grid.tolist()], dtype=np.int64)

    @pytest.mark.parametrize("mesh", [
        builtin_problem("l-bracket-single").mesh,
        build_mesh(DomainSpec(1.2, 1.0, 12, 10,
                              masked_regions=(Rect(0.0, 0.0, 0.3, 0.2),
                                              Rect(0.5, 0.4, 0.8, 0.7))))[0],
    ], ids=["l-bracket", "two-masks"])
    def test_matches_grid_lookup(self, mesh):
        assert mesh.neighbours.dtype == np.int64
        assert mesh.neighbours.shape == (mesh.n_elements, 4)
        assert np.array_equal(mesh.neighbours, self._by_dict(mesh))
        assert not mesh.neighbours.flags.writeable


class TestLocateNode:
    def test_exact_node(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4))
        for n in (0, 7, mesh.n_nodes - 1):
            p = Point2(*mesh.nodes[n])
            assert locate_node(mesh, p) == n

    def test_centroid_tie_breaks_low(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4))
        c = mesh.centroids[0]
        node = locate_node(mesh, Point2(c[0], c[1]))
        assert node == mesh.elements[0].min()

    def test_outside_raises(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4))
        with pytest.raises(MeshError):
            locate_node(mesh, Point2(2.0, 0.5))


def free_and_fixed_active(mesh, boundary, active):
    """Active nodes, and the free DOFs merged with the fixed DOFs on active
    nodes (sorted, duplicates kept)."""
    nodes = np.unique(mesh.elements[active.element_ids])
    fixed = [2 * n + d for n, d in boundary.fixed_dofs if n in nodes]
    return nodes, np.sort(np.concatenate([active.free_dofs, fixed]))


class TestActiveSubmesh:
    def test_all_solid_roundtrip(self):
        mesh, boundary, _ = make_cantilever(4, 2)
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        assert len(active.element_ids) == mesh.n_elements
        _, dofs = free_and_fixed_active(mesh, boundary, active)
        assert np.array_equal(dofs, np.arange(mesh.n_dofs))

    def test_single_element_counts(self):
        mesh, boundary = build_mesh(DomainSpec(1.0, 1.0, 3, 3))
        # keep only the element at the bottom-left corner, fix two of its nodes
        boundary.fix_node(0, "xy")
        boundary.fix_node(1, "y")
        boundary.point_loads.append(PointLoad(1, 5, (0.0, 1.0), 1.0))
        solid = np.zeros(9, dtype=bool)
        solid[0] = True
        active = active_submesh(mesh, TopologyState(solid), boundary)
        assert len(active.element_ids) == 1
        nodes, dofs = free_and_fixed_active(mesh, boundary, active)
        assert len(nodes) == 4
        assert np.array_equal(dofs, np.sort(np.concatenate([2 * nodes, 2 * nodes + 1])))

    def test_loaded_node_in_void_raises(self):
        mesh, boundary, tip = make_cantilever(4, 2)
        solid = np.ones(mesh.n_elements, dtype=bool)
        for e in mesh.node_elements(tip):
            solid[e] = False
        with pytest.raises(TopologyError):
            active_submesh(mesh, TopologyState(solid), boundary)

    def test_active_elements_have_active_nodes(self):
        mesh, boundary, _ = make_cantilever(6, 3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            solid = rng.random(mesh.n_elements) < 0.8
            solid[[e for e in mesh.node_elements(boundary.point_loads[0].node)]] = True
            # keep the left column so supports stay attached
            solid[np.flatnonzero(mesh.element_grid[:, 0] == 0)] = True
            try:
                active = active_submesh(mesh, TopologyState(solid), boundary)
            except TopologyError:
                continue
            active_nodes = set(np.unique(mesh.elements[active.element_ids]))
            for e in active.element_ids:
                assert set(mesh.elements[e]) <= active_nodes

    def test_detached_cluster_excluded(self):
        mesh, boundary, tip = make_cantilever(6, 3)
        solid = np.ones(mesh.n_elements, dtype=bool)
        # void the column i=4, detaching columns 5 from the clamped side
        solid[np.flatnonzero(mesh.element_grid[:, 0] == 4)] = False
        with pytest.raises(TopologyError):
            # the tip load sits on the detached island
            active_submesh(mesh, TopologyState(solid), boundary)


class TestStiffnessPattern:
    def test_separator_line_last(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4))  # 5 x 5 nodes
        order = mesh.stiffness_pattern().dof_order
        assert np.array_equal(order[1::2], order[0::2] + 1)  # x then y per node
        x = mesh.nodes[order[0::2] // 2, 0]
        # nodes left of the middle line, then right of it, then the line bottom-up
        assert np.all(x[:10] < 0.5) and np.all(x[10:20] > 0.5) and np.all(x[20:] == 0.5)
        assert np.all(np.diff(mesh.nodes[order[40::2] // 2, 1]) > 0)

    @pytest.mark.parametrize("name", ["l-bracket-single", "cantilever-single"])
    def test_free_dofs_permute_sorted_free_set(self, name):
        problem = builtin_problem(name)
        mesh, boundary = problem.mesh, problem.boundary
        fixed = [2 * n + d for n, d in boundary.fixed_dofs]
        checked = 0
        for solid, _, _, _ in topology_draws(mesh, seed=3, count=40):
            try:
                active = active_submesh(mesh, TopologyState(solid), boundary)
            except TopologyError:
                continue
            nodes = np.unique(mesh.elements[active.element_ids])
            expected = np.setdiff1d(np.concatenate([2 * nodes, 2 * nodes + 1]), fixed)
            assert np.array_equal(np.sort(active.free_dofs), expected)
            position = np.full(mesh.n_dofs, -1)
            position[active.free_dofs] = np.arange(active.n_free)
            both = (position[0::2] >= 0) & (position[1::2] >= 0)
            assert np.array_equal(position[1::2][both], position[0::2][both] + 1)
            checked += 1
        assert checked >= 10

    def test_build_problem_leaves_pattern_unbuilt(self):
        problem = config.build_problem(builtin_config("l-bracket-single"), mesh_scale=2)
        assert problem.mesh._stiffness_pattern is None

    def test_built_once_and_read_only(self):
        problem = builtin_problem("cantilever-single")
        mesh = problem.mesh
        active = active_submesh(mesh, TopologyState.full(mesh), problem.boundary)
        fem.assemble(active, problem.material)
        pattern = mesh.stiffness_pattern()
        arrays = (pattern.dof_order, pattern.indptr, pattern.cols, pattern.slots)
        fem.assemble(active, problem.material)
        again = mesh.stiffness_pattern()
        assert again is pattern
        assert all(a is b for a, b in zip(
            (again.dof_order, again.indptr, again.cols, again.slots), arrays))
        assert not any(a.flags.writeable for a in arrays)
        assert pattern.slots.shape == (mesh.n_elements, 64)


class TestSupportConnected:
    @pytest.mark.parametrize("name", ["l-bracket-single", "cantilever-single"])
    def test_matches_flood_fill(self, name):
        problem = builtin_problem(name)
        mesh = problem.mesh
        supports = problem.boundary.fixed_nodes()
        rng = np.random.default_rng(2024)
        for k in range(200):
            # densities around the percolation threshold give many components
            solid = rng.random(mesh.n_elements) < rng.uniform(0.3, 0.9)
            fixed = supports if k % 2 == 0 else rng.choice(mesh.n_nodes, size=3)
            expected = flood_fill_support_connected(mesh, solid, fixed)
            assert np.array_equal(_support_connected(mesh, solid, fixed), expected)


class TestRepairConnectivity:
    def test_orphaned_load_reattached(self):
        mesh, boundary, tip = make_cantilever(6, 3)
        previous = TopologyState.full(mesh)
        solid = np.ones(mesh.n_elements, dtype=bool)
        solid[np.flatnonzero(mesh.element_grid[:, 0] == 4)] = False
        broken = TopologyState(solid)
        repaired = repair_connectivity(mesh, broken, previous, boundary)
        active = active_submesh(mesh, repaired, boundary)  # should not raise
        assert repaired.solid.sum() > broken.solid.sum()
        assert len(active.element_ids) > 0

    @pytest.mark.parametrize("name", ["l-bracket-single", "cantilever-single"])
    def test_matches_grid_walk(self, name):
        problem = builtin_problem(name)
        mesh, boundary = problem.mesh, problem.boundary
        repaired = 0
        for solid, previous, _, _ in topology_draws(mesh, seed=5):
            topo = TopologyState(solid)
            prev = TopologyState(previous)
            expected = repair_connectivity_grid(mesh, topo, prev, boundary)
            out = repair_connectivity(mesh, topo, prev, boundary)
            assert np.array_equal(out.solid, expected.solid)
            assert out.volume_fraction == expected.volume_fraction
            assert (out is topo) == (expected is topo)
            repaired += expected is not topo
        assert repaired >= 50  # the draws exercise the repair, not just the no-op

    def test_connected_topology_untouched(self):
        mesh, boundary, _ = make_cantilever(6, 3)
        topo = TopologyState.full(mesh)
        out = repair_connectivity(mesh, topo, topo, boundary)
        assert out is topo


class TestBoundarySpec:
    def test_needs_three_fixed_dofs(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 2, 2))
        b = BoundarySpec()
        b.fix_node(0, "xy")
        b.point_loads.append(PointLoad(1, 8, (0.0, -1.0), 1.0))
        with pytest.raises(MeshError):
            b.validate(mesh.n_nodes)

    def test_fully_fixed_load_node_rejected(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 2, 2))
        b = BoundarySpec()
        b.fix_node(0, "xy")
        b.fix_node(1, "xy")
        b.point_loads.append(PointLoad(1, 0, (0.0, -1.0), 1.0))
        with pytest.raises(MeshError):
            b.validate(mesh.n_nodes)
