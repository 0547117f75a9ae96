import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topt import config, fem
from topt import mesh as mesh_module
from topt.mesh import (BoundarySpec, DomainSpec, MeshError, Point2, PointLoad,
                       Rect, TopologyError, TopologyState, active_submesh,
                       build_mesh, locate_node, repair_connectivity)
from topt.mesh import _support_connected
from topt.problems import BUILTIN_NAMES, builtin_config, builtin_problem

from _oracles import (flood_fill_support_connected, incidence_by_loop,
                      repair_connectivity_grid)
from conftest import make_cantilever, topology_draws


class TestBuildMesh:
    def test_unit_square_2x2(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 2, 2))
        assert mesh.n_elements == 4
        assert mesh.n_nodes == 9
        assert mesh.h == 0.5
        assert mesh.h ** 2 == 0.25

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

    def test_mask_one_ulp_past_a_huge_domain(self):
        # the slack is relative: an absolute 1e-12 is below one ulp of 1e20
        w = 1e20
        mask = Rect(0.4 * w, 0.4 * w, float(np.nextafter(w, np.inf)), w)
        mesh, _ = build_mesh(DomainSpec(w, w, 10, 10, masked_regions=(mask,)))
        assert mesh.n_elements == 64

    def test_mask_far_past_a_tiny_domain_rejected(self):
        # 5e-13 is 5e137 widths past a domain of width 1e-150
        w = 1e-150
        with pytest.raises(MeshError, match="outside the domain bounding box"):
            DomainSpec(w, w, 10, 10, masked_regions=(Rect(0.4 * w, 0.4 * w, 5e-13, w),))

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
        assert np.allclose(area, mesh.h ** 2)
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
        for n in range(mesh.n_nodes):
            assert np.array_equal(mesh.node_elements(n), indices[indptr[n]:indptr[n + 1]])
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

    def test_tiny_lengths(self):
        # ties are relative: squared distances below 1e-300 do not all tie
        unit, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4))
        tiny, _ = build_mesh(DomainSpec(1e-150, 1e-150, 4, 4))
        for x, y in [(1.0, 0.25), (0.5, 0.5), (0.3, 0.9)]:
            expected = locate_node(unit, Point2(x, y))
            assert locate_node(tiny, Point2(x * 1e-150, y * 1e-150)) == expected

    def test_huge_lengths(self):
        # offsets are scaled before they are squared: lengths near 1e160
        # square finitely, to the unit-size answers
        unit, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4))
        huge, _ = build_mesh(DomainSpec(1.2e160, 1.2e160, 4, 4))
        with np.errstate(over="raise"):
            for x, y in [(1.0, 0.25), (0.5, 0.5), (0.3, 0.9), (0.0, 1.0)]:
                expected = locate_node(unit, Point2(x, y))
                assert locate_node(huge, Point2(x * 1.2e160, y * 1.2e160)) == expected

    def test_centroid_tie_breaks_low(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4))
        c = mesh.nodes[mesh.elements[0]].mean(axis=0)
        node = locate_node(mesh, Point2(c[0], c[1]))
        assert node == mesh.elements[0].min()

    def test_outside_raises(self):
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4))
        with pytest.raises(MeshError):
            locate_node(mesh, Point2(2.0, 0.5))

    def test_off_mesh_raises(self):
        # inside the bounding box, but in the masked square: the nearest
        # node, on the hole's edge, is over 2.5 element sizes away
        mesh, _ = build_mesh(DomainSpec(1.0, 1.0, 4, 4,
                                        masked_regions=(Rect(0.25, 0.25, 1.0, 1.0),)))
        with pytest.raises(MeshError, match="lies off the mesh"):
            locate_node(mesh, Point2(0.875, 0.875))


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
    def test_narrowest_band_chosen(self):
        # the full domain's blocks; the L-bracket's one band would be 95 and
        # 183 wide, and is not chosen
        kd = {1: {"l-bracket": [49, 49, 93], "cantilever": [69], "mitchell": [69]},
              2: {"l-bracket": [93, 93, 181], "cantilever": [133], "mitchell": [133]}}
        single = {1: {"l-bracket": 95, "cantilever": 69, "mitchell": 69},
                  2: {"l-bracket": 183, "cantilever": 133, "mitchell": 133}}
        for scale in (1, 2):
            for name in BUILTIN_NAMES:
                problem = builtin_problem(name, mesh_scale=scale)
                mesh = problem.mesh
                order, ends = mesh.dof_layout
                assert np.array_equal(np.sort(order), np.arange(mesh.n_dofs))
                assert not np.any(order[0::2] % 2)  # each node's x DOF first
                assert np.array_equal(order[1::2], order[0::2] + 1)  # x then y per node
                blocks = np.split(order[0::2] // 2, np.array(ends[:-1]) // 2)
                chosen = mesh.block_bands(blocks)
                narrowest = min(mesh.block_bands([o])[0] for o in mesh.band_orders())
                assert 2 * narrowest + 1 == single[scale][name.rsplit("-", 1)[0]]
                # the blocks do less banded Cholesky work, sum n kd^2, than one band
                work = sum(len(b) * (2 * w + 1) ** 2 for b, w in zip(blocks, chosen))
                if len(blocks) == 1:
                    assert chosen == [narrowest]
                else:
                    assert work < mesh.n_nodes * (2 * narrowest + 1) ** 2
                active = active_submesh(mesh, TopologyState.full(mesh), problem.boundary)
                bands = fem.assemble(active, problem.material)._build_blocks()[0]
                assert ([band.shape[0] - 1 for band in bands] == [2 * w + 1 for w in chosen]
                        == kd[scale][name.rsplit("-", 1)[0]])

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
            position[active.free_dofs] = np.arange(len(active.free_dofs))
            both = (position[0::2] >= 0) & (position[1::2] >= 0)
            assert np.array_equal(position[1::2][both], position[0::2][both] + 1)
            checked += 1
        assert checked >= 10

    def test_build_problem_leaves_pattern_unbuilt(self):
        problem = config.build_problem(builtin_config("l-bracket-single"), mesh_scale=2)
        assert "dof_layout" not in vars(problem.mesh)

    def test_built_once_and_read_only(self):
        problem = builtin_problem("cantilever-single")
        mesh = problem.mesh
        active_submesh(mesh, TopologyState.full(mesh), problem.boundary)
        layout = vars(mesh)["dof_layout"]  # built by the first active_submesh
        solid = np.ones(mesh.n_elements, dtype=bool)
        solid[-1] = False
        active_submesh(mesh, TopologyState(solid), problem.boundary)
        assert mesh.dof_layout is layout
        assert not layout[0].flags.writeable and layout[1] == (mesh.n_dofs,)

    @pytest.mark.parametrize("name", ["l-bracket-single", "mitchell-multi"])
    def test_lower_triangle_of_each_element(self, name):
        # with the element DOFs' positions in the dof_layout order, the 36
        # tril_indices(8) pairs, entered as (max, min), give each unordered
        # pair of the element's DOFs once with row position >= column position
        mesh = builtin_problem(name).mesh
        order = mesh.dof_layout[0]
        position = np.argsort(order)[mesh.edofs]
        assert np.array_equal(order[position], mesh.edofs)
        a, b = np.tril_indices(8)
        ra, rb = position[:, a], position[:, b]
        rows, cols = np.maximum(ra, rb), np.minimum(ra, rb)
        assert np.all(rows >= cols)
        assert np.all(np.diff(np.sort(position, axis=1), axis=1) > 0)  # distinct
        # local DOF of each pair's row and column, found back from the mesh DOFs
        match = [order[r][:, :, None] == mesh.edofs[:, None, :] for r in (rows, cols)]
        assert all(m.sum(axis=2).min() == m.sum(axis=2).max() == 1 for m in match)
        at = [m.argmax(axis=2) for m in match]
        key = np.sort(np.minimum(*at) * 8 + np.maximum(*at), axis=1)
        assert np.array_equal(key, np.broadcast_to(np.sort(b * 8 + a), key.shape))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_holds_only_order_and_ranks(self, name):
        # the band order is one int64 per DOF, with a few block ends; no
        # per-element rank table, nor any other array, is kept beside the
        # mesh's own after an analysis
        problem = builtin_problem(name, mesh_scale=2)
        mesh = problem.mesh
        active_submesh(mesh, TopologyState.full(mesh), problem.boundary)
        order, ends = mesh.dof_layout
        assert order.nbytes == 8 * mesh.n_dofs and ends[-1] == mesh.n_dofs
        assert all(isinstance(end, int) for end in ends) and len(ends) in (1, 3)
        arrays = {k for k, v in vars(mesh).items() if isinstance(v, np.ndarray)}
        assert arrays == {"nodes", "elements", "element_grid", "edofs", "neighbours"}


class TestConeFilter:
    @pytest.mark.parametrize("name", ["l-bracket-single", "mitchell-multi"])
    def test_matches_all_pairs(self, name):
        # every pair of centroids within the radius, its weight from the same
        # formula, and each row summed by numpy's segment sum: bit for bit
        mesh = builtin_problem(name).mesh
        centroids = mesh.nodes[mesh.elements].mean(axis=1)
        factors = (1.0, np.sqrt(2.0), 1.5, 2.0, 2.5, 3.0, 4.0)
        rows = {k: [] for k in factors}
        for e in range(mesh.n_elements):
            d = np.linalg.norm(centroids[e] - centroids, axis=1)
            for k in factors:
                near = np.flatnonzero(d <= k * mesh.h)
                rows[k].append((near, np.maximum(0.0, 1.0 - d[near] / (k * mesh.h))))
        for k in factors:
            H, Hs = mesh.cone_filter(k * mesh.h)
            indptr = np.cumsum([0] + [len(j) for j, _ in rows[k]])
            data = np.concatenate([w for _, w in rows[k]])
            assert np.array_equal(H.indptr, indptr)
            assert np.array_equal(H.indices, np.concatenate([j for j, _ in rows[k]]))
            assert H.data.tobytes() == data.tobytes()
            assert Hs.tobytes() == np.add.reduceat(data, indptr[:-1]).tobytes()

    def test_built_once_and_read_only(self):
        mesh = builtin_problem("cantilever-single").mesh
        H, Hs = mesh.cone_filter(1.5 * mesh.h)
        assert mesh.cone_filter(1.5 * mesh.h)[0] is H
        assert not any(a.flags.writeable for a in (H.data, H.indices, H.indptr, Hs))

    def test_radius_beyond_the_domain(self):
        # every element reaches every other; the offsets stop at the grid's edge
        mesh = build_mesh(DomainSpec(1.0, 0.5, 4, 2))[0]
        H, _ = mesh.cone_filter(10.0)
        centroids = mesh.nodes[mesh.elements].mean(axis=1)
        d = np.linalg.norm(centroids[:, None] - centroids[None], axis=2)
        assert np.array_equal(H.toarray(), 1.0 - d / 10.0)

    def test_import_leaves_out_scipy_spatial(self):
        src = str(Path(mesh_module.__file__).resolve().parents[1])
        code = ("import sys, topt, topt.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


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

    def test_repair_then_analysis_labels_once(self, monkeypatch):
        mesh, boundary, _ = make_cantilever(6, 3)
        solid = mesh.element_grid[:, 0] != 4  # the loaded tip is cut off
        labelled = []
        label = mesh_module._support_connected
        monkeypatch.setattr(mesh_module, "_support_connected",
                            lambda *args: labelled.append(args[1].copy()) or label(*args))
        repaired = repair_connectivity(mesh, TopologyState(solid),
                                       TopologyState.full(mesh), boundary)
        active = active_submesh(mesh, repaired, boundary)
        # the orphaned cut, then the repaired set the analysis reuses
        assert [x.tobytes() for x in labelled] == [solid.tobytes(), repaired.solid.tobytes()]
        # keyed by content, not by object
        again = active_submesh(mesh, TopologyState(repaired.solid.copy()), boundary)
        assert len(labelled) == 2
        assert np.array_equal(again.element_ids, active.element_ids)
        # other supports label again
        boundary.fix_node(int(mesh.elements[-1, 2]), "x")
        active_submesh(mesh, repaired, boundary)
        assert len(labelled) == 3


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
