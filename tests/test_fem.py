import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_solve_banded, cholesky_banded

from topt import fem
from topt.mesh import (DomainSpec, PointLoad, TopologyError, TopologyState, active_submesh,
                       build_mesh, repair_connectivity)
from topt.problems import BUILTIN_NAMES, builtin_problem

from _oracles import (assemble_coo, band_by_bincount, closed_form_ke,
                      condition_estimate_two_apply, lattice_symbol_top, lower_band)
from conftest import Counting, make_cantilever, topology_draws, uniaxial_element, wrap_factorization


def assert_matches_coo(active, material):
    """The assembled band is the lower band of the COO assembly, renumbered
    by free_dofs, bit for bit, and its element-by-element product is the
    COO matrix's within round-off."""
    system = fem.assemble(active, material)
    expected = oracle_matrix(active, material)
    assert (expected != expected.T).nnz == 0
    assert np.array_equal(system._build_band(), lower_band(expected))
    x = np.random.default_rng(len(active.free_dofs)).normal(size=len(active.free_dofs))
    assert np.linalg.norm(system.product(x) - expected @ x) <= 1e-14 * np.linalg.norm(expected @ x)


def oracle_matrix(active, material):
    """The COO assembly renumbered by ``active.free_dofs``, columns sorted."""
    at = np.searchsorted(np.sort(active.free_dofs), active.free_dofs)
    K = assemble_coo(active, material)[at][:, at].tocsr()
    K.sort_indices()
    return K


def pairwise_band_width(active):
    """Largest ``i - j`` over the pairs of free DOFs of one element, 0 when
    no element has two."""
    position = np.full(active.mesh.n_dofs, -1)
    position[active.free_dofs] = np.arange(len(active.free_dofs))
    return max((p - q for dofs in active.edofs.tolist() for p in position[dofs].tolist()
                for q in position[dofs].tolist() if q >= 0 and p >= q), default=0)


def dense(system):
    """The full symmetric matrix of a system's band."""
    band = system._build_band()
    kd, n = band.shape[0] - 1, band.shape[1]
    K = np.zeros((n, n))
    for d in range(kd + 1):
        i = np.arange(d, n)
        K[i, i - d] = K[i - d, i] = band[d, :n - d]
    return K


class TestMaterial:
    def test_validation(self):
        with pytest.raises(ValueError):
            fem.Material(E=-1.0)
        with pytest.raises(ValueError):
            fem.Material(nu=0.5)

    def test_constitutive_symmetric(self):
        C = fem.Material(E=2e11, nu=0.33).constitutive()
        assert np.array_equal(C, C.T)


class TestChunkedScatter:
    """The band scattered ``fem._CHUNK`` elements at a time is bit for bit the
    one-shot ``bincount`` over every element, with a smaller transient."""

    @staticmethod
    def assert_bincount_band(system):
        band, expected = system._build_band(), band_by_bincount(system)
        assert band.shape == expected.shape and band.flags.f_contiguous
        assert band.tobytes(order="F") == expected.tobytes(order="F")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_full_domain(self, name):
        problem = builtin_problem(name)
        active = active_submesh(problem.mesh, TopologyState.full(problem.mesh),
                                problem.boundary)
        self.assert_bincount_band(fem.assemble(active, problem.material))

    @pytest.mark.parametrize("name", ["l-bracket-single", "mitchell-multi"])
    def test_random_topologies(self, name):
        problem = builtin_problem(name)
        checked = 0
        for solid, _, _, _ in topology_draws(problem.mesh, seed=5, count=40):
            try:
                active = active_submesh(problem.mesh, TopologyState(solid), problem.boundary)
            except TopologyError:
                continue
            self.assert_bincount_band(fem.assemble(active, problem.material))
            checked += 1
        assert checked >= 10

    def test_random_topologies_at_scale_two(self):
        # up to 7,744 elements, 16 chunks, and bands up to kd = 183 wide
        problem = builtin_problem("l-bracket-single", mesh_scale=2)
        mesh, boundary = problem.mesh, problem.boundary
        widths = []
        for solid, previous, _, _ in topology_draws(mesh, seed=7, count=20):
            topo = repair_connectivity(mesh, TopologyState(solid), TopologyState(previous),
                                       boundary)
            try:
                active = active_submesh(mesh, topo, boundary)
            except TopologyError:
                continue
            system = fem.assemble(active, problem.material)
            self.assert_bincount_band(system)
            widths.append(system._build_band().shape[0] - 1)
        assert len(widths) >= 10 and max(widths) == 183

    @pytest.mark.parametrize("nx, ny", [(1, 1), (73, 7), (32, 16), (27, 19), (32, 32)],
                             ids=["1", "511", "512", "513", "1024"])
    def test_around_chunk_boundaries(self, nx, ny):
        assert fem._CHUNK == 512
        mesh, boundary, _ = make_cantilever(nx, ny, width=float(nx), height=float(ny))
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        assert len(active.element_ids) == nx * ny
        self.assert_bincount_band(fem.assemble(active, fem.Material()))

    def test_build_peak_is_the_band(self):
        # the full scale-2 L-bracket: a 22 MiB band, and no (n_elements, 36)
        # index table (7 MiB) beside it
        problem = builtin_problem("l-bracket-single", mesh_scale=2)
        active = active_submesh(problem.mesh, TopologyState.full(problem.mesh),
                                problem.boundary)
        system = fem.assemble(active, problem.material)
        system._build_band()  # the mesh's stiffness pattern is built once, here
        tracemalloc.start()
        try:
            band = system._build_band()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert band.nbytes == 184 * system.n * 8
        assert peak <= band.nbytes + 2 * 2**20


class TestElementStiffness:
    def test_rigid_body_modes(self):
        m = fem.Material(E=2e11, nu=0.33)
        ke = fem.element_stiffness(m, h=0.05)
        tx = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
        ty = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        # rotation about the element center: u = (-y, x) at each corner
        xy = np.array([[-1, -1], [1, -1], [1, 1], [-1, 1]], dtype=float)
        rot = np.column_stack([-xy[:, 1], xy[:, 0]]).ravel()
        for v in (tx, ty, rot):
            assert np.max(np.abs(ke @ v)) < 1e-9 * m.E

    def test_rank_five(self):
        ke = fem.element_stiffness(fem.Material(E=1.0, nu=0.3), h=1.0)
        eig = np.linalg.eigvalsh(ke)
        assert np.sum(np.abs(eig) < 1e-12) == 3
        assert np.all(eig[np.abs(eig) >= 1e-12] > 0)

    def test_linear_in_e(self):
        a = fem.element_stiffness(fem.Material(E=1.0, nu=0.3), h=0.1)
        b = fem.element_stiffness(fem.Material(E=2.0, nu=0.3), h=0.1)
        assert np.allclose(b, 2.0 * a, rtol=1e-14)

    def test_matches_closed_form_oracle(self):
        E = 3.7e9
        for nu in (0.0, 0.3, 0.33, 0.45):
            ke = fem.element_stiffness(fem.Material(E=E, nu=nu), h=0.23)
            assert np.allclose(ke, closed_form_ke(E, nu), rtol=1e-12, atol=1e-12 * E)

    def test_size_independent(self):
        m = fem.Material(E=1e9, nu=0.3)
        assert np.allclose(fem.element_stiffness(m, 1.0), fem.element_stiffness(m, 0.01))

    def test_bitwise_symmetric(self):
        # assembly enters ke[a, b] for the pair (b, a) too
        for E in (1.0, 3.7e9, 2e11):
            for nu in (0.0, 0.1, 0.3, 0.33, 0.45, 0.499):
                for h in (1.0, 0.23, 0.05, 1.0 / 44):
                    ke = fem.element_stiffness(fem.Material(E=E, nu=nu), h)
                    assert ke.tobytes() == np.ascontiguousarray(ke.T).tobytes()


class TestAssemble:
    def test_single_element_reduced_size(self):
        mesh, boundary = build_mesh(DomainSpec(1.0, 1.0, 1, 1))
        boundary.fix_node(0, "xy")
        boundary.fixed_dofs.add((1, 1))
        boundary.point_loads.append(PointLoad(1, 3, (0.0, -1.0), 1.0))
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        system = fem.assemble(active, fem.Material())
        assert system.n == 5 and system._build_band().shape[1] == 5
        eig = np.linalg.eigvalsh(dense(system))
        assert eig.min() > 0

    def test_exact_symmetry(self):
        # the band is the lower triangle of K and, transposed, its upper one
        mesh, boundary, _ = make_cantilever(6, 3)
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        system = fem.assemble(active, fem.Material())
        expected = oracle_matrix(active, fem.Material())
        band = system._build_band()
        assert np.array_equal(band, lower_band(expected))
        assert np.array_equal(band, lower_band(expected.T.tocsr()))

    def test_spd_on_two_element_patch(self):
        mesh, boundary = build_mesh(DomainSpec(1.0, 0.5, 2, 1))
        for n in range(mesh.n_nodes):
            if mesh.nodes[n, 0] == 0.0:
                boundary.fix_node(n, "xy")
        boundary.point_loads.append(PointLoad(1, 5, (0.0, -1.0), 1.0))
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        K = dense(fem.assemble(active, fem.Material()))
        assert np.linalg.eigvalsh(K).min() > 0  # dense eigendecomposition oracle

    @pytest.mark.parametrize("fixed, n_free, kd", [
        ((0, 1, 4, 5), 8, 7),        # the first element has every DOF fixed
        ((0, 1, 2, 4, 5, 6), 4, 3),  # the first two elements have every DOF fixed
    ])
    def test_band_width_with_fixed_elements(self, fixed, n_free, kd):
        # kd is the largest distance between two free DOFs of one element,
        # and an element without a pair of free DOFs does not widen it
        mesh, boundary = build_mesh(DomainSpec(3.0, 1.0, 3, 1))
        for node in fixed:
            boundary.fix_node(node, "xy")
        boundary.point_loads.append(PointLoad(1, 7, (0.0, -1.0), 1.0))
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        assert len(active.free_dofs) == n_free
        band = fem.assemble(active, fem.Material())._build_band()
        assert band.shape == (kd + 1, n_free)
        assert kd == pairwise_band_width(active)
        assert_matches_coo(active, fem.Material())

    def test_band_width_with_one_free_dof(self):
        mesh, boundary = build_mesh(DomainSpec(2.0, 1.0, 2, 1))
        for node in range(mesh.n_nodes):
            boundary.fix_node(node, "xy")
        boundary.fixed_dofs.discard((2, 1))  # one free DOF, in the second element only
        boundary.point_loads.append(PointLoad(1, 2, (0.0, -1.0), 1.0))
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        band = fem.assemble(active, fem.Material())._build_band()
        assert band.shape == (1, 1) and pairwise_band_width(active) == 0
        ke = fem.element_stiffness(fem.Material(), mesh.h)
        assert band[0, 0] == ke[3, 3]  # node 2 is the second element's second node

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_full_domain_matches_coo(self, name):
        problem = builtin_problem(name)
        active = active_submesh(problem.mesh, TopologyState.full(problem.mesh),
                                problem.boundary)
        assert_matches_coo(active, problem.material)

    @pytest.mark.parametrize("name", ["l-bracket-single", "cantilever-single"])
    def test_random_topologies_match_coo(self, name):
        problem = builtin_problem(name)
        mesh, boundary = problem.mesh, problem.boundary
        analyzed = 0
        for solid, previous, _, _ in topology_draws(mesh, seed=7, count=80):
            topo = repair_connectivity(mesh, TopologyState(solid),
                                       TopologyState(previous), boundary)
            try:
                active = active_submesh(mesh, topo, boundary)
            except TopologyError:
                continue
            # the draws leave void elements inside the analyzed structure
            assert len(active.element_ids) < mesh.n_elements
            assert_matches_coo(active, problem.material)
            analyzed += 1
        assert analyzed >= 50


class TestSolve:
    def test_uniaxial_patch(self):
        m = fem.Material(E=2e11, nu=0.33)
        mesh, boundary = uniaxial_element(material=m, h=0.5)
        analysis = fem.analyze(mesh, boundary, m, TopologyState.full(mesh))
        f = analysis.loads[0]
        sigma = f[f > 0].sum() / mesh.h  # effective traction after normalization
        u = analysis.displacements[0]
        L = mesh.h
        ux_expect = sigma * L / m.E
        uy_expect = -m.nu * sigma * L / m.E
        assert np.isclose(u[2 * 1], ux_expect, rtol=1e-8)      # bottom-right x
        assert np.isclose(u[2 * 3], ux_expect, rtol=1e-8)      # top-right x
        assert np.isclose(u[2 * 3 + 1], uy_expect, rtol=1e-8)  # top-right y
        assert np.isclose(u[2 * 2 + 1], uy_expect, rtol=1e-8)  # top-left y

    def test_zero_load(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        u = fem.solve(analysis.system, np.zeros(analysis.active.mesh.n_dofs))
        assert np.all(u == 0.0)

    def test_linearity(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        f = analysis.loads[0]
        u1 = fem.solve(analysis.system, f)
        u3 = fem.solve(analysis.system, 3.0 * f)
        assert np.allclose(u3, 3.0 * u1, rtol=1e-10)

    def test_residual_contract(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        f = analysis.loads[0]
        u = analysis.displacements[0]
        K = oracle_matrix(analysis.active, fem.Material())
        r = K @ u[analysis.active.free_dofs] - f[analysis.active.free_dofs]
        assert np.linalg.norm(r) / np.linalg.norm(f) <= 1e-8

    def test_fixed_dofs_stay_zero(self, cantilever_analysis):
        mesh, boundary, _, analysis = cantilever_analysis
        u = analysis.displacements[0]
        for node, d in boundary.fixed_dofs:
            assert u[2 * node + d] == 0.0


class TestRecover:
    def test_uniform_uniaxial_strain(self):
        m = fem.Material(E=2e11, nu=0.33)
        mesh, boundary, _ = make_cantilever(3, 2, width=1.5, height=1.0)
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        a = 1e-3
        u = np.zeros(mesh.n_dofs)
        u[0::2] = a * mesh.nodes[:, 0]
        t = fem.recover(active, u, m)
        factor = m.E * a / (1 - m.nu ** 2)
        assert np.allclose(t.strain[:, 0], a)
        assert np.allclose(t.strain[:, 1], 0.0)
        assert np.allclose(t.stress[:, 0], factor)
        assert np.allclose(t.stress[:, 1], m.nu * factor)

    def test_rigid_rotation_zero_strain(self):
        mesh, boundary, _ = make_cantilever(3, 2, width=1.5, height=1.0)
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        w = 1e-4
        u = np.zeros(mesh.n_dofs)
        u[0::2] = -w * mesh.nodes[:, 1]
        u[1::2] = w * mesh.nodes[:, 0]
        t = fem.recover(active, u, fem.Material())
        assert np.max(np.abs(t.strain)) < 1e-18

    def test_zero_displacement(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        t = fem.recover(analysis.active, np.zeros(analysis.active.mesh.n_dofs),
                        fem.Material())
        assert np.all(t.stress == 0.0) and np.all(t.strain == 0.0)

    def test_void_elements_zero(self):
        mesh, boundary, tip = make_cantilever(6, 3)
        solid = np.ones(mesh.n_elements, dtype=bool)
        solid[7] = False
        topo = TopologyState(solid)
        analysis = fem.analyze(mesh, boundary, fem.Material(), topo)
        assert np.all(analysis.tensors[0].stress[7] == 0.0)
        assert analysis.vonmises[0][7] == 0.0


class TestVonMises:
    def test_uniaxial(self):
        assert np.isclose(fem.von_mises(np.array([5.0, 0.0, 0.0])), 5.0)

    def test_pure_shear(self):
        assert np.isclose(fem.von_mises(np.array([0.0, 0.0, 2.0])), 2.0 * np.sqrt(3.0))

    def test_hydrostatic(self):
        assert np.isclose(fem.von_mises(np.array([3.0, 3.0, 0.0])), 3.0)


class TestCompliance:
    def test_energy_identity(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        ur = analysis.displacements[0][analysis.active.free_dofs]
        utku = float(ur @ (oracle_matrix(analysis.active, fem.Material()) @ ur))
        assert np.isclose(analysis.compliances[0], utku, rtol=1e-8)

    def test_adding_material_stiffens(self):
        mesh, boundary = build_mesh(DomainSpec(1.0, 1.0, 2, 2))
        for n in range(mesh.n_nodes):
            if mesh.nodes[n, 0] == 0.0:
                boundary.fix_node(n, "xy")
        boundary.point_loads.append(PointLoad(1, 5, (0.0, -1.0), 1.0))  # mid-right
        solid = np.zeros(4, dtype=bool)
        solid[[0, 1]] = True  # bottom strip only
        j_thin = fem.analyze(mesh, boundary, fem.Material(),
                             TopologyState(solid)).compliances[0]
        j_full = fem.analyze(mesh, boundary, fem.Material(),
                             TopologyState.full(mesh)).compliances[0]
        assert j_full < j_thin


class OracleSystem:
    """Stand-in for a ``SystemMatrix`` over an arbitrary SPD matrix: its
    size, the banded Cholesky factor of its oracle band, and its product."""

    def __init__(self, matrix):
        K = sp.csr_matrix(matrix)
        K.sort_indices()
        self.n = K.shape[0]
        self.factor = fem.BandCholesky(lower_band(K))
        self.product = lambda x: K @ x


def exact_lambda_max(matrix) -> float:
    """The largest eigenvalue of a small dense SPD matrix."""
    return float(np.linalg.eigvalsh(np.asarray(matrix, dtype=float))[-1])


class TestConditionEstimate:
    def _estimate(self, matrix):
        return fem.condition_estimate(OracleSystem(matrix), exact_lambda_max(matrix))

    def test_identity(self):
        cond, ok, _ = self._estimate(np.eye(6))
        assert ok and np.isclose(cond, 1.0, rtol=1e-3)

    def test_diagonal(self):
        cond, ok, _ = self._estimate(np.diag([1.0, 4.0, 10.0]))
        assert ok and np.isclose(cond, 10.0, rtol=1e-2)

    def test_random_spd_within_factor_two(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(20, 20))
        spd = A @ A.T + 0.5 * np.eye(20)
        eig = np.linalg.eigvalsh(spd)  # dense oracle
        true = eig.max() / eig.min()
        cond, _, _ = self._estimate(spd)
        assert true * (1 - 1e-3) <= cond <= true * 2


class TestLambdaMaxBound:
    """4E/(1 - nu^2), the top of the infinite lattice's spectrum, bounds the
    largest eigenvalue of every system of the material: 0.19-0.32% above the
    built-in full domains' at mesh scale 1, 0.05-0.09% at scale 2."""

    def test_exact_value(self):
        assert fem.lambda_max_bound(fem.Material()) == 897766805072.3824
        assert fem.lambda_max_bound(fem.Material(E=1.0, nu=0.0)) == 4.0

    @pytest.mark.parametrize("nu", [0.0, 0.1, 0.2, 0.3, 0.33, 0.4, 0.45, 0.49, 0.4999])
    def test_lattice_symbol_top_is_the_bound(self, nu):
        # the symbol's top over a 1-degree theta grid, which holds the
        # zigzag modes (pi, 0) and (0, pi), is the bound up to round-off
        ke = closed_form_ke(2e11, nu)
        bound = fem.lambda_max_bound(fem.Material(E=2e11, nu=nu))
        theta = np.linspace(-np.pi, np.pi, 361)
        grid = np.stack(np.meshgrid(theta, theta), axis=-1).reshape(-1, 2)
        top = lattice_symbol_top(ke, grid)
        assert bound * (1 - 1e-13) <= top.max() <= bound * (1 + 1e-13)
        zigzag = lattice_symbol_top(ke, [(np.pi, 0.0), (0.0, np.pi)])
        assert zigzag == pytest.approx([bound, bound], rel=1e-13)

    @staticmethod
    def _full_domain_top(name, scale):
        problem = builtin_problem(name, mesh_scale=scale)
        active = active_submesh(problem.mesh, TopologyState.full(problem.mesh),
                                problem.boundary)
        K = oracle_matrix(active, problem.material)
        top = spla.eigsh(K, k=1, which="LA", tol=1e-10, return_eigenvectors=False)[0]
        return top, fem.lambda_max_bound(problem.material)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_tight_upper_bound_on_full_domain(self, name):
        true, bound = self._full_domain_top(name, 1)
        assert true <= bound <= true * 1.0035

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_tight_upper_bound_at_scale_two(self, name):
        true, bound = self._full_domain_top(name, 2)
        assert true <= bound <= true * 1.001

    def test_one_by_one(self):
        # a single free DOF: its matrix is its diagonal entry
        mesh, boundary = build_mesh(DomainSpec(1.0, 1.0, 1, 1))
        boundary.fixed_dofs = {(n, d) for n in range(4) for d in (0, 1)} - {(3, 1)}
        system = fem.assemble(active_submesh(mesh, TopologyState.full(mesh), boundary),
                              fem.Material())
        bound = fem.lambda_max_bound(fem.Material())
        assert system.n == 1 and system._build_band()[0, 0] <= bound

    def test_bounds_every_topology(self):
        # a topology's matrix sums a subset of the lattice's element energies
        bound = fem.lambda_max_bound(fem.Material())
        mesh = make_cantilever(12, 6)[0]
        rng = np.random.default_rng(3)
        for _ in range(5):
            # holes away from the loaded tip
            solid = (rng.random(mesh.n_elements) < 0.9) | (mesh.element_grid[:, 0] > 8)
            smaller = dense(_cantilever_system(solid))
            assert np.linalg.eigvalsh(smaller).max() <= bound


def _seeded_spd(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    A = rng.normal(size=(n, n))
    return A @ A.T + 10.0 ** rng.uniform(-3, 1) * np.eye(n)


def _counted_system(matrix):
    """An ``OracleSystem`` whose K products and factor solves are counted."""
    system = OracleSystem(matrix)
    system.factor = Counting(system.factor)
    system.product = Counting(system.product)
    return system


def _cantilever_system(solid=None):
    """An assembled system on a 12 x 6 cantilever, fully solid by default."""
    mesh, boundary, _ = make_cantilever(12, 6)
    topo = TopologyState.full(mesh) if solid is None else TopologyState(solid)
    return fem.assemble(active_submesh(mesh, topo, boundary), fem.Material())


class TestConditionEstimateExactness:
    """One solve per step gives the iterates of the two-solve inverse
    iteration it replaced, bit for bit, at k + 1 solves and no K product."""

    _SYSTEMS = {"identity": np.eye(6), "diagonal": np.diag([1.0, 4.0, 10.0]),
                "n1": np.array([[3.0]]),
                **{f"spd{seed}": _seeded_spd(seed) for seed in range(20)}}

    @pytest.mark.parametrize("matrix", _SYSTEMS.values(), ids=_SYSTEMS.keys())
    def test_equals_two_apply(self, matrix):
        system = OracleSystem(matrix)
        lam_max = exact_lambda_max(matrix)
        assert fem.condition_estimate(system, lam_max)[:2] == \
            condition_estimate_two_apply(system, lam_max)

    def test_capped_equals_two_apply(self):
        system = OracleSystem(np.diag([1.0, 4.0, 10.0]))
        out = fem.condition_estimate(system, 10.0, max_iters=3)[:2]
        assert out == condition_estimate_two_apply(system, 10.0, max_iters=3)
        assert out[1] is False

    @pytest.mark.parametrize("seed", range(5))
    def test_steps_plus_one_applications(self, seed):
        matrix = _seeded_spd(seed)
        old = _counted_system(matrix)
        assert condition_estimate_two_apply(old, 1.0)[1]
        new = _counted_system(matrix)
        assert fem.condition_estimate(new, 1.0)[1]
        # the two-solve loop makes two solves per step
        assert new.factor.calls == old.factor.calls // 2 + 1
        assert new.product.calls == 0

    def test_condition_computed_once(self, monkeypatch):
        system = _cantilever_system()
        lam_max = fem.lambda_max_bound(fem.Material())
        system._factor = Counting(system.factor)
        system.product = Counting(system.product)
        calls = []
        estimate = fem.condition_estimate
        # the method resolves condition_estimate through the module, so a
        # wrapper installed there (as the benchmark's tracer does) sees it
        monkeypatch.setattr(fem, "condition_estimate",
                            lambda s, *a, **k: calls.append(s) or estimate(s, *a, **k))
        first = system.condition(lam_max)
        solves = system._factor.calls
        # a system restored by a backtrack keeps its estimate, whatever the start
        assert system.condition(2 * lam_max, np.ones(system.active.mesh.n_dofs)) is first
        assert system._factor.calls == solves and system.product.calls == 0
        assert calls == [system]
        assert first[:2] == condition_estimate_two_apply(system, lam_max)


class TestConditionWarmStart:
    """The inverse iteration for lambda_min starts from a given mode."""

    @pytest.mark.parametrize("seed", range(10))
    def test_lowest_eigenvector_converges_in_two_steps(self, seed):
        matrix = _seeded_spd(seed)
        system = _counted_system(matrix)
        low = np.linalg.eigh(matrix)[1][:, 0]
        _, ok, mode = fem.condition_estimate(system, 1.0, start=low)
        assert ok and system.factor.calls <= 3
        assert abs(mode @ low) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    @pytest.mark.parametrize("seed", range(5))
    def test_degenerate_start_is_cold(self, seed, fill):
        system = OracleSystem(_seeded_spd(seed))
        cold = fem.condition_estimate(system, 1.0)
        warm = fem.condition_estimate(system, 1.0, start=np.full(system.n, fill))
        assert warm[:2] == cold[:2] == condition_estimate_two_apply(system, 1.0)
        assert np.array_equal(warm[2], cold[2])

    def test_mode_carried_through_free_dofs(self):
        full = _cantilever_system()
        lam_max = fem.lambda_max_bound(fem.Material())
        _, _, mode = full.condition(lam_max)
        mesh = full.active.mesh
        off = np.ones(mesh.n_dofs, dtype=bool)
        off[full.active.free_dofs] = False
        assert mode.shape == (mesh.n_dofs,) and not mode[off].any()
        # the same matrix restarted from its own mode, given on the full mesh
        again = fem.SystemMatrix(full.active, full.ke)
        again._factor = Counting(full.factor)
        assert again.condition(lam_max, mode)[1] and again._factor.calls <= 3
        # a system with a few elements removed restarts from it in fewer steps
        solid = np.ones(mesh.n_elements, dtype=bool)
        solid[[5, 40, 41]] = False
        solves = []
        for start in (None, mode):
            smaller = _cantilever_system(solid)
            smaller._factor = Counting(smaller.factor)
            smaller.condition(lam_max, start)
            solves.append(smaller._factor.calls)
        assert solves[1] < solves[0]


class TestRelease:
    """A released system factors again on demand, to the same result."""

    def test_solve_after_release_refactors_bit_equal(self, monkeypatch):
        mesh, boundary, _ = make_cantilever(12, 6)
        system = fem.assemble(active_submesh(mesh, TopologyState.full(mesh), boundary),
                              fem.Material())
        f = fem.load_vector(mesh, boundary, 1)
        before = fem.solve(system, f)
        system.release()
        assert system._factor is None
        calls = []
        wrap_factorization(monkeypatch, lambda *a, **k: calls.append(a))
        after = fem.solve(system, f)
        assert len(calls) == 1 and system._factor is not None
        assert after.tobytes() == before.tobytes()

    def test_condition_of_released_system_is_cached(self, monkeypatch):
        system = _cantilever_system()
        first = system.condition(fem.lambda_max_bound(fem.Material()))
        system.release()
        calls = []
        wrap_factorization(monkeypatch, lambda *a, **k: calls.append(a))
        assert system.condition(1.0) is first
        assert calls == [] and system._factor is None

    def test_next_band_built_in_released_storage(self):
        # a system sharing the holder builds its band in the buffer of the one
        # holding it, to the same bytes, and that one's factor is dropped; a
        # band that does not fit allocates
        mesh, boundary, _ = make_cantilever(12, 6)
        f = fem.load_vector(mesh, boundary, 1)
        holder = []
        full = fem.assemble(active_submesh(mesh, TopologyState.full(mesh), boundary),
                            fem.Material(), holder)
        fem.solve(full, f)
        storage = full._storage
        assert holder == [full]
        active = active_submesh(mesh, TopologyState(mesh.element_grid[:, 1] > 0), boundary)
        reused = fem.assemble(active, fem.Material(), holder)
        own = fem.assemble(active, fem.Material())
        assert fem.solve(reused, f).tobytes() == fem.solve(own, f).tobytes()
        assert holder == [reused] and np.shares_memory(reused.factor.band, storage)
        assert full._factor is None and full._storage is None
        assert reused.factor.band.tobytes() == own.factor.band.tobytes()
        mesh, boundary, _ = make_cantilever(16, 8)
        larger = fem.assemble(active_submesh(mesh, TopologyState.full(mesh), boundary),
                              fem.Material(), holder)
        assert not np.shares_memory(larger.factor.band, storage) and holder == [larger]
        assert reused._factor is None and reused._storage is None

    def test_older_system_refactors_in_the_buffer(self, monkeypatch):
        # solving an older analysis after a newer one factored takes the
        # buffer back: the older factors again there, to the same answer,
        # and the newer is left with no factor
        mesh, boundary, _ = make_cantilever(12, 6)
        f = fem.load_vector(mesh, boundary, 1)
        holder = []
        older, newer = (fem.analyze(mesh, boundary, fem.Material(), topo, holder=holder)
                        for topo in (TopologyState.full(mesh),
                                     TopologyState(mesh.element_grid[:, 1] > 0)))
        storage = newer.system._storage
        assert older.system._factor is None and newer.system._factor is not None
        bands = []
        wrap_factorization(monkeypatch, lambda band, **kwargs: bands.append(band))
        again = fem.solve(older.system, f)
        assert len(bands) == 1 and np.shares_memory(bands[0], storage)
        assert again.tobytes() == older.displacements[0].tobytes()
        assert holder == [older.system] and older.system._factor is not None
        assert newer.system._factor is None and newer.system._storage is None


class TestErrorContracts:
    def test_singular_system_reported(self):
        # two fixed DOFs leave a rigid rotation: the factorization or the
        # residual check must flag the singular system distinctly
        mesh, boundary = build_mesh(DomainSpec(1.0, 1.0, 1, 1))
        boundary.fixed_dofs = {(0, 0), (0, 1)}
        boundary.point_loads.append(PointLoad(1, 3, (0.0, -1.0), 1.0))
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        system = fem.assemble(active, fem.Material())
        f = fem.load_vector(mesh, boundary, 1)
        with pytest.raises(fem.SingularSystemError):
            fem.solve(system, f)


_FACTOR_DIGEST = """
import hashlib
from topt import fem
from topt.mesh import TopologyState, active_submesh
from topt.problems import builtin_problem
problem = builtin_problem("l-bracket-single", mesh_scale=2)
active = active_submesh(problem.mesh, TopologyState.full(problem.mesh), problem.boundary)
print(hashlib.sha256(fem.assemble(active, problem.material).factor.band.tobytes()).hexdigest())
"""


class TestFactorization:
    @pytest.fixture(scope="class")
    def lbracket_scale2(self):
        problem = builtin_problem("l-bracket-single", mesh_scale=2)
        active = active_submesh(problem.mesh, TopologyState.full(problem.mesh),
                                problem.boundary)
        return active, problem.material

    def test_in_place_band_factor(self, lbracket_scale2, monkeypatch):
        calls = []
        wrap_factorization(monkeypatch, lambda *a, **k: calls.append((a, k)))
        built = []
        build = fem.SystemMatrix._build_band
        monkeypatch.setattr(fem.SystemMatrix, "_build_band",
                            lambda self: built.append(build(self)) or built[-1])
        system = fem.assemble(*lbracket_scale2)
        assert built == [] and system._factor is None  # assembly builds no band
        factor = system.factor
        [(args, kwargs)] = calls
        assert kwargs == {"lower": 1, "overwrite_ab": 1}
        band = args[0]
        n = system.n
        assert len(built) == 1 and band is built[0] and band.shape == (184, n)  # kd = 183
        # LAPACK wrote the factor over the band just built, not a copy
        assert factor.band.flags.f_contiguous and np.shares_memory(factor.band, band)
        assert system.factor is factor and len(built) == 1
        f = np.ones(n)
        x = factor.solve(f)
        K = oracle_matrix(*lbracket_scale2)
        assert np.linalg.norm(K @ x - f) / np.linalg.norm(f) <= 1e-10

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_same_bytes_as_scipy_banded_cholesky(self, name):
        # the direct dpbtrf/dpbtrs calls are the routines scipy's wrappers
        # reach for float64: the same factor and the same solution, bit for bit
        problem = builtin_problem(name)
        active = active_submesh(problem.mesh, TopologyState.full(problem.mesh),
                                problem.boundary)
        system = fem.assemble(active, problem.material)
        expected = cholesky_banded(system._build_band(), lower=True, check_finite=False)
        factor = system.factor
        assert factor.band.tobytes(order="F") == expected.tobytes(order="F")
        rhs = fem.load_vector(problem.mesh, problem.boundary, 1)[active.free_dofs]
        x = factor.solve(rhs)
        assert x.shape == rhs.shape
        assert x.tobytes() == cho_solve_banded((factor.band, True), rhs).tobytes()

    def test_singular_band_names_the_minor(self):
        # [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: the second pivot is zero
        band = np.asfortranarray([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(fem.SingularSystemError,
                           match="2-th leading minor not positive definite"):
            fem.BandCholesky(band)

    def test_factor_bytes_independent_of_blas_threads(self, lbracket_scale2):
        # a threaded pbtrf sums in another order; the factor runs on one thread
        src = str(Path(fem.__file__).resolve().parents[1])
        digests = {hashlib.sha256(fem.assemble(*lbracket_scale2).factor.band.tobytes()).hexdigest()}
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            out = subprocess.run([sys.executable, "-c", _FACTOR_DIGEST], env=env,
                                 capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1


class TestAnalyze:
    def test_multi_case(self):
        mesh, boundary, tip = make_cantilever(4, 2)
        boundary.point_loads.append(PointLoad(2, tip, (1.0, 0.0), 2.0))
        analysis = fem.analyze(mesh, boundary, fem.Material(), TopologyState.full(mesh))
        assert len(analysis.displacements) == 2
        assert all(j > 0 for j in analysis.compliances)

    def test_load_normalization_scale_free(self):
        mesh, boundary, tip = make_cantilever(4, 2, magnitude=2.5)
        f1 = fem.load_vector(mesh, boundary, 1)
        boundary.point_loads[0] = PointLoad(1, tip, (0.0, -1.0), 2500.0)
        f2 = fem.load_vector(mesh, boundary, 1)
        assert np.array_equal(f1, f2)
