import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from topt import fem
from topt.mesh import (DomainSpec, PointLoad, TopologyError, TopologyState, active_submesh,
                       build_mesh, repair_connectivity)
from topt.problems import BUILTIN_NAMES, builtin_problem

from _oracles import assemble_coo, closed_form_ke, condition_estimate_two_apply
from conftest import Counting, make_cantilever, topology_draws, uniaxial_element, wrap_splu


def assert_matches_coo(active, material):
    """The assembled matrix is the COO assembly's, renumbered by free_dofs:
    the same stored entries, values within round-off, exactly symmetric."""
    K = fem.assemble(active, material).matrix
    at = np.searchsorted(np.sort(active.free_dofs), active.free_dofs)
    expected = assemble_coo(active, material)[at][:, at].tocsr()
    expected.sort_indices()
    # equal to the sorted oracle, so K's own column indices are sorted too
    assert np.array_equal(K.indptr, expected.indptr)
    assert np.array_equal(K.indices, expected.indices)
    scale = np.max(np.abs(expected.data))
    assert np.max(np.abs(K.data - expected.data)) <= 1e-14 * scale
    assert (K != K.T).nnz == 0


class TestMaterial:
    def test_validation(self):
        with pytest.raises(ValueError):
            fem.Material(E=-1.0)
        with pytest.raises(ValueError):
            fem.Material(nu=0.5)

    def test_constitutive_symmetric(self):
        C = fem.Material(E=2e11, nu=0.33).constitutive()
        assert np.array_equal(C, C.T)


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


class TestAssemble:
    def test_single_element_reduced_size(self):
        mesh, boundary = build_mesh(DomainSpec(1.0, 1.0, 1, 1))
        boundary.fix_node(0, "xy")
        boundary.fixed_dofs.add((1, 1))
        boundary.point_loads.append(PointLoad(1, 3, (0.0, -1.0), 1.0))
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        system = fem.assemble(active, fem.Material())
        assert system.matrix.shape == (5, 5)
        eig = np.linalg.eigvalsh(system.matrix.toarray())
        assert eig.min() > 0

    def test_exact_symmetry(self):
        mesh, boundary, _ = make_cantilever(6, 3)
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        system = fem.assemble(active, fem.Material())
        diff = (system.matrix - system.matrix.T)
        assert np.max(np.abs(diff.toarray())) == 0.0

    def test_spd_on_two_element_patch(self):
        mesh, boundary = build_mesh(DomainSpec(1.0, 0.5, 2, 1))
        for n in range(mesh.n_nodes):
            if mesh.nodes[n, 0] == 0.0:
                boundary.fix_node(n, "xy")
        boundary.point_loads.append(PointLoad(1, 5, (0.0, -1.0), 1.0))
        active = active_submesh(mesh, TopologyState.full(mesh), boundary)
        K = fem.assemble(active, fem.Material()).matrix.toarray()
        assert np.linalg.eigvalsh(K).min() > 0  # dense eigendecomposition oracle

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
        r = analysis.system.matrix @ u[analysis.active.free_dofs] - f[analysis.active.free_dofs]
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
    def test_zero_load(self):
        assert fem.compliance(np.zeros(4), np.ones(4)) == 0.0

    def test_energy_identity(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        f = analysis.loads[0]
        u = analysis.displacements[0]
        ur = u[analysis.active.free_dofs]
        utku = float(ur @ (analysis.system.matrix @ ur))
        assert np.isclose(fem.compliance(f, u), utku, rtol=1e-8)

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


class TestConditionEstimate:
    def _system(self, matrix):
        return fem.SystemMatrix(sp.csr_matrix(matrix), active=None)

    def test_identity(self):
        cond, ok, _ = fem.condition_estimate(self._system(np.eye(6)))
        assert ok and np.isclose(cond, 1.0, rtol=1e-3)

    def test_diagonal(self):
        cond, ok, _ = fem.condition_estimate(self._system(np.diag([1.0, 4.0, 10.0])))
        assert ok and np.isclose(cond, 10.0, rtol=1e-2)

    def test_random_spd_within_factor_two(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(20, 20))
        spd = A @ A.T + 0.5 * np.eye(20)
        eig = np.linalg.eigvalsh(spd)  # dense oracle
        true = eig.max() / eig.min()
        cond, _, _ = fem.condition_estimate(self._system(spd))
        assert true / 2 <= cond <= true * 2


def _seeded_spd(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 40))
    A = rng.normal(size=(n, n))
    return A @ A.T + 10.0 ** rng.uniform(-3, 1) * np.eye(n)


def _counted_system(matrix):
    """A SystemMatrix whose K products and LU solves are counted."""
    system = fem.SystemMatrix(sp.csr_matrix(matrix), active=None)
    system._lu = Counting(system.lu)
    system.matrix = Counting(system.matrix)
    return system


def _cantilever_system(solid=None):
    """An assembled system on a 12 x 6 cantilever, fully solid by default."""
    mesh, boundary, _ = make_cantilever(12, 6)
    topo = TopologyState.full(mesh) if solid is None else TopologyState(solid)
    return fem.assemble(active_submesh(mesh, topo, boundary), fem.Material())


class TestConditionEstimateExactness:
    """One application per step gives the iterates of the two-apply loop
    it replaced, bit for bit, at k + 1 applications per operator."""

    _SYSTEMS = {"identity": np.eye(6), "diagonal": np.diag([1.0, 4.0, 10.0]),
                "n1": np.array([[3.0]]),
                **{f"spd{seed}": _seeded_spd(seed) for seed in range(20)}}

    @pytest.mark.parametrize("matrix", _SYSTEMS.values(), ids=_SYSTEMS.keys())
    def test_equals_two_apply(self, matrix):
        system = fem.SystemMatrix(sp.csr_matrix(matrix), active=None)
        assert fem.condition_estimate(system)[:2] == condition_estimate_two_apply(system)

    def test_capped_equals_two_apply(self):
        system = fem.SystemMatrix(sp.csr_matrix(np.diag([1.0, 4.0, 10.0])), active=None)
        out = fem.condition_estimate(system, max_iters=3)[:2]
        assert out == condition_estimate_two_apply(system, max_iters=3)
        assert out[1] is False

    @pytest.mark.parametrize("seed", range(5))
    def test_steps_plus_one_applications(self, seed):
        matrix = _seeded_spd(seed)
        old = _counted_system(matrix)
        assert condition_estimate_two_apply(old)[1]
        new = _counted_system(matrix)
        assert fem.condition_estimate(new)[1]
        # the two-apply loop makes two applications per step
        for op in ("matrix", "_lu"):
            steps = getattr(old, op).calls // 2
            assert getattr(new, op).calls == steps + 1

    def test_condition_computed_once(self, monkeypatch):
        system = _cantilever_system()
        system._lu = Counting(system.lu)
        system.matrix = Counting(system.matrix)
        calls = []
        estimate = fem.condition_estimate
        # the method resolves condition_estimate through the module, so a
        # wrapper installed there (as the benchmark's tracer does) sees it
        monkeypatch.setattr(fem, "condition_estimate",
                            lambda s, **k: calls.append(s) or estimate(s, **k))
        first = system.condition()
        counts = (system.matrix.calls, system._lu.calls)
        # a system restored by a backtrack keeps its estimate, whatever the start
        assert system.condition(np.ones(system.active.mesh.n_dofs)) is first
        assert (system.matrix.calls, system._lu.calls) == counts
        assert calls == [system]
        assert first[:2] == condition_estimate_two_apply(system)


class TestConditionWarmStart:
    """The inverse iteration for lambda_min starts from a given mode."""

    @pytest.mark.parametrize("seed", range(10))
    def test_lowest_eigenvector_converges_in_two_steps(self, seed):
        matrix = _seeded_spd(seed)
        system = _counted_system(matrix)
        low = np.linalg.eigh(matrix)[1][:, 0]
        _, ok, mode = fem.condition_estimate(system, start=low)
        assert ok and system._lu.calls <= 3
        assert abs(mode @ low) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    @pytest.mark.parametrize("seed", range(5))
    def test_degenerate_start_is_cold(self, seed, fill):
        system = fem.SystemMatrix(sp.csr_matrix(_seeded_spd(seed)), active=None)
        cold = fem.condition_estimate(system)
        warm = fem.condition_estimate(system, start=np.full(system.n, fill))
        assert warm[:2] == cold[:2] == condition_estimate_two_apply(system)
        assert np.array_equal(warm[2], cold[2])

    def test_mode_carried_through_free_dofs(self):
        full = _cantilever_system()
        _, _, mode = full.condition()
        mesh = full.active.mesh
        off = np.ones(mesh.n_dofs, dtype=bool)
        off[full.active.free_dofs] = False
        assert mode.shape == (mesh.n_dofs,) and not mode[off].any()
        # the same matrix restarted from its own mode, given on the full mesh
        again = fem.SystemMatrix(full.matrix, full.active)
        again._lu = Counting(full.lu)
        assert again.condition(mode)[1] and again._lu.calls <= 3
        # a system with a few elements removed restarts from it in fewer steps
        solid = np.ones(mesh.n_elements, dtype=bool)
        solid[[5, 40, 41]] = False
        lu_calls = []
        for start in (None, mode):
            smaller = _cantilever_system(solid)
            smaller._lu = Counting(smaller.lu)
            smaller.condition(start)
            lu_calls.append(smaller._lu.calls)
        assert lu_calls[1] < lu_calls[0]


class TestRelease:
    """A released system factors again on demand, to the same result."""

    def test_solve_after_release_refactors_bit_equal(self, monkeypatch):
        mesh, boundary, _ = make_cantilever(12, 6)
        system = fem.assemble(active_submesh(mesh, TopologyState.full(mesh), boundary),
                              fem.Material())
        f = fem.load_vector(mesh, boundary, 1)
        before = fem.solve(system, f)
        system.release()
        assert system._lu is None
        calls = []
        wrap_splu(monkeypatch, lambda *a, **k: calls.append(a))
        after = fem.solve(system, f)
        assert len(calls) == 1 and system._lu is not None
        assert after.tobytes() == before.tobytes()

    def test_condition_of_released_system_is_cached(self, monkeypatch):
        system = _cantilever_system()
        first = system.condition()
        system.release()
        calls = []
        wrap_splu(monkeypatch, lambda *a, **k: calls.append(a))
        assert system.condition() is first
        assert calls == [] and system._lu is None


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
        with pytest.raises((fem.SingularSystemError, fem.SolveError)):
            fem.solve(system, f)


class TestFactorization:
    @pytest.fixture(scope="class")
    def lbracket_scale2(self):
        problem = builtin_problem("l-bracket-single", mesh_scale=2)
        active = active_submesh(problem.mesh, TopologyState.full(problem.mesh),
                                problem.boundary)
        return fem.assemble(active, problem.material).matrix

    def test_symmetric_ordering_through_module_splu(self, lbracket_scale2, monkeypatch):
        calls = []
        wrap_splu(monkeypatch, lambda *a, **k: calls.append((a, k)))
        lu = fem.SystemMatrix(lbracket_scale2, active=None).lu
        [(args, kwargs)] = calls
        assert kwargs == {"permc_spec": "NATURAL", "options": {"SymmetricMode": True}}
        # the CSC input is the CSR matrix transposed in place, not a copy
        assert args[0].format == "csc" and np.shares_memory(args[0].data, lbracket_scale2.data)
        # pivots stayed on the diagonal, in assembled order
        n = lbracket_scale2.shape[0]
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert np.array_equal(lu.perm_c, np.arange(n))
        colamd = spla.splu(lbracket_scale2.tocsc())
        assert lu.L.nnz + lu.U.nnz < colamd.L.nnz + colamd.U.nnz


class TestAnalyze:
    def test_multi_case(self):
        mesh, boundary, tip = make_cantilever(4, 2)
        boundary.point_loads.append(PointLoad(2, tip, (1.0, 0.0), 2.0))
        analysis = fem.analyze(mesh, boundary, fem.Material(), TopologyState.full(mesh))
        assert analysis.n_solves == 2
        assert len(analysis.displacements) == 2
        assert all(j > 0 for j in analysis.compliances)

    def test_load_normalization_scale_free(self):
        mesh, boundary, tip = make_cantilever(4, 2, magnitude=2.5)
        f1 = fem.load_vector(mesh, boundary, 1)
        boundary.point_loads[0] = PointLoad(1, tip, (0.0, -1.0), 2500.0)
        f2 = fem.load_vector(mesh, boundary, 1)
        assert np.array_equal(f1, f2)
