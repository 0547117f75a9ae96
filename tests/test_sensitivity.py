import numpy as np
import pytest

from topt import auglag, checks, fem, optimizer, sensitivity
from topt.checks import pnorm_fd_gradient
from topt.config import parse_problem
from topt.mesh import Point2, PointLoad, TopologyState
from topt.problems import BUILTIN_NAMES, builtin_problem
from topt.sensitivity import (KIND_COMPLIANCE, KIND_DISPLACEMENT, KIND_PNORM_STRESS,
                              ConstraintSpec)

from _oracles import (hole_drilling, interior_elements, normalize_and_protect_copying,
                      protected_elements_by_set, spearman)
from conftest import COMPLIANCE_DOC, CROSS_CASE_DOC, make_cantilever


class TestAdjointRhsPointDisplacement:
    def test_unit_entry(self, cantilever_analysis):
        mesh, boundary, tip, _ = cantilever_analysis
        rhs = sensitivity.adjoint_rhs_point_displacement(mesh, boundary, tip, (0.0, 1.0))
        assert rhs[2 * tip + 1] == -1.0
        assert np.count_nonzero(rhs) == 1

    def test_x_direction(self, cantilever_analysis):
        mesh, boundary, tip, _ = cantilever_analysis
        rhs = sensitivity.adjoint_rhs_point_displacement(mesh, boundary, tip, (1.0, 0.0))
        assert rhs[2 * tip] == -1.0
        assert np.count_nonzero(rhs) == 1

    def test_clamped_point_rejected(self, cantilever_analysis):
        mesh, boundary, _, _ = cantilever_analysis
        clamped = next(iter(boundary.fixed_dofs))[0]
        with pytest.raises(ValueError):
            sensitivity.adjoint_rhs_point_displacement(mesh, boundary, clamped, (1.0, 0.0))


class TestSolveAdjoint:
    def test_compliance_self_adjoint(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        assert checks.compliance_adjoint_error(analysis) <= 1e-9

    def test_zero_rhs(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        lam = fem.solve(analysis.system, np.zeros(analysis.active.mesh.n_dofs))
        assert np.all(lam == 0.0)

    def test_reciprocity(self, cantilever_analysis):
        mesh, boundary, tip, analysis = cantilever_analysis
        q = int(mesh.elements[mesh.n_elements - 2][2])  # a free interior-ish node
        rhs = sensitivity.adjoint_rhs_point_displacement(mesh, boundary, q, (0.0, 1.0))
        lam = fem.solve(analysis.system, rhs)
        uy_q = analysis.displacements[0][2 * q + 1]
        assert np.isclose(float(lam @ analysis.loads[0]), -uy_q, rtol=1e-8)

    def test_gradient_under_load_perturbation(self, cantilever_analysis):
        # the adjoint predicts d u_dir(q) / d f_j = -lambda_j; check it against
        # central differences of the primal solve under load perturbation
        mesh, boundary, tip, analysis = cantilever_analysis
        q = int(mesh.elements[mesh.n_elements - 2][2])
        rhs = sensitivity.adjoint_rhs_point_displacement(mesh, boundary, q, (0.0, 1.0))
        lam = fem.solve(analysis.system, rhs)
        f = analysis.loads[0]
        step = 1e-3 * np.max(np.abs(f))
        rng = np.random.default_rng(6)
        for dof in rng.choice(analysis.active.free_dofs, size=8, replace=False):
            fp, fm = f.copy(), f.copy()
            fp[dof] += step
            fm[dof] -= step
            up = fem.solve(analysis.system, fp)
            um = fem.solve(analysis.system, fm)
            fd = (up[2 * q + 1] - um[2 * q + 1]) / (2 * step)
            predicted = -lam[dof]
            if abs(fd) > 1e-30:
                assert np.isclose(predicted, fd, rtol=1e-6)


class TestPnormRhs:
    def test_single_element_any_p(self):
        from topt.mesh import DomainSpec, build_mesh
        mesh, boundary = build_mesh(DomainSpec(1.0, 1.0, 1, 1))
        boundary.fix_node(0, "xy")
        boundary.fix_node(2, "x")
        boundary.point_loads.append(PointLoad(1, 3, (0.0, -1.0), 1.0))
        analysis = fem.analyze(mesh, boundary, fem.Material(), TopologyState.full(mesh))
        include = np.ones(1, dtype=bool)
        rhs2, d2 = sensitivity.adjoint_rhs_pnorm(
            analysis.active, analysis.tensors[0].stress, fem.Material(), 2, include)
        rhs8, d8 = sensitivity.adjoint_rhs_pnorm(
            analysis.active, analysis.tensors[0].stress, fem.Material(), 8, include)
        assert not d2 and not d8
        assert np.allclose(rhs2, rhs8, rtol=1e-12)  # one-term p-norm == von Mises

    def test_matches_finite_differences(self):
        analysis = checks.patch_2x2()
        material = fem.Material()
        include = np.ones(analysis.active.mesh.n_elements, dtype=bool)
        p = 8
        rhs, degenerate = sensitivity.adjoint_rhs_pnorm(
            analysis.active, analysis.tensors[0].stress, material, p, include)
        assert not degenerate
        u = analysis.displacements[0]
        dofs = analysis.active.free_dofs
        step = 1e-6 * np.linalg.norm(u)
        fd = pnorm_fd_gradient(analysis, material, include, p, dofs, step)
        scale = np.max(np.abs(fd))
        assert np.allclose(-rhs[dofs], fd, rtol=1e-5, atol=1e-5 * scale)

    def test_zero_state_flagged(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        zero = np.zeros_like(analysis.tensors[0].stress)
        rhs, degenerate = sensitivity.adjoint_rhs_pnorm(
            analysis.active, zero, fem.Material(), 8,
            np.ones(analysis.active.mesh.n_elements, dtype=bool))
        assert degenerate and np.all(rhs == 0.0)


class TestTopoSensitivity:
    def test_zero_adjoint(self, cantilever_analysis):
        _, _, _, analysis = cantilever_analysis
        zero = np.zeros_like(analysis.tensors[0].strain)
        t = sensitivity.topo_sensitivity(analysis.tensors[0].stress, zero, 0.33)
        assert np.all(t == 0.0)

    def test_uniaxial_compliance_value(self):
        # compliance case: lambda = -u; uniaxial unit stress sigma_xx = 1
        E, nu = 2e11, 0.33
        stress = np.array([[1.0, 0.0, 0.0]])
        strain = np.array([[1.0 / E, -nu / E, 0.0]])
        t = sensitivity.topo_sensitivity(stress, -strain, nu)
        assert np.isclose(t[0], 3.0 / E, rtol=1e-12)

    def test_hole_drilling_rank_correlation(self):
        # 20x10 full-density cantilever; literal element-removal oracle
        mesh, boundary, tip = make_cantilever(nx=20, ny=10)
        material = fem.Material()
        analysis = fem.analyze(mesh, boundary, material, TopologyState.full(mesh))
        adj = fem.recover(analysis.active, -analysis.displacements[0], material)
        t_j = sensitivity.topo_sensitivity(analysis.tensors[0].stress, adj.strain, material.nu)
        interior = interior_elements(mesh)
        oracle = hole_drilling(mesh, boundary, material, interior)
        rho = spearman(t_j[interior], oracle)
        assert rho >= 0.90


class TestVolumeAndNormalize:
    def test_volume_field(self, monkeypatch):
        # the objective's term in every combination a run makes: removing a
        # unit of area removes a unit of volume, on every element
        volumes = []
        combine = auglag.combine_level_sets
        monkeypatch.setattr(auglag, "combine_level_sets",
                            lambda t_obj, constraints: volumes.append(t_obj.copy())
                            or combine(t_obj, constraints))
        problem = parse_problem(COMPLIANCE_DOC)
        optimizer.run(problem)
        assert volumes
        for t_obj in volumes:
            assert t_obj.dtype == np.float64 and t_obj.shape == (problem.mesh.n_elements,)
            assert np.all(t_obj == -1.0)

    def test_volume_normalization_fixed_point(self):
        protected = np.zeros(10, dtype=bool)
        protected[3] = True
        out = sensitivity.normalize_and_protect(np.full(10, -1.0), protected)
        assert np.all(out[~protected] == -1.0)
        assert out[3] == sensitivity.PROTECTED_VALUE

    def test_normalize_example(self):
        f = np.array([-2.0, 4.0])
        out = sensitivity.normalize_and_protect(f)
        assert np.array_equal(out, np.array([-0.5, 1.0]))
        assert np.max(np.abs(out)) == 1.0

    def test_all_zero_flagged(self):
        f = np.zeros(4)
        out = sensitivity.normalize_and_protect(f)
        assert np.array_equal(out, f) and np.all(np.isfinite(out))

    def test_protected_pinned_above(self):
        protected = np.array([False, True, False])
        f = np.array([0.5, 0.1, -1.0])
        out = sensitivity.normalize_and_protect(f, protected)
        assert out[1] == 2.0
        assert out[1] > out.max() - 1e-12


    def test_bit_equal_to_copying_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 300))
            values = rng.normal(size=n) * 10.0 ** rng.uniform(-6, 6)
            for protected in (None, rng.random(n) < 0.1, np.ones(n, dtype=bool)):
                for f in (values, np.zeros(n)):
                    out = sensitivity.normalize_and_protect(f, protected)
                    expected = normalize_and_protect_copying(f, protected)
                    assert out.tobytes() == expected.tobytes()


class TestConstraintFields:
    def _two_load_shared_q(self):
        mesh, boundary, tip = make_cantilever(8, 4)
        boundary.point_loads.append(PointLoad(2, tip, (1.0, 0.0), 1.0))
        q = Point2(1.0, 1.0)
        from topt.mesh import locate_node
        qn = locate_node(mesh, q)
        boundary.monitor_nodes.add(qn)
        constraints = [
            ConstraintSpec(kind=KIND_DISPLACEMENT, case=1, bound=3.0, point=q,
                           direction=(0.0, -1.0), node=qn),
            ConstraintSpec(kind=KIND_DISPLACEMENT, case=2, bound=3.0, point=q,
                           direction=(0.0, -1.0), node=qn),
        ]
        analysis = fem.analyze(mesh, boundary, fem.Material(), TopologyState.full(mesh))
        adjoints = sensitivity.constant_adjoints(constraints, mesh, boundary, [1, 2])
        return mesh, boundary, analysis, constraints, adjoints

    def test_shared_adjoint_single_solve(self):
        mesh, boundary, analysis, constraints, adjoints = self._two_load_shared_q()
        include = np.ones(mesh.n_elements, dtype=bool)
        cf = sensitivity.constraint_fields(
            analysis, constraints, adjoints, [1.0, 1.0], fem.Material(), include,
            {1: 0, 2: 1})
        assert adjoints[0] is adjoints[1]
        assert cf.adjoint_solves == 1
        assert len(cf.fields) == 2

    def test_zero_case_zero_field(self):
        mesh, boundary, analysis, constraints, adjoints = self._two_load_shared_q()
        analysis.tensors[1] = fem.TensorField(
            stress=np.zeros_like(analysis.tensors[1].stress),
            strain=np.zeros_like(analysis.tensors[1].strain))
        include = np.ones(mesh.n_elements, dtype=bool)
        cf = sensitivity.constraint_fields(
            analysis, constraints, adjoints, [1.0, 1.0], fem.Material(), include,
            {1: 0, 2: 1})
        assert np.all(cf.fields[1] == 0.0)
        assert np.max(np.abs(cf.fields[0])) == 1.0

    def test_swap_symmetry(self):
        mesh, boundary, analysis, constraints, adjoints = self._two_load_shared_q()
        include = np.ones(mesh.n_elements, dtype=bool)
        cf = sensitivity.constraint_fields(
            analysis, constraints, adjoints, [1.0, 1.0], fem.Material(), include,
            {1: 0, 2: 1})
        swapped = sensitivity.constraint_fields(
            analysis, list(reversed(constraints)), list(reversed(adjoints)), [1.0, 1.0],
            fem.Material(), include, {1: 0, 2: 1})
        assert np.array_equal(cf.fields[0], swapped.fields[1])
        assert np.array_equal(cf.fields[1], swapped.fields[0])

    def test_self_adjoint_shortcut_costs_nothing(self, cantilever_analysis):
        mesh, boundary, tip, analysis = cantilever_analysis
        spec = ConstraintSpec(kind=KIND_DISPLACEMENT, case=1, bound=1.5,
                              point=Point2(*mesh.nodes[tip]),
                              direction=(0.0, -1.0), node=tip)
        include = np.ones(mesh.n_elements, dtype=bool)
        adjoints = sensitivity.constant_adjoints([spec], mesh, boundary, [1])
        assert adjoints == [(0, -1.0)]
        cf = sensitivity.constraint_fields(
            analysis, [spec], adjoints, [1.0], fem.Material(), include, {1: 0})
        assert cf.adjoint_solves == 0  # constrained point is the load point


_ADJOINT_PROBLEMS = [*((name, lambda name=name: builtin_problem(name)) for name in BUILTIN_NAMES),
                     ("compliance", lambda: parse_problem(COMPLIANCE_DOC)),
                     ("cross-case", lambda: parse_problem(CROSS_CASE_DOC))]


class TestConstantAdjoints:
    """Every entry of the per-run table against a full-domain solve."""

    @pytest.mark.parametrize("name, make", _ADJOINT_PROBLEMS,
                             ids=[name for name, _ in _ADJOINT_PROBLEMS])
    def test_entries_match_solves(self, name, make):
        problem = make()
        mesh, boundary = problem.mesh, problem.boundary
        cases = boundary.load_cases()
        analysis = fem.analyze(mesh, boundary, problem.material, TopologyState.full(mesh))
        table = sensitivity.constant_adjoints(problem.constraints, mesh, boundary, cases)
        assert len(table) == len(problem.constraints)
        for spec, entry in zip(problem.constraints, table):
            if spec.kind == KIND_PNORM_STRESS:
                assert entry is None
                continue
            if spec.kind == KIND_COMPLIANCE:
                rhs = -fem.load_vector(mesh, boundary, spec.case)
            else:
                rhs = sensitivity.adjoint_rhs_point_displacement(mesh, boundary, spec.node,
                                                                  spec.direction)
            if isinstance(entry, tuple):
                j, c = entry
                lam = fem.solve(analysis.system, rhs)
                expected = c * analysis.displacements[j]
                np.testing.assert_allclose(lam, expected, rtol=1e-10,
                                           atol=1e-10 * np.max(np.abs(expected)))
            else:
                # a solve only where no load case's force vector is parallel
                assert np.array_equal(entry, rhs)
                assert all(np.linalg.matrix_rank(np.stack([rhs, f])) == 2
                           for f in analysis.loads)

    def test_compliance_uses_own_case(self):
        problem = parse_problem(COMPLIANCE_DOC)
        assert sensitivity.constant_adjoints(problem.constraints, problem.mesh,
                                             problem.boundary, [1]) == [(0, -1.0)]

    def test_other_case_when_own_case_fails(self):
        problem = parse_problem(CROSS_CASE_DOC)
        assert sensitivity.constant_adjoints(problem.constraints, problem.mesh,
                                             problem.boundary, [1, 2]) == [(0, -1.0)]

    def test_own_case_first(self):
        # two cases loading the tip alike: the constraint takes its own
        mesh, boundary, tip = make_cantilever(8, 4)
        boundary.point_loads.append(PointLoad(2, tip, (0.0, -1.0), 1.0))
        spec = ConstraintSpec(kind=KIND_DISPLACEMENT, case=2, bound=1.5,
                              point=Point2(*mesh.nodes[tip]), direction=(0.0, -1.0), node=tip)
        assert sensitivity.constant_adjoints([spec], mesh, boundary, [1, 2]) == [(1, -1.0)]


class TestPnormValue:
    def test_bounds_property(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 60))
            s = rng.random(n) * 10
            include = np.ones(n, dtype=bool)
            for p in (2, 4, 8):
                vm = sensitivity.pnorm_stress(s, include, p)
                assert s.max() <= vm <= s.max() * n ** (1.0 / p) + 1e-12

    def test_empty_is_zero(self):
        assert sensitivity.pnorm_stress(np.zeros(5), np.ones(5, dtype=bool), 8) == 0.0


class TestProtection:
    def test_protected_elements_cover_load_and_supports(self):
        mesh, boundary, tip = make_cantilever(8, 4)
        mask = sensitivity.protected_elements(mesh, boundary)
        for e in mesh.node_elements(tip):
            assert mask[e]
        clamped = [n for n, _ in boundary.fixed_dofs]
        assert all(mask[e] for n in clamped for e in mesh.node_elements(n))

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_protected_elements_match_set_loop(self, name):
        problem = builtin_problem(name)
        mask = sensitivity.protected_elements(problem.mesh, problem.boundary)
        assert mask.dtype == bool
        assert np.array_equal(mask, protected_elements_by_set(problem.mesh, problem.boundary))

    def test_protected_survive_any_cut(self):
        from topt import levelset
        rng = np.random.default_rng(9)
        protected = np.zeros(50, dtype=bool)
        protected[[4, 17]] = True
        for _ in range(20):
            f = sensitivity.normalize_and_protect(rng.normal(size=50), protected)
            tau = levelset.find_tau(f, float(rng.uniform(0.05, 1.0)))
            topo = levelset.extract_domain(f, tau)
            assert topo.solid[4] and topo.solid[17]
