from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from topt import fem, levelset, optimizer, sensitivity
from topt import mesh as mesh_module
from topt.config import build_problem, finalize_problem, parse_problem, with_overrides
from topt.mesh import Point2, PointLoad, TopologyState
from topt.optimizer import OptimizerConfig
from topt.problems import BUILTIN_NAMES, builtin_config, builtin_problem
from topt.sensitivity import KIND_DISPLACEMENT, KIND_PNORM_STRESS, ConstraintSpec

from _oracles import assemble_coo
from conftest import (COMPLIANCE_DOC, CROSS_CASE_DOC, Counting, make_cantilever,
                      wrap_factorization)
from test_cli import LBRACKET


def small_problem(nx=20, ny=10, bound=1.5, constrained=True, config=None,
                  extra_q=False, q_bound=None, stress_bound=None):
    """Desk-size cantilever problem for optimizer behavior tests: the tip
    displacement, optionally a remote point's (bounded by ``q_bound``,
    default ``bound``) and the p-norm stress."""
    mesh, boundary, tip = make_cantilever(nx=nx, ny=ny)
    constraints = []
    if constrained:
        constraints.append(ConstraintSpec(
            kind=KIND_DISPLACEMENT, case=1, bound=bound,
            point=Point2(2.0, 0.5), direction=(0.0, -1.0)))
    if extra_q:
        constraints.append(ConstraintSpec(
            kind=KIND_DISPLACEMENT, case=1, bound=bound if q_bound is None else q_bound,
            point=Point2(1.0, 1.0), direction=(0.0, -1.0)))
    if stress_bound is not None:
        constraints.append(ConstraintSpec(kind=KIND_PNORM_STRESS, case=1, bound=stress_bound))
    return finalize_problem("test-cantilever", mesh, boundary,
                            fem.Material(), constraints,
                            config or OptimizerConfig())


class TestConfigValidation:
    def test_decrement_ordering(self):
        with pytest.raises(ValueError):
            OptimizerConfig(delta_v=0.001, min_delta_v=0.01)

    def test_target_range(self):
        with pytest.raises(ValueError):
            OptimizerConfig(target_vf=1.5)

    @pytest.mark.parametrize("key, value", [
        ("gamma0", 0.0), ("gamma0", -1.0), ("gamma0", np.inf),
        ("mu0", np.nan), ("mu0", -1.0), ("mu0", 0.0),
        ("compliance_tol", np.nan), ("compliance_tol", 0.0),
        ("filter_radius", -1.0), ("filter_radius", np.nan),
        ("eta", 0.0), ("eta", -1.0),
        ("sigma_constant", 0.0), ("sigma_constant", 1.0), ("sigma_constant", np.nan),
        ("delta_v", np.nan), ("max_inner_iters", 0),
        ("max_total_fea", 0), ("max_total_fea", -3),
    ])
    def test_bad_setting_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            OptimizerConfig(**{key: value})


class TestStructuralFields:
    @pytest.mark.parametrize("name, expected", [
        ("l-bracket-single", [True, False]),
        ("l-bracket-multi", [True, True, False, False]),
        ("cantilever-single", [True, False]),
        ("cantilever-multi", [True, True]),
        ("mitchell-multi", [True, True, False, False]),
    ])
    def test_builtin_flags(self, name, expected):
        assert optimizer._Run(builtin_problem(name)).structural == expected

    @pytest.mark.parametrize("text, expected", [
        (COMPLIANCE_DOC, [True]),
        # self-adjoint through case 1, not through its own case
        (CROSS_CASE_DOC, [False]),
    ], ids=["compliance", "cross-case"])
    def test_document_flags(self, text, expected):
        assert optimizer._Run(parse_problem(text)).structural == expected


class TestLoadCaseAdjoints:
    """Runs to the end whose every adjoint is a load case's state."""

    @pytest.mark.parametrize("text, fea_count, vf", [
        (COMPLIANCE_DOC, 48, 0.8125),
        (CROSS_CASE_DOC, 30, 0.625),
    ], ids=["compliance", "cross-case"])
    def test_answer_without_adjoint_solves(self, monkeypatch, text, fea_count, vf):
        solves = []
        fields = sensitivity.constraint_fields

        def counted(*args, **kwargs):
            out = fields(*args, **kwargs)
            solves.append(out.adjoint_solves)
            return out
        monkeypatch.setattr(sensitivity, "constraint_fields", counted)
        result = optimizer.run(parse_problem(text))
        assert (result.fea_count, result.topology.volume_fraction) == (fea_count, vf)
        assert len(solves) > 0 and sum(solves) == 0


class TestRunBasics:
    def test_needs_constraint_or_target(self):
        p = small_problem(constrained=False)
        with pytest.raises(ValueError):
            optimizer.run(p)

    def test_unconstrained_trace_hits_target_exactly(self):
        p = small_problem(constrained=False,
                          config=OptimizerConfig(target_vf=0.7, track_condition=False))
        res = optimizer.run(p)
        assert res.message == "target volume fraction reached"
        n = p.mesh.n_elements
        assert res.topology.volume_fraction == round(0.7 * n) / n == 0.7

    def test_infeasible_at_full_domain(self):
        p = small_problem(bound=0.9)  # raw/ref = 1 at vf=1 > bound
        res = optimizer.run(p)
        assert not res.feasible
        assert "infeasible" in res.message

    def test_material_removal_cannot_stiffen(self):
        p = small_problem(constrained=False,
                          config=OptimizerConfig(target_vf=0.9, track_condition=False))
        res = optimizer.run(p)
        tops = {}
        for r in res.history:
            tops[r.achieved_vf] = r.max_rel_compliance
        assert tops[min(tops)] >= tops[max(tops)] * (1 - 1e-9)

    def test_constraint_ends_active(self):
        p = small_problem(bound=1.4, config=OptimizerConfig(track_condition=False))
        res = optimizer.run(p)
        assert res.feasible
        g_final = res.constraint_values[0] - 1.4
        assert -0.05 <= g_final <= 0.0
        assert 0.3 < res.topology.volume_fraction < 0.9


# every way a run can end: (problem keywords, optimizer settings, repair off,
# message, feasible, solves, history rows, last event)
RUN_ENDS = [
    ({}, {"max_total_fea": 12}, False, "FEA budget exhausted", True, 11, 15, "budget"),
    ({}, {"max_total_fea": 13}, False, "FEA budget exhausted", True, 12, 16, "budget"),
    ({"nx": 8, "ny": 4, "bound": 3.0}, {"delta_v": 0.3, "min_delta_v": 0.05}, False,
     "volume decrement below minimum (removal blocked)", True, 16, 24, "backtrack-blocked"),
    ({"nx": 6, "ny": 3, "bound": 5.0, "extra_q": True}, {"delta_v": 0.4, "min_delta_v": 0.1},
     False, "volume decrement below minimum", True, 24, 29, "backtrack-violated"),
    ({"bound": 0.9}, {}, False, "infeasible at the full domain: g_1=0.1000", False, 1, 1,
     "infeasible"),
    ({"nx": 8, "ny": 4, "bound": 50.0}, {"delta_v": 0.5, "min_delta_v": 0.1}, False,
     "schedule floor reached (protected elements)", True, 6, 7, "floor"),
    # with the connectivity repair off, a cut orphans the loaded node
    ({"nx": 8, "ny": 4, "bound": 3.0}, {"delta_v": 0.3, "min_delta_v": 0.05}, True,
     "volume decrement below minimum (node 26 carries a load or constraint but "
     "touches no solid element)", True, 10, 14, "topology-error"),
    # one inner iteration never beats the start, so every pass backtracks
    ({}, {"max_inner_iters": 1}, False,
     "volume decrement below minimum (inner loop unconverged)", True, 5, 8,
     "backtrack-unconverged"),
]
RUN_END_IDS = ["budget-12", "budget-13", "blocked", "violated", "infeasible", "floor",
               "topology-error", "unconverged"]


def _no_repair(mesh, topo, previous, boundary):
    return topo


def run_end(monkeypatch, kwargs, settings, unrepaired):
    if unrepaired:
        monkeypatch.setattr(optimizer, "repair_connectivity", _no_repair)
    return optimizer.run(small_problem(**kwargs, config=OptimizerConfig(
        track_condition=False, **settings)))


class TestRunEnds:
    """Every way a run can end, with its message, solves and history rows."""

    @pytest.mark.parametrize("kwargs, settings, unrepaired, message, feasible, solves, rows, "
                             "event", RUN_ENDS, ids=RUN_END_IDS)
    def test_end(self, monkeypatch, kwargs, settings, unrepaired, message, feasible,
                 solves, rows, event):
        res = run_end(monkeypatch, kwargs, settings, unrepaired)
        assert (res.message, res.feasible, res.fea_count, len(res.history)) == \
            (message, feasible, solves, rows)

    @pytest.mark.parametrize("kwargs, settings, unrepaired, message, feasible, solves, rows, "
                             "event", RUN_ENDS, ids=RUN_END_IDS)
    def test_last_event(self, monkeypatch, kwargs, settings, unrepaired, message, feasible,
                        solves, rows, event):
        # the message is the last outer pass's; every earlier pass went on
        res = run_end(monkeypatch, kwargs, settings, unrepaired)
        events = [h.event for h in res.history if h.event is not None]
        assert res.history[0].event is not None
        assert events[-1] == event
        assert set(events) <= {"accept", *optimizer._MESSAGES}
        assert all(e in ("accept", "backtrack-violated", "backtrack-blocked",
                         "backtrack-unconverged", "topology-error") for e in events[:-1])

    def test_unconverged_is_not_blocked(self):
        # the 12 x 12 L-bracket with one inner iteration: no iterate of the
        # first five passes beats its start, though nothing blocked the
        # removal; the sixth pass's decrement rounds to no element
        text = LBRACKET.replace("max_inner_iters = 2", "max_inner_iters = 1")
        res = optimizer.run(parse_problem(text, name="l-bracket"))
        outer = [h for h in res.history if h.event is not None]
        assert [h.event for h in outer] == ["backtrack-unconverged"] * 5 + ["backtrack-blocked"]
        assert [h.inner_converged for h in outer] == [False] * 5 + [True]
        assert (res.message, res.topology.volume_fraction, res.fea_count) == (
            "volume decrement below minimum (removal blocked)", 1.0, 6)


class TestStepRecord:
    """One record per analysis, plus one per outer pass carrying its event."""

    BLOCKED = ({"nx": 8, "ny": 4, "bound": 3.0}, {"delta_v": 0.3, "min_delta_v": 0.05})

    def test_backtracking_events(self, monkeypatch):
        res = run_end(monkeypatch, *self.BLOCKED, False)
        events = [h.event for h in res.history if h.event is not None]
        assert events == ["accept", "backtrack-violated", *["accept"] * 5,
                          "backtrack-violated", "backtrack-blocked"]
        # a violated pass runs no inner loop; a blocked one ran it to convergence
        outer = [h for h in res.history if h.event is not None]
        assert [h.inner_converged for h in outer] == [
            None if e == "backtrack-violated" else True for e in events]
        assert all(h.cond_converged is None and h.cond_estimate is None for h in outer)

    @pytest.mark.parametrize("budget", [12, 13])
    def test_budget_ends_the_pass_that_spends_it(self, monkeypatch, budget):
        # the inner loop runs out of budget before an iterate beats its start:
        # nothing blocked the removal, so the pass ends the run on the budget
        res = run_end(monkeypatch, {}, {"max_total_fea": budget}, False)
        outer = [h for h in res.history if h.event is not None]
        assert [h.event for h in outer] == ["accept"] * 4 + ["budget"]
        assert [h.inner_converged for h in outer] == [True] * 4 + [False]
        # the design is the snapshot taken at the start of that pass
        assert res.topology.volume_fraction == outer[-1].achieved_vf

    def test_restored_counts_repair(self, monkeypatch):
        calls = []
        repair = optimizer.repair_connectivity

        def spy(mesh, topo, previous, boundary):
            out = repair(mesh, topo, previous, boundary)
            calls.append((out.count() - topo.count(), out, previous))
            return out
        monkeypatch.setattr(optimizer, "repair_connectivity", spy)
        res = run_end(monkeypatch, *self.BLOCKED, False)
        # a repair whose result equals the topology it started from ends the
        # inner loop at a fixed point; every other one gives an analyzed row
        analyzed = [(d, out) for d, out, prev in calls if not np.array_equal(out.solid, prev.solid)]
        inner = [h for h in res.history if h.event is None]
        assert [h.restored for h in inner] == [d for d, _ in analyzed]
        assert [h.achieved_vf for h in inner] == [out.volume_fraction for _, out in analyzed]
        assert sum(h.restored for h in inner) == 24
        assert all(h.restored is None for h in res.history if h.event is not None)

    def test_islands_are_unanalyzed_solids(self, monkeypatch):
        analyses = []
        analyze = fem.analyze

        def recorded(*args, **kwargs):
            analyses.append(analyze(*args, **kwargs))
            return analyses[-1]
        monkeypatch.setattr(fem, "analyze", recorded)
        res = optimizer.run(builtin_problem("cantilever-multi"))
        rows = [h for i, h in enumerate(res.history) if i == 0 or h.event is None]
        assert [h.islands for h in rows] == [
            a.topology.count() - len(a.active.element_ids) for a in analyses]
        assert max(h.islands for h in rows) > 0


class TestInnerLoop:
    def test_converged_state_is_fixed_point(self):
        p = small_problem(constrained=False,
                          config=OptimizerConfig(target_vf=0.9, track_condition=False))
        res = optimizer.run(p)
        # rerun one fixed-point step at the final volume: nothing to remove
        run = optimizer._Run(p)
        analysis = run.analyze(res.topology)
        run.j0 = list(analysis.compliances)
        run.relaxed = res.field
        from topt import auglag
        al = auglag.ALState.initial(0)
        fea_before = run.fea_count
        topo, _, converged = optimizer.fixed_point_step(
            run, res.topology, analysis, res.topology.volume_fraction, al, 0)
        assert converged
        assert topo is res.topology
        assert run.fea_count == fea_before  # detected without a new solve

    def test_desk_problem_inner_iterations(self):
        p = small_problem(config=OptimizerConfig(target_vf=0.85, track_condition=False))
        res = optimizer.run(p)
        from collections import Counter
        per_step = Counter(r.step for r in res.history)
        # one record per outer evaluation plus one per inner iteration
        assert max(per_step.values()) - 1 <= 5

    def test_history_invariants(self):
        p = small_problem(config=OptimizerConfig(track_condition=False))
        res = optimizer.run(p)
        fea = [r.fea_count for r in res.history]
        assert all(b >= a for a, b in zip(fea, fea[1:]))
        assert res.fea_count <= p.config.max_total_fea
        for r in res.history:
            if r.feasible:
                assert all(g <= 0 for g in r.g)

    def test_accepted_steps_descend_by_delta(self):
        p = small_problem(constrained=False,
                          config=OptimizerConfig(target_vf=0.8, track_condition=False))
        res = optimizer.run(p)
        vfs = []
        for r in res.history:
            if not vfs or r.achieved_vf < vfs[-1]:
                vfs.append(r.achieved_vf)
        n = p.mesh.n_elements
        for a, b in zip(vfs, vfs[1:]):
            assert a - b <= p.config.delta_v + 1.0 / n + 1e-12


class TestBacktracking:
    def test_final_state_feasible(self):
        p = small_problem(bound=1.3, config=OptimizerConfig(track_condition=False))
        res = optimizer.run(p)
        assert res.feasible
        assert all(v <= b + 1e-12 for v, b in
                   zip(res.constraint_values, [c.bound for c in p.constraints]))

    def test_two_constraints_all_feasible(self):
        p = small_problem(bound=1.5, extra_q=True,
                          config=OptimizerConfig(track_condition=False))
        res = optimizer.run(p)
        assert res.feasible
        assert all(v <= b + 1e-12 for v, b in
                   zip(res.constraint_values, [c.bound for c in p.constraints]))


    def test_kept_level_sets_never_written(self, monkeypatch):
        # the run and its snapshot keep the relaxed level-set without a copy;
        # with every built level-set read-only, a write into one would raise
        expected = optimizer.run(small_problem(bound=1.3))
        build = optimizer._Run.build_field

        def read_only(self, analysis, al):
            out = build(self, analysis, al)
            out.flags.writeable = False
            return out
        monkeypatch.setattr(optimizer._Run, "build_field", read_only)
        res = optimizer.run(small_problem(bound=1.3))
        assert any(h.achieved_vf > prev.achieved_vf
                   for prev, h in zip(res.history, res.history[1:]))
        assert res.history == expected.history
        assert res.field.tobytes() == expected.field.tobytes()


class TestScaleInvariance:
    def test_load_scale_does_not_change_result(self):
        p1 = small_problem(bound=1.4, config=OptimizerConfig(track_condition=False))
        res1 = optimizer.run(p1)
        p2 = small_problem(bound=1.4, config=OptimizerConfig(track_condition=False))
        p2.boundary.point_loads[0] = PointLoad(
            1, p2.boundary.point_loads[0].node, (0.0, -1.0), 1000.0)
        res2 = optimizer.run(p2)
        assert np.array_equal(res1.topology.solid, res2.topology.solid)


def noisy_solve(solve, seed):
    """``solve`` with each result scaled by 1 + 1e-13 N(0, 1) per entry."""
    rng = np.random.default_rng(seed)

    def wrapped(system, rhs):
        u = solve(system, rhs)
        return u * (1.0 + 1e-13 * rng.normal(size=u.shape))
    return wrapped


class TestRoundOffRobustness:
    @pytest.mark.parametrize("name", ["mitchell-multi", "cantilever-single",
                                      "cantilever-multi"])
    def test_solve_noise_leaves_design(self, name, monkeypatch):
        # the symmetric built-ins have mirror pairs that differ only by
        # round-off; 1e-13 relative noise on every solve must not move the cut
        problem = builtin_problem(name)
        problem = replace(problem, config=replace(problem.config, track_condition=False))
        exact = optimizer.run(problem).topology.solid
        solve = fem.solve
        for seed in (1, 2, 3):
            monkeypatch.setattr(fem, "solve", noisy_solve(solve, seed))
            noisy = optimizer.run(problem).topology.solid
            assert noisy.tobytes() == exact.tobytes(), f"seed {seed}"


class TestConditionWarmStart:
    """Each outer step's estimate starts its inverse iteration from the
    lowest mode of the step before."""

    @pytest.fixture(scope="class")
    def counted_run(self):
        tally = {"solves": 0, "k": 0}
        estimate = fem.condition_estimate

        def counted(system, *args, **kwargs):
            factor = system.factor
            system._factor, system.product = Counting(factor), Counting(system.product)
            try:
                return estimate(system, *args, **kwargs)
            finally:
                tally["solves"] += system._factor.calls
                tally["k"] += system.product.calls
                system._factor = factor
                del system.product

        problem = builtin_problem("mitchell-multi")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "condition_estimate", counted)
            result = optimizer.run(problem)
        return problem, result, tally

    def test_lu_solves_within_budget(self, counted_run):
        # started cold, the inverse iterations made 671 solves; lambda_max
        # comes from the run's one bound, with no K product per estimate
        _, _, tally = counted_run
        assert tally["solves"] <= 200
        assert tally["k"] == 0

    def test_repeat_run_same_estimates(self, counted_run):
        # the same problem object again: no mode may outlive its run
        problem, first, _ = counted_run
        second = optimizer.run(problem)
        conds = [[h.cond_estimate for h in r.history] for r in (first, second)]
        assert sum(c is not None for c in conds[0]) >= 20
        assert conds[0] == conds[1]


class TestConditionBound:
    """``cond_estimate`` is the full domain's lambda_max bound over an
    inverse-iteration lambda_min."""

    def test_brackets_condition_number(self, monkeypatch):
        kappas = []
        estimate = fem.condition_estimate

        def recorded(system, *args, **kwargs):
            out = estimate(system, *args, **kwargs)
            K = assemble_coo(system.active, problem.material)
            top = spla.eigsh(K, k=1, which="LA", tol=1e-10, return_eigenvectors=False)[0]
            low = spla.eigsh(K, k=1, sigma=0.0, which="LM", tol=1e-10,
                             return_eigenvectors=False)[0]
            kappas.append((out[0], top / low))
            return out

        problem = builtin_problem("l-bracket-single")
        monkeypatch.setattr(fem, "condition_estimate", recorded)
        result = optimizer.run(problem)
        # a system restored by a backtrack repeats its estimate in the history
        assert {c for c, _ in kappas} == {h.cond_estimate for h in result.history
                                          if h.cond_estimate is not None}
        assert len(kappas) >= 20
        for cond, kappa in kappas:
            assert kappa * (1 - 1e-3) <= cond <= kappa * 1.05

    def test_bound_taken_before_any_band(self, monkeypatch):
        # the bound needs only K products: the full domain's band, the run's
        # largest, is built after it, and the bound's bits do not move
        built, seen = [], []
        build, bound = fem.SystemMatrix._build_band, fem.lambda_max_bound
        monkeypatch.setattr(fem.SystemMatrix, "_build_band",
                            lambda self: built.append(self) or build(self))
        monkeypatch.setattr(fem, "lambda_max_bound",
                            lambda system: seen.append((len(built), system._factor, system))
                            or bound(system))
        problem = small_problem()
        result = optimizer.run(problem)
        [(bands, factor, system)] = seen
        assert bands == 0 and factor is None
        assert built[0] is system and len(system.active.element_ids) == problem.mesh.n_elements
        full = fem.analyze(problem.mesh, problem.boundary, problem.material,
                           TopologyState.full(problem.mesh))
        assert result.history[0].cond_estimate == full.system.condition(bound(full.system))[0]

    def test_mirror_image_same_estimate(self, builtin_run):
        # mirrored about mid-height, the final design's matrix is a
        # permutation of its own: the same spectrum
        problem, result = builtin_run("cantilever-single")
        mesh = problem.mesh
        nx, ny = mesh.grid_shape
        cell = np.full((nx, ny), -1)
        cell[mesh.element_grid[:, 0], mesh.element_grid[:, 1]] = np.arange(mesh.n_elements)
        mirror = cell[mesh.element_grid[:, 0], ny - 1 - mesh.element_grid[:, 1]]
        full = fem.analyze(mesh, problem.boundary, problem.material,
                           TopologyState.full(mesh))
        lam_max = fem.lambda_max_bound(full.system)
        solid = result.topology.solid
        assert not np.array_equal(solid, solid[mirror])
        conds = [fem.analyze(mesh, problem.boundary, problem.material,
                             TopologyState(s)).system.condition(lam_max)[0]
                 for s in (solid, solid[mirror])]
        assert conds[1] == pytest.approx(conds[0], rel=1e-6)


# analyses, those holding solid elements cut off from the supports, and the
# most such elements in one analysis (the ROADMAP's island table)
ISLANDS = {
    "l-bracket-single": (63, 18, 5),
    "l-bracket-multi": (92, 44, 17),
    "cantilever-single": (70, 20, 9),
    "cantilever-multi": (51, 18, 11),
    "mitchell-multi": (75, 29, 27),
}


class TestBuiltinAnswers:
    @pytest.mark.parametrize("name, fea_count, vf", [
        ("l-bracket-single", 63, 0.4793388429752066),
        ("l-bracket-multi", 199, 0.5692148760330579),
        ("cantilever-single", 86, 0.53857421875),
        ("cantilever-multi", 102, 0.638671875),
        ("mitchell-multi", 153, 0.51123046875),
    ])
    def test_scale_one_answer(self, builtin_run, name, fea_count, vf):
        # unchanged since the seed; a move here is a change of the answer
        _, result = builtin_run(name)
        assert (result.fea_count, result.topology.volume_fraction) == (fea_count, vf)
        # the analyses are the first row and the inner rows
        rows = [h for i, h in enumerate(result.history) if i == 0 or h.event is None]
        islands = [h.islands for h in rows]
        assert (len(rows), sum(c > 0 for c in islands), max(islands)) == ISLANDS[name]
        # every inner loop and condition estimate converged; no repair restored
        outer = [h for h in result.history if h.event is not None]
        assert {h.inner_converged for h in outer} == {True, None}
        assert all(h.cond_converged is True for h in outer)
        assert all(h.restored == 0 for h in rows[1:])

    def test_filtered_cantilever_answer(self):
        # the cantilever-filter benchmark workload: the filter runs every step
        cfg = with_overrides(builtin_config("cantilever-single"), filter=True)
        result = optimizer.run(build_problem(cfg))
        assert (result.fea_count, result.topology.volume_fraction) == (80, 0.54833984375)


class TestResultField:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_field_recuts_to_final_design(self, name, builtin_run):
        # result.vtk's T_L is the level-set whose cut gave the design
        problem, result = builtin_run(name)
        protected = sensitivity.protected_elements(problem.mesh, problem.boundary)
        vf = result.topology.volume_fraction
        recut = levelset.extract_domain(result.field, levelset.find_tau(result.field, vf),
                                        protected)
        assert np.array_equal(recut.solid, result.topology.solid)


class TestOneLabelling:
    def test_once_per_topology(self, monkeypatch):
        """Support connectivity is labelled once per analyzed topology: the
        analysis reuses the mask of the repair's last pass. No repair pass
        of this run finds an orphan; test_mesh covers those."""
        tally = {"labels": 0, "analyses": 0}
        label, active_submesh = mesh_module._support_connected, fem.active_submesh

        def labelled(*args):
            tally["labels"] += 1
            return label(*args)

        def analyzed(*args):
            tally["analyses"] += 1
            return active_submesh(*args)

        monkeypatch.setattr(mesh_module, "_support_connected", labelled)
        monkeypatch.setattr(fem, "active_submesh", analyzed)
        optimizer.run(builtin_problem("l-bracket-single"))
        assert tally["labels"] == tally["analyses"] == 63


def builtin_with(name, **settings):
    """A built-in problem with some optimizer settings changed."""
    problem = builtin_problem(name)
    problem.config = replace(problem.config, **settings)
    return problem


class FactorLedger:
    """Records every analysis of the runs made while installed, and counts
    factorizations and those made while another system still held one."""

    def __init__(self, monkeypatch):
        self.systems: list[fem.SystemMatrix] = []
        self.factorizations = 0
        self.overlapping = 0
        analyze = fem.analyze

        def recorded(*args, **kwargs):
            analysis = analyze(*args, **kwargs)
            self.systems.append(analysis.system)
            return analysis

        def factoring(*args, **kwargs):
            self.factorizations += 1
            self.overlapping += any(s._factor is not None for s in self.systems)

        monkeypatch.setattr(fem, "analyze", recorded)
        wrap_factorization(monkeypatch, factoring)


class TestOneFactorization:
    """A run holds at most one factorization at a time."""

    @pytest.mark.parametrize("make", [
        lambda: small_problem(extra_q=True),
        lambda: builtin_with("cantilever-single", filter=True),
    ], ids=["remote-q", "cantilever-filter"])
    def test_one_factorization_alive(self, make, monkeypatch):
        problem = make()
        ledger = FactorLedger(monkeypatch)
        result = optimizer.run(problem)
        analyses = len(ledger.systems)
        # real adjoint solves ran, all on the newest analysis: none refactored
        assert result.fea_count > analyses * len(problem.boundary.load_cases())
        assert ledger.factorizations == analyses
        assert ledger.overlapping == 0
        assert result.analysis.system._factor is None

    def test_result_holds_no_factorization(self, monkeypatch):
        ledger = FactorLedger(monkeypatch)
        result = optimizer.run(small_problem(constrained=False, config=OptimizerConfig(
            target_vf=0.9, track_condition=False)))
        # the run ends on its newest analysis, and releases that one too
        assert result.analysis.system is ledger.systems[-1]
        assert result.analysis.system._factor is None

    @pytest.mark.parametrize("make, refactors", [
        # each backtrack to the full domain rebuilds its field with an
        # adjoint solve on the released full-domain system
        (lambda: small_problem(extra_q=True, q_bound=1.001,
                               config=OptimizerConfig(max_inner_iters=1)), True),
        (lambda: builtin_with("mitchell-multi", max_inner_iters=1), False),
        # a non-converged inner loop returns its best, whose adjoint solves
        # then factor it again
        (lambda: small_problem(extra_q=True, q_bound=5.0, stress_bound=1.05,
                               config=OptimizerConfig(max_inner_iters=3)), True),
        # a first cut too large for the bounds: after the backtrack the
        # full domain's field is rebuilt by an adjoint solve, so the violated
        # analysis made since must already have released its factor
        (lambda: small_problem(extra_q=True, bound=1.05,
                               config=OptimizerConfig(delta_v=0.2)), True),
        (lambda: small_problem(bound=1.3), False),
    ], ids=["inner-1-remote-q", "inner-1-mitchell", "inner-3-stress", "first-cut-backtrack",
            "backtracking"])
    def test_history_equals_unreleased(self, make, refactors, monkeypatch):
        ledger = FactorLedger(monkeypatch)
        released = optimizer.run(make())
        assert (ledger.factorizations > len(ledger.systems)) == refactors
        assert ledger.overlapping == 0
        monkeypatch.setattr(fem.SystemMatrix, "release", lambda self: None)
        kept = optimizer.run(make())
        assert any(h.achieved_vf > prev.achieved_vf
                   for prev, h in zip(released.history, released.history[1:]))
        assert released.history == kept.history
