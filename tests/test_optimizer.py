from dataclasses import replace

import numpy as np
import pytest

from topt import fem, optimizer
from topt.config import finalize_problem
from topt.mesh import Point2, PointLoad
from topt.optimizer import OptimizerConfig
from topt.problems import builtin_problem
from topt.sensitivity import KIND_DISPLACEMENT, KIND_PNORM_STRESS, ConstraintSpec

from conftest import Counting, make_cantilever, wrap_splu


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

    def test_rule_name(self):
        with pytest.raises(ValueError):
            OptimizerConfig(multiplier_rule="nope")

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
        problem = builtin_problem(name)
        assert optimizer._Run(problem, problem.config).structural == expected


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


class TestInnerLoop:
    def test_converged_state_is_fixed_point(self):
        p = small_problem(constrained=False,
                          config=OptimizerConfig(target_vf=0.9, track_condition=False))
        res = optimizer.run(p)
        # rerun one fixed-point step at the final volume: nothing to remove
        run = optimizer._Run(p, p.config)
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
        config = replace(problem.config, track_condition=False)
        exact = optimizer.run(problem, config).topology.solid
        solve = fem.solve
        for seed in (1, 2, 3):
            monkeypatch.setattr(fem, "solve", noisy_solve(solve, seed))
            noisy = optimizer.run(problem, config).topology.solid
            assert noisy.tobytes() == exact.tobytes(), f"seed {seed}"


class TestConditionWarmStart:
    """Each outer step's estimate starts its inverse iteration from the
    lowest mode of the step before."""

    # K products inside the estimate over one mitchell-multi run with every
    # inverse iteration started from 1 + i/n (it then made 671 LU solves);
    # the power iteration for lambda_max takes no warm start
    COLD_K_PRODUCTS = 1264

    @pytest.fixture(scope="class")
    def counted_run(self):
        tally = {"lu": 0, "k": 0}
        estimate = fem.condition_estimate

        def counted(system, **kwargs):
            lu, matrix = system.lu, system.matrix
            system._lu, system.matrix = Counting(lu), Counting(matrix)
            try:
                return estimate(system, **kwargs)
            finally:
                tally["lu"] += system._lu.calls
                tally["k"] += system.matrix.calls
                system._lu, system.matrix = lu, matrix

        problem = builtin_problem("mitchell-multi")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fem, "condition_estimate", counted)
            result = optimizer.run(problem)
        return problem, result, tally

    def test_lu_solves_within_budget(self, counted_run):
        _, _, tally = counted_run
        assert tally["lu"] <= 200
        assert tally["k"] == self.COLD_K_PRODUCTS

    def test_repeat_run_same_estimates(self, counted_run):
        # the same problem object again: no mode may outlive its run
        problem, first, _ = counted_run
        second = optimizer.run(problem)
        conds = [[h.cond_estimate for h in r.history] for r in (first, second)]
        assert sum(c is not None for c in conds[0]) >= 20
        assert conds[0] == conds[1]


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
            self.overlapping += any(s._lu is not None for s in self.systems)

        monkeypatch.setattr(fem, "analyze", recorded)
        wrap_splu(monkeypatch, factoring)


class TestOneFactorization:
    """A run holds at most one sparse factorization at a time."""

    @pytest.mark.parametrize("make", [
        lambda: small_problem(extra_q=True),
        lambda: builtin_with("cantilever-single", filter_enabled=True),
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
        assert result.analysis.system._lu is None

    def test_result_holds_no_factorization(self, monkeypatch):
        ledger = FactorLedger(monkeypatch)
        result = optimizer.run(small_problem(constrained=False, config=OptimizerConfig(
            target_vf=0.9, track_condition=False)))
        # the run ends on its newest analysis, and releases that one too
        assert result.analysis.system is ledger.systems[-1]
        assert result.analysis.system._lu is None

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


class TestMultiplierRules:
    def test_standard_rule_runs(self):
        p = small_problem(bound=1.4, config=OptimizerConfig(
            multiplier_rule="standard", track_condition=False))
        res = optimizer.run(p)
        assert res.feasible
        assert res.constraint_values[0] <= 1.4 + 1e-12
