"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line per criterion (run with -s to watch them stream)."""

import time

import numpy as np
import pytest

from topt import auglag, checks, fem, optimizer, sensitivity
from topt.auglag import ALState
from topt.mesh import TopologyState
from topt.optimizer import OptimizerConfig
from topt.problems import builtin_problem, scale_loads

from _oracles import hole_drilling, interior_elements, spearman
from conftest import make_cantilever


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:2d} {status}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def lbracket_row2():
    """L-bracket, delta_max=1.5, sigma_max=1000 (Table 2 row 2)."""
    problem = builtin_problem("l-bracket-single")
    t0 = time.time()
    result = optimizer.run(problem)
    return problem, result, time.time() - t0


@pytest.fixture(scope="module")
def lbracket_row1():
    """L-bracket, delta_max=1000, sigma_max=1.5 (stress-active, Table 2 row 1)."""
    problem = builtin_problem("l-bracket-single", delta_max=1000.0, sigma_max=1.5)
    result = optimizer.run(problem)
    return problem, result


def test_criterion_1_hole_drilling_oracle():
    t0 = time.time()
    mesh, boundary, _ = make_cantilever(nx=20, ny=10)
    material = fem.Material()
    analysis = fem.analyze(mesh, boundary, material, TopologyState.full(mesh))
    adjoint = fem.recover(analysis.active, -analysis.displacements[0], material)
    t_j = sensitivity.topo_sensitivity(analysis.tensors[0].stress, adjoint.strain, material.nu)
    interior = interior_elements(mesh)
    oracle = hole_drilling(mesh, boundary, material, interior)
    rho = spearman(t_j[interior], oracle)
    runtime = time.time() - t0
    report(1, "hole-drilling oracle vs compliance sensitivity",
           rho >= 0.90 and runtime < 60.0,
           f"spearman rho={rho:.4f}, {len(interior)} elements, {runtime:.1f}s")


def test_criterion_2_adjoint_oracles():
    analysis = checks.patch_2x2()
    self_adjoint_err = checks.compliance_adjoint_error(analysis)
    fd_err = checks.pnorm_rhs_error(analysis, fem.Material(), 8)
    report(2, "adjoint identities (lambda=-u, p-norm rhs vs central differences)",
           self_adjoint_err <= 1e-9 and fd_err <= 1e-5,
           f"|lambda+u|={self_adjoint_err:.2e}, fd err={fd_err:.2e}")


def test_criterion_3_al_unit_suite():
    checks = [
        auglag.lagrangian_terms(0.05, 1.0, 10.0) == 1.0 * 0.05 - 0.5 * 10.0 * 0.05 * 0.05,
        auglag.lagrangian_terms(0.2, 1.0, 10.0) == 0.5 * 1.0 * 1.0 / 10.0,
        auglag.lagrangian_terms(0.0, 1.0, 10.0) == 0.0,
    ]
    s = ALState(mu=np.array([1.0, 0.1, 1.0]), gamma=np.full(3, 10.0))
    mu = auglag.update_multipliers(s, np.array([0.2, 0.5, -0.5])).mu
    checks.append(np.array_equal(mu, np.array([0.8, 0.0, 1.5])))

    s1 = ALState(mu=np.ones(1), gamma=np.array([10.0]), k=1, g_prev=np.array([-0.5]))
    checks.append(auglag.update_penalties(s1, np.array([-0.1])).gamma[0] == 100.0)
    checks.append(auglag.update_penalties(s1, np.array([-0.6])).gamma[0] == 10.0)
    s2 = ALState(mu=np.ones(1), gamma=np.array([10.0]), k=1, g_prev=np.array([0.3]))
    checks.append(auglag.update_penalties(s2, np.array([0.1])).gamma[0] == 10.0)

    t_obj = np.full(4, -1.0)
    t_g = np.array([-1.0, 0.0, 0.5, 1.0])
    base = auglag.combine_level_sets(t_obj, [])
    checks.append(np.array_equal(base, t_obj))
    inactive = auglag.combine_level_sets(t_obj, [(t_g, 0.2, 1.0, 10.0)])
    checks.append(np.array_equal(inactive, base))
    combined = auglag.combine_level_sets(t_obj, [(t_g, 0.05, 1.0, 10.0)])
    expected = -1.0 - 0.5 * t_g
    checks.append(np.array_equal(combined, expected / np.max(np.abs(expected))))

    report(3, "augmented Lagrangian branch tables (exact arithmetic)",
           all(checks), f"{sum(checks)}/{len(checks)} identities")


def test_criterion_4_tau_volume_exactness():
    worst = checks.tau_gap(np.random.default_rng(2024), 100, 2000)
    report(4, "tau cut achieves the target volume within one element",
           worst <= 1.0, f"worst gap {worst:.3f} elements over 100 random fields")


def test_criterion_5_table2_row2(lbracket_row2):
    _, result, runtime = lbracket_row2
    vf = result.topology.volume_fraction
    delta = result.constraint_values[0]
    sigma = result.constraint_values[1]
    ok = (0.43 <= vf <= 0.55 and abs(delta - 1.5) <= 0.02 * 1.5
          and sigma <= 1.5 and runtime < 600.0)
    report(5, "L-bracket displacement-active row (paper vf 0.49)",
           ok, f"vf={vf:.4f}, delta={delta:.4f}, sigma={sigma:.4f}, {runtime:.0f}s")


def test_criterion_6_table2_row1(lbracket_row1):
    _, result = lbracket_row1
    vf = result.topology.volume_fraction
    sigma = result.constraint_values[1]
    ok = 0.28 <= vf <= 0.40 and abs(sigma - 1.5) <= 0.03 * 1.5
    report(6, "L-bracket stress-active row (paper vf 0.34)",
           ok, f"vf={vf:.4f}, sigma={sigma:.4f}")


def test_criterion_7_table4_row3():
    problem = builtin_problem("cantilever-single")
    result = optimizer.run(problem)
    vf = result.topology.volume_fraction
    closest = min(abs(v - 1.5) for v in result.constraint_values)
    ok = 0.50 <= vf <= 0.62 and closest <= 0.02 * 1.5
    report(7, "cantilever with both displacement bounds (paper vf 0.56)",
           ok, f"vf={vf:.4f}, deltas={[round(float(v), 4) for v in result.constraint_values]}")


def test_criterion_8_table3_row5():
    problem = builtin_problem("l-bracket-multi")
    result = optimizer.run(problem)
    vf = result.topology.volume_fraction
    g = [v - c.bound for v, c in zip(result.constraint_values, problem.constraints)]
    ok = 0.53 <= vf <= 0.69 and all(gi <= 0.0 for gi in g)
    report(8, "multi-load L-bracket, all four constraints (paper vf 0.61)",
           ok, f"vf={vf:.4f}, g={[round(float(gi), 4) for gi in g]}")


def test_criterion_9_mesh_sensitivity(lbracket_row2):
    _, coarse, _ = lbracket_row2
    fine_problem = builtin_problem("l-bracket-single", mesh_scale=2)
    fine = optimizer.run(fine_problem)
    rc_c = max(coarse.rel_compliance)
    rc_f = max(fine.rel_compliance)
    dvf = abs(coarse.topology.volume_fraction - fine.topology.volume_fraction)
    drc = abs(rc_c - rc_f) / rc_c
    ok = drc <= 0.02 and dvf <= 0.05
    report(9, "mesh-density trend, 1936 vs 7744 elements",
           ok, f"d_relJ={drc:.4f}, d_vf={dvf:.4f}")


def test_criterion_10_pareto_monotonicity():
    problem = builtin_problem("cantilever-single")
    problem.constraints = []
    problem.config = OptimizerConfig(target_vf=0.5)
    result = optimizer.run(problem)
    accepted = {}
    for record in result.history:
        accepted[record.achieved_vf] = record.max_rel_compliance
    vfs = sorted(accepted, reverse=True)
    monotone = all(accepted[b] >= accepted[a] * (1.0 - 1e-9)
                   for a, b in zip(vfs, vfs[1:]))
    exact = result.topology.volume_fraction == 0.5
    report(10, "unconstrained pareto trace: monotone compliance, exact stop",
           monotone and exact,
           f"final vf={result.topology.volume_fraction}, {len(vfs)} volumes")


def test_criterion_11_scale_invariance(lbracket_row2):
    _, base, _ = lbracket_row2
    scaled_problem = scale_loads(builtin_problem("l-bracket-single"), 1000.0)
    scaled = optimizer.run(scaled_problem)
    ok = np.array_equal(base.topology.solid, scaled.topology.solid)
    report(11, "load scaling by 1000 leaves the final solid set bit-equal",
           ok, f"vf={scaled.topology.volume_fraction:.6f}")


def test_criterion_12_fea_budget(lbracket_row2):
    _, result, _ = lbracket_row2
    report(12, "two-constraint L-bracket completes within 250 FEA solves",
           result.fea_count <= 250, f"{result.fea_count} solves")
