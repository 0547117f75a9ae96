"""Branch tables for the augmented Lagrangian operations, exact arithmetic."""

import numpy as np
import pytest

from topt import auglag
from topt.auglag import ALState

from _oracles import combine_level_sets_copying


class TestEvaluateConstraint:
    def test_active_at_bound(self):
        assert auglag.evaluate_constraint(raw=1.5 * 2.0, reference=2.0, bound=1.5) == 0.0

    def test_initial_margin(self):
        assert auglag.evaluate_constraint(raw=2.0, reference=2.0, bound=3.0) == -2.0

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            auglag.evaluate_constraint(raw=1.0, reference=0.0, bound=1.5)


class TestLagrangianTerms:
    def test_first_branch(self):
        # mu - gamma*g = 1 - 0.5 > 0
        assert auglag.lagrangian_terms(0.05, 1.0, 10.0) == \
            1.0 * 0.05 - 0.5 * 10.0 * 0.05 * 0.05

    def test_second_branch(self):
        # mu - gamma*g = 1 - 2 <= 0
        assert auglag.lagrangian_terms(0.2, 1.0, 10.0) == 0.5 * 1.0 * 1.0 / 10.0

    def test_zero_g_first_branch(self):
        assert auglag.lagrangian_terms(0.0, 1.0, 10.0) == 0.0

    def test_branch_continuity_at_switch(self):
        # at mu - gamma*g == 0 both expressions give mu^2 / (2 gamma)
        mu, gamma = 1.0, 10.0
        g = mu / gamma
        first = mu * g - 0.5 * gamma * g * g
        assert auglag.lagrangian_terms(g, mu, gamma) == 0.5 * mu * mu / gamma
        assert np.isclose(first, 0.5 * mu * mu / gamma, rtol=1e-15)
        assert auglag.coefficient(g, mu, gamma) == 0.0

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            auglag.lagrangian_terms(0.1, 1.0, 0.0)


class TestCombineLevelSets:
    def test_no_constraints_identity(self):
        t_obj = np.full(5, -1.0)
        out = auglag.combine_level_sets(t_obj, [])
        assert np.array_equal(out, t_obj)

    def test_inactive_branch_contributes_nothing(self):
        t_obj = np.full(5, -1.0)
        t_g = np.linspace(-1, 1, 5)
        # mu - gamma*g = 1 - 2 <= 0
        out = auglag.combine_level_sets(t_obj, [(t_g, 0.2, 1.0, 10.0)])
        base = auglag.combine_level_sets(t_obj, [])
        assert np.array_equal(out, base)

    def test_pinned_coefficient_example(self):
        # mu=1, gamma=10, g=0.05 -> T_L proportional to -1 - 0.5*T_g
        t_obj = np.full(5, -1.0)
        t_g = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        out = auglag.combine_level_sets(t_obj, [(t_g, 0.05, 1.0, 10.0)])
        expected = -1.0 - (1.0 - 10.0 * 0.05) * t_g
        peak = np.max(np.abs(expected))
        assert np.array_equal(out, expected / peak)

    def test_linear_in_fields(self):
        rng = np.random.default_rng(2)
        t_obj = rng.normal(size=8)
        a = rng.normal(size=8)
        g, mu, gamma = -0.1, 1.0, 10.0
        c = auglag.coefficient(g, mu, gamma)
        one = auglag.combine_level_sets(t_obj, [(a, g, mu, gamma)])
        doubled = auglag.combine_level_sets(t_obj, [(2 * a, g, mu, gamma)])
        raw_one = t_obj - c * a
        raw_two = t_obj - 2 * c * a
        assert np.allclose(one * np.max(np.abs(raw_one)), raw_one)
        assert np.allclose(doubled * np.max(np.abs(raw_two)), raw_two)

    def test_size_mismatch_rejected(self):
        t_obj = np.zeros(4)
        bad = np.zeros(5)
        with pytest.raises(ValueError):
            auglag.combine_level_sets(t_obj, [(bad, 0.0, 1.0, 10.0)])


    def test_bit_equal_to_copying_oracle(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            n = int(rng.integers(1, 200))
            fields = [rng.normal(size=n) for _ in range(int(rng.integers(0, 5)))]
            live = [(f, float(rng.normal(scale=0.2)), float(rng.uniform(0.0, 2.0)),
                     float(rng.uniform(1.0, 100.0))) for f in fields]
            # mu - gamma * g <= 0: every coefficient is zero
            dead = [(f, 1.0, 0.0, gamma) for f, _, _, gamma in live]
            for t_obj in (np.full(n, -1.0), rng.normal(size=n), np.zeros(n)):
                for constraints in (live, dead):
                    out = auglag.combine_level_sets(t_obj, constraints)
                    expected = combine_level_sets_copying(t_obj, constraints)
                    assert out.tobytes() == expected.tobytes()


class TestUpdateMultipliers:
    def test_paper_rule_table(self):
        s = ALState(mu=np.array([1.0, 0.1, 1.0]), gamma=np.full(3, 10.0))
        out = auglag.update_multipliers(s, np.array([0.2, 0.5, -0.5]), "paper")
        assert np.array_equal(out.mu, np.array([0.8, 0.0, 1.5]))

    def test_standard_rule(self):
        s = ALState(mu=np.array([1.0, 1.0]), gamma=np.array([10.0, 10.0]))
        out = auglag.update_multipliers(s, np.array([0.2, -0.5]), "standard")
        assert np.array_equal(out.mu, np.array([1.0 + 10.0 * 0.2, 0.0]))

    def test_nonnegative_invariant(self):
        rng = np.random.default_rng(4)
        s = ALState.initial(3)
        for _ in range(50):
            g = rng.normal(scale=2.0, size=3)
            s = auglag.update_multipliers(s, g, "paper")
            assert np.all(s.mu >= 0.0)

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            auglag.update_multipliers(ALState.initial(1), np.zeros(1), "bogus")


class TestUpdatePenalties:
    def test_bump_when_margin_collapses(self):
        # g: -0.5 -> -0.1 with sigma=0.25: -0.1 > -0.125 so gamma is raised
        s = ALState(mu=np.ones(1), gamma=np.array([10.0]), k=1,
                    g_prev=np.array([-0.5]))
        out = auglag.update_penalties(s, np.array([-0.1]))
        assert out.gamma[0] == max(10.0 * 10.0, 2.0 * 2.0) == 100.0
        assert out.k == 2

    def test_keep_when_margin_persists(self):
        s = ALState(mu=np.ones(1), gamma=np.array([10.0]), k=1,
                    g_prev=np.array([-0.5]))
        out = auglag.update_penalties(s, np.array([-0.6]))
        assert out.gamma[0] == 10.0

    def test_keep_when_both_violated(self):
        # min terms are 0 and 0 -> 0 <= 0 -> keep
        s = ALState(mu=np.ones(1), gamma=np.array([10.0]), k=1,
                    g_prev=np.array([0.3]))
        out = auglag.update_penalties(s, np.array([0.1]))
        assert out.gamma[0] == 10.0

    def test_k_squared_floor(self):
        s = ALState(mu=np.ones(1), gamma=np.array([1.0]), k=24,
                    g_prev=np.array([-0.5]))
        out = auglag.update_penalties(s, np.array([-0.01]))
        assert out.gamma[0] == 625.0  # max(10*1, 25^2)

    def test_gamma_non_decreasing(self):
        rng = np.random.default_rng(8)
        s = ALState.initial(2)
        prev = s.gamma.copy()
        for _ in range(50):
            s = auglag.update_penalties(s, rng.normal(scale=0.5, size=2))
            assert np.all(s.gamma >= prev)
            prev = s.gamma.copy()

    def test_parameter_validation(self):
        s = ALState.initial(1)
        with pytest.raises(ValueError):
            auglag.update_penalties(s, np.zeros(1), sigma_constant=1.5)
        with pytest.raises(ValueError):
            auglag.update_penalties(s, np.zeros(1), eta=0.0)
