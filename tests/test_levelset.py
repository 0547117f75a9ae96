from dataclasses import replace

import numpy as np
import pytest

from topt import auglag, checks, levelset, optimizer, sensitivity
from topt.mesh import DomainSpec, Rect, build_mesh
from topt.problems import builtin_problem

from _oracles import extend_into_skin_rolled
from conftest import topology_draws


def field(values):
    return np.asarray(values, dtype=float)


class TestFindTau:
    def test_order_statistics_example(self):
        f = field([0.1, 0.2, 0.3, 0.4])
        tau = levelset.find_tau(f, 0.5)
        assert 0.2 <= tau < 0.3
        topo = levelset.extract_domain(f, tau)
        assert np.array_equal(topo.solid, np.array([False, False, True, True]))

    def test_keep_all(self):
        f = field([0.1, 0.2, 0.3])
        tau = levelset.find_tau(f, 1.0)
        assert tau < 0.1
        assert levelset.extract_domain(f, tau).volume_fraction == 1.0

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            levelset.find_tau(field([1.0]), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, bad):
        # an infinite value would otherwise give a finite cut, as if ranked
        with pytest.raises(ValueError, match="non-finite values"):
            levelset.find_tau(field([bad, 1.0, 2.0, 3.0]), 0.5)

    def test_exactness_random_fields(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(5, 300))
            f = field(rng.normal(size=n))
            target = float(rng.uniform(0.05, 1.0))
            topo = levelset.extract_domain(f, levelset.find_tau(f, target))
            assert abs(topo.volume_fraction - target) <= 1.0 / n

    def test_tie_block_goes_to_lower_index(self):
        # three tied values straddling the cut: the lower indices are kept
        for values, expected in (([1.0, 1.0, 1.0, 0.0], [True, True, False, False]),
                                 ([0.0, 1.0, 1.0, 1.0], [False, True, True, False])):
            f = field(values)
            topo = levelset.extract_domain(f, levelset.find_tau(f, 0.5))
            assert np.array_equal(topo.solid, expected)

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=100)
        t1 = levelset.find_tau(field(vals.copy()), 0.37)
        t2 = levelset.find_tau(field(vals.copy()), 0.37)
        assert t1 == t2


def top_k_by_lexsort(values, k):
    """Reference rank cut: the k largest values on the 1e-9 grid, ties to
    the lower element index."""
    order = np.lexsort((np.arange(len(values)), -np.round(values * 1e9)))
    keep = np.zeros(len(values), dtype=bool)
    keep[order[:k]] = True
    return keep


class TestRankCut:
    def test_keeps_k_plus_protected_with_straddling_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(5, 400))
            values = rng.integers(-3, 4, size=n) / 3.0  # long tie blocks
            protected = rng.random(n) < 0.1
            target = float(rng.uniform(0.01, 1.0))
            k = int(round(target * n))
            f = field(values)
            topo = levelset.extract_domain(f, levelset.find_tau(f, target), protected)
            top = top_k_by_lexsort(values, k)
            assert np.array_equal(topo.solid, top | protected)
            assert topo.count() == k + np.count_nonzero(protected & ~top)

    def test_matches_lexsort_on_normalized_fields(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(10, 3000))
            values = rng.normal(size=n)
            values /= np.max(np.abs(values))
            target = float(rng.uniform(0.01, 1.0))
            f = field(values)
            topo = levelset.extract_domain(f, levelset.find_tau(f, target))
            assert np.array_equal(topo.solid, top_k_by_lexsort(values, int(round(target * n))))

    def test_mirror_round_off_does_not_move_cut(self):
        # a left/right mirror-symmetric field on a 40 x 20 grid whose pairs
        # tie exactly, then the same field with 1e-13 relative noise
        rng = np.random.default_rng(13)
        half = rng.normal(size=(20, 20))
        grid = np.hstack([half, half[:, ::-1]])
        values = (grid / np.max(np.abs(grid))).ravel()
        for seed in (1, 2, 3):
            noise = np.random.default_rng(seed).normal(size=values.size)
            noisy = values * (1.0 + 1e-13 * noise)
            assert not np.array_equal(noisy, values)
            for target in (241 / 800, 401 / 800, 617 / 800):  # odd k splits a pair
                exact = levelset.extract_domain(field(values),
                                                levelset.find_tau(field(values), target))
                moved = levelset.extract_domain(field(noisy),
                                                levelset.find_tau(field(noisy), target))
                assert np.array_equal(moved.solid, exact.solid)

    def test_oversized_values_rejected(self):
        # at 1e18 grid steps the tie offset is below the float spacing, so
        # two tied values keep one key and no threshold separates them
        f = field([1e9, 1e9])
        with pytest.raises(ValueError):
            levelset.find_tau(f, 0.5)

    def test_criterion_4_checks_the_optimizer_cut(self, monkeypatch):
        calls = []
        for name in ("find_tau", "extract_domain"):
            original = getattr(levelset, name)
            monkeypatch.setattr(levelset, name, lambda *a, _f=original, _n=name:
                                calls.append(_n) or _f(*a))
        worst = checks.tau_gap(np.random.default_rng(2024), 20, 500)
        assert worst <= 0.5  # a rank cut misses the target by rounding only
        assert calls == ["find_tau", "extract_domain"] * 20
        calls.clear()
        problem = builtin_problem("cantilever-single")
        optimizer.run(replace(problem, config=replace(problem.config, max_total_fea=6)))
        assert calls and calls == ["find_tau", "extract_domain"] * (len(calls) // 2)


class TestExtractDomain:
    def test_below_min_all_solid(self):
        f = field([0.5, 1.0, 2.0])
        topo = levelset.extract_domain(f, 0.4)
        assert topo.volume_fraction == 1.0

    def test_nesting(self):
        rng = np.random.default_rng(1)
        f = field(rng.normal(size=200))
        a = levelset.extract_domain(f, -0.5)
        b = levelset.extract_domain(f, 0.5)
        assert np.all(b.solid <= a.solid)

    def test_protected_stays_solid(self):
        protected = np.array([False, True, False])
        f = field([1.0, -5.0, 2.0])
        topo = levelset.extract_domain(f, 0.0, protected)
        assert topo.solid[1]

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=150)
        f1 = field(vals)
        f2 = field(np.exp(vals) + 3.0)  # strictly increasing transform
        for target in (0.2, 0.5, 0.9):
            t1 = levelset.extract_domain(f1, levelset.find_tau(f1, target))
            t2 = levelset.extract_domain(f2, levelset.find_tau(f2, target))
            assert np.array_equal(t1.solid, t2.solid)

    def test_non_finite_tau_rejected(self):
        with pytest.raises(ValueError):
            levelset.extract_domain(field([1.0]), np.inf)


class TestSmoothFilter:
    def _mesh(self):
        return build_mesh(DomainSpec(1.0, 1.0, 5, 5))[0]

    def test_zero_radius_identity(self):
        mesh = self._mesh()
        f = field(np.arange(25, dtype=float))
        out = levelset.smooth_filter(f, mesh, 0.0)
        assert out is f

    def test_uniform_unchanged(self):
        mesh = self._mesh()
        f = field(np.full(25, 3.3))
        out = levelset.smooth_filter(f, mesh, 1.5 * mesh.h)
        assert np.allclose(out, 3.3)

    def test_spike_against_direct_convolution(self):
        square = self._mesh()
        l_shape = build_mesh(DomainSpec(1.0, 1.0, 10, 10,
                                        masked_regions=(Rect(0.4, 0.4, 1.0, 1.0),)))[0]
        # center of the 5x5 grid; the L's element at the re-entrant corner
        corner = int(np.flatnonzero((l_shape.element_grid == (3, 3)).all(axis=1))[0])
        rng = np.random.default_rng(5)
        for mesh, spike in ((square, 12), (l_shape, corner)):
            n = mesh.n_elements
            centroids = mesh.nodes[mesh.elements].mean(axis=1)
            for factor in (1.5, 2.5):
                r = factor * mesh.h
                spiked = np.zeros(n)
                spiked[spike] = 1.0
                for vals in (spiked, rng.normal(size=n)):
                    out = levelset.smooth_filter(field(vals), mesh, r)
                    # direct weighted-sum oracle
                    expected = np.zeros(n)
                    for e in range(n):
                        d = np.linalg.norm(centroids - centroids[e], axis=1)
                        w = np.maximum(0.0, 1.0 - d / r)
                        expected[e] = np.dot(w, vals) / w.sum()
                    assert np.allclose(out, expected, rtol=1e-12, atol=0.0)
                out = levelset.smooth_filter(field(spiked), mesh, r)
                assert out[spike] == out.max()
                # the spike reaches every element whose centroid lies within r
                d = np.linalg.norm(centroids - centroids[spike], axis=1)
                assert np.count_nonzero(out) == np.count_nonzero(d < r)
        # on the square at r = 1.5 h the spike spreads over the immediate
        # ring: face neighbors at h and diagonal neighbors at sqrt(2) h
        out = levelset.smooth_filter(field(np.eye(25)[12]), square, 1.5 * square.h)
        assert np.count_nonzero(out) == 9

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            levelset.smooth_filter(field(np.zeros(25)), self._mesh(), -1.0)


class TestExtendIntoSkin:
    def test_skin_receives_discounted_mean(self):
        mesh = self._mesh = build_mesh(DomainSpec(1.0, 1.0, 3, 3))[0]
        vals = np.full(9, -1.0)
        solid = np.zeros(9, dtype=bool)
        solid[4] = True  # center element solid
        vals[4] = 7.0
        out = levelset.extend_into_skin(field(vals), mesh, solid)
        # face neighbors of the center: one solid neighbor, three at baseline
        for e in (1, 3, 5, 7):
            assert np.isclose(out[e], (7.0 + 3 * (-1.0)) / 4.0)
        # corners touch the center only diagonally: unchanged
        for e in (0, 2, 6, 8):
            assert out[e] == -1.0
        assert out[4] == 7.0

    @pytest.mark.parametrize("name", ["l-bracket-single", "cantilever-single"])
    def test_matches_rolled_grid(self, name):
        mesh = builtin_problem(name).mesh
        for solid, _, values, weight in topology_draws(mesh, seed=3):
            expected = extend_into_skin_rolled(values, mesh, solid, weight)
            out = levelset.extend_into_skin(values, mesh, solid, weight)
            assert out.tobytes() == expected.tobytes()

    def test_weight_zero_is_identity(self):
        mesh = build_mesh(DomainSpec(1.0, 1.0, 3, 3))[0]
        vals = np.arange(9, dtype=float)
        solid = vals > 4
        out = levelset.extend_into_skin(field(vals), mesh, solid, weight=0.0)
        assert np.array_equal(out, vals)


def read_only(a):
    a = np.array(a)
    a.flags.writeable = False
    return a


class TestInputsNotWritten:
    """Field functions return new arrays and never write into their inputs,
    so the optimizer can keep a level-set without copying it."""

    @pytest.mark.parametrize("call", [
        lambda v, w, protected, solid, mesh: sensitivity.normalize_and_protect(v),
        lambda v, w, protected, solid, mesh: sensitivity.normalize_and_protect(v, protected),
        lambda v, w, protected, solid, mesh: auglag.combine_level_sets(
            v, [(w, -0.1, 1.0, 10.0), (w, 0.5, 1.0, 10.0)]),
        lambda v, w, protected, solid, mesh: levelset.extend_into_skin(v, mesh, solid, 0.5),
        lambda v, w, protected, solid, mesh: levelset.smooth_filter(v, mesh, 0.0),
        lambda v, w, protected, solid, mesh: levelset.smooth_filter(v, mesh, 1.5 * mesh.h),
        lambda v, w, protected, solid, mesh: levelset.find_tau(v, 0.4),
        lambda v, w, protected, solid, mesh: levelset.extract_domain(
            v, levelset.find_tau(v, 0.4), protected),
    ], ids=["normalize", "normalize-protected", "combine", "extend-into-skin",
            "filter-radius-0", "filter", "find-tau", "extract-domain"])
    def test_inputs_unchanged(self, call):
        mesh = builtin_problem("l-bracket-single").mesh
        rng = np.random.default_rng(17)
        n = mesh.n_elements
        inputs = [rng.normal(size=n), rng.normal(size=n), rng.random(n) < 0.1,
                  rng.random(n) < 0.6]
        frozen = [read_only(a) for a in inputs]
        call(*frozen, mesh)  # a write into a read-only input raises
        for a, f in zip(inputs, frozen):
            assert f.tobytes() == a.tobytes()
