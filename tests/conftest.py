"""Shared fixtures: small plane-stress problems used across the suite."""

import numpy as np
import pytest

from topt import fem, optimizer
from topt.mesh import (DomainSpec, Point2, PointLoad, TopologyState,
                       build_mesh, locate_node)
from topt.problems import builtin_problem


def make_cantilever(nx=8, ny=4, width=2.0, height=1.0, case=1, direction=(0.0, -1.0),
                    magnitude=1.0):
    """Left-edge clamped rectangle with a point load at the right-edge middle."""
    mesh, boundary = build_mesh(DomainSpec(width=width, height=height, nx=nx, ny=ny))
    for n in range(mesh.n_nodes):
        if mesh.nodes[n, 0] == 0.0:
            boundary.fix_node(n, "xy")
    tip = locate_node(mesh, Point2(width, height / 2))
    boundary.point_loads.append(PointLoad(case, tip, direction, magnitude))
    return mesh, boundary, tip


# 8 x 4 cantilever documents whose constraints take their adjoint from a load
# case: a compliance bound (lambda = -u), and a displacement at the tip corner
# along case 1's load but constrained in case 2, loaded along x there
# (lambda = -u_1)
_TIP_CANTILEVER = """[domain]
width = 2.0
height = 1.0
nx = 8
ny = 4

[material]
e = 1.0
nu = 0.3

[supports]
fix = 0.0 0.0 0.0 1.0 xy

[loads]
"""
COMPLIANCE_DOC = _TIP_CANTILEVER + """load = 1 2.0 0.5 0.0 -1.0 1.0

[constraints]
compliance = 1 1.5
"""
CROSS_CASE_DOC = _TIP_CANTILEVER + """load = 1 2.0 1.0 0.0 -1.0 1.0 ; 2 2.0 1.0 1.0 0.0 1.0

[constraints]
displacement = 2 2.0 1.0 0.0 -1.0 1.5
"""


def topology_draws(mesh, seed, count=200):
    """Seeded random (solid, previous, values, weight) draws: ``previous`` is
    a dense random set, ``solid`` a random cut of it, so that loaded or
    monitored nodes are often orphaned and the skin is ragged."""
    rng = np.random.default_rng(seed)
    n = mesh.n_elements
    for _ in range(count):
        previous = rng.random(n) < rng.uniform(0.6, 1.0)
        solid = previous & (rng.random(n) < rng.uniform(0.5, 1.0))
        yield solid, previous, rng.normal(size=n), rng.uniform(0.0, 1.0)


@pytest.fixture(scope="session")
def builtin_run():
    """``builtin_run(name)``: (problem, result) of a built-in problem with its
    own settings, run once per session; callers must not change either."""
    runs = {}

    def run(name):
        if name not in runs:
            problem = builtin_problem(name)
            runs[name] = problem, optimizer.run(problem)
        return runs[name]
    return run


@pytest.fixture(scope="session")
def cantilever_small():
    return make_cantilever(nx=8, ny=4)


@pytest.fixture(scope="session")
def cantilever_analysis(cantilever_small):
    mesh, boundary, tip = cantilever_small
    analysis = fem.analyze(mesh, boundary, fem.Material(),
                           TopologyState.full(mesh))
    return mesh, boundary, tip, analysis


def uniaxial_element(material=None, h=1.0, sigma=1.0):
    """Single square element under uniform x-traction with BCs that permit
    the exact uniaxial plane-stress solution."""
    material = material or fem.Material()
    mesh, boundary = build_mesh(DomainSpec(width=h, height=h, nx=1, ny=1))
    # nodes: 0 bl, 1 br, 2 tl, 3 tr (row-major)
    boundary.fix_node(0, "xy")
    boundary.fix_node(2, "x")
    boundary.fixed_dofs.add((1, 1))  # bottom edge held vertically
    f = sigma * h / 2.0
    boundary.point_loads.append(PointLoad(1, 1, (1.0, 0.0), f))
    boundary.point_loads.append(PointLoad(1, 3, (1.0, 0.0), f))
    return mesh, boundary


class Counting:
    """Delegates one operator to the wrapped object and counts applications:
    a call (a K product such as ``SystemMatrix.product``) or ``solve``."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def __call__(self, v):
        self.calls += 1
        return self.inner(v)

    def solve(self, v):
        self.calls += 1
        return self.inner.solve(v)


def wrap_factorization(monkeypatch, hook):
    """Call ``hook(bands, couplings)`` ahead of each system's factorization,
    that is each ``fem.BlockCholesky`` a system makes of its blocks, however
    many bands LAPACK's ``dpbtrf`` then factors; scipy itself is left alone."""
    factor = fem.BlockCholesky
    monkeypatch.setattr(fem, "BlockCholesky", lambda bands, couplings, *rest:
                        hook(bands, couplings) or factor(bands, couplings, *rest))
