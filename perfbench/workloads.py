"""The three benchmark workloads: how each problem is built, and the checks
every repetition's result must pass.

The windows are the acceptance windows of the paper reproduction (criteria
5 and 7 of ``tests/test_acceptance.py``); they gate correctness without
pinning the exact answer, so a change that only moves round-off still
passes while the recorded digest shows that the answer moved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from topt import config
from topt.problems import builtin_config, scale_loads


def _check_lbracket(problem, result) -> str | None:
    # criterion 5: displacement-active L-bracket row
    vf = result.topology.volume_fraction
    delta, sigma = result.constraint_values[0], result.constraint_values[1]
    if not 0.43 <= vf <= 0.55:
        return f"vf {vf!r} outside [0.43, 0.55]"
    if abs(delta / 1.5 - 1.0) > 0.02:
        return f"displacement ratio {delta!r} not within 2% of 1.5"
    if sigma > 1.5:
        return f"stress ratio {sigma!r} above 1.5"
    return None


def _check_cantilever(problem, result) -> str | None:
    # criterion 7: cantilever with both displacement bounds
    vf = result.topology.volume_fraction
    closest = min(abs(v - 1.5) for v in result.constraint_values)
    if not 0.50 <= vf <= 0.62:
        return f"vf {vf!r} outside [0.50, 0.62]"
    if closest > 0.03:
        return f"no displacement ratio within 0.03 of 1.5 (closest off by {closest!r})"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    mesh_scale: int = 1
    bounds: dict = field(default_factory=dict)  # builtin_config overrides
    filter: bool = False
    window: Callable | None = None

    def build(self, load_factor: float):
        """Set-up as a user pays it: configuration, mesh and boundary build,
        then the seed's load-magnitude factor."""
        cfg = builtin_config(self.problem, **self.bounds)
        if self.filter:
            cfg = config.with_overrides(cfg, filter=True)
        problem = config.build_problem(cfg, mesh_scale=self.mesh_scale)
        return scale_loads(problem, load_factor)

    def check(self, problem, result) -> str | None:
        """Reason the result is wrong, or None."""
        if not result.feasible:
            return f"not feasible: {result.message}"
        g = [v - c.bound for v, c in zip(result.constraint_values, problem.constraints)]
        violated = [gi for gi in g if gi > 0.0]
        if violated:
            return f"constraint violated: g = {violated}"
        return self.window(problem, result) if self.window else None


WORKLOADS = {w.name: w for w in (
    # large matrix: factorization and mesh connectivity dominate, no filter
    Workload("lbracket-fine", "l-bracket-single", mesh_scale=2,
             bounds={"delta_max": 1.5, "sigma_max": 1000.0}, window=_check_lbracket),
    # two load cases, four constraints: multi-RHS, condition-estimate bound
    Workload("mitchell-multi", "mitchell-multi"),
    # filter-bound; remote point q needs a real adjoint solve
    Workload("cantilever-filter", "cantilever-single", filter=True,
             window=_check_cantilever),
)}
