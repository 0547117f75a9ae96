"""Outer optimization loop: volume schedule, inner fixed-point iteration,
constraint checking, augmented-Lagrangian updates, and backtracking.

One pass of the outer loop evaluates the constraints on the current
(converged) topology, updates multipliers and penalties, and either cuts
down to the next target volume (feasible) or restores the last feasible
topology and halves the volume decrement (violated). The run terminates
when the decrement falls below ``min_delta_v``, the target volume fraction
is reached, or the FEA budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import TYPE_CHECKING

import numpy as np

from . import auglag, fem, levelset, sensitivity
from .mesh import TopologyState, TopologyError, repair_connectivity

if TYPE_CHECKING:  # pragma: no cover
    from .config import ProblemSpec


@dataclass
class OptimizerConfig:
    delta_v: float = 0.025
    mu0: float = 1.0
    gamma0: float = 10.0
    sigma_constant: float = 0.25
    eta: float = 10.0
    compliance_tol: float = 0.015
    min_delta_v: float = 0.0025
    max_inner_iters: int = 20
    max_total_fea: int = 1000
    filter_enabled: bool = False
    filter_radius: float = 1.5  # in units of the element size h
    multiplier_rule: str = "paper"
    target_vf: float | None = None
    track_condition: bool = True

    @property
    def slack_saturation(self) -> float:
        """Slack beyond one AL activation window (mu0/gamma0) is treated as
        equally inactive when weighting fields and growing multipliers;
        without this, a de-facto-unconstrained bound like 1000 would weight
        its field ~1000x above near-active constraints and dominate the
        combined level-set."""
        return self.mu0 / self.gamma0

    def __post_init__(self):
        for name in ("delta_v", "min_delta_v", "mu0", "gamma0", "sigma_constant", "eta",
                     "compliance_tol", "filter_radius"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.min_delta_v <= self.delta_v < 1:
            raise ValueError("need 0 < min_delta_v <= delta_v < 1")
        for name in ("mu0", "gamma0", "eta", "compliance_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0 < self.sigma_constant < 1:
            raise ValueError(f"sigma_constant must lie in (0, 1), got {self.sigma_constant}")
        if self.filter_radius < 0:
            raise ValueError(f"filter_radius must be non-negative, got {self.filter_radius}")
        if self.max_inner_iters < 1:
            raise ValueError(f"max_inner_iters must be at least 1, got {self.max_inner_iters}")
        if self.multiplier_rule not in auglag.MULTIPLIER_RULES:
            raise ValueError(f"multiplier rule must be one of {auglag.MULTIPLIER_RULES}")
        if self.target_vf is not None and not 0 < self.target_vf <= 1:
            raise ValueError("target volume fraction must lie in (0, 1]")


@dataclass
class HistoryRecord:
    step: int
    target_vf: float
    achieved_vf: float
    rel_compliance: tuple[float, ...]  # per load case
    g: tuple[float, ...]
    mu: tuple[float, ...]
    gamma: tuple[float, ...]
    fea_count: int
    cond_estimate: float | None = None

    @property
    def feasible(self) -> bool:
        return all(gi <= 0.0 for gi in self.g)

    @property
    def max_rel_compliance(self) -> float:
        return max(self.rel_compliance)


@dataclass
class OptimizationResult:
    topology: TopologyState
    history: list[HistoryRecord]
    feasible: bool
    message: str
    fea_count: int
    analysis: fem.Analysis | None = None
    field: np.ndarray | None = None  # the last level-set built
    references: list[float] = dc_field(default_factory=list)
    constraint_values: list[float] = dc_field(default_factory=list)  # raw/ref, final
    rel_compliance: list[float] = dc_field(default_factory=list)     # per case, final


class _Run:
    """Mutable state of one optimization run."""

    def __init__(self, problem: "ProblemSpec", config: OptimizerConfig):
        self.config = config
        self.mesh = problem.mesh
        self.boundary = problem.boundary
        self.material = problem.material
        self.constraints = problem.constraints
        self.cases = problem.boundary.load_cases()
        self.case_index = {c: i for i, c in enumerate(self.cases)}
        self.protected = sensitivity.protected_elements(self.mesh, self.boundary)
        self.include = ~self.protected  # stress aggregation skips manipulated elements
        self.fea_count = 0
        self.references: list[float] = []
        self.j0: list[float] = []
        self.history: list[HistoryRecord] = []
        self.last_field: np.ndarray | None = None
        self.relaxed: np.ndarray | None = None
        self.skin_weight = 1.0
        self.reuse_field = False
        # lowest stiffness mode of the last condition estimate (full-mesh
        # DOFs), the next estimate's start: successive systems differ little
        self.low_mode: np.ndarray | None = None
        self.structural = [sensitivity.is_structural(c, self.mesh, self.boundary)
                           for c in self.constraints]
        # the analysis the run works from, the only one whose factorization
        # may be alive: every solve and condition estimate is made on it
        self.live: fem.Analysis | None = None

    def work_from(self, analysis: fem.Analysis | None) -> None:
        """Make ``analysis`` the live one, releasing the factorization of
        the one before. An older analysis made live again (a snapshot, an
        inner-loop best) factors again only if it is solved again."""
        if self.live is not None and self.live is not analysis:
            self.live.system.release()
        self.live = analysis

    def analyze(self, topo: TopologyState) -> fem.Analysis:
        self.work_from(None)  # before the next factorization, never after
        self.live = fem.analyze(self.mesh, self.boundary, self.material, topo, self.cases)
        self.fea_count += self.live.n_solves
        return self.live

    def raws(self, analysis: fem.Analysis) -> list[float]:
        return [sensitivity.constraint_raw(analysis, c, self.case_index, self.include)
                for c in self.constraints]

    def evaluate(self, analysis: fem.Analysis) -> np.ndarray:
        return np.array([auglag.evaluate_constraint(raw, ref, c.bound)
                         for raw, ref, c in zip(self.raws(analysis), self.references,
                                                self.constraints)])

    def rel_compliance(self, analysis: fem.Analysis) -> tuple[float, ...]:
        return tuple(j / j0 for j, j0 in zip(analysis.compliances, self.j0))

    def record(self, step: int, target: float, analysis: fem.Analysis,
               g: np.ndarray, al: auglag.ALState, cond: float | None = None) -> None:
        self.history.append(HistoryRecord(
            step=step,
            target_vf=target,
            achieved_vf=analysis.topology.volume_fraction,
            rel_compliance=self.rel_compliance(analysis),
            g=tuple(float(x) for x in g),
            mu=tuple(float(x) for x in al.mu),
            gamma=tuple(float(x) for x in al.gamma),
            fea_count=self.fea_count,
            cond_estimate=cond,
        ))

    def build_field(self, analysis: fem.Analysis, al: auglag.ALState) -> np.ndarray:
        """Augmented level-set of the current state (adjoint solves counted)."""
        if not self.constraints:
            combined = sensitivity.compliance_field(analysis, self.material)
        else:
            g_raw = self.evaluate(analysis)
            window = self.config.slack_saturation
            # structural fields participate permanently; remote fields ramp
            # in linearly over the activation window so their suppression can
            # balance right where the constraint binds
            ramp = np.ones(len(self.constraints))
            for i in range(len(self.constraints)):
                if not self.structural[i]:
                    ramp[i] = min(max((window + g_raw[i]) / window, 0.0), 1.0)
            engaged = [i for i in range(len(self.constraints)) if ramp[i] > 0.0]
            cf = sensitivity.constraint_fields(
                analysis, [self.constraints[i] for i in engaged],
                [self.references[i] for i in engaged], self.material,
                self.boundary, self.include, self.case_index)
            self.fea_count += cf.adjoint_solves
            g = np.maximum(g_raw, -window)
            combos = [(ramp[i] * f, g[i], al.mu[i], al.gamma[i])
                      for i, f in zip(engaged, cf.fields)]
            t_obj = sensitivity.sensitivity_volume(self.mesh.n_elements)
            combined = auglag.combine_level_sets(t_obj, combos)
        if self.config.filter_enabled and self.config.filter_radius > 0:
            combined = levelset.smooth_filter(
                combined, self.mesh, self.config.filter_radius * self.mesh.h)
        combined = levelset.extend_into_skin(
            combined, self.mesh, analysis.topology.solid, weight=self.skin_weight)
        out = sensitivity.normalize_and_protect(combined, self.protected)
        if self.relaxed is not None:
            # exponential field memory: keeps successive cuts from relocating
            # large regions at once, which would sever load paths mid-flight
            out = 0.5 * (out + self.relaxed)
        self.relaxed = out
        self.last_field = out
        return out

    def solves_per_inner(self) -> int:
        return len(self.cases) + len(self.constraints)


def fixed_point_step(run: _Run, topo: TopologyState, analysis: fem.Analysis,
                     target_vf: float, al: auglag.ALState,
                     step: int) -> tuple[TopologyState, fem.Analysis, bool]:
    """Inner iteration at a fixed target volume: solve, rebuild fields, cut,
    repeat until the relative compliance change stays below the tolerance
    for two consecutive iterations (or the topology reaches a fixed point).

    Returns (topology, analysis, converged); on non-convergence the stiffest
    iterate seen is returned.
    """
    config = run.config
    n = run.mesh.n_elements
    if round(target_vf * n) >= topo.count():
        return topo, analysis, True  # nothing to remove: already a fixed point
    best = (topo, analysis)
    best_j = max(run.rel_compliance(analysis))
    small_changes = 0
    prev_j = np.array(analysis.compliances)
    retry = run.reuse_field
    run.reuse_field = False
    for it in range(config.max_inner_iters):
        if run.fea_count + run.solves_per_inner() > config.max_total_fea:
            break
        if it == 0 and retry:
            # backtracked retry: re-cut the level-set that produced the last
            # accepted topology, so the smaller decrement gives a strictly
            # nested (hence strictly milder) perturbation
            field = run.relaxed
        else:
            field = run.build_field(analysis, al)
        tau = levelset.find_tau(field, target_vf)
        new_topo = levelset.extract_domain(field, tau, run.protected)
        new_topo = repair_connectivity(run.mesh, new_topo, topo, run.boundary)
        if np.array_equal(new_topo.solid, topo.solid):
            return topo, analysis, True
        analysis = run.analyze(new_topo)
        topo = new_topo
        g = run.evaluate(analysis)
        run.record(step, target_vf, analysis, g, al)
        if retry:
            # a retry is a trim-and-verify pass; reshuffling at this scale
            # would reintroduce the jump the halved decrement avoids
            return topo, analysis, True
        rel_j = max(run.rel_compliance(analysis))
        if rel_j < best_j:
            best, best_j = (topo, analysis), rel_j
        j = np.array(analysis.compliances)
        change = float(np.max(np.abs(j - prev_j) / np.abs(prev_j)))
        prev_j = j
        small_changes = small_changes + 1 if change < config.compliance_tol else 0
        if small_changes >= 2:
            return topo, analysis, True
    run.work_from(best[1])
    return best[0], best[1], False


def run(problem: "ProblemSpec", config: OptimizerConfig | None = None) -> OptimizationResult:
    """Trace the volume-fraction schedule down until a constraint blocks
    further removal or the target volume fraction is reached."""
    config = config if config is not None else problem.config
    if not problem.constraints and config.target_vf is None:
        raise ValueError("problem needs at least one constraint or an explicit "
                         "target volume fraction")

    state = _Run(problem, config)
    topo = TopologyState.full(state.mesh)
    analysis = state.analyze(topo)
    for case, j in zip(state.cases, analysis.compliances):
        if j <= 0:
            raise ValueError(f"load case {case} does no work on the full domain; its "
                             "loads act only on fixed DOFs or cancel out")
    state.references = state.raws(analysis)
    for c, ref in zip(state.constraints, state.references):
        if ref <= 0:
            raise ValueError(f"constraint {c.kind} (case {c.case}) has non-positive "
                             f"initial value {ref}; orient its direction along the "
                             "actual initial displacement")
    state.j0 = list(analysis.compliances)

    al = auglag.ALState.initial(len(state.constraints), config.mu0, config.gamma0)
    delta_v = config.delta_v
    snapshot: tuple[TopologyState, fem.Analysis, np.ndarray | None] | None = None
    floor_vf = (int(state.protected.sum()) + 1) / state.mesh.n_elements
    message = ""
    step = 0

    def backtrack() -> bool:
        """Restore the last feasible state and halve the decrement; returns
        False when the decrement has fallen below the minimum."""
        nonlocal topo, analysis, delta_v
        topo, analysis, state.relaxed = snapshot
        state.work_from(analysis)
        state.reuse_field = state.relaxed is not None
        delta_v *= 0.5
        state.skin_weight = delta_v / config.delta_v
        return delta_v >= config.min_delta_v

    def finish(t: TopologyState, a: fem.Analysis, feasible: bool, msg: str) -> OptimizationResult:
        state.work_from(None)  # the result holds no factorization
        raws = state.raws(a)
        return OptimizationResult(
            topology=t, history=state.history, feasible=feasible, message=msg,
            fea_count=state.fea_count, analysis=a, field=state.last_field,
            references=list(state.references),
            constraint_values=[r / ref for r, ref in zip(raws, state.references)],
            rel_compliance=list(state.rel_compliance(a)),
        )

    while True:
        g = state.evaluate(analysis)
        # multipliers grow with the saturated slack; penalties track raw g
        g_sat = np.maximum(g, -config.slack_saturation)
        al = auglag.update_multipliers(al, g_sat, config.multiplier_rule)
        al = auglag.update_penalties(al, g, config.sigma_constant, config.eta)
        cond = None
        if config.track_condition:
            cond, _, state.low_mode = analysis.system.condition(state.low_mode)
        state.record(step, topo.volume_fraction, analysis, g, al, cond)

        if np.all(g <= 0.0):
            snapshot = (topo, analysis, state.relaxed)
            if config.target_vf is not None and \
                    topo.volume_fraction <= config.target_vf + 1e-12:
                message = "target volume fraction reached"
                break
            target = topo.volume_fraction - delta_v
            if config.target_vf is not None:
                target = max(target, config.target_vf)
            if target < floor_vf:
                message = "schedule floor reached (protected elements)"
                break
            if state.fea_count + state.solves_per_inner() > config.max_total_fea:
                message = "FEA budget exhausted"
                break
            try:
                before = topo.count()
                topo, analysis, _converged = fixed_point_step(
                    state, topo, analysis, target, al, step)
                if topo.count() >= before:
                    # protection or connectivity repair undid the removal:
                    # the decrement is blocked at this scale
                    if not backtrack():
                        message = "volume decrement below minimum (removal blocked)"
                        break
            except TopologyError as exc:
                # removal broke a load path: treat like a violated pass
                if not backtrack():
                    message = f"volume decrement below minimum ({exc})"
                    break
        else:
            if snapshot is None:
                return finish(topo, analysis, False,
                              "infeasible at the full domain: " + ", ".join(
                                  f"g_{i + 1}={gi:.4f}" for i, gi in enumerate(g) if gi > 0))
            if not backtrack():
                message = "volume decrement below minimum"
                break
        step += 1
        if state.fea_count >= config.max_total_fea:
            if snapshot is not None:
                topo, analysis, _ = snapshot
            message = "FEA budget exhausted"
            break

    if snapshot is not None:
        topo, analysis, _ = snapshot
    return finish(topo, analysis, True, message or "completed")
