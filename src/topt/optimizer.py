"""Outer optimization loop: volume schedule, inner fixed-point iteration,
constraint checking, augmented-Lagrangian updates, and backtracking.

One pass of the outer loop evaluates the constraints on the current
(converged) topology, updates multipliers and penalties, and either cuts
down to the next target volume (feasible) or restores the last feasible
topology and halves the volume decrement (violated). The run terminates
when the decrement falls below ``min_delta_v``, the target volume fraction
is reached, or the FEA budget is exhausted; each outer pass records its
outcome as a ``HistoryRecord.event``, and the last one says which.
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
    filter: bool = False
    filter_radius: float = 1.5  # in units of the element size h
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
        for name in ("max_inner_iters", "max_total_fea"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
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
    islands: int = 0  # solid elements cut off from the supports, not analyzed
    restored: int | None = None  # inner rows: elements the repair put back
    event: str | None = None  # outer rows: "accept" or a key of _MESSAGES
    inner_converged: bool | None = None  # outer rows that ran the inner loop
    cond_converged: bool | None = None  # outer rows, when tracking the condition

    @property
    def feasible(self) -> bool:
        return all(gi <= 0.0 for gi in self.g)

    @property
    def max_rel_compliance(self) -> float:
        return max(self.rel_compliance)


# outcome of an outer pass -> the run's message when the pass ends the run
# ("accept" never does; a pass that spends the FEA budget is "budget")
_MESSAGES = {
    "backtrack-violated": "volume decrement below minimum",
    "backtrack-blocked": "volume decrement below minimum (removal blocked)",
    "backtrack-unconverged": "volume decrement below minimum (inner loop unconverged)",
    "topology-error": "volume decrement below minimum ({error})",
    "budget": "FEA budget exhausted",
    "target": "target volume fraction reached",
    "floor": "schedule floor reached (protected elements)",
    "infeasible": "infeasible at the full domain: {violated}",
}
_BACKTRACKS = ("backtrack-violated", "backtrack-blocked", "backtrack-unconverged",
               "topology-error")


@dataclass
class OptimizationResult:
    topology: TopologyState
    history: list[HistoryRecord]
    feasible: bool
    message: str
    fea_count: int
    analysis: fem.Analysis | None = None
    field: np.ndarray | None = None  # the level-set whose cut gave the design
    constraint_values: list[float] = dc_field(default_factory=list)  # raw/ref, final
    rel_compliance: list[float] = dc_field(default_factory=list)     # per case, final


class _Run:
    """Mutable state of one optimization run."""

    def __init__(self, problem: "ProblemSpec"):
        self.config = problem.config
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
        self.relaxed: np.ndarray | None = None
        self.skin_weight = 1.0
        # the last estimate's lowest mode (full-mesh DOFs) starts the next
        self.low_mode: np.ndarray | None = None
        self.adjoints = sensitivity.constant_adjoints(self.constraints, self.mesh,
                                                      self.boundary, self.cases)
        # adjoint from the constraint's own case: a load-path energy density
        # as field, which stays in the combination (see build_field)
        self.structural = [isinstance(a, tuple) and a[0] == self.case_index[c.case]
                           for c, a in zip(self.constraints, self.adjoints)]
        # the system holding the run's one band buffer: an older analysis (a
        # snapshot, an inner-loop best) factors again if it is solved again
        self.holder: list[fem.SystemMatrix] = []

    def analyze(self, topo: TopologyState) -> fem.Analysis:
        analysis = fem.analyze(self.mesh, self.boundary, self.material, topo, self.cases,
                               self.holder)
        self.fea_count += len(self.cases)
        return analysis

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
               g: np.ndarray, al: auglag.ALState, **facts) -> HistoryRecord:
        self.history.append(HistoryRecord(
            step=step,
            target_vf=target,
            achieved_vf=analysis.topology.volume_fraction,
            rel_compliance=self.rel_compliance(analysis),
            g=tuple(float(x) for x in g),
            mu=tuple(float(x) for x in al.mu),
            gamma=tuple(float(x) for x in al.gamma),
            fea_count=self.fea_count,
            islands=analysis.topology.count() - len(analysis.active.element_ids),
            **facts,
        ))
        return self.history[-1]

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
            g = np.maximum(g_raw, -window)  # saturated: a huge slack cannot overflow
            ramp = np.ones(len(self.constraints))
            for i in range(len(self.constraints)):
                if not self.structural[i]:
                    ramp[i] = (window + min(g[i], 0.0)) / window
            engaged = [i for i in range(len(self.constraints)) if ramp[i] > 0.0]
            cf = sensitivity.constraint_fields(
                analysis, [self.constraints[i] for i in engaged],
                [self.adjoints[i] for i in engaged], [self.references[i] for i in engaged],
                self.material, self.include, self.case_index)
            self.fea_count += cf.adjoint_solves
            combos = [(ramp[i] * f, g[i], al.mu[i], al.gamma[i])
                      for i, f in zip(engaged, cf.fields)]
            t_obj = sensitivity.sensitivity_volume(self.mesh.n_elements)
            combined = auglag.combine_level_sets(t_obj, combos)
        if self.config.filter:
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
        return out

    def out_of_budget(self) -> bool:
        """Whether one more inner iteration could exceed the FEA budget."""
        solves = len(self.cases) + len(self.constraints)
        return self.fea_count + solves > self.config.max_total_fea


def fixed_point_step(run: _Run, topo: TopologyState, analysis: fem.Analysis,
                     target_vf: float, al: auglag.ALState, step: int,
                     retry: bool = False) -> tuple[TopologyState, fem.Analysis, bool]:
    """Inner iteration at a fixed target volume: solve, rebuild fields, cut,
    repeat until the relative compliance change stays below the tolerance
    for two consecutive iterations (or the topology reaches a fixed point).

    A ``retry`` (after a backtrack) makes one cut of the level-set that gave
    the last accepted topology: the smaller decrement then gives a strictly
    nested, hence milder, perturbation, which reshuffling would undo.

    Returns (topology, analysis, converged); on non-convergence the stiffest
    iterate seen is returned.
    """
    config = run.config
    if round(target_vf * run.mesh.n_elements) >= topo.count():
        return topo, analysis, True  # nothing to remove: already a fixed point
    best = (topo, analysis)
    best_j = max(run.rel_compliance(analysis))
    small_changes = 0
    prev_j = np.array(analysis.compliances)
    for it in range(config.max_inner_iters):
        if run.out_of_budget():
            break
        field = run.relaxed if it == 0 and retry else run.build_field(analysis, al)
        cut = levelset.extract_domain(field, levelset.find_tau(field, target_vf), run.protected)
        new_topo = repair_connectivity(run.mesh, cut, topo, run.boundary)
        if np.array_equal(new_topo.solid, topo.solid):
            return topo, analysis, True
        topo, analysis = new_topo, run.analyze(new_topo)
        run.record(step, target_vf, analysis, run.evaluate(analysis), al,
                   restored=new_topo.count() - cut.count())
        if retry:
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
    return best[0], best[1], False


def run(problem: "ProblemSpec") -> OptimizationResult:
    """Trace the volume-fraction schedule down until a constraint blocks
    further removal or the target volume fraction is reached."""
    config = problem.config
    if not problem.constraints and config.target_vf is None:
        raise ValueError("problem needs at least one constraint or an explicit "
                         "target volume fraction")

    state = _Run(problem)
    topo = TopologyState.full(state.mesh)
    analysis = state.analyze(topo)
    for case, j in zip(state.cases, analysis.compliances):
        if j <= 0:
            raise ValueError(f"load case {case} does no work on the full domain; its "
                             "loads act only on fixed DOFs or cancel out")
    state.references = state.raws(analysis)
    for c, ref in zip(state.constraints, state.references):
        if c.kind == sensitivity.KIND_DISPLACEMENT:
            # a DOF the case does not move reads round-off, whose sign and
            # size the BLAS kernels decide
            largest = float(np.abs(analysis.displacements[state.case_index[c.case]]).max())
            if abs(ref) <= 1e-8 * largest:
                raise ValueError(f"constraint {c.kind} (case {c.case}) has initial value "
                                 f"{ref:.3g}, round-off of the case's largest displacement "
                                 f"{largest:.3g}; constrain a direction the case moves")
        if ref <= 0:
            raise ValueError(f"constraint {c.kind} (case {c.case}) has non-positive "
                             f"initial value {ref}; orient its direction along the "
                             "actual initial displacement")
    state.j0 = list(analysis.compliances)

    al = auglag.ALState.initial(len(state.constraints), config.mu0, config.gamma0)
    delta_v = config.delta_v
    snapshot: tuple[TopologyState, fem.Analysis, np.ndarray | None] | None = None
    floor_vf = (int(state.protected.sum()) + 1) / state.mesh.n_elements
    step, retry, error = 0, False, None

    while True:
        g = state.evaluate(analysis)
        # multipliers grow with the saturated slack; penalties track raw g
        g_sat = np.maximum(g, -config.slack_saturation)
        al = auglag.update_multipliers(al, g_sat)
        al = auglag.update_penalties(al, g, config.sigma_constant, config.eta)
        cond = cond_converged = None
        if config.track_condition:
            cond, cond_converged, state.low_mode = analysis.system.condition(
                fem.lambda_max_bound(state.material), state.low_mode)
        row = state.record(step, topo.volume_fraction, analysis, g, al,
                           cond_estimate=cond, cond_converged=cond_converged)

        feasible = bool(np.all(g <= 0.0))
        if feasible:
            snapshot = (topo, analysis, state.relaxed)
        target = max(topo.volume_fraction - delta_v, config.target_vf or 0.0)
        if not feasible:
            event = "infeasible" if snapshot is None else "backtrack-violated"
        elif config.target_vf is not None and topo.volume_fraction <= config.target_vf + 1e-12:
            event = "target"
        elif target < floor_vf:
            event = "floor"
        elif state.out_of_budget():
            event = "budget"
        else:
            before = topo.count()
            try:
                topo, analysis, row.inner_converged = fixed_point_step(
                    state, topo, analysis, target, al, step, retry)
                if topo.count() < before:
                    event = "accept"
                elif not row.inner_converged:
                    # the budget or max_inner_iters ran out before an iterate
                    # beat the start
                    event = "budget" if state.out_of_budget() else "backtrack-unconverged"
                else:
                    # protection or connectivity repair may undo the removal:
                    # the decrement is then blocked at this scale
                    event = "backtrack-blocked"
            except TopologyError as exc:  # removal broke a load path
                event, error = "topology-error", exc

        if event in _BACKTRACKS:
            # restore the last feasible state and halve the decrement
            topo, analysis, state.relaxed = snapshot
            delta_v *= 0.5
            state.skin_weight = delta_v / config.delta_v
            stop = delta_v < config.min_delta_v
        else:
            stop = event != "accept"
        if not stop and state.fea_count >= config.max_total_fea:
            event, stop = "budget", True
        row.event = event
        if stop:
            break
        retry = event != "accept" and state.relaxed is not None
        step += 1

    # every end but "infeasible" follows a feasible pass; the snapshot's
    # level-set is the one whose cut gave its design
    topo, analysis, field = snapshot or (topo, analysis, None)
    if state.holder:  # the result holds no factorization, nor its storage
        state.holder.pop().release()
    message = _MESSAGES[event].format(error=error, violated=", ".join(
        f"g_{i + 1}={gi:.4f}" for i, gi in enumerate(g) if gi > 0))
    return OptimizationResult(
        topology=topo, history=state.history, feasible=snapshot is not None,
        message=message, fea_count=state.fea_count, analysis=analysis, field=field,
        constraint_values=[r / ref for r, ref in zip(state.raws(analysis), state.references)],
        rel_compliance=list(state.rel_compliance(analysis)),
    )
