"""Relative constraint evaluation, multiplier/penalty state, and the
combination of sensitivity fields into a single augmented level-set.

All operations are pure; the optimizer owns the single mutable copy of
ALState and replaces it wholesale on update.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .sensitivity import normalize_and_protect


def evaluate_constraint(raw: float, reference: float, bound: float) -> float:
    """Dimensionless constraint value g = raw/reference - bound (g <= 0 feasible)."""
    if reference <= 0:
        raise ValueError(f"degenerate constraint reference {reference}; the initial "
                         "full-domain value must be positive")
    g = raw / reference - bound
    if not np.isfinite(g):
        raise ValueError(f"non-finite constraint value (raw={raw}, reference={reference})")
    return g


@dataclass(frozen=True)
class ALState:
    """Per-constraint multipliers and penalties, plus the outer counter."""

    mu: np.ndarray
    gamma: np.ndarray
    k: int = 0
    g_prev: np.ndarray | None = None

    @classmethod
    def initial(cls, n_constraints: int, mu0: float = 1.0, gamma0: float = 10.0) -> "ALState":
        return cls(mu=np.full(n_constraints, float(mu0)),
                   gamma=np.full(n_constraints, float(gamma0)))


def lagrangian_terms(g: float, mu: float, gamma: float) -> float:
    """One constraint's contribution to the augmented Lagrangian."""
    if gamma <= 0:
        raise ValueError(f"penalty must be positive, got {gamma}")
    if mu - gamma * g > 0:
        return mu * g - 0.5 * gamma * g * g
    return 0.5 * mu * mu / gamma


def coefficient(g: float, mu: float, gamma: float) -> float:
    """Weight of a constraint field in the combined level-set (both branches)."""
    c = mu - gamma * g
    return c if c > 0 else 0.0


def combine_level_sets(t_obj: np.ndarray,
                       constraints: list[tuple[np.ndarray, float, float, float]]
                       ) -> np.ndarray:
    """T_L = T_obj - sum_i c_i * T_gi, then normalized.

    ``constraints`` holds (field, g, mu, gamma) tuples; a constraint whose
    branch condition mu - gamma*g <= 0 contributes exactly zero.
    """
    values = t_obj
    for field_i, g, mu, gamma in constraints:
        if len(field_i) != len(t_obj):
            raise ValueError("sensitivity field size mismatch")
        c = coefficient(g, mu, gamma)
        if c > 0.0:
            values = values - c * field_i
    return normalize_and_protect(values)


def update_multipliers(state: ALState, g: np.ndarray) -> ALState:
    """mu_i <- max(mu_i - g_i, 0): the constraint value is subtracted
    directly, without the penalty factor."""
    return replace(state, mu=np.maximum(state.mu - np.asarray(g, dtype=float), 0.0))


def update_penalties(state: ALState, g: np.ndarray, sigma_constant: float = 0.25,
                     eta: float = 10.0) -> ALState:
    """Keep gamma_i while min(g_curr, 0) <= sigma * min(g_prev, 0), otherwise
    gamma_i <- max(eta * gamma_i, k^2). Advances the outer counter and the
    stored previous constraint values."""
    if not 0 < sigma_constant < 1:
        raise ValueError(f"sigma constant must lie in (0, 1), got {sigma_constant}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    g = np.asarray(g, dtype=float)
    k = state.k + 1
    g_prev = state.g_prev if state.g_prev is not None else g
    curr = np.minimum(g, 0.0)
    prev = np.minimum(g_prev, 0.0)
    bump = curr > sigma_constant * prev
    gamma = np.where(bump, np.maximum(eta * state.gamma, float(k * k)), state.gamma)
    return replace(state, gamma=gamma, k=k, g_prev=g.copy())
