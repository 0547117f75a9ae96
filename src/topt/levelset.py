"""Cut-off selection and solid/void extraction from a sensitivity field."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh, TopologyState
from .sensitivity import SensitivityField


def find_tau(field: SensitivityField, target_vf: float) -> float:
    """Cut-off whose strict super-level set {T > tau} has the element count
    closest achievable to target_vf * n_elements.

    Selection on the sorted values, no bisection. Exact value ties cannot be
    split by a threshold; the closer count wins, the larger on a draw.
    Protected elements carry the maximum field value, so they are always
    inside the kept set.
    """
    if target_vf <= 0:
        raise ValueError(f"target volume fraction must be positive, got {target_vf}")
    values = field.values
    n = len(values)
    k = int(round(min(target_vf, 1.0) * n))
    order = np.argsort(-values, kind="stable")  # descending, ties by low index
    ranked = values[order]
    if k >= n:
        return float(ranked[-1] - 1.0)
    if k == 0:
        return float(ranked[0])
    tau = float(ranked[k])
    if ranked[k - 1] == ranked[k]:
        # tie block straddles the cut: pick the side with the closer count
        above = int(np.sum(values > tau))
        tie = int(np.sum(values == tau))
        if abs((above + tie) - k) < abs(above - k) or abs((above + tie) - k) == abs(above - k):
            tau = float(np.nextafter(tau, -np.inf))
    return tau


def extract_domain(field: SensitivityField, tau: float) -> TopologyState:
    """Solid set {T > tau}; protected elements stay solid regardless."""
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    solid = field.values > tau
    solid |= field.protected_mask()
    n = len(solid)
    return TopologyState(solid=solid, volume_fraction=float(solid.sum()) / n)


def extend_into_skin(field: SensitivityField, mesh: Mesh,
                     solid: np.ndarray, weight: float = 1.0) -> SensitivityField:
    """Continue the field across the solid boundary: a void element adjacent
    to solid receives the mean over its full 4-neighborhood, with void (and
    domain-exterior) neighbors represented by the element's own baseline
    value. This is the element-wise counterpart of evaluating the continuous
    level-set just outside the current domain: it lets the fixed-point
    iteration thicken or shift members at constant volume, while the
    baseline discount keeps a lone flank from ranking as high as the member
    it touches (which would cause wholesale relocation every cut).

    ``weight`` scales the extension toward the plain field (0 = no regrowth,
    1 = full); the optimizer shrinks it with the volume decrement so that
    fine backtracking steps trim instead of relocating.
    """
    values = field.values
    nbr_sum = np.zeros(len(values))
    nbr_cnt = np.zeros(len(values))
    for col in (1, 0, 3, 2):  # fixed summation order keeps results bit-stable
        nbr = mesh.neighbours[:, col]
        ok = (nbr >= 0) & solid[nbr]
        nbr_sum += np.where(ok, values[nbr], 0.0)
        nbr_cnt += ok

    skin = ~solid & (nbr_cnt > 0)
    out = values.copy()
    ext = (nbr_sum[skin] + (4.0 - nbr_cnt[skin]) * values[skin]) / 4.0
    out[skin] = values[skin] + weight * (ext - values[skin])
    return SensitivityField(values=out, protected=field.protected)


def smooth_filter(field: SensitivityField, mesh: Mesh, radius: float) -> SensitivityField:
    """Cone-weighted average over element centroids within ``radius`` (in the
    same length units as the mesh); radius 0 is the identity."""
    if radius < 0:
        raise ValueError(f"filter radius must be non-negative, got {radius}")
    if radius == 0.0:
        return field
    H, Hs = mesh.cone_filter(radius)
    return SensitivityField(values=(H @ field.values) / Hs, protected=field.protected)
