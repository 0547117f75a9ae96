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
    nx, ny = mesh.grid_shape
    gi, gj = mesh.element_grid[:, 0], mesh.element_grid[:, 1]
    vals = np.zeros((nx, ny))
    present = np.zeros((nx, ny), dtype=bool)
    solid_grid = np.zeros((nx, ny), dtype=bool)
    vals[gi, gj] = field.values
    present[gi, gj] = True
    solid_grid[gi, gj] = solid

    nbr_sum = np.zeros((nx, ny))
    nbr_cnt = np.zeros((nx, ny))
    src = np.where(solid_grid, vals, 0.0)
    for axis, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
        ok = _rolled_ok(solid_grid, axis, shift)
        nbr_sum += np.roll(src, shift, axis=axis) * ok
        nbr_cnt += ok

    skin = present & ~solid_grid & (nbr_cnt > 0)
    out_grid = vals.copy()
    ext = (nbr_sum[skin] + (4.0 - nbr_cnt[skin]) * vals[skin]) / 4.0
    out_grid[skin] = vals[skin] + weight * (ext - vals[skin])
    out = field.values.copy()
    out[:] = out_grid[gi, gj]
    return SensitivityField(values=out, protected=field.protected,
                            degenerate=field.degenerate)


def _rolled_ok(mask: np.ndarray, axis: int, shift: int) -> np.ndarray:
    """Shifted copy of ``mask`` with the wrapped-around border zeroed."""
    rolled = np.roll(mask, shift, axis=axis).astype(float)
    index = [slice(None), slice(None)]
    index[axis] = 0 if shift == 1 else -1
    rolled[tuple(index)] = 0.0
    return rolled


def smooth_filter(field: SensitivityField, mesh: Mesh, radius: float) -> SensitivityField:
    """Cone-weighted average over element centroids within ``radius`` (in the
    same length units as the mesh); radius 0 is the identity."""
    if radius < 0:
        raise ValueError(f"filter radius must be non-negative, got {radius}")
    if radius == 0.0:
        return field
    H, Hs = mesh.cone_filter(radius)
    return SensitivityField(values=(H @ field.values) / Hs, protected=field.protected,
                            degenerate=field.degenerate)
