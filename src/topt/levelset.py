"""Cut-off selection and solid/void extraction from a sensitivity field."""

from __future__ import annotations

import numpy as np

from .mesh import Mesh, TopologyState


CUT_GRID = 1e9  # field values are compared on a 1e-9 grid


def cut_key(field: np.ndarray) -> np.ndarray:
    """Distinct per-element ranking key, within 1e-9 of the field values.

    The values are rounded to a 1e-9 grid, so gaps left by solver round-off
    (a mirror pair of a symmetric problem differs by ~1e-12) vanish, and
    the remaining ties go to the lower element index: element i is lowered
    by i/(2n) grid steps, less than half a step. Ordering elements by the
    key is ordering them by (rounded value descending, index ascending).
    The key stays distinct for fields of order one on up to ~10^6 elements.
    """
    n = len(field)
    return (np.round(field * CUT_GRID) - np.arange(n) / (2.0 * n)) / CUT_GRID


def find_tau(field: np.ndarray, target_vf: float) -> float:
    """Cut-off on ``cut_key(field)`` whose strict super-level set keeps the
    top k = round(target_vf * n) elements: tau lies between the k-th and the
    (k+1)-th largest key. Protected elements carry the maximum field value,
    so they rank first.
    """
    if not np.all(np.isfinite(field)):
        raise ValueError("the field has non-finite values")
    if target_vf <= 0:
        raise ValueError(f"target volume fraction must be positive, got {target_vf}")
    ranked = -np.sort(-cut_key(field))
    n = len(ranked)
    k = int(round(min(target_vf, 1.0) * n))
    if k >= n:
        return float(ranked[-1] - 1.0)
    if k == 0:
        return float(ranked[0])
    hi, lo = ranked[k - 1], ranked[k]
    if not hi > lo:
        raise ValueError("field values too large to rank on the cut grid")
    tau = 0.5 * (hi + lo)
    return float(tau if tau < hi else lo)


def extract_domain(field: np.ndarray, tau: float,
                   protected: np.ndarray | None = None) -> TopologyState:
    """Solid set {cut_key(field) > tau}; ``protected`` elements stay solid
    regardless."""
    if not np.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    solid = cut_key(field) > tau
    if protected is not None:
        solid |= protected
    return TopologyState(solid=solid)


def extend_into_skin(values: np.ndarray, mesh: Mesh,
                     solid: np.ndarray, weight: float = 1.0) -> np.ndarray:
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
    return out


def smooth_filter(field: np.ndarray, mesh: Mesh, radius: float) -> np.ndarray:
    """Cone-weighted average over element centroids within ``radius`` (in the
    same length units as the mesh); radius 0 is the identity."""
    if radius < 0:
        raise ValueError(f"filter radius must be non-negative, got {radius}")
    if radius == 0.0:
        return field
    H, Hs = mesh.cone_filter(radius)
    return (H @ field) / Hs
