"""Angles, arcs and means on the circle.

Angles are measured in turns (full revolutions), so a quarter rotation is
0.25 and the exponential map is ``t -> (cos 2*pi*t, sin 2*pi*t)``.  An
isometry is a rotation optionally followed by conjugation (reflection in
the x axis), held as a turn and a sign, arrays of them elementwise; its
matrix form is ``R(2*pi*turn) @ diag(1, sign)`` (``o2_matrices``).  The
product of two has turn ``a.turn + a.sign * b.turn`` and the product of
their signs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DiameterTooLarge

TWO_PI = 2.0 * math.pi

# Ties between circular gaps closer than this are treated as exact.
_GAP_TIE_TOL = 1e-12


def principal_turn(t: float) -> float:
    """Representative of ``t`` modulo 1 in the branch (-1/2, 1/2]."""
    r = t % 1.0
    return r if r <= 0.5 else r - 1.0


def s1_point(turn: float) -> np.ndarray:
    """Unit vector at the given angle; also accepts arrays of turns."""
    t = np.asarray(turn, dtype=float) * TWO_PI
    return np.stack([np.cos(t), np.sin(t)], axis=-1)


def s1_angle(p: np.ndarray) -> np.ndarray:
    """Angle of unit vectors in turns, in [0, 1); inverse of ``s1_point``."""
    p = np.asarray(p, dtype=float)
    return np.arctan2(p[..., 1], p[..., 0]) / TWO_PI % 1.0


def turn_chord(dt) -> np.ndarray:
    """Chord distance between angles separated by ``dt`` turns."""
    return 2.0 * np.abs(np.sin(np.pi * np.asarray(dt, dtype=float)))


def o2_matrices(turn, sign) -> np.ndarray:
    """Matrix forms ``(..., 2, 2)`` of isometries given as turns and signs."""
    c, s = np.cos(TWO_PI * turn), np.sin(TWO_PI * turn)
    return np.stack([np.stack([c, -s * sign], -1), np.stack([s, c * sign], -1)], -2)


def segment_max(values, indptr, empty: float = 0.0) -> np.ndarray:
    """Largest value of each segment ``values[indptr[i]:indptr[i + 1]]``; ``empty`` if none."""
    indptr = np.asarray(indptr, dtype=np.int64)
    full = indptr[1:] > indptr[:-1]
    out = np.full(len(full), empty)
    if full.any():
        out[full] = np.maximum.reduceat(values, indptr[:-1][full])
    return out


def _circular_gaps(angles, indptr):
    """Each segment's angles sorted mod 1, with each one's gap to the next.

    Returns each angle's segment, the sorted angles and the gaps; the
    last gap of a segment wraps around to its first angle,
    ``(first + 1) - last``.
    """
    x = np.asarray(angles, dtype=float) % 1.0
    counts = np.diff(indptr)
    seg = np.repeat(np.arange(len(counts), dtype=np.min_scalar_type(len(counts))), counts)
    # a lexsort by (angle, segment) in two passes: the unstable angle sort is
    # the fast one, and a stable sort of small segment numbers is a radix sort
    by_angle = np.argsort(x)
    a, seg_by_angle = x[by_angle], seg[by_angle]
    del x, by_angle
    a = a[np.argsort(seg_by_angle, kind="stable")]
    gaps = np.empty(len(a))
    gaps[:-1] = a[1:] - a[:-1]
    full = counts > 0
    last = indptr[1:][full] - 1
    gaps[last] = (a[indptr[:-1][full]] + 1.0) - a[last]
    return seg, a, gaps


def _successor(i, indptr, seg):
    """Index of the angle after sorted angle ``i`` in its segment, cyclically."""
    return np.where(i + 1 < indptr[1:][seg[i]], i + 1, indptr[:-1][seg[i]])


class Arcs(NamedTuple):
    """Shortest enclosing arcs, one entry per segment, all in turns."""

    midpoint: np.ndarray
    width: np.ndarray
    max_gap: np.ndarray
    ties: np.ndarray  # gaps tied for the maximum; the arc is unique when 1


def enclosing_arcs(angles, indptr) -> Arcs:
    """Shortest arc containing each segment ``angles[indptr[i]:indptr[i + 1]]``.

    An arc is the complement of the largest circular gap between
    consecutive sorted angles of its segment, the wrap gap included; gaps
    within ``_GAP_TIE_TOL`` of the largest count as ties, and the midpoint
    is that of the first tied gap.  One angle is an arc of width 0 with
    max gap 1; an empty segment has max gap 1, no ties and NaN midpoint
    and width.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    counts = np.diff(indptr)
    seg, a, gaps = _circular_gaps(angles, indptr)
    g = np.where(counts == 1, 1.0, segment_max(gaps, indptr, empty=1.0))
    tied = np.flatnonzero(gaps >= g[seg] - _GAP_TIE_TOL)
    # every nonempty segment has a tie, its largest gap: take each one's first
    first = tied[np.r_[True, seg[tied][1:] != seg[tied][:-1]]] if len(tied) else tied
    full = counts > 0
    width = np.full(len(counts), np.nan)
    mid = np.full(len(counts), np.nan)
    width[full] = 1.0 - g[full]
    # the arc runs from the gap's far end
    mid[full] = (a[_successor(first, indptr, seg)] % 1.0 + width[full] / 2.0) % 1.0
    one = counts == 1
    width[one], mid[one] = 0.0, a[indptr[:-1][one]]
    return Arcs(mid, width, g, np.bincount(seg[tied], minlength=len(counts)))


def karcher_mean(points: np.ndarray, weights) -> np.ndarray:
    """Weighted Karcher (Frechet) mean of points on the circle.

    The minimizer of the weighted sum of squared geodesic distances,
    computed in closed form: re-center at the first point of positive
    weight, average the principal-branch logs, exponentiate.  Leading
    batch axes are allowed; each batch item is one mean.

    Parameters
    ----------
    points : ndarray of shape (..., n, 2)
        Unit vectors.
    weights : array broadcastable to (..., n)
        Nonnegative, summing to 1 within 1e-9 over the last axis.

    Returns
    -------
    ndarray of shape (..., 2)

    Raises
    ------
    DiameterTooLarge
        If the points of positive weight do not fit in an open half
        circle; outside that range the mean need not be unique and the
        closed form is invalid.  ``index`` is the first failing batch item.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim < 2 or pts.shape[-1] != 2:
        raise ValueError("points must be (..., n, 2) with matching weights")
    try:
        w = np.broadcast_to(np.asarray(weights, dtype=float), pts.shape[:-1])
    except ValueError:
        raise ValueError("points must be (..., n, 2) with matching weights") from None
    if np.any(w < 0) or np.any(np.abs(w.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("weights must be nonnegative and sum to 1")
    pos = w > 0
    ang = s1_angle(pts)
    center = np.take_along_axis(ang, np.argmax(pos, axis=-1)[..., None], axis=-1)
    # points of zero weight sit at the center: they neither widen the arc nor move the mean
    support = np.where(pos, ang, center)
    width = enclosing_width(support)
    bad = np.flatnonzero(width >= 0.5)
    if bad.size:
        i = np.unravel_index(bad[0], width.shape)
        raise DiameterTooLarge(
            f"points span {width[i]:.6f} turns, not contained in a half circle", index=i
        )
    rel = (support - center) % 1.0
    rel = np.where(rel <= 0.5, rel, rel - 1.0)  # principal_turn
    mean = center[..., 0] + np.sum(w * rel, axis=-1)
    return s1_point(mean % 1.0)


def enclosing_width(angles) -> np.ndarray:
    """Width in turns of the shortest arc containing the angles.

    Tied gaps share a width, so ties need no care.  Leading batch axes
    are allowed; the angles of one arc run along the last axis.
    """
    a = np.sort(np.asarray(angles, dtype=float) % 1.0, axis=-1)
    if a.shape[-1] <= 1:
        return np.zeros(a.shape[:-1])
    gaps = np.diff(a, axis=-1, append=a[..., :1] + 1.0)
    return 1.0 - np.max(gaps, axis=-1)
