"""Algebra of the circle and its isometry group.

Angles are measured in turns (full revolutions), so a quarter rotation is
0.25 and the exponential map is ``t -> (cos 2*pi*t, sin 2*pi*t)``.  An
isometry is a rotation optionally followed by conjugation (reflection in
the x axis), stored as a (turn, sign) pair; its matrix form is
``R(2*pi*turn) @ diag(1, sign)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DiameterTooLarge, NonUniqueArc, ReflectionHasNoLog

TWO_PI = 2.0 * math.pi

# Ties between circular gaps closer than this are treated as exact.
_GAP_TIE_TOL = 1e-12


@dataclass(frozen=True)
class O2:
    """Isometry of the circle: rotate by ``turn``, reflect first if ``sign`` is -1.

    Attributes
    ----------
    turn : float
        Rotation amount in turns, normalized to [0, 1).
    sign : int
        +1 for a rotation, -1 for a reflection (the determinant).
    """

    turn: float
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        object.__setattr__(self, "turn", self.turn % 1.0)

    @property
    def matrix(self) -> np.ndarray:
        c = math.cos(TWO_PI * self.turn)
        s = math.sin(TWO_PI * self.turn)
        return np.array([[c, -s * self.sign], [s, c * self.sign]])

    def inverse(self) -> "O2":
        if self.sign == 1:
            return O2(-self.turn, 1)
        # reflections are involutions
        return O2(self.turn, -1)


IDENTITY = O2(0.0, 1)


def o2_compose(a: O2, b: O2) -> O2:
    """Composition a then-apply-after b, i.e. the product of matrix forms.

    The turn of the product is ``a.turn + a.sign * b.turn`` modulo 1 and
    the signs multiply.
    """
    return O2(a.turn + a.sign * b.turn, a.sign * b.sign)


def o2_inverse(a: O2) -> O2:
    return a.inverse()


def o2_apply(a: O2, p: np.ndarray) -> np.ndarray:
    """Apply an isometry to points of shape (..., 2)."""
    p = np.asarray(p, dtype=float)
    return p @ a.matrix.T


def exp_so2(t: float) -> O2:
    """Rotation by ``t`` turns."""
    return O2(t % 1.0, 1)


def log_so2(a: O2) -> float:
    """Principal logarithm of a rotation, in turns.

    Returns
    -------
    float
        The unique t in (-1/2, 1/2] with ``exp_so2(t) == a``.

    Raises
    ------
    ReflectionHasNoLog
        If ``a`` is orientation reversing.
    """
    if a.sign != 1:
        raise ReflectionHasNoLog("log requested for a reflection")
    return principal_turn(a.turn)


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


def s1_distance(p: np.ndarray, q: np.ndarray) -> tuple[float, float]:
    """Chord and geodesic distance between two unit vectors.

    Returns
    -------
    (chord, geodesic) : tuple of floats
        Euclidean norm of the difference, and arc length in radians.
        They satisfy ``chord = 2 sin(geodesic / 2)``.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    chord = float(np.linalg.norm(p - q))
    geodesic = 2.0 * math.asin(min(1.0, chord / 2.0))
    return chord, geodesic


def turn_chord(dt) -> np.ndarray:
    """Chord distance between angles separated by ``dt`` turns."""
    return 2.0 * np.abs(np.sin(np.pi * np.asarray(dt, dtype=float)))


def o2_frobenius_distance(a: O2, b: O2) -> float:
    """Frobenius norm of the difference of matrix forms.

    Equals ``2*sqrt(2)*|sin(pi*(a.turn - b.turn))|`` when the signs match
    and is at least 2 when they differ.
    """
    if a.sign == b.sign:
        return math.sqrt(8.0) * abs(math.sin(math.pi * (a.turn - b.turn)))
    return float(np.linalg.norm(a.matrix - b.matrix))


@dataclass(frozen=True)
class ArcSummary:
    """Shortest arc containing a set of angles.

    ``width = 1 - max_gap`` and the midpoint lies halfway along the arc.
    All three fields are in turns.
    """

    midpoint: float
    width: float
    max_gap: float


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


def shortest_enclosing_arc(angles: Sequence[float]) -> ArcSummary:
    """Shortest arc of the circle containing every given angle.

    The one-segment form of ``enclosing_arcs``.

    Raises
    ------
    NonUniqueArc
        If two gaps tie for the maximum; the error lists every tied
        candidate midpoint so the caller can decide.
    ValueError
        If the list is empty.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("no angles given")
    indptr = np.array([0, angles.size])
    arc = enclosing_arcs(angles, indptr)
    g = float(arc.max_gap[0])
    if arc.ties[0] > 1:
        seg, a, gaps = _circular_gaps(angles, indptr)
        tied = np.flatnonzero(gaps >= g - _GAP_TIE_TOL)
        mids = ((a[_successor(tied, indptr, seg)] + (1.0 - gaps[tied]) / 2.0) % 1.0).tolist()
        raise NonUniqueArc(
            f"{tied.size} circular gaps tie for the maximum ({g:.17g} turns)", mids
        )
    return ArcSummary(midpoint=float(arc.midpoint[0]), width=float(arc.width[0]), max_gap=g)


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

    Unlike ``shortest_enclosing_arc`` this never raises on gap ties,
    since tied gaps share a width.  Leading batch axes are allowed; the
    angles of one arc run along the last axis.
    """
    a = np.sort(np.asarray(angles, dtype=float) % 1.0, axis=-1)
    if a.shape[-1] <= 1:
        return np.zeros(a.shape[:-1])
    gaps = np.diff(a, axis=-1, append=a[..., :1] + 1.0)
    return 1.0 - np.max(gaps, axis=-1)
