"""Partitions of unity, classifying maps, and projection to exact data.

A witness (a turn and a sign per nerve edge) is only approximately
multiplicative.  Averaging its frames against a partition of unity
gives a nearly rank-2 projector field over the base (the classifying
map); projecting to the nearest true projector and re-orthonormalizing
the frames inside its plane produces transition data that satisfies the
cocycle identity exactly.
The same averaging idea repairs the charts themselves (weighted circular
means of aligned chart values) and, when both obstruction classes
vanish, assembles a single global fiber coordinate.

Layout: the partition of unity is CSR, one row per sample in id order,
and samples with ``m`` supporting sets form a ``SupportGroup``.  Per-point
quantities are stacked over a group: weights ``(n, m)``, frames
``(n, m, r, 2)`` (frame ``a`` belongs to the ``a``-th supporting set;
``r = 2m`` before reduction, the target dimension after), projectors
``(n, r, r)``, rounded transitions as turns and signs ``(n, m, m)``.
Each stage is one call per group:

1. ``_projectors``: weighted frame average and its top-2 projector (batched ``eigh``);
2. ``stiefel_fiber_project``: polar re-orthonormalization inside that plane;
3. ``_round_pairs``: the nearest isometry to each pair's frame product;
4. ``_chart_means``: chart values transported through the rounded pairs,
   averaged by ``circle.karcher_mean``.

The views a command reaches: ``_project`` runs stages 1-3, and
``bundle_map`` runs it on reduced frames, then stage 4 (``coordinatize``);
``frame_field`` and ``reduction_curve`` give the error curve (``report``);
``global_trivialize`` averages rotated charts with ``karcher_mean``
(``trivialize``).  A stage checks its guard over every group before the
next one runs, and names the first failing sample in sample-id order.
Dimension reduction substitutes a principal-subspace projection with
polar re-orthonormalization for the external Stiefel-coordinates
algorithm; results carry the method tag "psc-substitute".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import NamedTuple

import numpy as np

from . import classes, intlinalg
from .circle import TWO_PI, karcher_mean, o2_matrices, s1_angle, s1_point
from .cochains import Witness, coboundary_rows
from .errors import EigengapTooSmall, GuardError, NotTrivializable, RankDeficient, ShapeMismatch
from .errors import UncoveredPoint
from .nerve import BundleDataset, Cover, base_geodesic, lookup


# below this second-versus-third eigenvalue gap the nearest plane is ill-defined
EIGENGAP_MIN = 1e-10
# below this singular value a projected frame has collapsed
RANK_MIN = 1e-10
# a reduction cut whose eigenvalue gap is at most this share of the top one splits a pair
PAIR_GAP = 1e-9
# floats per temporary block of the moment and the error curve
_BLOCK = 1 << 16


# ---------------------------------------------------------------------------
# partitions of unity


class SupportGroup(NamedTuple):
    """The samples whose support has ``m`` sets, as row-aligned columns."""

    rows: np.ndarray  # (n,) ascending positions in the partition's sample order
    ids: np.ndarray  # (n,) sample ids
    sets: np.ndarray  # (n, m) supporting set ids, ascending
    slots: np.ndarray  # (n, m) their positions in the partition's ``sets``
    weights: np.ndarray  # (n, m)


@dataclass(eq=False)
class PartitionOfUnity:
    """Convex weights over cover sets at every sample, as CSR rows.

    Row ``i`` is sample ``ids[i]`` (ascending): strictly positive
    ``weights`` summing to one on ``slots[indptr[i]:indptr[i + 1]]``,
    ascending positions in ``sets`` (the sorted set ids, which also fix
    the ambient block order of frames).  ``groups`` gathers the rows by
    support size.
    """

    ids: np.ndarray
    indptr: np.ndarray
    slots: np.ndarray
    weights: np.ndarray
    sets: tuple
    mode: str

    def __post_init__(self):
        self.sets = tuple(sorted(self.sets))
        set_ids = np.array(self.sets, dtype=np.int64)
        sizes = np.diff(self.indptr)
        self.groups = []
        for m in sorted(set(sizes.tolist())):
            rows = np.flatnonzero(sizes == m)
            at = self.indptr[rows, None] + np.arange(m)
            slots = self.slots[at]
            group = SupportGroup(rows, self.ids[rows], set_ids[slots], slots, self.weights[at])
            self.groups.append(group)

    @property
    def ambient(self) -> int:
        return 2 * len(self.sets)


def partition_of_unity(cover: Cover, dataset: BundleDataset) -> PartitionOfUnity:
    """Convex weights subordinate to a cover, one row per sample.

    Covers with centers and radii get tent weights, proportional to
    radius minus geodesic distance and clipped at zero; covers without
    geometry fall back to membership indicators.  Either way the support
    at a sample is contained in the sets that hold it, and rows
    normalize to one.  Raises ``UncoveredPoint`` when a sample belongs to no cover set.
    """
    parametric = dataset.kind != "abstract" and not any(
        col is None or np.isnan(col).any() for col in (cover.center, cover.radius))
    ids = dataset.ids
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    pos = np.minimum(sorted_ids.searchsorted(cover.samples), max(len(ids) - 1, 0))
    outside = sorted_ids[pos] != cover.samples if len(ids) else np.ones(len(pos), bool)
    if outside.any():
        raise ShapeMismatch(f"cover set {cover.sets[outside][0]} holds samples outside the dataset")
    slots = cover.slots
    if parametric:
        # stacked (n, 1, k) rows against (n, k, 1) centers: each distance is
        # the same one-row product that a single-point call makes
        b = dataset.base[order[pos]]
        d = base_geodesic(dataset.kind, b[:, None, :], cover.center[slots, :, None]).reshape(-1)
        vals = np.maximum(cover.radius[slots] - d, 0.0)
    else:
        vals = np.ones(len(pos))
    counts = np.bincount(pos, minlength=len(ids))
    bare = np.flatnonzero(counts[np.argsort(order)] == 0)
    if bare.size:
        raise UncoveredPoint(f"sample {dataset.ids[bare[0]]} lies in no cover set")
    total = np.zeros(len(ids))
    np.add.at(total, pos, vals)  # each row adds its terms in set-id order
    # members sit strictly inside their balls, so a zero total only
    # happens on malformed input; fall back to indicators
    dead = total <= 0.0
    vals[dead[pos]] = 1.0
    total[dead] = counts[dead]
    w = vals / total[pos]
    keep = cover.by_sample[w[cover.by_sample] > 0.0]  # by sample, then by set
    indptr = np.concatenate([[0], np.cumsum(np.bincount(pos[keep], minlength=len(ids)))])
    mode = "distance" if parametric else "indicator"
    sets = tuple(cover.set_ids.tolist())
    return PartitionOfUnity(sorted_ids, indptr, slots[keep], w[keep], sets, mode)


# ---------------------------------------------------------------------------
# batched matrix kernels


def _sorted_eigh(a: np.ndarray):
    vals, vecs = np.linalg.eigh(a)
    return vals[..., ::-1], vecs[..., ::-1]  # descending


def _top_plane(sym: np.ndarray):
    """Top-2 spectral projectors of symmetric matrices ``(..., r, r)``, with eigengaps.

    Raises an indexed ``EigengapTooSmall`` when the second and third
    eigenvalues are within ``EIGENGAP_MIN``.
    """
    vals, vecs = _sorted_eigh(sym)
    gap = vals[..., 1] - (vals[..., 2] if vals.shape[-1] > 2 else 0.0)
    bad = np.flatnonzero(gap <= EIGENGAP_MIN)
    if bad.size:
        i = np.unravel_index(bad[0], gap.shape)
        raise EigengapTooSmall(
            f"eigengap {gap[i]:.3e} between second and third eigenvalues", index=i
        )
    top = vecs[..., :2]
    return top @ top.swapaxes(-1, -2), gap


def _polar(b: np.ndarray) -> np.ndarray:
    """Orthogonal polar factors of 2-column frames ``(..., r, 2)``, through the 2x2 Gram.

    Raises an indexed ``RankDeficient`` at a singular value at or below ``RANK_MIN``.
    """
    vals, vecs = np.linalg.eigh(b.swapaxes(-1, -2) @ b)
    sigma = np.sqrt(np.maximum(vals[..., 0], 0.0))
    bad = np.flatnonzero(sigma <= RANK_MIN)
    if bad.size:
        i = np.unravel_index(bad[0], sigma.shape)
        raise RankDeficient(f"singular value {sigma[i]:.3e} at the rank guard", index=i)
    inv_root = (vecs * (1.0 / np.sqrt(vals))[..., None, :]) @ vecs.swapaxes(-1, -2)
    return b @ inv_root


def stiefel_fiber_project(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Nearest 2-frame to ``a`` whose columns span inside ``range(p)``.

    The orthogonal factor of the polar decomposition of ``p @ a``:
    U = (PA)((PA)^T(PA))^{-1/2}.  Leading batch axes of ``p`` and ``a``
    broadcast against each other.  Raises ``RankDeficient`` when ``p @ a``
    has a singular value at or below ``RANK_MIN``; its ``index`` is the
    first failing batch item.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != 2 or p.shape[-2:] != (a.shape[-2],) * 2:
        raise ShapeMismatch("need a projector matching a tall 2-column frame")
    return _polar(p @ a)


def _nearest_o2(m: np.ndarray):
    """Closest circle isometries to 2x2 matrices: turns, signs and Frobenius gaps."""
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    sign = np.where(m00 * m11 - m01 * m10 >= 0, 1, -1)
    theta = np.where(sign == 1, np.arctan2(m10 - m01, m00 + m11), np.arctan2(m10 + m01, m00 - m11))
    turn = theta / TWO_PI % 1.0
    return turn, sign, np.linalg.norm(m - o2_matrices(turn, sign), axis=(-2, -1))


# ---------------------------------------------------------------------------
# frame fields


def _pair_rows(groups, sets, edges, up, down, diag, what: str) -> list:
    """Values on every ordered pair of supporting sets, ``(n, m, m, ...)`` per group.

    ``up[i]`` sits on the pair ``edges[i]`` of set ids, ``down[i]`` on that
    pair reversed, ``diag`` on each set paired with itself; entry
    ``[i, a, b]`` of a group is the value on its ``a``-th and ``b``-th
    supporting sets.  Raises ``ShapeMismatch`` when a pair that a support
    spans is missing.
    """
    width = len(sets)
    ends = lookup(np.reshape(sets, (-1, 1)), edges.reshape(-1, 1)).reshape(-1, 2)  # slots, -1 off
    keep = np.flatnonzero((ends >= 0).all(axis=1))
    a, b = ends[keep].T
    # the row of ``table`` that holds each ordered pair of slots, -1 where none does
    at = np.full((width, width), -1)
    at[np.arange(width), np.arange(width)] = np.arange(width)
    at[a, b], at[b, a] = width + np.arange(len(a)), width + len(a) + np.arange(len(a))
    table = np.concatenate([np.broadcast_to(diag, (width, *np.shape(diag))), up[keep], down[keep]])
    out = []
    for g in groups:
        pick = at[g.slots[:, :, None], g.slots[:, None, :]]
        bad = np.flatnonzero(pick < 0)
        if bad.size:
            i, a, b = np.unravel_index(bad[0], pick.shape)
            pair = sorted((int(g.sets[i, a]), int(g.sets[i, b])))
            raise ShapeMismatch(f"{what} has no value on edge {tuple(pair)}")
        out.append(table[pick])
    return out


def _transitions(omega: Witness, groups, sets) -> list:
    """Witness matrices ``(n, m, m, 2, 2)`` per group, in frame layout.

    Entry ``[i, a, b]`` is the transition from the ``b``-th supporting set
    into the ``a``-th: the identity on the diagonal, the witness of an
    edge below it and its inverse (a rotation's negated turn, a reflection
    itself) above it.
    """
    back = np.where(omega.sign == 1, -omega.turn % 1.0, omega.turn)
    return _pair_rows(groups, sets, omega.nerve.edges, o2_matrices(back, omega.sign),
                      o2_matrices(omega.turn, omega.sign), o2_matrices(0.0, 1), "witness")


@dataclass(eq=False)
class FrameField:
    """Orthonormal 2-frames per sample and supporting set, stacked per support group.

    ``frames[g]`` ``(n, m, r, 2)`` belongs to ``groups[g]``; frame ``a`` of
    a sample belongs to its ``a``-th supporting set.  Restricted frames
    (r = 2m) occupy the ambient row pairs of the support's slots: rows
    ``2b, 2b + 1`` of frame ``a`` are the transition from set ``b`` into
    set ``a`` times the square root of ``b``'s weight, a view of the
    scaled ``(n, m, m, 2, 2)`` transitions.  Reduced frames (r = ``dim``)
    are dense and carry their projection ``errors``.
    """

    groups: list
    frames: list
    dim: int
    restricted: bool = True
    method: str = ""
    errors: list = field(default_factory=list)

    def rows(self, g: int) -> np.ndarray:
        """Ambient rows that each sample's frames occupy in group ``g``, ``(n, r)``."""
        n = len(self.groups[g].rows)
        if not self.restricted:
            return np.broadcast_to(np.arange(self.dim), (n, self.dim))
        return (2 * self.groups[g].slots[:, :, None] + np.arange(2)).reshape(n, -1)

    def moment(self) -> np.ndarray:
        """Second-moment matrix of all frame columns, the sum of ``F @ F.T`` over every frame.

        Each entry adds its terms in (sample, set) order, one block of
        samples at a time: for witnesses without reflections the
        eigenvalues come in exact pairs and the principal basis inside a
        pair is fixed only by rounding, so the order is part of the result.
        """
        dim = self.dim
        moment = np.zeros(dim * dim)
        rows = [self.rows(g) for g in range(len(self.groups))]
        end = max((int(g.rows[-1]) + 1 for g in self.groups if len(g.rows)), default=0)
        widest = max((f[0].size * f.shape[2] for f in self.frames if len(f)), default=1)
        step = max(1, _BLOCK // widest)
        for lo in range(0, end, step):
            keys, cells, terms = [], [], []
            for g, f, r in zip(self.groups, self.frames, rows):
                a, b = g.rows.searchsorted([lo, lo + step])
                if a == b:
                    continue
                outer = f[a:b] @ f[a:b].swapaxes(-1, -2)  # (k, m, r, r)
                cell = r[a:b, :, None] * dim + r[a:b, None, :]
                cells.append(np.broadcast_to(cell[:, None], outer.shape).reshape(-1))
                terms.append(outer.reshape(-1))
                keys.append(np.repeat(g.rows[a:b], outer[0].size))
            if not keys:
                continue
            first = np.argsort(np.concatenate(keys), kind="stable")
            np.add.at(moment, np.concatenate(cells)[first], np.concatenate(terms)[first])
        return moment.reshape(dim, dim)

    def principal_basis(self):
        """Eigenvalues of ``moment()``, decreasing, with its eigenvectors as columns."""
        return _sorted_eigh(self.moment())


def frame_field(omega: Witness, rho: PartitionOfUnity) -> FrameField:
    """Square-root-weighted stacks of witness transitions, per sample.

    The frame of set ``j`` at a base point stacks each supporting set's
    transition into ``j`` scaled by the square root of its weight; the
    columns are exactly orthonormal.  Frames are stored restricted to
    their support blocks.
    """
    frames = []
    for g, t in zip(rho.groups, _transitions(omega, rho.groups, rho.sets)):
        n, m = g.weights.shape
        # block b of frame a: the transition from set b into set a, times sqrt(w_b)
        t *= np.sqrt(g.weights)[:, None, :, None, None]
        frames.append(t.reshape(n, m, 2 * m, 2))
    return FrameField(groups=rho.groups, frames=frames, dim=rho.ambient)


# ---------------------------------------------------------------------------
# the pointwise stages


def _by_group(groups, stage, where: str, *cols) -> list:
    """Run one stage on every group and check its guard over all of them.

    ``stage`` takes a group's entries of ``cols`` and raises an indexed
    ``GuardError`` at its first failing item.  The error re-raised here
    names the first failing sample in sample-id order across the groups:
    ``where`` is formatted with its sample ``s`` and, for an index into
    the supporting sets, the set ``j``.
    """
    out, failed = [], []
    for g, *args in zip(groups, *cols):
        try:
            out.append(stage(*args))
        except GuardError as exc:
            if exc.index is None:
                raise
            i = exc.index
            failed.append((g.ids[i[0]], where.format(s=g.ids[i[0]], j=g.sets[i]), exc))
    if failed:
        _, name, exc = min(failed, key=lambda f: f[0])
        raise type(exc)(f"{name}: {exc}") from exc
    return out


def _projectors(g, frames):
    """Stage 1: the weighted frame average ``(n, r, r)``, its top-2 projector and eigengap."""
    outer = frames @ frames.swapaxes(-1, -2)
    tilde = np.zeros(outer.shape[:1] + outer.shape[2:])
    for a in range(outer.shape[1]):
        tilde += g.weights[:, a, None, None] * outer[:, a]
    return (tilde, *_top_plane(tilde))


def _round_pairs(fixed):
    """Stage 3: the nearest isometry to each pair's product of re-orthonormalized frames.

    Returns turns and signs ``(n, m, m)`` on every ordered pair (identity
    on the diagonal, a descending pair the inverse of its ascending one)
    and each sample's worst rounding residual.
    """
    n, m = fixed.shape[:2]
    a, b = np.triu_indices(m, 1)
    t, sg, gap = _nearest_o2(fixed[:, a].swapaxes(-1, -2) @ fixed[:, b])
    turn = np.zeros((n, m, m))
    sign = np.ones((n, m, m), dtype=int)
    turn[:, a, b], sign[:, a, b] = t, sg
    turn[:, b, a], sign[:, b, a] = np.where(sg == 1, -t % 1.0, t), sg
    return turn, sign, gap.max(axis=1, initial=0.0)


def _chart_means(trivs, groups, turns, signs) -> list:
    """Stage 4: each supporting chart's value carried into every set, then averaged.

    Entry ``[i, a]`` of a group's result is the weighted circular mean in
    the chart of its ``a``-th supporting set.
    """

    def means(g, turn, sign):
        vals = trivs.at(g.ids[:, None], g.sets)[0]  # (n, m, 2)
        moved = (o2_matrices(turn, sign) @ vals[:, None, :, :, None])[..., 0]
        return karcher_mean(moved, g.weights[:, None, :])

    return _by_group(groups, means, "sample {s}, chart {j}", groups, turns, signs)


def _project(ff: FrameField):
    """Stages 1-3 on every group: averages, re-orthonormalized frames, rounded pairs."""
    avg = _by_group(ff.groups, _projectors, "base point {s}", ff.groups, ff.frames)
    projs = [p[:, None] for _, p, _ in avg]  # one plane for all frames of a sample
    where = "base point {s}, set {j}"
    fixed = _by_group(ff.groups, stiefel_fiber_project, where, projs, ff.frames)
    return avg, fixed, [_round_pairs(u) for u in fixed]


# ---------------------------------------------------------------------------
# dimension reduction


def stiefel_reduce(frames: FrameField, d: int) -> FrameField:
    """Project a frame field to its top-``d`` principal subspace.

    An uncentered principal basis of all frame columns is computed from
    their second-moment matrix; each frame is expressed in that basis,
    truncated, and re-orthonormalized by polar decomposition.  Stands in
    for the external Stiefel-coordinates algorithm; the result carries
    method "psc-substitute" and per-frame projection errors.

    The basis is fixed only up to a rotation inside each pair of equal
    eigenvalues.  Witnesses without a reflecting edge (lens spaces, the
    torus) give second-moment eigenvalues in exact pairs, and which
    orthonormal pair spans such a plane is decided by rounding.  A cut
    at ``d`` inside a pair, (lambda_d - lambda_{d+1}) <= 1e-9 lambda_1,
    keeps an arbitrary line of that plane; a warning is logged.
    ``RankDeficient`` names the first frame that collapses.
    """
    if d < 2 or d > frames.dim:
        raise ValueError(f"need 2 <= d <= {frames.dim}, got {d}")
    vals, vecs = frames.principal_basis()
    if d < frames.dim and vals[d - 1] - vals[d] <= PAIR_GAP * vals[0]:
        import logging  # loaded only where a warning is logged

        logging.getLogger(__name__).warning(
            "reduction to dimension %d cuts inside a pair of equal moment eigenvalues "
            "(%.6g, %.6g); the kept direction of that plane is fixed only by rounding",
            d,
            vals[d - 1],
            vals[d],
        )
    basis = vecs[:, :d]
    # deterministic sign: the largest-magnitude entry of each direction is positive
    for c in range(d):
        col = basis[:, c]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            basis[:, c] = -col
    ys = [basis[frames.rows(g)].swapaxes(-1, -2)[:, None] @ f for g, f in enumerate(frames.frames)]
    where = f"sample {{s}}, set {{j}}: frame collapses at dimension {d}"
    errors = [np.sqrt(np.maximum(0.0, 2.0 - np.sum(y * y, axis=(-2, -1)))) for y in ys]
    reduced = _by_group(frames.groups, _polar, where, ys)
    return FrameField(frames.groups, reduced, d, False, "psc-substitute", errors)


def reduction_curve(frames: FrameField, dims) -> list:
    """Projection error versus target dimension, for the error curve.

    Returns a ``(d, mean_error, max_error)`` row per ``d`` in ``dims``
    without recomputing the principal basis per dimension: each frame's
    squared coefficients against the full basis are accumulated once, a
    block of samples at a time, into one ``(len(dims), frames)`` error
    table in group order, and each dimension's mean adds its row's frames
    in (sample, set) order.
    """
    _, vecs = frames.principal_basis()
    cut = np.array(dims, dtype=int) - 1
    errs = np.empty((len(cut), sum(f.shape[0] * f.shape[1] for f in frames.frames)))
    at, keys = 0, []
    for g, f in enumerate(frames.frames):
        rows = frames.rows(g)
        step = max(1, _BLOCK // max(f[0].size * frames.dim, 1))
        for lo in range(0, len(f), step):
            y = vecs[rows[lo : lo + step]].swapaxes(-1, -2)[:, None] @ f[lo : lo + step]
            y *= y
            # the two-term sum a reduce over the axis of length 2 would make, without its overhead
            tail = 2.0 - np.cumsum(y[..., 0] + y[..., 1], axis=-1)
            block = np.sqrt(np.clip(tail[..., cut], 0.0, None)).reshape(-1, len(cut)).T
            errs[:, at : at + block.shape[1]] = block
            at += block.shape[1]
        keys.append(np.repeat(frames.groups[g].rows, f.shape[1]))
    order = np.argsort(np.concatenate(keys), kind="stable")
    return [(int(d), float(e[order].mean()), float(e.max())) for d, e in zip(dims, errs)]


# ---------------------------------------------------------------------------
# the bundle coordinatization map


@dataclass
class BundleMapResult:
    """Per-sample coordinates in the reduced frame bundle.

    ``vectors[i]`` is a unit vector in the plane of the projector at
    sample ``ids[i]`` (ascending); the residuals record how far chart
    disagreement, plane membership, and isometry rounding actually strayed.
    ``reduction_errors`` holds the reduction's per-frame errors.
    """

    ids: np.ndarray
    vectors: np.ndarray  # (n, dim)
    dim: int
    stage: int | None
    method: str
    overlap_residual: float
    plane_residual: float
    ortho_residual: float
    reduction_errors: np.ndarray


def bundle_map(
    trivs, omega: Witness, rho: PartitionOfUnity, d: int, stage: int | None = None
) -> BundleMapResult:
    """Map every sample into reduced frame coordinates.

    The composite pipeline: build frames from the witness, reduce to
    ``d`` dimensions, average to a projector field, re-orthonormalize
    frames in its planes, round their products to isometries, transport
    chart values through those isometries, and push the weighted
    circular mean of the transported values through the frame of the
    heaviest supporting set.  Charts cut to a stage (``nerve.cut_base``)
    name it in ``stage``; ``omega`` may be the whole cover's witness, read
    only on pairs of sets a support spans, every one an edge of the stage.

    Raises
    ------
    EigengapTooSmall, RankDeficient, DiameterTooLarge
        Re-raised with the offending sample attached.
    """
    red = stiefel_reduce(frame_field(omega, rho), d)
    groups = red.groups
    avg, fixed, pairs = _project(red)
    turns, signs, orthos = zip(*pairs)
    means = _chart_means(trivs, groups, turns, signs)
    vectors = np.empty((len(rho.ids), d))
    overlap_residual = plane_residual = 0.0
    for g, (_, p, _), u, mean in zip(groups, avg, fixed, means):
        outputs = (u @ mean[..., None])[..., 0]  # (n, m, d): the mean in each chart's frame
        # the heaviest supporting set, the lowest id among ties
        v = outputs[np.arange(len(g.ids)), np.argmax(g.weights, axis=1)]
        for a, b in combinations(range(outputs.shape[1]), 2):
            gaps = np.linalg.norm(outputs[:, a] - outputs[:, b], axis=-1)
            overlap_residual = max(overlap_residual, float(gaps.max()))
        off = np.linalg.norm(v - (p @ v[..., None])[..., 0], axis=-1)
        plane_residual = max(plane_residual, float(off.max()))
        vectors[g.rows] = v
    return BundleMapResult(
        ids=rho.ids,
        vectors=vectors,
        dim=d,
        stage=stage,
        method=red.method,
        overlap_residual=overlap_residual,
        plane_residual=plane_residual,
        ortho_residual=max((float(o.max()) for o in orthos), default=0.0),
        reduction_errors=np.concatenate([e.reshape(-1) for e in red.errors]),
    )


# ---------------------------------------------------------------------------
# global trivialization


@dataclass
class GlobalTrivialization:
    """A single fiber coordinate over the whole base.

    ``turns[i]`` is the fiber angle of sample ``ids[i]`` (ascending), in
    turns.  ``phi`` records the per-set reflection fix and ``beta`` the
    per-edge integer winding correction that made the charts agree;
    ``residual`` is the worst remaining chart disagreement (chord units).
    ``beta`` is an int array aligned to ``edges``.
    """

    ids: np.ndarray
    turns: np.ndarray
    phi: dict
    edges: np.ndarray
    beta: np.ndarray
    residual: float


def global_trivialize(trivs, omega: Witness, rho: PartitionOfUnity) -> GlobalTrivialization:
    """Assemble one global fiber coordinate from charts with trivial classes.

    Solves the sign class as a mod-2 coboundary to fix reflections, the
    integer class as a coboundary to fix windings, then rotates each
    chart by the weighted lift differences and averages.  Obstructions
    surface as errors naming the class that blocked.

    Raises
    ------
    NotTrivializable
        ``reason`` is "sw" when the sign class is not a coboundary,
        "euler" when the integer class is not.
    BracketAmbiguous
        A lift coboundary sits too close to a half-integer to round
        (raised by ``euler_cochain``).
    DiameterTooLarge
        Names the first sample whose rotated chart values spread over half a circle.
    """
    nerve = omega.nerve
    edges = nerve.edges

    # reflection fix: write the sign class as a vertex sign potential
    phi = intlinalg.sign_potential(edges, omega.sign, nerve.vertices[:, 0].tolist())
    if phi is None:
        raise NotTrivializable(
            "sw", "the sign class is not a coboundary; no global orientation exists"
        )
    # conjugate each edge by its end points' reflections
    head, tail = np.array([phi[j] for j in edges.ravel().tolist()], dtype=np.int64).reshape(-1, 2).T
    hat = Witness(nerve, head * omega.turn % 1.0, head * omega.sign * tail)
    still = np.flatnonzero(hat.sign != 1)
    if still.size:
        j, k = edges[still[0]].tolist()
        raise ShapeMismatch(f"edge ({j}, {k}) still reflects after the orientation fix")

    # winding fix: the rounded lift coboundary as an untwisted coboundary over Z
    fixed = classes.euler_cochain(hat)
    winding = intlinalg.solve_integer(coboundary_rows(nerve, 1), fixed.euler.tolist())
    if winding is None:
        raise NotTrivializable(
            "euler", "the integer class is not a coboundary; the bundle twists"
        )
    beta = np.zeros(len(edges), dtype=np.int64)
    beta[list(winding)] = list(winding.values())
    # per ordered pair (k, j): the rotation lift less its winding correction
    shift = fixed.lift - beta
    shifts = _pair_rows(rho.groups, rho.sets, edges, shift, -shift, 0.0, "lift")
    flip = np.array([phi[j] < 0 for j in rho.sets])

    # rotate each chart by its weighted lift difference, then average
    pts, residual = [], 0.0
    for g, sh in zip(rho.groups, shifts):
        _, turns = trivs.at(g.ids[:, None], g.sets)
        mu = 0.0
        for b in range(sh.shape[1]):
            mu = mu + g.weights[:, b, None] * sh[:, b, :]
        xy = s1_point((np.where(flip[g.slots], -turns, turns) + mu) % 1.0)
        for a, b in combinations(range(xy.shape[1]), 2):
            residual = max(residual, float(np.linalg.norm(xy[:, a] - xy[:, b], axis=-1).max()))
        pts.append(xy)
    means = _by_group(rho.groups, karcher_mean, "sample {s}", pts, [g.weights for g in rho.groups])
    angles = np.empty(len(rho.ids))
    for g, mean in zip(rho.groups, means):
        angles[g.rows] = s1_angle(mean)
    return GlobalTrivialization(
        ids=rho.ids, turns=angles, phi=phi, edges=edges, beta=beta, residual=residual
    )
