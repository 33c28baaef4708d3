"""Partitions of unity, classifying maps, and projection to exact data.

A witness cochain is only approximately multiplicative.  Averaging its
frames against a partition of unity gives a nearly rank-2 projector
field over the base; projecting to the nearest true projector and
re-orthonormalizing the frames inside its plane produces transition
data that satisfies the cocycle identity exactly.  The same averaging
idea repairs the charts themselves (weighted circular means of aligned
chart values) and, when both obstruction classes vanish, assembles a
single global fiber coordinate.

Dimension reduction substitutes a principal-subspace projection with
polar re-orthonormalization for the external Stiefel-coordinates
algorithm; results carry the method tag "psc-substitute".
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .circle import O2, IDENTITY, karcher_mean, o2_apply, o2_compose, o2_inverse, s1_angle
from .classes import euler_cochain
from .cochains import Cochain, act_by_potential, cocycle_defect, constant_sign_cochain
from .errors import (
    DiameterTooLarge,
    EigengapTooSmall,
    NotTrivializable,
    RankDeficient,
    ShapeMismatch,
    UncoveredPoint,
)
from .intlinalg import sign_potential, solve_integer, twisted_boundary_matrix
from .nerve import BundleDataset, base_geodesic
from .witness import Trivialization

log = logging.getLogger(__name__)

# below this second-versus-third eigenvalue gap the nearest plane is ill-defined
EIGENGAP_MIN = 1e-10
# below this singular value a projected frame has collapsed
RANK_MIN = 1e-10
# cocycle projection carries its distance guarantee only under this defect
DEFECT_GUARANTEE = math.sqrt(2.0) / 4.0


# ---------------------------------------------------------------------------
# partitions of unity


@dataclass
class PartitionOfUnity:
    """Convex weights over cover sets, evaluated at every sample's base point.

    ``weights`` maps sample id to a dict of strictly positive weights
    keyed by cover-set id; each row sums to one and is supported only on
    sets that contain the sample.  ``sets`` fixes the ambient block
    order used by frame constructions.
    """

    weights: dict
    sets: tuple
    mode: str

    def __post_init__(self):
        self.sets = tuple(sorted(self.sets))
        self._slot = {j: i for i, j in enumerate(self.sets)}

    def support(self, sample) -> list:
        return sorted(self.weights[sample])

    def weight(self, sample, j) -> float:
        return self.weights[sample].get(j, 0.0)

    def row(self, sample):
        """Supporting set ids, ascending, and their weights as an array."""
        supp = self.support(sample)
        return supp, np.array([self.weights[sample][j] for j in supp])

    def slot(self, j) -> int:
        return self._slot[j]

    @property
    def ambient(self) -> int:
        return 2 * len(self.sets)


def partition_of_unity(cover, dataset: BundleDataset) -> PartitionOfUnity:
    """Convex weights subordinate to a cover, one row per sample.

    Covers with centers and radii get tent weights, proportional to
    radius minus geodesic distance and clipped at zero; covers without
    geometry fall back to membership indicators.  Either way the support
    at a sample is contained in the sets that hold it, and rows
    normalize to one.

    Raises
    ------
    UncoveredPoint
        A sample belongs to no cover set.
    """
    cover = list(cover)
    parametric = dataset.kind != "abstract" and all(
        c.center is not None and c.radius is not None for c in cover
    )
    holders: dict = {s: [] for s in dataset.ids}
    for c in cover:
        for s in c.members:
            holders[s].append(c)
    weights: dict = {}
    for s in dataset.ids:
        sets_here = holders[s]
        if not sets_here:
            raise UncoveredPoint(f"sample {s} lies in no cover set")
        if parametric:
            b = dataset.base_of(s)
            row = {}
            for c in sets_here:
                d = float(base_geodesic(dataset.kind, b[None, :], c.center)[0])
                row[c.id] = max(0.0, c.radius - d)
            total = sum(row.values())
            if total <= 0.0:
                # members sit strictly inside their balls, so this only
                # happens on malformed input; fall back to indicators
                row = {c.id: 1.0 for c in sets_here}
                total = float(len(sets_here))
        else:
            row = {c.id: 1.0 for c in sets_here}
            total = float(len(sets_here))
        weights[s] = {j: w / total for j, w in row.items() if w > 0.0}
    return PartitionOfUnity(
        weights=weights,
        sets=tuple(c.id for c in cover),
        mode="distance" if parametric else "indicator",
    )


# ---------------------------------------------------------------------------
# pointwise matrix projections


def _sorted_eigh(a: np.ndarray):
    vals, vecs = np.linalg.eigh(a)
    return vals[::-1], vecs[:, ::-1]  # descending


def gr_project(a: np.ndarray) -> np.ndarray:
    """Nearest rank-2 orthogonal projector to a square matrix.

    Symmetrizes, diagonalizes with eigenvalues in decreasing order, and
    keeps the top two eigendirections.

    Raises
    ------
    EigengapTooSmall
        The second and third eigenvalues of the symmetrization are
        within ``EIGENGAP_MIN``, so the top plane is not well defined.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise ShapeMismatch("need a square matrix of size at least 2")
    sym = 0.5 * (a + a.T)
    p, gap = _gr_project_sym(sym)
    return p


def _gr_project_sym(sym: np.ndarray):
    """Top-2 spectral projector of a symmetric matrix, with the eigengap."""
    vals, vecs = _sorted_eigh(sym)
    third = vals[2] if vals.size > 2 else 0.0
    gap = float(vals[1] - third)
    if gap <= EIGENGAP_MIN:
        raise EigengapTooSmall(
            f"eigengap {gap:.3e} between second and third eigenvalues"
        )
    top = vecs[:, :2]
    return top @ top.T, gap


def _inv_sqrt_gram(b: np.ndarray):
    """Inverse square root of the 2x2 Gram of ``b``, plus sigma_min."""
    g = b.T @ b
    vals, vecs = np.linalg.eigh(g)
    sigma_min = math.sqrt(max(float(vals[0]), 0.0))
    if sigma_min <= RANK_MIN:
        raise RankDeficient(f"singular value {sigma_min:.3e} at the rank guard")
    inv_root = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    return inv_root, sigma_min


def stiefel_fiber_project(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Nearest 2-frame to ``a`` whose columns span inside ``range(p)``.

    The orthogonal factor of the polar decomposition of ``p @ a``:
    U = (PA)((PA)^T(PA))^{-1/2}, with the Gram inverse square root in
    closed form from its 2x2 eigendecomposition.

    Raises
    ------
    RankDeficient
        ``p @ a`` has a singular value at or below ``RANK_MIN``.
    """
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != 2 or p.shape != (a.shape[0], a.shape[0]):
        raise ShapeMismatch("need a projector matching a tall 2-column frame")
    b = p @ a
    inv_root, _ = _inv_sqrt_gram(b)
    return b @ inv_root


def _nearest_o2(m: np.ndarray):
    """Closest circle isometry to a 2x2 matrix, with the Frobenius gap."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det >= 0:
        theta = math.atan2(m[1, 0] - m[0, 1], m[0, 0] + m[1, 1])
        om = O2(theta / (2.0 * math.pi), 1)
    else:
        theta = math.atan2(m[1, 0] + m[0, 1], m[0, 0] - m[1, 1])
        om = O2(theta / (2.0 * math.pi), -1)
    return om, float(np.linalg.norm(m - om.matrix))


# ---------------------------------------------------------------------------
# frame fields


@dataclass
class FrameField:
    """Per-sample, per-set orthonormal 2-frames.

    Before reduction the frames are stored restricted to their support
    blocks: ``support[s]`` lists the cover sets whose pair of ambient
    rows the ``(2m, 2)`` arrays occupy.  After reduction ``support`` is
    None and the frames are dense ``(dim, 2)`` arrays in a common
    coordinate system.
    """

    frames: dict
    sets: tuple
    dim: int
    support: dict | None = None
    method: str = ""
    errors: dict = field(default_factory=dict)

    def __post_init__(self):
        self._slot = {j: i for i, j in enumerate(self.sets)}

    def rows(self, sample) -> np.ndarray:
        """Ambient rows that the stored frames of a sample occupy."""
        if self.support is None:
            return np.arange(self.dim)
        slots = [self._slot[j] for j in self.support[sample]]
        return np.array([r for i in slots for r in (2 * i, 2 * i + 1)], dtype=int)

    def principal_basis(self) -> np.ndarray:
        """Uncentered principal directions of all frame columns.

        The eigenvectors of the second-moment matrix, the sum of
        ``F @ F.T`` over every frame, as columns by decreasing eigenvalue.
        """
        moment = np.zeros((self.dim, self.dim))
        for s, mats in self.frames.items():
            rows = self.rows(s)
            block = np.ix_(rows, rows)
            for mat in mats.values():
                moment[block] += mat @ mat.T
        return _sorted_eigh(moment)[1]


def _frames_at(omega: Cochain, rho: PartitionOfUnity, sample):
    """Support, weights, and restricted frames at one base point."""
    supp, w = rho.row(sample)
    m = len(supp)
    roots = np.sqrt(w)
    frames = {}
    for j in supp:
        mat = np.empty((2 * m, 2))
        for row, i in enumerate(supp):
            mat[2 * row : 2 * row + 2, :] = roots[row] * _omega_at(omega, i, j).matrix
        frames[j] = mat
    return supp, w, frames


def frame_field(
    omega: Cochain, rho: PartitionOfUnity, samples=None
) -> FrameField:
    """Square-root-weighted stacks of witness transitions, per sample.

    The frame of set ``j`` at a base point stacks each supporting set's
    transition into ``j`` scaled by the square root of its weight; the
    columns are exactly orthonormal.  Frames are stored restricted to
    their support blocks.
    """
    if omega.degree != 1 or omega.tag != "O2":
        raise ShapeMismatch("need an isometry-valued 1-cochain")
    if samples is None:
        samples = sorted(rho.weights)
    support = {}
    frames = {}
    for s in samples:
        supp, _, mats = _frames_at(omega, rho, s)
        support[s] = tuple(supp)
        frames[s] = mats
    return FrameField(
        frames=frames, sets=rho.sets, dim=rho.ambient, support=support
    )


# ---------------------------------------------------------------------------
# the per-point kernel


def _pair_at(pairs: dict, j, k) -> O2:
    """Value on an ordered pair of sets, from values kept on ascending pairs.

    The diagonal is the identity; a descending pair is the inverse of
    its ascending one.
    """
    if j == k:
        return IDENTITY
    if j < k:
        return pairs[(j, k)]
    return o2_inverse(pairs[(k, j)])


def _omega_at(omega: Cochain, j, k) -> O2:
    try:
        return _pair_at(omega.values, j, k)
    except KeyError as exc:
        raise ShapeMismatch(f"witness has no value on edge {exc.args[0]}") from None


def _average_projector(s, w, frames: dict):
    """Weighted frame average at base point ``s`` and its top-2 projector.

    ``frames`` holds the supporting sets' frames in support order and
    ``w`` their weights.  Returns the average, the projector and its
    eigengap.

    Raises
    ------
    EigengapTooSmall
        Re-raised with the base point attached.
    """
    n = next(iter(frames.values())).shape[0]
    tilde = np.zeros((n, n))
    for wj, f in zip(w, frames.values()):
        tilde += wj * (f @ f.T)
    try:
        p, gap = _gr_project_sym(tilde)
    except EigengapTooSmall as exc:
        raise EigengapTooSmall(f"base point {s}: {exc}") from exc
    return tilde, p, gap


def _project_point(s, supp, w, frames: dict):
    """Exact transitions at one base point.

    Re-orthonormalizes every supporting frame inside the plane of the
    averaged projector and rounds the product of each ascending pair of
    those frames to the nearest isometry.  Returns the projector, the
    re-orthonormalized frames, the rounded pairs and the worst rounding
    residual.

    Raises
    ------
    EigengapTooSmall, RankDeficient
        Re-raised with the base point (and set) attached.
    """
    _, p, _ = _average_projector(s, w, frames)
    fixed = {}
    for j in supp:
        try:
            fixed[j] = stiefel_fiber_project(p, frames[j])
        except RankDeficient as exc:
            raise RankDeficient(f"base point {s}, set {j}: {exc}") from exc
    pairs = {}
    ortho = 0.0
    for a_i, j in enumerate(supp):
        for k in supp[a_i + 1 :]:
            pairs[(j, k)], resid = _nearest_o2(fixed[j].T @ fixed[k])
            ortho = max(ortho, resid)
    return p, fixed, pairs, ortho


def _chart_mean(vals, s, j, supp, w, pairs) -> np.ndarray:
    """Weighted circular mean of the supporting charts, transported into ``j``.

    ``vals`` holds the sample's value in each chart of ``supp``, one row each.

    Raises
    ------
    DiameterTooLarge
        Re-raised with the sample and chart attached when the
        transported values spread over half a circle.
    """
    pts = np.stack([o2_apply(_pair_at(pairs, j, k), v) for k, v in zip(supp, vals)])
    try:
        return karcher_mean(pts, w)
    except DiameterTooLarge as exc:
        raise DiameterTooLarge(f"sample {s}, chart {j}: {exc}") from exc


# ---------------------------------------------------------------------------
# classifying maps


@dataclass
class ProjectorField:
    """Weighted frame average and its nearest rank-2 projector, per sample.

    Matrices are restricted to the support blocks listed in
    ``support``; rows outside the support carry weight zero and vanish.
    ``distance`` is the largest Frobenius gap between the average and
    its projection, the measured counterpart of the sqrt(2)-epsilon
    guarantee.
    """

    support: dict
    raw: dict
    proj: dict
    gap: dict
    distance: float


def classifying_map(
    omega: Cochain, rho: PartitionOfUnity, samples=None
) -> ProjectorField:
    """Average the frame projectors of a witness into a projector field.

    At each base point the weighted sum of frame outer products is
    symmetric with trace 2; its top-2 spectral projector is the value of
    the associated map into the plane Grassmannian.

    Raises
    ------
    EigengapTooSmall
        Re-raised with the offending base point attached.
    """
    if samples is None:
        samples = sorted(rho.weights)
    support, raw, proj, gaps = {}, {}, {}, {}
    worst = 0.0
    for s in samples:
        supp, w, frames = _frames_at(omega, rho, s)
        tilde, p, gaps[s] = _average_projector(s, w, frames)
        support[s] = tuple(supp)
        raw[s] = tilde
        proj[s] = p
        worst = max(worst, float(np.linalg.norm(tilde - p)))
    return ProjectorField(
        support=support, raw=raw, proj=proj, gap=gaps, distance=worst
    )


# ---------------------------------------------------------------------------
# cocycle projection


@dataclass
class CocycleField:
    """Exactly multiplicative transitions, evaluated per base point.

    ``values[s]`` holds the projected transition for every ordered pair
    of supporting sets at sample ``s``.  ``distance`` is the measured
    sup-gap to the input witness, ``ortho_residual`` the worst distance
    of a raw projected transition from its isometry rounding, and
    ``defect`` the worst remaining cocycle-identity residual.
    """

    values: dict
    distance: float
    ortho_residual: float
    defect: float

    def at(self, sample, j, k) -> O2:
        return _pair_at(self.values[sample], j, k)


def project_cocycle(
    omega: Cochain, rho: PartitionOfUnity, samples=None
) -> CocycleField:
    """Replace a witness with exactly multiplicative per-point transitions.

    Frames are re-orthonormalized inside the plane of the projector
    field; their pairwise products are then genuine isometries up to
    numerical rounding, and the rounding is recorded.  The sup distance
    to the input comes out bounded by nine times the witness defect when
    that defect is below sqrt(2)/4; outside that range the projection
    still runs but the bound is not guaranteed and a warning is logged.

    Raises
    ------
    EigengapTooSmall, RankDeficient
        Re-raised with the offending base point attached.
    """
    defect = cocycle_defect(omega)
    if defect >= DEFECT_GUARANTEE:
        log.warning(
            "witness defect %.3f is not below sqrt(2)/4; the projection "
            "distance bound does not apply",
            defect,
        )
    if samples is None:
        samples = sorted(rho.weights)
    values = {}
    distance = ortho_residual = residual_defect = 0.0
    for s in samples:
        supp, w, frames = _frames_at(omega, rho, s)
        _, _, pairs, ortho = _project_point(s, supp, w, frames)
        values[s] = pairs
        ortho_residual = max(ortho_residual, ortho)
        for (j, k), om in pairs.items():
            gap = np.linalg.norm(_omega_at(omega, j, k).matrix - om.matrix)
            distance = max(distance, float(gap))
        for a_i, j in enumerate(supp):
            for b_i in range(a_i + 1, len(supp)):
                k = supp[b_i]
                for l in supp[b_i + 1 :]:
                    lhs = o2_compose(pairs[(j, k)], pairs[(k, l)])
                    gap = np.linalg.norm(lhs.matrix - pairs[(j, l)].matrix)
                    residual_defect = max(residual_defect, float(gap))
    return CocycleField(
        values=values,
        distance=distance,
        ortho_residual=ortho_residual,
        defect=residual_defect,
    )


def project_trivialization(trivs, field: CocycleField, rho: PartitionOfUnity):
    """Repair charts to be exactly compatible with projected transitions.

    Each chart value is replaced by the weighted circular mean of all
    supporting charts' values transported through the projected
    transitions.  Because the transitions are exactly multiplicative and
    the mean is isometry-equivariant, the new charts satisfy the
    compatibility identity on every overlap.

    Raises
    ------
    DiameterTooLarge
        Re-raised with the sample and chart attached when transported
        values spread over half a circle.
    """
    charts: dict = {}
    for j in trivs.sets():
        ids = trivs.chart(j).ids.tolist()
        new = []
        for s in ids:
            supp, w = rho.row(s)
            vals, _ = trivs.at(s, supp)
            new.append(_chart_mean(vals, s, j, supp, w, field.values[s]))
        charts[j] = (ids, new)
    return Trivialization(charts)


# ---------------------------------------------------------------------------
# dimension reduction


def stiefel_reduce(frames: FrameField, d: int) -> FrameField:
    """Project a frame field to its top-``d`` principal subspace.

    An uncentered principal basis of all frame columns is computed from
    their second-moment matrix; each frame is expressed in that basis,
    truncated, and re-orthonormalized by polar decomposition.  Stands in
    for the external Stiefel-coordinates algorithm; the result carries
    method "psc-substitute" and per-frame projection errors.

    Raises
    ------
    RankDeficient
        A truncated frame collapses below the rank guard.
    """
    if d < 2 or d > frames.dim:
        raise ValueError(f"need 2 <= d <= {frames.dim}, got {d}")
    basis = frames.principal_basis()[:, :d]
    # deterministic sign: the largest-magnitude entry of each direction is positive
    for c in range(d):
        col = basis[:, c]
        lead = int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            basis[:, c] = -col
    reduced: dict = {}
    errors: dict = {}
    for s, mats in frames.frames.items():
        proj = basis[frames.rows(s)].T
        out = {}
        for j, mat in mats.items():
            y = proj @ mat
            errors[(s, j)] = math.sqrt(max(0.0, 2.0 - float(np.sum(y * y))))
            try:
                inv_root, _ = _inv_sqrt_gram(y)
            except RankDeficient as exc:
                raise RankDeficient(
                    f"sample {s}, set {j}: frame collapses at dimension {d}: {exc}"
                ) from exc
            out[j] = y @ inv_root
        reduced[s] = out
    return FrameField(
        frames=reduced,
        sets=frames.sets,
        dim=d,
        support=None,
        method="psc-substitute",
        errors=errors,
    )


def reduction_curve(frames: FrameField, dims=None) -> list:
    """Projection error versus target dimension, for the error curve.

    Returns ``(d, mean_error, max_error)`` rows without recomputing the
    principal basis per dimension: each frame's squared coefficients
    against the full basis are accumulated once.
    """
    vecs = frames.principal_basis()
    sq = []
    for s, mats in frames.frames.items():
        proj = vecs[frames.rows(s)].T
        for mat in mats.values():
            y = proj @ mat
            sq.append(np.sum(y * y, axis=1))
    sq = np.stack(sq)  # (frames, dim) squared coefficients per direction
    tail = 2.0 - np.cumsum(sq, axis=1)
    if dims is None:
        dims = range(2, frames.dim + 1)
    rows = []
    for d in dims:
        errs = np.sqrt(np.clip(tail[:, d - 1], 0.0, None))
        rows.append((int(d), float(errs.mean()), float(errs.max())))
    return rows


# ---------------------------------------------------------------------------
# the bundle coordinatization map


@dataclass
class BundleMapResult:
    """Per-sample coordinates in the reduced frame bundle.

    ``vectors[s]`` is a unit vector in the plane of the sample's
    projector; the residuals record how far chart disagreement,
    plane membership, and isometry rounding actually strayed.
    """

    vectors: dict
    dim: int
    stage: int | None
    method: str
    overlap_residual: float
    plane_residual: float
    ortho_residual: float
    reduction_errors: dict


def bundle_map(
    trivs, omega: Cochain, rho: PartitionOfUnity, d: int, stage: int | None = None
) -> BundleMapResult:
    """Map every sample into reduced frame coordinates.

    The composite pipeline: build frames from the witness, reduce to
    ``d`` dimensions, average to a projector field, re-orthonormalize
    frames in its planes, round their products to isometries, transport
    chart values through those isometries, and push the weighted
    circular mean of the transported values through the frame of the
    heaviest supporting set.  Charts built over a stage-cut cover refer
    to that stage through ``stage``; the inputs must already be
    restricted to it.

    Raises
    ------
    EigengapTooSmall, RankDeficient, DiameterTooLarge
        Re-raised with the offending sample attached.
    """
    samples = sorted(rho.weights)
    red = stiefel_reduce(frame_field(omega, rho, samples), d)
    vectors = {}
    overlap_residual = plane_residual = ortho_residual = 0.0
    for s in samples:
        supp, w = rho.row(s)
        p, fixed, pairs, ortho = _project_point(s, supp, w, red.frames[s])
        vals, _ = trivs.at(s, supp)
        outputs = {j: fixed[j] @ _chart_mean(vals, s, j, supp, w, pairs) for j in supp}
        v = outputs[min(supp, key=lambda j: (-rho.weight(s, j), j))]
        for a_i, j in enumerate(supp):
            for k in supp[a_i + 1 :]:
                gap = np.linalg.norm(outputs[j] - outputs[k])
                overlap_residual = max(overlap_residual, float(gap))
        vectors[s] = v
        plane_residual = max(plane_residual, float(np.linalg.norm(v - p @ v)))
        ortho_residual = max(ortho_residual, ortho)
    return BundleMapResult(
        vectors=vectors,
        dim=d,
        stage=stage,
        method=red.method,
        overlap_residual=overlap_residual,
        plane_residual=plane_residual,
        ortho_residual=ortho_residual,
        reduction_errors=red.errors,
    )


# ---------------------------------------------------------------------------
# global trivialization


@dataclass
class GlobalTrivialization:
    """A single fiber coordinate over the whole base.

    ``angle`` maps each sample to its fiber angle in turns; ``base``
    keeps the sample's base point for pairing.  ``phi`` records the
    per-set reflection fix and ``beta`` the per-edge integer winding
    correction that made the charts agree; ``residual`` is the worst
    remaining chart disagreement (chord units).
    """

    base: dict
    angle: dict
    phi: dict
    beta: dict
    residual: float


def global_trivialize(
    dataset: BundleDataset, trivs, omega: Cochain, rho: PartitionOfUnity
) -> GlobalTrivialization:
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
    """
    nerve = omega.nerve
    verts = [v[0] for v in nerve.vertices]
    edges = list(nerve.edges)

    # reflection fix: write the sign class as a vertex sign potential
    phi = sign_potential({e: omega.values[e].sign for e in edges}, verts)
    if phi is None:
        raise NotTrivializable(
            "sw", "the sign class is not a coboundary; no global orientation exists"
        )
    potential = Cochain(
        nerve, 0, "O2", {(j,): O2(0.0, phi[j]) for j in verts}
    )
    hat = act_by_potential(potential, omega)
    for j, k in edges:
        if hat.values[(j, k)].sign != 1:
            raise ShapeMismatch(
                f"edge ({j}, {k}) still reflects after the orientation fix"
            )

    # winding fix: write the rounded lift coboundary as a coboundary over Z
    classes = euler_cochain(hat)
    d2 = twisted_boundary_matrix(nerve, constant_sign_cochain(nerve), 2)
    beta_vec = solve_integer(d2.matrix.T, [classes.euler.values[t] for t in d2.cols])
    if beta_vec is None:
        raise NotTrivializable(
            "euler", "the integer class is not a coboundary; the bundle twists"
        )
    beta = {e: int(v) for e, v in zip(d2.rows, beta_vec)}
    # per edge: the rotation lift less its winding correction
    shift = {e: classes.lift.values[e] - beta[e] for e in edges}

    def shift_at(j, k):
        if j == k:
            return 0.0
        return shift[(j, k)] if j < k else -shift[(k, j)]

    # rotate each chart by its weighted lift difference, then average
    angles = {}
    bases = {}
    residual = 0.0
    for s in sorted(rho.weights):
        supp, w = rho.row(s)
        _, turns = trivs.at(s, supp)
        pts = []
        for j, turn in zip(supp, turns):
            if phi[j] < 0:
                turn = -turn
            mu = sum(rho.weight(s, k) * shift_at(k, j) for k in supp)
            pts.append((turn + mu) % 1.0)
        pts_xy = np.stack(
            [
                np.array(
                    [math.cos(2 * math.pi * t), math.sin(2 * math.pi * t)]
                )
                for t in pts
            ]
        )
        for a_i in range(len(pts)):
            for b_i in range(a_i + 1, len(pts)):
                residual = max(
                    residual, float(np.linalg.norm(pts_xy[a_i] - pts_xy[b_i]))
                )
        try:
            mean = karcher_mean(pts_xy, w)
        except DiameterTooLarge as exc:
            raise DiameterTooLarge(f"sample {s}: {exc}") from exc
        angles[s] = float(s1_angle(mean[None, :])[0])
        bases[s] = dataset.base_of(s)
    return GlobalTrivialization(
        base=bases, angle=angles, phi=phi, beta=beta, residual=residual
    )
