"""Generators for circle bundles with exactly known invariants.

Circle and Klein-type bundles over the circle come from analytic
sections with constant transitions, so their assembled witnesses are
exact cocycles.  Bundles over the sphere and the projective plane are
built from unit quaternions: the fiber coordinate is a power of the
complex part of the quaternion relative to a geodesic section, which
realizes every Euler number while keeping the ground truth analytic.
Over curved bases the per-edge witness can only approximate the varying
analytic transitions; the residual holonomy is exactly what the integer
classes read off, so a nonzero cocycle defect there is structural, not
noise.

All randomness flows through counter-based generators keyed by the seed
and a stream tag, so identical seeds give bit-identical datasets under
any execution order.

A generated cover is one boolean incidence array, set by sample: row j
marks the members of set j.  Overlap trimming sweeps the pairs of sets
over integer shared-sample counts read off that array, and the charts of
all sets come from one batched pass over its nonzero entries, ordered by
set and then by sample.  Those entries are the cover's (set, sample)
pairs (``nerve.Cover``), handed through as they are, and the chart
values ride along them into the ``Trivialization``.  A chart failure
names the first failing set in set order, as a loop over the sets would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .errors import LiftUndefined, NotACover, SectionUndefined
from .nerve import BundleDataset, Cover, _cat, _layout
from .witness import Trivialization


TAU = 2.0 * math.pi

E1 = np.array([1.0, 0.0, 0.0])
# right multiplication by this unit quaternion flips the base antipodally
QUAT_J = np.array([0.0, 0.0, 1.0, 0.0])

# stream tags for the counter-based generators
_TAG_QUAT = 0
_TAG_FIBER = 1
_TAG_GAUGE = 2
_TAG_NOISE = 1000
_TAG_COPY = 500

# quaternion generators trim overlaps thinner than this; a couple of
# samples cannot veto the reflection candidate on a wide sliver
_MIN_SHARED = 6

# ball membership takes an arccos only for cosines this close to the
# radius's cosine
_BOUNDARY_BAND = 1e-9


def _stream(seed: int, tag: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# quaternions, scalar first


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, broadcasting over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply unit quaternions to 3-vectors (the adjoint action)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qv = q[..., 1:]
    t = 2.0 * np.cross(qv, v)
    return v + q[..., :1] * t + np.cross(qv, t)


def rotation_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit quaternion of the minimizing-geodesic rotation taking u to v.

    Broadcasts a fixed source over rows of ``v``.  Antipodal rows fall
    back to a half-turn about a deterministic perpendicular axis.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    V = np.atleast_2d(v)
    U = np.broadcast_to(u, V.shape)
    c = np.sum(U * V, axis=1)
    q = np.empty((len(V), 4))
    q[:, 0] = 1.0 + c
    q[:, 1:] = np.cross(U, V)
    for i in np.nonzero(c < -1.0 + 1e-12)[0]:
        w = U[i]
        t = np.array([0.0, 1.0, 0.0]) if abs(w[0]) > 0.9 else E1
        axis = np.cross(w, t)
        q[i] = [0.0, *(axis / np.linalg.norm(axis))]
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return q[0] if single else q


def fibonacci_sphere(n: int) -> np.ndarray:
    """n points on the unit sphere along the golden-angle spiral."""
    i = np.arange(n, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


# ---------------------------------------------------------------------------
# covers


def _cover_centers(kind: str, n_sets: int) -> np.ndarray:
    if kind == "circle":
        ang = TAU * np.arange(n_sets) / n_sets
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    if kind == "sphere":
        return fibonacci_sphere(n_sets)
    if kind == "projective_plane":
        # upper-hemisphere representatives of a full-sphere spiral; the
        # first half of a 2n spiral is exactly the z > 0 part
        return fibonacci_sphere(2 * n_sets)[:n_sets]
    raise ValueError(f"no cover construction for base kind {kind!r}")


def _center_cosines(kind: str, base: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Cosines of the geodesic distances from base points to centers, unclipped."""
    dots = base @ centers.T
    return np.abs(dots) if kind == "projective_plane" else dots


def _within(cosines: np.ndarray, radius: float) -> np.ndarray:
    """``arccos(clip(cosines)) < radius``, taking arccos only near the boundary.

    arccos is accurate to a few ulps, and a cosine more than
    ``_BOUNDARY_BAND`` from cos(radius) lies at least that far, in radians,
    from the radius; such a cosine decides the comparison alone.
    """
    if not 0.0 < radius < 3.0:
        return np.arccos(np.clip(cosines, -1.0, 1.0)) < radius
    c = math.cos(radius)
    hit = cosines > c + _BOUNDARY_BAND
    near = (cosines >= c - _BOUNDARY_BAND) & ~hit
    hit[near] = np.arccos(np.clip(cosines[near], -1.0, 1.0)) < radius
    return hit


def _ball_incidence(dataset: BundleDataset, n_sets: int, radius: float | None):
    """Centers, radius and set-by-sample membership of evenly spread geodesic balls.

    Raises ``NotACover`` when a sample lands in no ball.
    """
    if n_sets < 1:
        raise ValueError("n_sets must be positive")
    centers = _cover_centers(dataset.kind, n_sets)
    if centers.shape[1] != dataset.base.shape[1]:
        raise ValueError(
            f"{dataset.kind!r} cover centers are {centers.shape[1]}-vectors, "
            f"dataset base is {dataset.base.shape[1]}-dimensional"
        )
    cosines = _center_cosines(dataset.kind, dataset.base, centers)
    if radius is None:
        dist = np.arccos(np.clip(cosines, -1.0, 1.0))
        radius = 1.3 * float(dist.min(axis=1).max())
        hit = dist < radius
    else:
        hit = _within(cosines, radius)
    uncovered = np.nonzero(~hit.any(axis=1))[0]
    if len(uncovered):
        dist = np.arccos(np.clip(cosines[uncovered], -1.0, 1.0))
        worst = float(dist.min(axis=1).max())
        raise NotACover(
            f"{len(uncovered)} samples lie in no set; nearest-center "
            f"distance reaches {worst:.4f} against radius {radius:.4f}"
        )
    return centers, float(radius), np.ascontiguousarray(hit.T)


def make_cover(dataset: BundleDataset, n_sets: int, radius: float | None = None):
    """Evenly spread geodesic balls covering the sampled base.

    Circle bases get evenly spaced arc centers, spheres a golden-angle
    spiral, projective planes hemisphere representatives of a symmetric
    spiral.  ``radius=None`` picks 1.3 times the empirical covering
    radius.  Every sample must land in at least one set.
    """
    return _pairs(dataset, *_ball_incidence(dataset, n_sets, radius))[0]


# ---------------------------------------------------------------------------
# scenario containers


@dataclass(frozen=True)
class SyntheticScenario:
    """Ground-truth sheet for one generated bundle.

    ``euler_number`` is a magnitude: the sign of the computed pairing
    depends on the orientation convention of the fundamental class.
    """

    model: str
    n_samples: int
    cover_sets: int
    cover_radius: float
    noise: float
    seed: int
    sw_trivial: bool
    euler_number: int


@dataclass
class SyntheticBundle:
    """Generator output; iterates as (dataset, cover, trivs)."""

    dataset: BundleDataset
    cover: Cover
    trivs: Trivialization
    scenario: SyntheticScenario
    clusters: np.ndarray | None = None  # two-fiber models: True where a pair is in cluster 0

    def __iter__(self):
        return iter((self.dataset, self.cover, self.trivs))


def _add_noise(turns: np.ndarray, seed: int, set_id: int, sigma: float) -> np.ndarray:
    """Gaussian fiber-angle noise in radians, one stream per cover set."""
    if sigma == 0.0:
        return turns
    rng = _stream(seed, _TAG_NOISE + set_id)
    return (turns + rng.normal(0.0, sigma, size=len(turns)) / TAU) % 1.0


def _pairs(dataset: BundleDataset, centers, radius: float, inc, clipped=None) -> tuple:
    """The set-by-sample incidence ``inc`` as a ``Cover`` of the sample ids, and each pair's row."""
    rows = np.flatnonzero(inc) % inc.shape[1]
    indptr, order = _layout(np.count_nonzero(inc, axis=1), dataset.ids[rows])
    k = len(inc)
    return Cover(np.arange(k), indptr, dataset.ids[rows[order]], centers, np.full(k, float(radius)),
                 clipped), rows[order]


def _bundle(model, dataset, cover: Cover, turns, noise, seed, sw_trivial, euler_number,
            clusters=None) -> SyntheticBundle:
    """The bundle with noisy charts from exact turns, one per pair of ``cover``."""
    if noise:
        turns = _cat([_add_noise(turns[a:b], seed, j, noise)
                      for j, (a, b) in enumerate(pairwise(cover.indptr.tolist()))], float)
    trivs = Trivialization.from_pairs(cover.set_ids, np.diff(cover.indptr), cover.samples, turns)
    scenario = SyntheticScenario(
        model=model,
        n_samples=len(dataset),
        cover_sets=len(cover.set_ids),
        cover_radius=float(cover.radius[0]),
        noise=float(noise),
        seed=int(seed),
        sw_trivial=bool(sw_trivial),
        euler_number=int(euler_number),
    )
    return SyntheticBundle(dataset, cover, trivs, scenario, clusters=clusters)


# ---------------------------------------------------------------------------
# bundles over the circle


def gen_s1_bundle(
    orientable: bool,
    n_samples: int = 2000,
    n_arcs: int = 12,
    noise: float = 0.0,
    seed: int = 0,
) -> SyntheticBundle:
    """Torus or Klein-type circle bundle over the circle.

    Charts are the sampled fiber angle plus a per-arc gauge rotation, so
    all transitions are constant and the assembled witness is an exact
    cocycle.  The non-orientable variant flips the fiber across one
    seam, producing exactly one reflection-valued transition.
    """
    if n_arcs < 3:
        raise ValueError("need at least three arcs")
    beta = _stream(seed, _TAG_QUAT).random(n_samples)
    phi = _stream(seed, _TAG_FIBER).random(n_samples)
    gauges = _stream(seed, _TAG_GAUGE).random(n_arcs)
    base = np.stack([np.cos(TAU * beta), np.sin(TAU * beta)], axis=1)
    dataset = BundleDataset(ids=np.arange(n_samples), base=base, kind="circle")
    cover, rows = _pairs(dataset, *_ball_incidence(dataset, n_arcs, 1.25 * math.pi / n_arcs))
    sets = cover.sets
    vals = phi[rows]
    if not orientable:
        # the seam arc reads the fiber through the flip on the side past
        # the gluing; 0.5 cleanly separates the two sides
        vals = np.where((sets == 0) & (beta[rows] < 0.5), -vals, vals)
    turns = (vals + gauges[sets]) % 1.0
    model = "s1-torus" if orientable else "s1-klein"
    return _bundle(model, dataset, cover, turns, noise, seed, orientable, 0)


# ---------------------------------------------------------------------------
# bundles over the sphere and projective plane


def _sample_quaternions(n: int, seed: int) -> np.ndarray:
    q = _stream(seed, _TAG_QUAT).normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _overlap_counts(inc: np.ndarray) -> np.ndarray:
    """Shared-sample counts of every pair of sets, in integers; set sizes on the diagonal.

    Each sample adds one to every pair of the sets holding it: the
    incidences sorted by sample pair up at offsets 1, 2, ... within a
    sample, and one ``bincount`` per offset counts them.
    """
    m = len(inc)
    samples, sets = np.divmod(np.flatnonzero(np.ascontiguousarray(inc.T)), m)
    counts = np.zeros(m * m, np.int64)
    for d in range(1, m):
        same = samples[d:] == samples[:-d]
        if not same.any():
            break
        counts += np.bincount(sets[:-d][same] * m + sets[d:][same], minlength=m * m)
    counts = counts.reshape(m, m)
    counts += counts.T
    np.fill_diagonal(counts, np.count_nonzero(inc, axis=1))
    return counts


def _trimmed(dataset: BundleDataset, centers, radius: float, inc, rule=None) -> tuple:
    """The ball cover with every thin overlap trimmed away.

    Witness fitting needs at least two shared samples per edge, and a
    sliver between nearly tangent balls is doubly treacherous: it holds
    few samples while stretching along the tangency, so the transition
    angle still sweeps a wide arc across it.  With only a couple of
    residuals to pin the fit down, the reflection candidate can then win
    by accident and corrupt the determinant pattern.  Growing the radius
    just mints new tangent pairs, so instead a thin overlap is removed
    the way a filtration cut would: the later set sheds the stragglers
    (they stay covered by the earlier set) and is marked clipped.

    An overlap is thin when it holds fewer than ``_MIN_SHARED`` samples,
    or when ``rule(i, j, shared)`` says so for sets i < j and the
    positions of their shared samples.  Pairs are swept in order, (0, 1),
    (0, 2), ..., until a sweep trims nothing.  A trim of set j changes
    only j's overlaps, so the pairs of one earlier set are decided
    together from one row of the integer shared-sample counts, and a trim
    updates row and column j alone.  A trim that empties a set raises
    ``NotACover`` naming the first emptied set.
    """
    held = np.count_nonzero(inc, axis=1)
    inc = inc.copy()
    counts = _overlap_counts(inc)
    clipped = np.zeros(len(inc), bool)
    changed = True
    while changed:
        changed = False
        for i in range(len(inc) - 1):
            row = counts[i, i + 1:]
            if rule is None:
                thin = np.flatnonzero((row > 0) & (row < _MIN_SHARED)) + (i + 1)
            else:
                thin = [j for j in np.flatnonzero(row) + (i + 1)
                        if counts[i, j] < _MIN_SHARED
                        or rule(i, j, np.flatnonzero(inc[i] & inc[j]))]
            for j in thin:
                shed = np.flatnonzero(inc[i] & inc[j])
                drop = np.count_nonzero(inc[:, shed], axis=1)
                inc[j, shed] = False
                counts[j] -= drop
                counts[:, j] -= drop
                counts[j, j] += drop[j]
                clipped[j] = changed = True
    empty = np.flatnonzero(counts.diagonal() == 0)
    if len(empty):
        j = int(empty[0])
        raise NotACover(
            f"overlap trimming emptied cover set {j}, which held "
            f"{held[j]} samples before trimming; {inc.shape[1]} samples "
            f"over {len(inc)} sets leave overlaps too thin, try fewer --sets"
        )
    return _pairs(dataset, centers, radius, inc, clipped)


def _hemisphere_incidence(dataset: BundleDataset, n_sets: int, radius: float | None):
    """A ball cover of the projective plane, each set narrow enough to lift."""
    centers, radius, inc = _ball_incidence(dataset, n_sets, radius)
    if radius >= math.pi / 4:
        raise LiftUndefined(
            f"ball radius {radius:.3f} is too large for coherent "
            "hemisphere lifts"
        )
    return centers, radius, inc


def _raise_first(checks):
    """Raise the error a loop over the sets would have met first.

    ``checks`` lists, in the order one step of that loop runs them,
    (step of each row, failing rows, error given the rows of the failing
    step); steps run in increasing order.
    """
    failing = [(steps[bad].min(), k) for k, (steps, bad, _) in enumerate(checks) if bad.any()]
    if failing:
        step, k = min(failing)
        steps, _, error = checks[k]
        raise error(steps == step)


def _dots(b: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", b, anchors)


def _seam_check(steps, d, sets):
    """The check a loop runs on a set before charting it: no base point on the lift seam."""
    return (steps, np.abs(d) < 1e-12, lambda at: LiftUndefined(
        f"set {sets[at][0]}: a base point sits on the lift seam"))


def _section_turns(q, b, table, anchor, power: int, sets, steps, before=()) -> np.ndarray:
    """Fiber turns of samples against the geodesic sections from their anchors.

    Row r is sample ``q[r]`` over base point ``b[r]`` in set ``sets[r]``,
    anchored at ``table[anchor[r]]``.  The section at b is the minimizing
    rotation taking the anchor to b, composed with a fixed rotation placing
    the anchor; the sample quaternion relative to it is a unit complex
    number whose angle, times the power, is the chart value.  ``steps``
    orders the rows the way a loop over the sets (and, within one, over
    the sides) would chart them, and ``before`` holds the checks such a
    loop ran on a set before charting it.
    """
    anchors = table[anchor]
    sec = quat_mul(rotation_between(anchors, b), rotation_between(E1, table)[anchor])
    w = quat_mul(quat_conj(sec), q)
    drift = np.maximum(np.abs(w[:, 2]), np.abs(w[:, 3]))
    _raise_first([
        *before,
        (steps, _dots(b, anchors) <= -1.0 + 1e-9, lambda at: SectionUndefined(
            f"set {sets[at][0]}: a sample sits at the section antipode")),
        (steps, drift > 1e-9, lambda at: SectionUndefined(
            f"set {sets[at][0]}: section residual {drift[at].max():.2e} is not planar")),
    ])
    psi = np.arctan2(w[:, 1], w[:, 0])
    return (power * psi / TAU) % 1.0


def _lens_turns(q, b, centers, p: int, sets) -> np.ndarray:
    """Fiber turns at power p against the sections anchored at the set centers.

    ``centers`` holds one row per set, ``sets`` each sample row's set.
    """
    return _section_turns(q, b, centers, sets, p, sets, sets)


def _hemisphere_turns(q, b, centers, p: int, sets) -> np.ndarray:
    """Fiber turns at power 2p, read through the hemisphere lift around each center.

    Samples whose base falls on the far hemisphere are read through the
    gluing, a right multiplication flipping the base.
    """
    d = _dots(b, centers[sets])
    q = np.where((d < 0)[:, None], quat_mul(q, QUAT_J), q)
    return _section_turns(q, b * np.sign(d)[:, None], centers, sets, 2 * p, sets, sets,
                          before=[_seam_check(sets, d, sets)])


def _two_sheet_turns(q, b, centers, p: int, sets) -> np.ndarray:
    """Fiber turns at power 2p, each hemisphere cluster against its own section.

    Over set j the samples on the near side of the center are charted
    against the section anchored at the center, and those on the far side
    against the one anchored at its antipode, near side first.
    """
    d = _dots(b, centers[sets])
    far = d < 0
    return _section_turns(q, b, np.concatenate([centers, -centers]), sets + len(centers) * far,
                          2 * p, sets, 2 * sets + far, before=[_seam_check(2 * sets, d, sets)])


def gen_lens_bundle(
    p: int,
    n_samples: int = 4000,
    n_sets: int = 32,
    radius: float | None = None,
    noise: float = 0.0,
    seed: int = 0,
) -> SyntheticBundle:
    """Circle bundle over the sphere with Euler magnitude p.

    Samples are uniform unit quaternions; the base point is the image of
    the first axis under the adjoint action, and each chart raises the
    quaternion relative to a geodesic section to the p-th power.  p = 1
    is the classical sphere fibration with Euler magnitude 1.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    q = _sample_quaternions(n_samples, seed)
    base = quat_rotate(q, E1)
    dataset = BundleDataset(ids=np.arange(n_samples), base=base, kind="sphere")
    cover, rows = _trimmed(dataset, *_ball_incidence(dataset, n_sets, radius))
    if cover.radius[0] >= math.pi / 2:
        raise SectionUndefined(
            f"ball radius {cover.radius[0]:.3f} reaches the section antipode"
        )
    turns = _lens_turns(q[rows], base[rows], cover.center, p, cover.sets)
    return _bundle(f"lens({p})", dataset, cover, turns, noise, seed, True, p)


def gen_rp2_bundle(
    p: int,
    n_samples: int = 4000,
    n_sets: int = 36,
    radius: float | None = None,
    noise: float = 0.0,
    seed: int = 0,
) -> SyntheticBundle:
    """Non-orientable circle bundle over the projective plane, |Euler| = p.

    The double cover carries the lens construction at power 2p; each
    cover set lifts to the hemisphere around its center, and samples
    whose base falls on the far hemisphere are read through the gluing
    (a right multiplication flipping the base).  Transitions across sets
    whose hemisphere lifts disagree are reflections, so the sign class
    is the standard non-bounding cocycle of the projective plane.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    q = _sample_quaternions(n_samples, seed)
    btrue = quat_rotate(q, E1)
    dataset = BundleDataset(
        ids=np.arange(n_samples), base=btrue, kind="projective_plane"
    )
    cover, rows = _trimmed(dataset, *_hemisphere_incidence(dataset, n_sets, radius))
    turns = _hemisphere_turns(q[rows], btrue[rows], cover.center, p, cover.sets)
    return _bundle(f"rp2({p})", dataset, cover, turns, noise, seed, False, p)


def gen_disconnected_fiber(
    p: int = 5,
    n_samples: int = 6000,
    n_sets: int = 36,
    radius: float | None = None,
    noise: float = 0.0,
    seed: int = 0,
    split: bool = False,
) -> SyntheticBundle:
    """Two-circle-fiber bundle over the projective plane, with labels.

    The connected variant projects the lens total space at power 2p to
    the projective plane without quotienting the fiber: over each set
    the samples fall into the two hemisphere clusters, the connectivity
    class is nontrivial, and unwrapping yields the sphere bundle with
    Euler magnitude 2p.  ``split=True`` instead takes two disjoint
    copies of the quotient bundle, whose labels are globally consistent.
    """
    if p < 1:
        raise ValueError("p must be a positive integer")
    if split:
        half = n_samples // 2
        q = np.concatenate(
            [_sample_quaternions(half, (seed << 1) ^ (_TAG_COPY + c)) for c in (0, 1)]
        )
        ids = np.r_[np.arange(half), 2_000_000 + np.arange(half)]
    else:
        q = _sample_quaternions(n_samples, seed)
        ids = np.arange(n_samples)
    btrue = quat_rotate(q, E1)
    dataset = BundleDataset(ids=ids, base=btrue, kind="projective_plane")
    centers, radius, inc = _hemisphere_incidence(dataset, n_sets, radius)

    # a sample's label in a set: in the first copy, or on the near hemisphere
    if split:
        labels = np.broadcast_to(ids < 2_000_000, inc.shape)
    else:
        labels = centers @ btrue.T > 0

    # each label combination on an overlap becomes its own edge after the
    # lift, so the flat trimming rule is not enough here: a thin side
    # invites the same reflection accident upstairs, and an overlap that
    # does not show exactly two matching combinations (++ with --, or +-
    # with -+) would contradict the contract on labels.  When any side is
    # thin or a combination is missing, the later set sheds the overlap.
    def thin(i, j, shared):
        combos = np.bincount(2 * labels[i, shared] + labels[j, shared], minlength=4)
        seen = combos > 0
        matching = seen.sum() == 2 and ((seen[0] and seen[3]) or (seen[1] and seen[2]))
        return not matching or combos[seen].min() < _MIN_SHARED

    cover, rows = _trimmed(dataset, centers, radius, inc, thin)
    sets = cover.sets
    # split: labels are the two copies; both live on the quotient, so each
    # chart reads through the hemisphere gluing as usual.  Connected: labels
    # are the hemispheres of the honest double cover; each cluster gets the
    # section anchored at its own hemisphere
    charts = _hemisphere_turns if split else _two_sheet_turns
    turns = charts(q[rows], btrue[rows], centers, p, sets)
    model = f"disconnected({p})" + ("-split" if split else "")
    euler = p if split else 2 * p
    return _bundle(model, dataset, cover, turns, noise, seed, not split, euler,
                   labels[sets, rows])
