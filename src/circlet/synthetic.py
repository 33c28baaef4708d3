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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import LiftUndefined, NotACover, SectionUndefined
from .nerve import BundleDataset, CoverSet
from .witness import Trivialization

log = logging.getLogger(__name__)

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


def _center_distances(kind: str, base: np.ndarray, centers: np.ndarray) -> np.ndarray:
    dots = base @ centers.T
    if kind == "projective_plane":
        dots = np.abs(dots)
    return np.arccos(np.clip(dots, -1.0, 1.0))


def make_cover(dataset: BundleDataset, n_sets: int, radius: float | None = None):
    """Evenly spread geodesic balls covering the sampled base.

    Circle bases get evenly spaced arc centers, spheres a golden-angle
    spiral, projective planes hemisphere representatives of a symmetric
    spiral.  ``radius=None`` picks 1.3 times the empirical covering
    radius.  Every sample must land in at least one set.
    """
    if n_sets < 1:
        raise ValueError("n_sets must be positive")
    centers = _cover_centers(dataset.kind, n_sets)
    if centers.shape[1] != dataset.base.shape[1]:
        raise ValueError(
            f"{dataset.kind!r} cover centers are {centers.shape[1]}-vectors, "
            f"dataset base is {dataset.base.shape[1]}-dimensional"
        )
    dist = _center_distances(dataset.kind, dataset.base, centers)
    if radius is None:
        radius = 1.3 * float(dist.min(axis=1).max())
    hit = dist < radius
    uncovered = np.nonzero(~hit.any(axis=1))[0]
    if len(uncovered):
        worst = float(dist[uncovered].min(axis=1).max())
        raise NotACover(
            f"{len(uncovered)} samples lie in no set; nearest-center "
            f"distance reaches {worst:.4f} against radius {radius:.4f}"
        )
    cover = []
    for j in range(n_sets):
        members = frozenset(dataset.ids[i] for i in np.nonzero(hit[:, j])[0])
        cover.append(
            CoverSet(id=j, members=members, center=centers[j], radius=float(radius))
        )
    return cover


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
    cover: list
    trivs: Trivialization
    scenario: SyntheticScenario
    clusters: dict | None = None

    def __iter__(self):
        return iter((self.dataset, self.cover, self.trivs))


def _add_noise(turns: np.ndarray, seed: int, set_id: int, sigma: float) -> np.ndarray:
    """Gaussian fiber-angle noise in radians, one stream per cover set."""
    if sigma == 0.0:
        return turns
    rng = _stream(seed, _TAG_NOISE + set_id)
    return (turns + rng.normal(0.0, sigma, size=len(turns)) / TAU) % 1.0


def _bundle(model, dataset, cover, tables, noise, seed, sw_trivial, euler_number,
            clusters=None) -> SyntheticBundle:
    """The bundle with noisy charts from exact ``set id -> (ids, turns)`` tables."""
    trivs = Trivialization.from_turns(
        {j: (ids, _add_noise(t, seed, j, noise)) for j, (ids, t) in tables.items()}
    )
    scenario = SyntheticScenario(
        model=model,
        n_samples=len(dataset),
        cover_sets=len(cover),
        cover_radius=float(cover[0].radius),
        noise=noise,
        seed=seed,
        sw_trivial=sw_trivial,
        euler_number=euler_number,
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
    dataset = BundleDataset(ids=tuple(range(n_samples)), base=base, kind="circle")
    radius = 1.25 * math.pi / n_arcs
    cover = make_cover(dataset, n_arcs, radius)

    tables = {}
    for cs in cover:
        members = sorted(cs.members)
        rows = np.array(members, dtype=int)
        vals = phi[rows].copy()
        if not orientable and cs.id == 0:
            # the seam arc reads the fiber through the flip on the side
            # past the gluing; 0.5 cleanly separates the two sides
            vals = np.where(beta[rows] < 0.5, -vals, vals)
        tables[cs.id] = (members, (vals + gauges[cs.id]) % 1.0)
    model = "s1-torus" if orientable else "s1-klein"
    return _bundle(model, dataset, cover, tables, noise, seed, orientable, 0)


# ---------------------------------------------------------------------------
# bundles over the sphere and projective plane


def _sample_quaternions(n: int, seed: int) -> np.ndarray:
    q = _stream(seed, _TAG_QUAT).normal(size=(n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def _thin_overlap(a: CoverSet, b: CoverSet, shared: set) -> bool:
    """The flat trimming rule: an overlap of fewer than ``_MIN_SHARED`` samples."""
    return len(shared) < _MIN_SHARED


def _cover_trimmed(cover: list, n_samples: int, thin) -> list:
    """The ball cover with every overlap that ``thin(a, b, shared)`` rejects trimmed away.

    Witness fitting needs at least two shared samples per edge, and a
    sliver between nearly tangent balls is doubly treacherous: it holds
    few samples while stretching along the tangency, so the transition
    angle still sweeps a wide arc across it.  With only a couple of
    residuals to pin the fit down, the reflection candidate can then win
    by accident and corrupt the determinant pattern.  Growing the radius
    just mints new tangent pairs, so instead a thin overlap is removed
    the way a filtration cut would: the lexicographically later set
    sheds the stragglers (they stay covered by the earlier set) and is
    marked clipped.  Trims can thin a neighboring overlap, hence the
    sweep repeats until stable.  ``thin`` sees each nonempty overlap of
    sets a before b; a trim that empties a set raises ``NotACover``.
    """
    members = {cs.id: set(cs.members) for cs in cover}
    clipped = set()
    changed = True
    while changed:
        changed = False
        for i, a in enumerate(cover):
            for b in cover[i + 1 :]:
                shared = members[a.id] & members[b.id]
                if shared and thin(a, b, shared):
                    members[b.id] -= shared
                    clipped.add(b.id)
                    changed = True
    for cs in cover:
        if not members[cs.id]:
            raise NotACover(
                f"overlap trimming emptied cover set {cs.id}, which held "
                f"{len(cs.members)} samples before trimming; {n_samples} samples "
                f"over {len(cover)} sets leave overlaps too thin, try fewer --sets"
            )
    return [
        CoverSet(
            id=cs.id,
            members=members[cs.id],
            center=cs.center,
            radius=cs.radius,
            clipped=cs.clipped or cs.id in clipped,
        )
        for cs in cover
    ]


def _hemisphere_cover(dataset: BundleDataset, n_sets: int, radius: float | None) -> list:
    """A ball cover of the projective plane, each set narrow enough to lift."""
    cover = make_cover(dataset, n_sets, radius)
    if cover[0].radius >= math.pi / 4:
        raise LiftUndefined(
            f"ball radius {cover[0].radius:.3f} is too large for coherent "
            "hemisphere lifts"
        )
    return cover


def _lift_dots(b: np.ndarray, center: np.ndarray, context: str) -> np.ndarray:
    """Base dot products with a set center; none may sit on the lift seam."""
    d = b @ center
    if np.any(np.abs(d) < 1e-12):
        raise LiftUndefined(f"{context}: a base point sits on the lift seam")
    return d


def _complex_angle(w: np.ndarray, context: str) -> np.ndarray:
    """Angle of quaternions expected to lie in the span of 1 and i."""
    drift = float(np.max(np.abs(w[:, 2:]))) if len(w) else 0.0
    if drift > 1e-9:
        raise SectionUndefined(f"{context}: section residual {drift:.2e} is not planar")
    return np.arctan2(w[:, 1], w[:, 0])


def _lens_chart(
    q: np.ndarray, b: np.ndarray, anchor: np.ndarray, power: int, context: str
) -> np.ndarray:
    """Fiber turns of samples against the geodesic section from an anchor.

    The section at base point b is the minimizing rotation taking the
    anchor to b, composed with a fixed rotation placing the anchor; the
    sample quaternion relative to it is a unit complex number whose
    angle, times the power, is the chart value.
    """
    dots = b @ anchor
    if np.any(dots <= -1.0 + 1e-9):
        raise SectionUndefined(f"{context}: a sample sits at the section antipode")
    a = rotation_between(E1, anchor)
    sec = quat_mul(rotation_between(anchor, b), a)
    w = quat_mul(quat_conj(sec), q)
    psi = _complex_angle(w, context)
    return (power * psi / TAU) % 1.0


def _hemisphere_chart(
    q: np.ndarray, b: np.ndarray, center: np.ndarray, p: int, context: str
) -> np.ndarray:
    """Fiber turns at power 2p, read through the hemisphere lift around a center.

    Samples whose base falls on the far hemisphere are read through the
    gluing, a right multiplication flipping the base.
    """
    d = _lift_dots(b, center, context)
    q = np.where((d < 0)[:, None], quat_mul(q, QUAT_J), q)
    return _lens_chart(q, b * np.sign(d)[:, None], center, 2 * p, context)


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
    dataset = BundleDataset(ids=tuple(range(n_samples)), base=base, kind="sphere")
    cover = _cover_trimmed(make_cover(dataset, n_sets, radius), n_samples, _thin_overlap)
    if cover[0].radius >= math.pi / 2:
        raise SectionUndefined(
            f"ball radius {cover[0].radius:.3f} reaches the section antipode"
        )

    tables = {}
    for cs in cover:
        members = sorted(cs.members)
        rows = np.array(members, dtype=int)
        turns = _lens_chart(q[rows], base[rows], cs.center, p, f"set {cs.id}")
        tables[cs.id] = (members, turns)
    return _bundle(f"lens({p})", dataset, cover, tables, noise, seed, True, p)


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
        ids=tuple(range(n_samples)), base=btrue, kind="projective_plane"
    )
    cover = _cover_trimmed(
        _hemisphere_cover(dataset, n_sets, radius), n_samples, _thin_overlap
    )
    tables = {}
    for cs in cover:
        members = sorted(cs.members)
        rows = np.array(members, dtype=int)
        turns = _hemisphere_chart(q[rows], btrue[rows], cs.center, p, f"set {cs.id}")
        tables[cs.id] = (members, turns)
    return _bundle(f"rp2({p})", dataset, cover, tables, noise, seed, False, p)


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
        ids = tuple(range(half)) + tuple(2_000_000 + t for t in range(half))
    else:
        q = _sample_quaternions(n_samples, seed)
        ids = tuple(range(n_samples))
    btrue = quat_rotate(q, E1)
    dataset = BundleDataset(ids=ids, base=btrue, kind="projective_plane")
    pos = {s: i for i, s in enumerate(ids)}

    # a sample's label in a set: in the first copy, or on the near hemisphere
    def label(cs, s):
        return s < 2_000_000 if split else float(btrue[pos[s]] @ cs.center) > 0

    # each label combination on an overlap becomes its own edge after the
    # lift, so the flat trimming rule is not enough here: a thin side
    # invites the same reflection accident upstairs, and an overlap that
    # does not show exactly two matching combinations (++ with --, or +-
    # with -+) would contradict the contract on labels.  When any side is
    # thin or a combination is missing, the later set sheds the overlap.
    def thin(a, b, shared):
        combos = {}
        for s in shared:
            key = (label(a, s), label(b, s))
            combos[key] = combos.get(key, 0) + 1
        matching = len(combos) == 2 and len({x == y for x, y in combos}) == 1
        return not matching or min(combos.values()) < _MIN_SHARED

    cover = _cover_trimmed(_hemisphere_cover(dataset, n_sets, radius), len(ids), thin)
    tables = {}
    clusters = {}
    for cs in cover:
        members = sorted(cs.members)
        rows = np.array([pos[s] for s in members], dtype=int)
        context = f"set {cs.id}"
        if split:
            # labels are the two copies; both live on the quotient, so
            # each chart reads through the hemisphere gluing as usual
            turns = _hemisphere_chart(q[rows], btrue[rows], cs.center, p, context)
        else:
            # labels are the hemispheres of the honest double cover; each
            # cluster gets the section anchored at its own hemisphere
            d = _lift_dots(btrue[rows], cs.center, context)
            turns = np.empty(len(rows))
            for side, anchor in ((d > 0, cs.center), (d < 0, -cs.center)):
                if side.any():
                    turns[side] = _lens_chart(
                        q[rows[side]], btrue[rows[side]], anchor, 2 * p, context
                    )
        tables[cs.id] = (members, turns)
        first = frozenset(s for s in members if label(cs, s))
        clusters[cs.id] = (first, frozenset(members) - first)
    model = f"disconnected({p})" + ("-split" if split else "")
    euler = p if split else 2 * p
    return _bundle(model, dataset, cover, tables, noise, seed, not split, euler,
                   clusters)
