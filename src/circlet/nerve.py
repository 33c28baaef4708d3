"""Covers of a sampled base space, their nerve, and the weights filtration.

A cover set is a finite object: a set of sample ids, optionally tagged
with the geometry (center, radius) that produced it.  The nerve collects
every tuple of cover sets whose members intersect, up to 3-simplices,
which is all the downstream boundary matrices consume; it is read off
each sample's support, the tuple of sets that hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import EmptyOverlap, GuardError, IndexOutOfRange, ShapeMismatch

if TYPE_CHECKING:  # pragma: no cover
    from .cochains import Witness
    from .witness import Trivialization

BASE_KINDS = ("circle", "sphere", "projective_plane", "abstract")

# distinct simplex weights closer than this count as an exact tie
TIE_STEP = 1e-15


def unique_ids(ids: Iterable) -> list:
    out = list(ids)
    if len(set(out)) < len(out):
        seen = set()
        for i in out:
            if i in seen:
                raise ValueError(f"duplicate id: {i!r}")
            seen.add(i)
    return out


@dataclass
class BundleDataset:
    """Samples with their base-space projections.

    Attributes
    ----------
    ids : tuple
        Unique sample ids, in storage order.
    base : ndarray of shape (n, k)
        Base point of each sample: unit 2-vectors on the circle, unit
        3-vectors on the sphere and the projective plane (antipodal pairs
        identified), empty for abstract bases.
    kind : str
        One of "circle", "sphere", "projective_plane", "abstract".
    distances : ndarray of shape (n, n), optional
        Explicit base distance table; required when kind is "abstract".
    """

    ids: tuple
    base: np.ndarray
    kind: str
    distances: np.ndarray | None = None

    def __post_init__(self):
        self.ids = tuple(unique_ids(self.ids))
        self.base = np.asarray(self.base, dtype=float)
        if self.kind not in BASE_KINDS:
            raise ValueError(f"unknown base kind {self.kind!r}")
        if self.kind == "abstract":
            if self.distances is None:
                raise ValueError("abstract bases need a distance table")
            self.distances = np.asarray(self.distances, dtype=float)
            if self.distances.shape != (len(self.ids), len(self.ids)):
                raise ShapeMismatch("distance table shape does not match samples")
        else:
            if self.base.shape[0] != len(self.ids):
                raise ShapeMismatch("base array does not match sample count")
            norms = np.linalg.norm(self.base, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-9):
                raise ValueError("parametric base points must be unit vectors")
        self._pos = {s: i for i, s in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def position(self, sample_id) -> int:
        return self._pos[sample_id]

    def base_of(self, sample_id) -> np.ndarray:
        return self.base[self._pos[sample_id]]


def base_geodesic(kind: str, points: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Geodesic distance (radians) from base points to a center point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    center = np.asarray(center, dtype=float)
    dots = points @ center
    if kind == "projective_plane":
        dots = np.abs(dots)
    if kind not in ("circle", "sphere", "projective_plane"):
        raise ValueError(f"no geometry for base kind {kind!r}")
    return np.arccos(np.clip(dots, -1.0, 1.0))


@dataclass
class CoverSet:
    """One cover set: an id, its sample members, optional geometry."""

    id: int
    members: frozenset
    center: np.ndarray | None = None
    radius: float | None = None
    clipped: bool = False  # set when a filtration cut removed members

    def __post_init__(self):
        self.members = frozenset(self.members)
        if self.center is not None:
            self.center = np.asarray(self.center, dtype=float)


@dataclass
class Nerve:
    """Simplices of a cover's nerve with weights and a filtration order.

    ``simplices`` maps dimension to the lex-sorted list of vertex tuples.
    ``weights`` are the raw alignment weights (zero until filled).  After
    ``filtration_order`` runs, ``order`` is the global total order,
    ``index`` maps each simplex to its 1-based position, and
    ``perturbations`` records the tie-breaking offsets that were added to
    make weights distinct.
    """

    simplices: dict[int, list[tuple]]
    weights: dict[tuple, float] = field(default_factory=dict)
    order: list[tuple] | None = None
    index: dict[tuple, int] | None = None
    perturbations: dict[tuple, float] = field(default_factory=dict)

    def __post_init__(self):
        for p, simps in self.simplices.items():
            for s in simps:
                self.weights.setdefault(s, 0.0)

    def __len__(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def __contains__(self, simplex: tuple) -> bool:
        p = len(simplex) - 1
        return simplex in set(self.simplices.get(p, ()))

    @property
    def vertices(self) -> list[tuple]:
        return self.simplices.get(0, [])

    @property
    def edges(self) -> list[tuple]:
        return self.simplices.get(1, [])

    @property
    def triangles(self) -> list[tuple]:
        return self.simplices.get(2, [])

    @property
    def tetrahedra(self) -> list[tuple]:
        return self.simplices.get(3, [])

    def weight_at(self, simplex: tuple) -> float:
        """Effective weight: the raw weight plus any tie-break offset."""
        return self.weights[simplex] + self.perturbations.get(simplex, 0.0)

    def stage_index(self, p: int) -> np.ndarray:
        """Filtration index of each p-simplex, lex order; its stable argsort is filtration order.

        Without an order the p-simplices count 1, 2, ... in lex order.
        """
        simps = self.simplices.get(p, [])
        index = self.index or dict(zip(simps, range(1, len(simps) + 1)))
        return np.array([index[s] for s in simps], dtype=np.int64)

    def require_order(self):
        if self.order is None or self.index is None:
            raise ValueError("nerve has no filtration order yet; run filtration_order")


def build_nerve(cover: Sequence[CoverSet], max_dim: int = 3) -> Nerve:
    """Nerve of a cover: tuples of set ids with a common sample.

    A tuple of sets is a simplex exactly when some sample lies in every
    one of them.  So the p-simplices are the distinct (p+1)-subsets of
    the samples' support tuples, the ascending ids of the sets that hold
    each sample.  Weights are left at zero.  Tuples are sorted ascending
    and listed in lex order within each dimension ``0..max_dim``, empty
    where a dimension has no simplices.  Members may be any hashable
    values.
    """
    if not cover:
        raise ValueError("cover is empty")
    members = {c.id: c.members for c in cover}
    if len(members) != len(cover):
        raise ValueError("cover set ids are not unique")
    supports: dict = {}
    for j in sorted(members):
        for s in members[j]:
            supports.setdefault(s, []).append(j)
    tuples = set(map(tuple, supports.values()))
    return Nerve(
        simplices={
            p: sorted({f for t in tuples for f in combinations(t, p + 1)})
            for p in range(max_dim + 1)
        }
    )


def edge_weights(nerve: Nerve, trivs: "Trivialization", witness: "Witness") -> Nerve:
    """Fill simplex weights from the misalignment of a witness on this nerve.

    The weight of an edge is the mean chord error between one chart and
    the witness image of the other, over the samples they share; the
    other simplices follow ``simplex_weights``.
    """
    ov, _, means = trivs.chord_errors(witness)
    empty = np.flatnonzero(np.diff(ov.indptr) == 0)
    if empty.size:
        j, k = nerve.edges[empty[0]]
        raise EmptyOverlap(f"edge ({j}, {k}) has no shared samples")
    return simplex_weights(nerve, dict(zip(nerve.edges, means)))


def simplex_weights(nerve: Nerve, edge_means: dict) -> Nerve:
    """A copy of the nerve weighted by its edges' mean chord errors.

    Edges take their entry of ``edge_means``; higher simplices inherit
    the max over their facets; vertices stay at zero.
    """
    weights: dict[tuple, float] = {v: 0.0 for v in nerve.vertices}
    for e in nerve.edges:
        weights[e] = edge_means[e]
    for p in (2, 3):
        for s in nerve.simplices.get(p, []):
            weights[s] = max(weights[f] for f in facets(s))
    out = Nerve(simplices={p: list(v) for p, v in nerve.simplices.items()})
    out.weights = weights
    return out


def facets(simplex: tuple) -> list[tuple]:
    """Codimension-1 faces, each with one vertex dropped."""
    return [simplex[:i] + simplex[i + 1:] for i in range(len(simplex))]


def filtration_order(nerve: Nerve) -> Nerve:
    """Total order by (weight, dimension, lex), with recorded tie breaks.

    Exact weight ties among positive-dimensional simplices are perturbed
    by k * 1e-15 in order position (k = 0, 1, ...) so that reported stage
    weights are distinct; vertices keep weight zero.  A block whose last
    offset would reach the next weight spreads its offsets evenly below
    it, so effective weights never decrease.  Faces always precede
    cofaces because facet weights never exceed the coface's.
    """
    everything = [s for p in sorted(nerve.simplices) for s in nerve.simplices[p]]
    everything.sort(key=lambda s: (nerve.weights[s], len(s), s))
    perturbations: dict[tuple, float] = {}
    i = 0
    while i < len(everything):
        j = i
        w = nerve.weights[everything[i]]
        while j < len(everything) and nerve.weights[everything[j]] == w:
            j += 1
        if j - i > 1:
            above = nerve.weights[everything[j]] if j < len(everything) else float("inf")
            step = TIE_STEP if w + (j - i - 1) * TIE_STEP < above else (above - w) / (j - i)
            for k, s in enumerate(everything[i:j]):
                if k > 0 and len(s) > 1:
                    perturbations[s] = k * step
        i = j
    out = Nerve(simplices={p: list(v) for p, v in nerve.simplices.items()})
    out.weights = dict(nerve.weights)
    out.order = everything
    out.index = {s: i + 1 for i, s in enumerate(everything)}
    out.perturbations = perturbations
    return out


def stage_subcomplex(nerve: Nerve, r: int) -> Nerve:
    """The first ``r`` simplices in filtration order, a closed subcomplex."""
    nerve.require_order()
    if not 1 <= r <= len(nerve):
        raise IndexOutOfRange(f"stage {r} outside 1..{len(nerve)}")
    keep = nerve.order[:r]
    kept = set(keep)
    for s in keep:
        if len(s) > 1:
            for f in facets(s):
                if f not in kept:
                    raise GuardError(
                        f"filtration order is not face-closed: stage {r} "
                        f"holds {s} but not its face {f}"
                    )
    simplices: dict[int, list[tuple]] = {p: [] for p in nerve.simplices}
    for s in keep:
        simplices[len(s) - 1].append(s)
    out = Nerve(simplices={p: sorted(v) for p, v in simplices.items()})
    out.weights = {s: nerve.weights[s] for s in keep}
    out.order = list(keep)
    out.index = {s: i + 1 for i, s in enumerate(keep)}
    out.perturbations = {s: v for s, v in nerve.perturbations.items() if s in kept}
    return out


def cut_base(
    dataset: BundleDataset,
    cover: Sequence[CoverSet],
    nerve: Nerve,
    r: int,
) -> tuple[list[CoverSet], list[tuple]]:
    """Shrink cover sets until the nerve equals the stage-``r`` subcomplex.

    Walks the filtration from the top down to stage ``r + 1``; for each
    simplex removed, its lexicographically last vertex gives up the
    samples in the simplex's overlap (they stay in the other vertices'
    sets).  Returns the modified cover and a log of
    ``(simplex, vertex, removed_ids)`` triples.
    """
    nerve.require_order()
    if not 0 <= r <= len(nerve):
        raise IndexOutOfRange(f"stage {r} outside 0..{len(nerve)}")
    members = {c.id: set(c.members) for c in cover}
    log: list[tuple] = []
    for s in reversed(nerve.order[r:]):
        shared = set(members[s[0]])
        for j in s[1:]:
            shared &= members[j]
        victim = max(s)
        removed = tuple(sorted(shared))
        members[victim] -= shared
        log.append((s, victim, removed))
    out = []
    for c in cover:
        new_members = frozenset(members[c.id])
        out.append(
            replace(
                c,
                members=new_members,
                clipped=c.clipped or (new_members != c.members),
            )
        )
    return out, log
