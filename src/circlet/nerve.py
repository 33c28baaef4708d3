"""Covers of a sampled base space, their nerve, and the weights filtration.

A cover is one table of (set, sample) pairs in CSR form (``Pairs``, after
Saad's compressed sparse rows): ascending set ids, an ``indptr`` over
them, and the int64 samples sorted by set and then by sample, with the
per-set geometry (center, radius) that produced it.  Charts are the same
table with a value column per pair (``witness.Trivialization``).  The
nerve collects every tuple of cover sets whose members intersect, up to
3-simplices, which is all the downstream boundary matrices consume; it is
read off the table's sample-major transpose, each sample's support being
the sets that hold it.

The nerve is arrays (``Nerve``): per dimension p a ``(k, p + 1)`` int64
array of vertex rows in lex order, with weights, tie-break offsets and
filtration stages aligned to it, and facet positions built once per
nerve and dimension.  ``nerve.json`` lists weight and offset rows in
tuple lex order across dimensions, ``[0], [0, 1], [0, 1, 2], [0, 1, 3],
[0, 2], ...``, and derives its ``order`` from the stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmptyOverlap, GuardError, IndexOutOfRange, ShapeMismatch

if TYPE_CHECKING:  # pragma: no cover
    from .cochains import Witness
    from .witness import Trivialization

BASE_KINDS = ("circle", "sphere", "projective_plane", "abstract")

# distinct simplex weights closer than this count as an exact tie
TIE_STEP = 1e-15


def ascending(ids: np.ndarray) -> tuple[np.ndarray, int | None]:
    """The stable order sorting int ``ids``, and the id whose second listing is first, or None."""
    by = np.argsort(ids, kind="stable")
    again = by[1:][ids[by][1:] == ids[by][:-1]]  # stable: every later listing of an id
    return by, int(ids[again.min()]) if again.size else None


@dataclass
class BundleDataset:
    """Samples with their base-space projections.

    Attributes
    ----------
    ids : ndarray of shape (n,)
        Distinct int64 sample ids in storage order: row i of ``base`` is
        sample ``ids[i]``.  A repeated id is a ``ValueError`` naming the
        id whose second listing comes first.
    base : ndarray of shape (n, k)
        Base point of each sample: unit 2-vectors on the circle, unit
        3-vectors on the sphere and the projective plane (antipodal pairs
        identified), empty for abstract bases.
    kind : str
        One of "circle", "sphere", "projective_plane", "abstract".
    distances : ndarray of shape (n, n), optional
        Explicit base distance table; required when kind is "abstract".
    """

    ids: np.ndarray
    base: np.ndarray
    kind: str
    distances: np.ndarray | None = None

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64).reshape(-1)
        if (again := ascending(self.ids)[1]) is not None:
            raise ValueError(f"duplicate id: {again}")
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

    def __len__(self) -> int:
        return len(self.ids)


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


def _cat(arrays, dtype=np.int64) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype), *arrays])


def _layout(counts, samples) -> tuple:
    """The ``indptr`` of pairs listed set by set, sets ascending, and the order that sorts each set.

    ``counts[i]`` samples of ``samples`` belong to the i-th set.
    """
    indptr = np.r_[0, np.cumsum(counts, dtype=np.int64)]
    return indptr, np.lexsort((samples, np.repeat(np.arange(len(counts)), counts)))


@dataclass(frozen=True, eq=False)
class Pairs:
    """(set, sample) pairs in CSR form: set ``set_ids[i]`` holds ``samples[indptr[i]:indptr[i+1]]``.

    ``set_ids`` ascend and so do the samples of each set, so the pairs run
    by set and then by sample; a set may hold no samples.  ``sets`` gives
    the set of every pair, ``by_sample`` the sample-major transpose, and
    ``find`` locates pairs by their (set, sample) rows.
    """

    set_ids: np.ndarray
    indptr: np.ndarray
    samples: np.ndarray

    _columns = ("samples",)  # the fields aligned to the pairs

    @cached_property
    def slots(self) -> np.ndarray:
        """The position in ``set_ids`` of every pair's set."""
        return np.repeat(np.arange(len(self.set_ids)), np.diff(self.indptr))

    @cached_property
    def sets(self) -> np.ndarray:
        return self.set_ids[self.slots]

    @cached_property
    def by_sample(self) -> np.ndarray:
        """Positions of the pairs sorted by sample and then by set."""
        return np.argsort(self.samples, kind="stable")

    @cached_property
    def _keys(self) -> tuple:
        """The distinct samples, and every pair's ascending key ``slot * len(distinct) + rank``."""
        distinct, rank = np.unique(self.samples, return_inverse=True)
        return distinct, self.slots * len(distinct) + rank.reshape(-1)

    def find(self, samples, sets) -> np.ndarray:
        """Position of each (sample, set) pair, -1 where the table has none; arguments broadcast.

        One ``searchsorted`` of the queries' keys; a query whose set or
        sample the table lacks lands on some pair that differs from it.
        """
        samples, sets = np.broadcast_arrays(np.asarray(samples, np.int64),
                                            np.asarray(sets, np.int64))
        distinct, keys = self._keys
        if not len(keys):
            return np.full(samples.shape, -1)
        key = np.searchsorted(self.set_ids, sets) * len(distinct)
        key += np.searchsorted(distinct, samples)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return np.where((self.samples[at] == samples) & (self.sets[at] == sets), at, -1)

    def first_repeat(self) -> tuple | None:
        """The (set id, sample) of the first pair listed twice, or None."""
        i = np.flatnonzero((np.diff(self.samples) == 0) & (np.diff(self.slots) == 0))
        return (int(self.sets[i[0]]), int(self.samples[i[0]])) if i.size else None

    def select(self, keep: np.ndarray):
        """The pairs where ``keep`` holds, under the same set ids."""
        counts = np.bincount(self.slots[keep], minlength=len(self.set_ids))
        return replace(self, indptr=np.r_[0, np.cumsum(counts)],
                       **{name: getattr(self, name)[keep] for name in self._columns})


@dataclass(frozen=True, eq=False)
class Cover(Pairs):
    """A cover of the samples as (set, sample) pairs, with optional per-set geometry.

    ``center`` is ``(k, d)`` and ``radius`` ``(k,)``, aligned to ``set_ids``,
    NaN for a set without one, None when no set has one; ``clipped`` marks
    the sets a filtration cut removed members from.
    """

    center: np.ndarray | None = None
    radius: np.ndarray | None = None
    clipped: np.ndarray | None = None

    def __post_init__(self):
        if self.clipped is None:
            object.__setattr__(self, "clipped", np.zeros(len(self.set_ids), bool))

    @classmethod
    def of(cls, members: dict, center=None, radius=None, clipped=None) -> "Cover":
        """A cover from ``{set id: sample ids}``, with geometry aligned to the ascending set ids."""
        ids = sorted(members)
        lists = [np.fromiter(members[j], np.int64) for j in ids]
        samples = _cat(lists)
        indptr, order = _layout(list(map(len, lists)), samples)
        k = len(ids)
        return cls(np.array(ids, np.int64), indptr, samples[order],
                   None if center is None else np.asarray(center, dtype=float).reshape(k, -1),
                   None if radius is None else np.broadcast_to(np.asarray(radius, float), k),
                   None if clipped is None else np.asarray(clipped, bool))


@dataclass(frozen=True, eq=False)
class Nerve:
    """Simplices of a cover's nerve as arrays, with weights and a filtration order.

    ``simplices[p]`` is a read-only ``(k, p + 1)`` int64 array, one row of
    ascending vertex ids per p-simplex, rows in lex order; every dimension
    from 0 to the top one (at least 3) is present, possibly empty.
    Aligned to it are ``weights[p]``, the raw alignment weights (zero
    until filled), and ``perturbations[p]``, the tie-breaking offsets
    ``filtration_order`` adds to make weights distinct (zero where there
    is none).  After ``filtration_order`` runs, ``stage[p]`` holds each
    simplex's 1-based position in the filtration; before, ``stage`` is
    None.  Every p-cochain is an array aligned to ``simplices[p]``, and
    ``facet_positions`` locates faces by position, built once per
    dimension.  The nerve is frozen and its simplices read-only, so the
    copies ``simplex_weights``, ``filtration_order`` and
    ``stage_subcomplex`` make hand the built positions on.  Written out,
    the weight and offset rows follow tuple lex order across dimensions,
    not this dimension-major layout (see ``io.nerve_doc``).
    """

    simplices: dict
    weights: dict | None = None
    perturbations: dict | None = None
    stage: dict | None = None
    _facets: dict = field(default_factory=dict, repr=False)  # facet positions by dimension

    def __post_init__(self):
        given = self.simplices
        simplices = {p: np.asarray(given.get(p, ()), dtype=np.int64).reshape(-1, p + 1)
                     for p in range(max([3, *given]) + 1)}
        for a in simplices.values():
            a.flags.writeable = False
        object.__setattr__(self, "simplices", simplices)
        for name in ("weights", "perturbations"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, {p: np.zeros(len(s)) for p, s in simplices.items()})

    def __len__(self) -> int:
        return sum(map(len, self.simplices.values()))

    @property
    def vertices(self) -> np.ndarray:
        return self.simplices[0]

    @property
    def edges(self) -> np.ndarray:
        return self.simplices[1]

    @property
    def triangles(self) -> np.ndarray:
        return self.simplices[2]

    def stage_index(self, p: int) -> np.ndarray:
        """Filtration index of each p-simplex; its stable argsort is filtration order.

        Without an order the p-simplices count 1, 2, ... in lex order.
        """
        return self.stage[p] if self.stage is not None else np.arange(1, len(self.simplices[p]) + 1)

    def stage_weights(self) -> np.ndarray:
        """The effective weight, raw weight plus offset, of stages 1, 2, ... in turn."""
        self.require_order()
        out = np.empty(len(self))
        for p, stage in self.stage.items():
            out[stage - 1] = self.weights[p] + self.perturbations[p]
        return out

    def facet_positions(self, q: int) -> np.ndarray:
        """Positions among the (q-1)-simplices of each q-simplex's facets, ``(n, q + 1)``.

        Column ``i`` is the facet without vertex ``i``.  Built once per
        nerve and dimension.
        """
        if q not in self._facets:
            self._facets[q] = _facet_positions(self, q)
        return self._facets[q]

    def require_order(self):
        if self.stage is None:
            raise ValueError("nerve has no filtration order yet; run filtration_order")


def _lex(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lex order of int rows, and along it the index of each row's distinct value."""
    order = np.lexsort(rows.T[::-1])
    step = (rows[order][1:] != rows[order][:-1]).any(axis=1)
    return order, np.cumsum(np.r_[False, step][:len(order)])


def distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of an int array, in lex order."""
    order, value = _lex(rows)
    return rows[order][np.diff(value, prepend=-1) > 0]


def lookup(table: np.ndarray, rows) -> np.ndarray:
    """Position of each of ``rows`` in ``table`` (the first, if repeated), -1 where absent."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, table.shape[1])
    order, value = _lex(np.concatenate([table, rows]))
    at = np.full(len(order) + 1, -1)
    mine = order < len(table)
    at[value[mine][::-1]] = order[mine][::-1]  # the first of equal rows writes last
    inv = np.empty(len(order), np.int64)
    inv[order] = value
    return at[inv[len(table):]]


def _facet_positions(nerve: Nerve, q: int) -> np.ndarray:
    drop = [[j for j in range(q + 1) if j != i] for i in range(q + 1)]  # column i drops vertex i
    return lookup(nerve.simplices[q - 1], nerve.simplices[q][:, drop]).reshape(-1, q + 1)


def build_nerve(cover: Cover) -> Nerve:
    """Nerve of a cover up to tetrahedra: tuples of set ids with a common sample.

    A tuple of sets is a simplex exactly when some sample lies in every
    one of them.  So the p-simplices are the distinct (p+1)-subsets of
    the samples' supports, the ascending ids of the sets that hold each
    sample, which the cover's sample-major transpose lists sample by
    sample: per support size, the distinct supports take every column
    combination at once.  Weights are left at zero.
    """
    at = cover.by_sample
    sample, held = cover.samples[at], cover.sets[at]
    start = np.flatnonzero(np.r_[True, sample[1:] != sample[:-1]][:len(at)])
    size = np.diff(np.r_[start, len(at)])
    simplices = {p: [np.empty((0, p + 1), np.int64)] for p in range(4)}
    for m in sorted(set(size.tolist())):
        supports = distinct_rows(held[start[size == m, None] + np.arange(m)])
        for p in range(min(m, 4)):
            cols = list(combinations(range(m), p + 1))
            simplices[p].append(supports[:, cols].reshape(-1, p + 1))
    return Nerve({p: distinct_rows(np.concatenate(v)) for p, v in simplices.items()})


def edge_weights(nerve: Nerve, trivs: "Trivialization", witness: "Witness") -> Nerve:
    """Fill simplex weights from the misalignment of a witness on this nerve.

    The weight of an edge is the mean chord error between one chart and
    the witness image of the other, over the samples they share; the
    other simplices follow ``simplex_weights``.
    """
    ov, _, means = trivs.chord_errors(witness)
    empty = np.flatnonzero(np.diff(ov.indptr) == 0)
    if empty.size:
        j, k = nerve.edges[empty[0]].tolist()
        raise EmptyOverlap(f"edge ({j}, {k}) has no shared samples")
    return simplex_weights(nerve, means)


def simplex_weights(nerve: Nerve, edge_means) -> Nerve:
    """A copy of the nerve weighted by its edges' mean chord errors, aligned to its edges.

    Higher simplices inherit the max over their facets; vertices stay at zero.
    """
    weights = {0: np.zeros(len(nerve.vertices)), 1: np.array(edge_means, dtype=float)}
    for p in sorted(nerve.simplices)[2:]:
        weights[p] = weights[p - 1][nerve.facet_positions(p)].max(axis=1)
    return replace(nerve, weights=weights, perturbations=None, stage=None)


def filtration_order(nerve: Nerve) -> Nerve:
    """Total order by (weight, dimension, lex), with recorded tie breaks.

    The nerve's simplices, listed dimension by dimension in lex order,
    take one stable argsort by weight.  Exact weight ties among
    positive-dimensional simplices are perturbed by k * 1e-15 in order
    position (k = 0, 1, ... within the tie block) so that reported stage
    weights are distinct; vertices keep weight zero.  A block whose last
    offset would reach the next weight spreads its offsets evenly below
    it, ``(above - w) / size``, so effective weights never decrease.
    Faces always precede cofaces because facet weights never exceed the
    coface's.
    """
    dims = list(nerve.simplices)
    w = np.concatenate([nerve.weights[p] for p in dims])
    dim = np.repeat(dims, [len(nerve.simplices[p]) for p in dims])
    order = np.argsort(w, kind="stable")
    ws = w[order]
    first = np.flatnonzero(np.r_[True, ws[1:] != ws[:-1]])  # where each tie block starts
    size = np.diff(np.r_[first, len(ws)])
    low, above = ws[first], np.r_[ws[first[1:]], np.inf]
    step = np.where(low + (size - 1) * TIE_STEP < above, TIE_STEP, (above - low) / size)
    block = np.repeat(np.arange(len(first)), size)
    offset, stage = np.zeros(len(w)), np.empty(len(w), np.int64)
    offset[order] = np.where(dim[order] > 0, (np.arange(len(ws)) - first[block]) * step[block], 0.0)
    stage[order] = np.arange(1, len(w) + 1)
    split = np.cumsum([len(nerve.simplices[p]) for p in dims])[:-1]
    return replace(nerve, weights={p: a.copy() for p, a in nerve.weights.items()},
                   perturbations=dict(zip(dims, np.split(offset, split))),
                   stage=dict(zip(dims, np.split(stage, split))))


def stage_subcomplex(nerve: Nerve, r: int) -> Nerve:
    """The first ``r`` simplices in filtration order, a closed subcomplex."""
    nerve.require_order()
    if not 1 <= r <= len(nerve):
        raise IndexOutOfRange(f"stage {r} outside 1..{len(nerve)}")
    keep = {p: stage <= r for p, stage in nerve.stage.items()}
    late = [(nerve.stage[p][i], p, i) for p in list(keep)[1:] for i in np.flatnonzero(
        keep[p] & ~keep[p - 1][nerve.facet_positions(p)].all(axis=1)).tolist()]
    if late:
        _, p, i = min(late)
        s = nerve.simplices[p][i]
        f = np.delete(s, np.argmin(keep[p - 1][nerve.facet_positions(p)[i]]))
        raise GuardError(f"filtration order is not face-closed: stage {r} "
                         f"holds {tuple(s.tolist())} but not its face {tuple(f.tolist())}")
    at = {p: np.cumsum(k) - 1 for p, k in keep.items()}  # new position of each kept simplex
    return Nerve(*({p: a[p][keep[p]] for p in keep} for a in (
        nerve.simplices, nerve.weights, nerve.perturbations, nerve.stage)),
        {q: at[q - 1][pos[keep[q]]] for q, pos in nerve._facets.items()})


def cut_base(dataset: BundleDataset, cover: Cover, nerve: Nerve, r: int) -> tuple[Cover, list]:
    """Shrink cover sets until the nerve equals the stage-``r`` subcomplex.

    Walks the filtration from the top down to stage ``r + 1``; for each
    simplex removed, its lexicographically last vertex gives up the
    samples in the simplex's overlap (they stay in the other vertices'
    sets).  The walk runs on the set-by-sample incidence of the pairs.
    Returns the cut cover, its sets marked clipped where they lost
    members, and a log of ``(simplex, vertex, removed_ids)`` triples.
    """
    nerve.require_order()
    if not 0 <= r <= len(nerve):
        raise IndexOutOfRange(f"stage {r} outside 0..{len(nerve)}")
    universe, column = np.unique(cover.samples, return_inverse=True)
    inc = np.zeros((len(cover.set_ids), len(universe)), bool)
    inc[cover.slots, column] = True
    log: list[tuple] = []
    later = sorted((i, tuple(s)) for p, stage in nerve.stage.items()
                   for i, s in zip(stage.tolist(), nerve.simplices[p].tolist()) if i > r)
    for _, s in reversed(later):
        rows = np.searchsorted(cover.set_ids, s)
        shared = inc[rows].all(axis=0)
        inc[rows[-1]] &= ~shared  # the last vertex is the largest id
        log.append((s, s[-1], tuple(universe[shared].tolist())))
    cut = cover.select(inc[cover.slots, column])
    return replace(cut, clipped=cover.clipped | (np.diff(cut.indptr) < np.diff(cover.indptr))), log
