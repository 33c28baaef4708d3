"""Optimal per-edge isometry witnesses and trivialization quality.

Given circle-valued charts over a cover, each edge of the nerve gets the
O(2) element that minimizes the worst-case chord misalignment between
the two charts on the shared samples (a minimax Procrustes problem on
the circle).  The per-edge fits assemble into a ``Witness``, a turn and
a sign per edge, whose holonomy defect, together with the chart
misalignment and the fiber coverage gap, quantifies how far the data is
from an exact bundle.

Charts are stored column-wise: each chart is a sorted int64 array of
sample ids with a row-aligned ``(n, 2)`` array of unit vectors and an
array of their angles in turns.  ``Trivialization.overlaps`` is the one
intersection of chart domains: it reads every overlap of a list of set
tuples off the (sample, set) incidence at once and returns them as CSR
segments.  The witness, the quality report and the edge weights each
make one call per simplex dimension and run their per-overlap kernels
(the minimax fit, the coverage gap, the chord errors) on the segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, pairwise
from typing import NamedTuple

import numpy as np

from .circle import TWO_PI, enclosing_arcs, s1_angle, segment_max, turn_chord
from .cochains import Witness, cocycle_defect
from .errors import (
    DiameterTooLarge,
    GuardError,
    ShapeMismatch,
    TooFewSamples,
)
from .nerve import Nerve


# theory range for a valid witness; exceeding it degrades guarantees only
EPSILON_VALID = math.sqrt(2.0)


class Chart(NamedTuple):
    """One chart as row-aligned columns."""

    ids: np.ndarray  # sorted, duplicate-free int64 sample ids
    points: np.ndarray  # (n, 2) unit vectors on the circle
    turns: np.ndarray  # (n,) their angles in turns, in [0, 1)


class Overlaps(NamedTuple):
    """Overlaps of a list of set tuples, as CSR segments.

    Segment ``i``, ``indptr[i]:indptr[i + 1]``, holds the samples that
    every set of tuple ``i`` contains, ids ascending.  Row ``p`` of
    ``points`` and ``turns`` holds the values of the tuple's ``p``-th
    chart at those samples.
    """

    indptr: np.ndarray  # (k + 1,)
    ids: np.ndarray  # (n,)
    points: np.ndarray  # (m, n, 2)
    turns: np.ndarray  # (m, n)


def _subsets(ids: np.ndarray, m: int):
    """Every m-subset of every sample's support, from concatenated chart ids.

    Charts are concatenated in set order, so a stable sort by sample is
    the lexsort by (sample, set).  Returns each subset's sample rank and
    its rows of the concatenation, sets ascending, one support size at a
    time, and the number of distinct samples.
    """
    order = np.argsort(ids, kind="stable")
    sid = ids[order]
    head = np.flatnonzero(np.r_[True, sid[1:] != sid[:-1]])
    support = np.diff(np.r_[head, len(sid)])
    ranks, picks = [np.empty(0, np.int64)], [np.empty((0, m), np.int64)]
    for q in (np.flatnonzero(np.bincount(support)[m:]) + m).tolist():
        subsets = np.array(list(combinations(range(q), m)), dtype=np.int64)
        rank = np.flatnonzero(support == q)
        ranks.append(np.repeat(rank, len(subsets)))
        picks.append(order[(head[rank, None, None] + subsets).reshape(-1, m)])
    return np.concatenate(ranks), np.concatenate(picks), len(head)


def _shared_rows(ids: np.ndarray, sizes: list, want: np.ndarray):
    """Rows of concatenated charts at the samples each tuple of charts shares.

    ``want`` holds one tuple of chart positions per row, ``sizes`` the
    charts' lengths.  Returns the tuple of each hit and its rows, one
    column per chart, ordered by tuple and then sample.
    """
    m = want.shape[1]
    dims = (len(sizes),) * m
    perm = np.argsort(want, axis=1, kind="stable")
    wkey = np.ravel_multi_index(tuple(np.take_along_axis(want, perm, axis=1).T), dims)
    by = np.argsort(wkey)
    wkey = wkey[by]
    if np.any(wkey[1:] == wkey[:-1]):
        raise ValueError("two tuples name the same sets")
    rank, pick, samples = _subsets(ids, m)
    slot = np.repeat(np.arange(len(sizes)), sizes)
    key = np.ravel_multi_index(tuple(slot[pick].T), dims)
    at = np.minimum(np.searchsorted(wkey, key), len(wkey) - 1)
    hit = np.flatnonzero(wkey[at] == key)
    which = by[at[hit]]
    del slot, key, at  # incidence-sized: free them before the reorder
    o = np.argsort(which * samples + rank[hit])
    which, pick = which[o], pick[hit[o]]
    if np.any(perm != np.arange(m)):  # some tuple lists its sets out of order
        pick = np.take_along_axis(pick, np.argsort(perm, axis=1)[which], axis=1)
    return which, pick


class Trivialization:
    """Circle-valued charts over a cover, one :class:`Chart` per cover set.

    ``charts`` maps a set id to (sample ids, ``(n, 2)`` points), ids in
    any order; a chart's domain is exactly its cover set's members.
    Angles are computed once, here, and ``restrict`` copies whole rows.

    ``overlaps(simplices)`` is the only intersection of chart domains.

    Raises ``ShapeMismatch`` when a point is not a 2-vector or a chart
    repeats a sample id.
    """

    def __init__(self, charts: dict):
        self._charts = {}
        for j, (ids, pts) in charts.items():
            ids = np.asarray(ids, dtype=np.int64).reshape(-1)
            pts = np.asarray(pts, dtype=float) if len(ids) else np.empty((0, 2))
            if pts.shape != (len(ids), 2):
                raise ShapeMismatch(f"chart {j}: need one 2-vector per sample")
            order = np.argsort(ids, kind="stable")
            ids, pts = ids[order], pts[order]
            dup = ids[1:][ids[1:] == ids[:-1]]
            if len(dup):
                raise ShapeMismatch(f"chart {j}: sample {dup[0]} appears twice")
            self._charts[j] = Chart(ids, pts, s1_angle(pts))

    @classmethod
    def from_turns(cls, tables: dict) -> "Trivialization":
        """Charts from angles in turns: ``set id -> (ids, turns)`` or ``{id: turn}``."""
        charts = {}
        for j, table in tables.items():
            if isinstance(table, dict):
                table = (list(table), list(table.values()))
            ids, turns = table
            # reduced first: a huge finite turn must not overflow to a NaN point
            t = TWO_PI * (np.asarray(turns, dtype=float) % 1.0)
            charts[j] = (ids, np.stack([np.cos(t), np.sin(t)], axis=-1))
        return cls(charts)

    def sets(self) -> list[int]:
        return sorted(self._charts)

    def chart(self, j) -> Chart:
        return self._charts[j]

    def overlaps(self, simplices) -> Overlaps:
        """Every overlap of ``simplices``, a list of same-length set tuples.

        Read off the (sample, set) incidence of the charts involved: the
        charts' concatenated columns, sorted by sample and then set, give
        every sample's support, and the tuples a sample lies in are the
        combinations of its support, enumerated once per support size.
        The sets of a tuple may come in any order, and row ``p`` of the
        result follows the tuple's order.  Raises ``KeyError`` for a set
        without a chart and ``ValueError`` when two tuples name the same
        sets.
        """
        simplices = list(simplices)
        if not simplices:
            return Overlaps(np.zeros(1, np.int64), np.empty(0, np.int64), np.empty((0, 0, 2)),
                            np.empty((0, 0)))
        sets = sorted({j for s in simplices for j in s})
        charts = [self._charts[j] for j in sets]
        slot_of = {j: i for i, j in enumerate(sets)}
        want = np.array([[slot_of[j] for j in s] for s in simplices], dtype=np.int64)
        ids = np.concatenate([c.ids for c in charts])
        which, pick = _shared_rows(ids, [len(c.ids) for c in charts], want)
        rows = pick.T
        indptr = np.r_[0, np.cumsum(np.bincount(which, minlength=len(simplices)))]
        points = np.concatenate([c.points for c in charts])[rows]
        return Overlaps(indptr, ids[rows[0]], points, np.concatenate([c.turns for c in charts])[rows])

    def at(self, samples, sets):
        """Points and angles of samples in charts, elementwise.

        ``samples`` and ``sets`` broadcast against each other: ``at(s, [j, k])``
        gives sample ``s`` in charts ``j`` and ``k``, and an ``(n, 1)`` column
        of samples against ``(n, m)`` set ids gives every sample in each of
        its sets.  Returns points ``(..., 2)`` and turns ``(...)``.
        """
        samples, sets = np.broadcast_arrays(np.asarray(samples, dtype=np.int64), sets)
        pts = np.empty(samples.shape + (2,))
        turns = np.empty(samples.shape)
        for j in sorted(set(sets.ravel().tolist())):
            here = sets == j
            c = self._charts[j]
            want = samples[here]
            r = np.minimum(c.ids.searchsorted(want), max(len(c.ids) - 1, 0))
            miss = c.ids[r] != want if len(c.ids) else np.ones(len(want), bool)
            if miss.any():
                raise KeyError(f"chart {j} has no sample {want[miss][0]}")
            pts[here] = c.points[r]
            turns[here] = c.turns[r]
        return pts, turns

    def restrict(self, domains: dict) -> "Trivialization":
        """Charts cut to new domains, ``new id -> (parent id, sample ids)``.

        A new chart keeps its parent's rows on those samples the parent
        holds; parents without a chart are skipped.
        """
        out = Trivialization({})
        for new, (j, members) in domains.items():
            c = self._charts.get(j)
            if c is not None:
                keep = np.isin(c.ids, np.fromiter(members, np.int64, len(members)))
                out._charts[new] = Chart(*(col[keep] for col in c))
        return out

    def chord_errors(self, witness: Witness):
        """Chord misalignment of each edge's first chart against the witness image of its second.

        Returns the overlaps of the witness's edges, the error at every
        shared sample in segment order, and each edge's mean error (0.0
        on an empty overlap).  A mean is ``np.mean`` of its segment, the
        same bits as on the edge's own array.
        """
        edges = witness.nerve.edges
        ov = self.overlaps(edges)
        if not edges:
            return ov, np.empty(0), []
        each = np.repeat(np.arange(len(edges)), np.diff(ov.indptr))
        errs = turn_chord(ov.turns[0] - (witness.turn[each] + witness.sign[each] * ov.turns[1]))
        means = [float(np.mean(errs[a:b])) if b > a else 0.0 for a, b in pairwise(ov.indptr)]
        return ov, errs, means


@dataclass
class EdgeQuality:
    """Alignment detail for one nerve edge under a given witness."""

    edge: tuple
    turn: float
    sign: int
    max_err: float
    mean_err: float  # the filtration weight


@dataclass
class QualityReport:
    """Trivialization quality against a witness.

    ``epsilon`` is the worst chord misalignment over all edges and shared
    samples; ``delta`` the worst fiber-coverage gap over pairwise and
    triple overlaps (both flavors also reported separately);
    ``alpha = epsilon / (1 - delta)`` and ``cocycle_epsilon`` is the
    witness's holonomy defect.
    """

    epsilon: float
    delta: float
    delta_pairwise: float
    delta_triple: float
    alpha: float
    cocycle_epsilon: float
    edges: list[EdgeQuality] = field(default_factory=list)


def _fit_failure(counts: np.ndarray, i: int) -> GuardError:
    """Why segment ``i`` of a minimax fit has no witness."""
    if counts[i] < 2:
        return TooFewSamples(f"minimax alignment needs >= 2 samples, got {counts[i]}", index=(i,))
    return DiameterTooLarge(
        "rotation and reflection residuals both spread over half a circle", index=(i,)
    )


def procrustes_o2(f_vals, g_vals, indptr=None):
    """Minimax alignment of two circle-valued sample lists, or of each segment of them.

    Considers the rotation candidate built from the differences of
    angles and the reflection candidate built from their sums; for each,
    the turn is the midpoint of the shortest arc enclosing the residuals
    (the chord error is monotone in circular distance, so the midpoint
    is the minimax choice).  Returns whichever candidate achieves the
    smaller actual max chord error, with that error; the rotation on a
    tie.  An arc whose largest gap is tied is no candidate: ties only
    happen at width >= 1/2, out of range anyway.

    Without ``indptr`` the lists are one segment and the result is the
    floats ``(turn, sign, error)``.  With it, rows ``indptr[i]:indptr[i + 1]`` form
    segment ``i``, every segment is fitted on its own in one pass, and
    the result is the arrays ``(turns, signs, errors)``.

    Raises
    ------
    TooFewSamples
        Fewer than two samples.
    DiameterTooLarge
        Both residual sets spread over half a circle or more, so neither
        enclosing-arc construction is valid.

    For segments, the error is that of the first failing segment, with
    ``index=(i,)``.
    """
    f_vals = np.atleast_2d(np.asarray(f_vals, dtype=float))
    g_vals = np.atleast_2d(np.asarray(g_vals, dtype=float))
    if f_vals.shape != g_vals.shape:
        raise ShapeMismatch("sample lists differ in shape")
    bounds = np.asarray([0, len(f_vals)] if indptr is None else indptr, dtype=np.int64)
    counts = np.diff(bounds)
    if indptr is None and counts[0] < 2:
        raise _fit_failure(counts, 0)  # before the angles: a short list need not hold 2-vectors
    alpha = s1_angle(f_vals)
    beta = s1_angle(g_vals)
    fits = []
    for combine in (np.subtract, np.add):
        resid = combine(alpha, beta) % 1.0
        arcs = enclosing_arcs(resid, bounds)
        valid = (arcs.ties == 1) & (arcs.width < 0.5)
        err = segment_max(turn_chord(resid - np.repeat(arcs.midpoint, counts)), bounds)
        fits.append((arcs.midpoint, valid, err))
    (t_rot, ok_rot, e_rot), (t_ref, ok_ref, e_ref) = fits
    bad = np.flatnonzero((counts < 2) | ~(ok_rot | ok_ref))
    if bad.size:
        raise _fit_failure(counts, int(bad[0]))
    ties = np.count_nonzero(ok_rot & ok_ref & (e_rot == e_ref))
    if ties:
        import logging  # loaded only where a tie is logged

        for _ in range(ties):
            logging.getLogger(__name__).info(
                "procrustes tie between components; returning the rotation")
    reflect = ok_ref & ~(ok_rot & (e_rot <= e_ref))
    turns = np.where(reflect, t_ref, t_rot)
    signs = np.where(reflect, -1, 1)
    errs = np.where(reflect, e_ref, e_rot)
    if indptr is None:
        return float(turns[0]), int(signs[0]), float(errs[0])
    return turns, signs, errs


def assemble_witness(trivs: Trivialization, nerve: Nerve) -> Witness:
    """Minimax fits on every edge, assembled into a witness.

    One ``overlaps`` call gives every edge's shared samples and one
    segmented ``procrustes_o2`` call fits them all; a failure names the
    first failing edge in nerve order.  Edges whose minimax error
    reaches the validity threshold are logged as warnings, not rejected.
    """
    edges = nerve.edges
    if not edges:
        return Witness(nerve, np.empty(0), np.empty(0, np.int64))
    indptr, _, points, _ = trivs.overlaps(edges)
    try:
        turns, signs, errs = procrustes_o2(*points, indptr)
    except GuardError as exc:
        i = exc.index[0]
        j, k = edges[i]
        if isinstance(exc, TooFewSamples):
            n = indptr[i + 1] - indptr[i]
            raise TooFewSamples(f"edge ({j}, {k}): {n} shared samples") from exc
        raise type(exc)(f"edge ({j}, {k}): {exc}") from exc
    worst = max(errs.tolist())
    if worst >= EPSILON_VALID:
        import logging  # loaded only where a warning is logged

        logging.getLogger(__name__).warning(
            "witness misalignment %.3f exceeds the validity threshold %.3f",
            worst,
            EPSILON_VALID,
        )
    return Witness(nerve, turns, signs)


def coverage_gap(turns: np.ndarray, indptr=None) -> float:
    """Hausdorff gap of a circular sample set: 2 sin(g/4), g the max gap; 2 when empty.

    With ``indptr``, the worst gap over the segments
    ``turns[indptr[i]:indptr[i + 1]]``, 0 with none: the gap grows with
    g, so it is the gap of the largest g of ``enclosing_arcs``.
    """
    turns = np.asarray(turns, dtype=float)
    gaps = enclosing_arcs(turns, [0, len(turns)] if indptr is None else indptr).max_gap
    if not len(gaps):
        return 0.0
    g = float(np.max(gaps)) * 2.0 * np.pi
    return 2.0 * math.sin(g / 4.0)


def _worst_coverage(ov: Overlaps) -> float:
    """Worst coverage gap over every chart of every overlap."""
    return max((coverage_gap(turns, ov.indptr) for turns in ov.turns), default=0.0)


def triv_quality(trivs: Trivialization, witness: Witness, nerve: Nerve) -> QualityReport:
    """Misalignment, coverage, and cocycle-defect summary of charts.

    The coverage gap is evaluated for every chart of every pairwise and
    triple overlap; the reported delta is the worse of the two flavors.
    """
    # triangles first, so that their overlaps are freed before the edges' are built
    d_triple = _worst_coverage(trivs.overlaps(nerve.triangles))
    ov, errs, means = trivs.chord_errors(witness)
    max_errs = segment_max(errs, ov.indptr).tolist()
    edge_rows = list(map(EdgeQuality, witness.nerve.edges, witness.turn.tolist(),
                         witness.sign.tolist(), max_errs, means))
    eps = max(max_errs, default=0.0)
    d_pair = _worst_coverage(ov)
    delta = max(d_pair, d_triple)
    alpha = math.inf if delta >= 1.0 else eps / (1.0 - delta)
    return QualityReport(
        epsilon=eps,
        delta=delta,
        delta_pairwise=d_pair,
        delta_triple=d_triple,
        alpha=alpha,
        cocycle_epsilon=cocycle_defect(witness),
        edges=edge_rows,
    )
