"""Optimal per-edge isometry witnesses and trivialization quality.

Given circle-valued charts over a cover, each edge of the nerve gets the
O(2) element that minimizes the worst-case chord misalignment between
the two charts on the shared samples (a minimax Procrustes problem on
the circle).  The per-edge fits assemble into a ``Witness``, a turn and
a sign per edge, whose holonomy defect, together with the chart
misalignment and the fiber coverage gap, quantifies how far the data is
from an exact bundle.

Charts are the cover's table of (set, sample) pairs (``nerve.Cover``),
sorted by set and then by sample, with a row-aligned ``(n, 2)`` column of
unit vectors and a column of their angles in turns.
``Trivialization.overlaps`` is the one intersection of chart domains: it
reads every overlap of a list of set tuples off the table's sample-major
transpose at once and returns the charts' angles there as CSR segments.
The witness, the quality report and the edge weights each make one call
per simplex dimension and run their per-overlap kernels (the minimax fit,
the coverage gap, the chord errors) on those angles; only ``projection``'s
chart means read the unit vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, pairwise
from typing import NamedTuple

import numpy as np

from .circle import enclosing_arcs, s1_angle, s1_point, segment_max, turn_chord
from .cochains import Witness, cocycle_defect
from .errors import (
    DiameterTooLarge,
    GuardError,
    ShapeMismatch,
    TooFewSamples,
)
from .nerve import Cover, Nerve, Pairs, _layout


# theory range for a valid witness; exceeding it degrades guarantees only
EPSILON_VALID = math.sqrt(2.0)


class Overlaps(NamedTuple):
    """Overlaps of a list of set tuples, as CSR segments.

    Segment ``i``, ``indptr[i]:indptr[i + 1]``, holds the samples that
    every set of tuple ``i`` contains, ids ascending.  Row ``p`` of
    ``turns`` holds the angles of the tuple's ``p``-th chart at those
    samples.
    """

    indptr: np.ndarray  # (k + 1,)
    ids: np.ndarray  # (n,)
    turns: np.ndarray  # (m, n)


def _subsets(sid: np.ndarray, order: np.ndarray, m: int):
    """Every m-subset of every sample's support, from the sample-major transpose.

    ``sid`` holds the pairs' samples in the transpose's ``order``, which
    runs by sample and then by set.  Returns each subset's sample rank and
    its pair positions, sets ascending, one support size at a time, and
    the number of distinct samples.
    """
    head = np.flatnonzero(np.r_[True, sid[1:] != sid[:-1]][:len(sid)])
    support = np.diff(np.r_[head, len(sid)])
    ranks, picks = [np.empty(0, np.int64)], [np.empty((0, m), np.int64)]
    for q in (np.flatnonzero(np.bincount(support)[m:]) + m).tolist():
        subsets = np.array(list(combinations(range(q), m)), dtype=np.int64)
        rank = np.flatnonzero(support == q)
        ranks.append(np.repeat(rank, len(subsets)))
        picks.append(order[(head[rank, None, None] + subsets).reshape(-1, m)])
    return np.concatenate(ranks), np.concatenate(picks), len(head)


def _shared_rows(charts: Pairs, want: np.ndarray):
    """Pair positions of the samples each tuple of charts shares.

    ``want`` holds one tuple of chart positions in ``charts.set_ids`` per
    row.  Returns the tuple of each hit and its pair positions, one column
    per chart, ordered by tuple and then sample.
    """
    m = want.shape[1]
    if not len(want):
        return np.empty(0, np.int64), np.empty((0, m), np.int64)
    dims = (len(charts.set_ids),) * m
    perm = np.argsort(want, axis=1, kind="stable")
    wkey = np.ravel_multi_index(tuple(np.take_along_axis(want, perm, axis=1).T), dims)
    by = np.argsort(wkey)
    wkey = wkey[by]
    if np.any(wkey[1:] == wkey[:-1]):
        raise ValueError("two tuples name the same sets")
    order = charts.by_sample
    rank, pick, samples = _subsets(charts.samples[order], order, m)
    key = np.ravel_multi_index(tuple(charts.slots[pick].T), dims)
    at = np.minimum(np.searchsorted(wkey, key), len(wkey) - 1)
    hit = np.flatnonzero(wkey[at] == key)
    which = by[at[hit]]
    del key, at  # incidence-sized: free them before the reorder
    o = np.argsort(which * samples + rank[hit])
    which, pick = which[o], pick[hit[o]]
    if np.any(perm != np.arange(m)):  # some tuple lists its sets out of order
        pick = np.take_along_axis(pick, np.argsort(perm, axis=1)[which], axis=1)
    return which, pick


@dataclass(frozen=True, eq=False, kw_only=True)
class Trivialization(Cover):
    """Circle-valued charts over a cover: its (set, sample) pairs with aligned chart values.

    Row i of ``points`` (unit 2-vectors) and ``turns`` (their angles in
    turns, in [0, 1)) is the value of chart ``sets[i]`` at ``samples[i]``,
    so a chart's domain is exactly its cover set's members, and whatever
    cuts or splits the cover (``select``, ``dataclasses.replace``) carries
    the values.  Angles are computed once, when the charts are built.
    Charts read from a trivs document alone have no geometry.

    ``overlaps(simplices)`` is the only intersection of chart domains.
    """

    points: np.ndarray
    turns: np.ndarray

    _columns = ("samples", "points", "turns")

    @classmethod
    def from_pairs(cls, ids, counts, samples, turns) -> "Trivialization":
        """Charts listed set by set, ids ascending: set ``ids[i]`` has ``counts[i]`` pairs.

        Raises ``ShapeMismatch`` when a chart repeats a sample id.
        """
        indptr, order = _layout(counts, samples)
        # reduced first: a huge finite turn must not overflow to a NaN point
        points = s1_point(turns[order] % 1.0)
        charts = cls(np.asarray(ids, np.int64), indptr, samples[order],
                     points=points, turns=s1_angle(points))
        if (twice := charts.first_repeat()) is not None:
            raise ShapeMismatch("chart {}: sample {} appears twice".format(*twice))
        return charts

    def overlaps(self, simplices) -> Overlaps:
        """Every overlap of ``simplices``, an ``(n, p)`` array of set ids (or n same-length tuples).

        Read off the charts' sample-major transpose: the sets a sample
        lies in are its support, and the tuples it lies in are the
        combinations of its support, enumerated once per support size.
        The sets of a tuple may come in any order, and row ``p`` of the
        result follows the tuple's order.  Raises ``KeyError`` for a set
        without a chart and ``ValueError`` when two tuples name the same
        sets.
        """
        simplices = np.asarray(simplices, dtype=np.int64)
        if not len(simplices):
            return Overlaps(np.zeros(1, np.int64), np.empty(0, np.int64), np.empty((0, 0)))
        lost = simplices[~np.isin(simplices, self.set_ids)]
        if lost.size:
            raise KeyError(int(lost.min()))
        which, pick = _shared_rows(self, np.searchsorted(self.set_ids, simplices))
        rows = pick.T
        indptr = np.r_[0, np.cumsum(np.bincount(which, minlength=len(simplices)))]
        return Overlaps(indptr, self.samples[rows[0]], self.turns[rows])

    def at(self, samples, sets):
        """Points and angles of samples in charts, elementwise.

        ``samples`` and ``sets`` broadcast against each other: ``at(s, [j, k])``
        gives sample ``s`` in charts ``j`` and ``k``, and an ``(n, 1)`` column
        of samples against ``(n, m)`` set ids gives every sample in each of
        its sets.  Returns points ``(..., 2)`` and turns ``(...)``.  Raises
        ``KeyError`` naming the lowest chart that lacks a sample.
        """
        samples, sets = np.broadcast_arrays(np.asarray(samples, dtype=np.int64), sets)
        pos = self.find(samples, sets)
        miss = pos < 0
        if miss.any():
            j = sets[miss].min()
            raise KeyError(f"chart {j} has no sample {samples[miss & (sets == j)][0]}")
        return self.points[pos], self.turns[pos]

    def chord_errors(self, witness: Witness):
        """Chord misalignment of each edge's first chart against the witness image of its second.

        Returns the overlaps of the witness's edges, the error at every
        shared sample in segment order, and each edge's mean error (0.0
        on an empty overlap).  A mean is ``np.mean`` of its segment, the
        same bits as on the edge's own array.
        """
        edges = witness.nerve.edges
        ov = self.overlaps(edges)
        if not len(edges):
            return ov, np.empty(0), np.empty(0)
        each = np.repeat(np.arange(len(edges)), np.diff(ov.indptr))
        errs = turn_chord(ov.turns[0] - (witness.turn[each] + witness.sign[each] * ov.turns[1]))
        means = [float(np.mean(errs[a:b])) if b > a else 0.0 for a, b in pairwise(ov.indptr)]
        return ov, errs, np.array(means)


@dataclass
class QualityReport:
    """Trivialization quality against a witness.

    ``epsilon`` is the worst chord misalignment over all edges and shared
    samples; ``delta`` the worst fiber-coverage gap over pairwise and
    triple overlaps (both flavors also reported separately);
    ``alpha = epsilon / (1 - delta)`` and ``cocycle_epsilon`` is the
    witness's holonomy defect.  ``edge_max`` and ``edge_mean``, aligned to
    the witness's edges, hold each edge's worst and mean chord error; the
    means are the filtration weights.
    """

    epsilon: float
    delta: float
    delta_pairwise: float
    delta_triple: float
    alpha: float
    cocycle_epsilon: float
    edge_max: np.ndarray
    edge_mean: np.ndarray


def procrustes_o2(alpha, beta, indptr):
    """Minimax alignment of two charts' angles on each segment of their shared samples.

    ``alpha`` and ``beta`` hold the two charts' angles in turns at the
    same samples, and rows ``indptr[i]:indptr[i + 1]`` form segment ``i``;
    every segment is fitted on its own in one pass.  Considers the
    rotation candidate built from the differences of angles and the
    reflection candidate built from their sums; for each, the turn is
    the midpoint of the shortest arc enclosing the residuals (the chord
    error is monotone in circular distance, so the midpoint is the
    minimax choice).  Returns the arrays ``(turns, signs, errors)``: per
    segment whichever candidate achieves the smaller actual max chord
    error, with that error; the rotation on a tie.  An arc whose largest
    gap is tied is no candidate: ties only happen at width >= 1/2, out
    of range anyway.

    Raises
    ------
    TooFewSamples
        A segment has fewer than two samples.
    DiameterTooLarge
        Both residual sets of a segment spread over half a circle or
        more, so neither enclosing-arc construction is valid.

    The error is that of the first failing segment, with ``index=(i,)``.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != beta.shape:
        raise ShapeMismatch("angle lists differ in shape")
    bounds = np.asarray(indptr, dtype=np.int64)
    counts = np.diff(bounds)
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
        i = int(bad[0])
        if counts[i] < 2:
            raise TooFewSamples(f"minimax alignment needs >= 2 samples, got {counts[i]}", index=(i,))
        raise DiameterTooLarge(
            "rotation and reflection residuals both spread over half a circle", index=(i,)
        )
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
    return turns, signs, errs


def assemble_witness(trivs: Trivialization, nerve: Nerve) -> Witness:
    """Minimax fits on every edge, assembled into a witness.

    One ``overlaps`` call gives every edge's shared samples and one
    segmented ``procrustes_o2`` call fits them all; a failure names the
    first failing edge in nerve order.  Edges whose minimax error
    reaches the validity threshold are logged as warnings, not rejected.
    """
    edges = nerve.edges
    if not len(edges):
        return Witness(nerve, np.empty(0), np.empty(0, np.int64))
    indptr, _, charts = trivs.overlaps(edges)
    try:
        turns, signs, errs = procrustes_o2(*charts, indptr)
    except GuardError as exc:
        i = exc.index[0]
        j, k = edges[i].tolist()
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


def coverage_gap(turns: np.ndarray, indptr) -> float:
    """Worst Hausdorff gap of the circular sample sets ``turns[indptr[i]:indptr[i + 1]]``.

    A set's gap is 2 sin(g/4), g its max gap, and 2 when it is empty; 0
    with no sets.  The gap grows with g, so it is the gap of the largest
    g of ``enclosing_arcs``.
    """
    turns = np.asarray(turns, dtype=float)
    gaps = enclosing_arcs(turns, indptr).max_gap
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
    max_errs = segment_max(errs, ov.indptr)
    eps = max(max_errs.tolist(), default=0.0)
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
        edge_max=max_errs,
        edge_mean=means,
    )
